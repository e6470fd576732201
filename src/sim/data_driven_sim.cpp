#include "sim/data_driven_sim.hpp"

#include <algorithm>
#include <array>
#include <queue>

#include "support/check.hpp"
#include "support/rng.hpp"
#include "sweep/stream_codec.hpp"
#include "trace/trace.hpp"

namespace jsweep::sim {

namespace {

/// Wire bytes per interface face: one stream record of a one-group program.
const double kFaceBytes = static_cast<double>(sweep::record_size(1));

/// Representative direction of an octant (its diagonal).
mesh::Vec3 octant_dir(int oct) {
  const double s = 1.0 / std::sqrt(3.0);
  return {(oct & 1) ? -s : s, (oct & 2) ? -s : s, (oct & 4) ? -s : s};
}

}  // namespace

struct DataDrivenSim::Prepared {
  std::int32_t num_patches = 0;
  int num_angles = 0;
  int num_groups = 1;
  std::int64_t num_programs = 0;
  std::int64_t group_span = 0;  ///< upwind slots per group (angle_base[A])

  std::vector<std::int32_t> proc_of;   ///< per patch
  std::vector<std::int32_t> nchunks;   ///< per patch (capped)
  std::vector<std::int64_t> chunk_cells_last;  ///< cells in final chunk
  std::vector<double> fold;  ///< true executions per simulated chunk
  int grain_eff = 0;         ///< grain used for curve extraction

  std::array<TransferCurves, 8> curves;
  std::array<std::vector<double>, 8> patch_prio;

  /// Upwind-slot bookkeeping: per (octant, patch) prefix offsets into the
  /// per-angle avail array; angle_base[a] shifts by whole octant blocks.
  std::array<std::vector<std::int64_t>, 8> up_prefix;  ///< size P+1 each
  std::vector<std::int64_t> angle_base;                ///< size A+1

  /// Lag model: slots (parallel to the avail array) whose dependence is
  /// cut — they never gate readiness. Empty when lagged_fraction == 0.
  std::vector<char> lagged;
  std::int64_t num_lagged = 0;

  [[nodiscard]] bool slot_lagged(std::int64_t slot) const {
    return !lagged.empty() && lagged[static_cast<std::size_t>(slot)] != 0;
  }

  [[nodiscard]] std::int64_t prog_id(int g, int a, std::int32_t p) const {
    return (static_cast<std::int64_t>(g) * num_angles + a) * num_patches + p;
  }
  [[nodiscard]] std::int32_t patch_of(std::int64_t prog) const {
    return static_cast<std::int32_t>(prog % num_patches);
  }
  [[nodiscard]] int angle_of(std::int64_t prog) const {
    return static_cast<int>((prog / num_patches) % num_angles);
  }
  [[nodiscard]] int group_of(std::int64_t prog) const {
    return static_cast<int>(prog / (static_cast<std::int64_t>(num_patches) *
                                    num_angles));
  }
  /// Index into the (group-replicated) avail array. The lag-model flags
  /// stay per (angle, patch, slot) — a direction's cut is the same for
  /// every group — so lag lookups use the group-0 base.
  [[nodiscard]] std::int64_t avail_base(int g, int a, std::int32_t p,
                                        int oct) const {
    return static_cast<std::int64_t>(g) * group_span +
           angle_base[static_cast<std::size_t>(a)] +
           up_prefix[static_cast<std::size_t>(oct)]
                    [static_cast<std::size_t>(p)];
  }
};

DataDrivenSim::DataDrivenSim(const PatchTopology& topo,
                             const sn::Quadrature& quad, SimConfig config)
    : topo_(topo), quad_(quad), config_(config) {
  JSWEEP_CHECK(config_.processes >= 1 && config_.workers_per_process >= 1);
  JSWEEP_CHECK(config_.cluster_grain >= 1);
  JSWEEP_CHECK(config_.groups >= 1);
}

SimResult DataDrivenSim::run() {
  Prepared prep;
  prep.num_patches = topo_.num_patches();
  prep.num_angles = quad_.num_angles();
  prep.num_groups = config_.groups;
  prep.num_programs = static_cast<std::int64_t>(prep.num_groups) *
                      prep.num_angles * prep.num_patches;
  prep.proc_of = assign_processes(topo_, config_.processes);

  prep.nchunks.resize(static_cast<std::size_t>(prep.num_patches));
  prep.chunk_cells_last.resize(static_cast<std::size_t>(prep.num_patches));
  prep.fold.resize(static_cast<std::size_t>(prep.num_patches));
  std::int64_t max_cells = 1;
  for (std::int32_t p = 0; p < prep.num_patches; ++p) {
    const std::int64_t cells = topo_.cells(p);
    max_cells = std::max(max_cells, cells);
    const auto true_chunks = std::max<std::int64_t>(
        1, (cells + config_.cluster_grain - 1) / config_.cluster_grain);
    const auto n = static_cast<std::int32_t>(
        std::min<std::int64_t>(true_chunks, config_.max_chunks_per_program));
    prep.nchunks[static_cast<std::size_t>(p)] = n;
    prep.fold[static_cast<std::size_t>(p)] =
        static_cast<double>(true_chunks) / n;
    const std::int64_t grain_sim = (cells + n - 1) / n;
    prep.chunk_cells_last[static_cast<std::size_t>(p)] =
        cells - grain_sim * (n - 1);
  }
  // Effective grain for curve extraction: the representative patch should
  // produce roughly max_chunks curves when the cap binds.
  prep.grain_eff = std::max<int>(
      config_.cluster_grain,
      static_cast<int>((max_cells + config_.max_chunks_per_program - 1) /
                       config_.max_chunks_per_program));

  // Transfer curves and patch priorities per octant.
  for (int oct = 0; oct < 8; ++oct) {
    const mesh::Vec3 dir = octant_dir(oct);
    prep.curves[static_cast<std::size_t>(oct)] =
        config_.tet_mesh
            ? extract_curves_tet(config_.rep_block_hexes, dir,
                                 config_.vertex_priority, prep.grain_eff)
            : extract_curves_structured(config_.rep_patch_dims, dir,
                                        config_.vertex_priority,
                                        prep.grain_eff);
    // Patch-level digraph for this octant.
    std::vector<std::pair<std::int32_t, std::int32_t>> edges;
    for (std::int32_t p = 0; p < prep.num_patches; ++p)
      topo_.for_downwind(p, dir, [&](const PatchNeighbor& nb) {
        edges.emplace_back(p, nb.patch);
      });
    const graph::Digraph pg(prep.num_patches, edges);
    prep.patch_prio[static_cast<std::size_t>(oct)] =
        graph::patch_priorities(config_.patch_priority, pg);
  }

  // Upwind slot prefixes.
  for (int oct = 0; oct < 8; ++oct) {
    auto& prefix = prep.up_prefix[static_cast<std::size_t>(oct)];
    prefix.assign(static_cast<std::size_t>(prep.num_patches) + 1, 0);
    const mesh::Vec3 dir = octant_dir(oct);
    for (std::int32_t p = 0; p < prep.num_patches; ++p) {
      std::int64_t count = 0;
      topo_.for_upwind(p, dir, [&](const PatchNeighbor&) { ++count; });
      prefix[static_cast<std::size_t>(p) + 1] =
          prefix[static_cast<std::size_t>(p)] + count;
    }
  }
  prep.angle_base.assign(static_cast<std::size_t>(prep.num_angles) + 1, 0);
  for (int a = 0; a < prep.num_angles; ++a) {
    const int oct = quad_.angle(a).octant;
    prep.angle_base[static_cast<std::size_t>(a) + 1] =
        prep.angle_base[static_cast<std::size_t>(a)] +
        prep.up_prefix[static_cast<std::size_t>(oct)]
                      [static_cast<std::size_t>(prep.num_patches)];
  }
  prep.group_span =
      prep.angle_base[static_cast<std::size_t>(prep.num_angles)];

  // Lag model: deterministically mark cut dependence slots.
  if (config_.lagged_fraction > 0.0) {
    JSWEEP_CHECK(config_.lagged_fraction <= 1.0);
    Rng rng(config_.lag_seed);
    prep.lagged.assign(
        static_cast<std::size_t>(
            prep.angle_base[static_cast<std::size_t>(prep.num_angles)]),
        0);
    for (auto& flag : prep.lagged)
      if (rng.chance(config_.lagged_fraction)) {
        flag = 1;
        ++prep.num_lagged;
      }
  }

  return config_.engine == SimEngine::DataDriven ? run_data_driven(prep)
                                                 : run_bsp(prep);
}

// ---------------------------------------------------------------------------
// Data-driven event simulation
// ---------------------------------------------------------------------------

namespace {

struct Event {
  double t;
  std::uint64_t seq;
  enum Kind : int { kChunkDone, kDepArrive, kGroupOpen } kind;
  std::int64_t prog;
  std::int32_t a1;  ///< ChunkDone: chunk index; DepArrive: upwind patch
  std::int32_t a2;  ///< DepArrive: upwind completed chunk
  std::int32_t worker = 0;  ///< ChunkDone: worker running the chunk

  bool operator>(const Event& o) const {
    if (t != o.t) return t > o.t;
    return seq > o.seq;
  }
};

struct ReadyEntry {
  double priority;
  std::uint64_t seq;
  std::int64_t prog;
  bool operator<(const ReadyEntry& o) const {
    if (priority != o.priority) return priority < o.priority;
    return seq > o.seq;
  }
};

}  // namespace

SimResult DataDrivenSim::run_data_driven(const Prepared& prep) {
  const CostModel& cm = config_.cost;
  const double graphop_ns =
      config_.coarsened ? cm.t_graphop_coarse_ns : cm.t_graphop_ns;

  SimResult result;
  result.cores = config_.processes * config_.cores_per_process();
  result.lagged_slots = prep.num_lagged;

  // Per-program state.
  std::vector<std::int32_t> next_chunk(
      static_cast<std::size_t>(prep.num_programs), 0);
  std::vector<std::uint8_t> queued(
      static_cast<std::size_t>(prep.num_programs), 0);
  std::vector<std::int32_t> avail(
      static_cast<std::size_t>(prep.num_groups * prep.group_span), -1);

  // Group gates: (patch, group) program counts for pipelined injection,
  // per-group totals for the barriered baseline.
  std::vector<std::int32_t> patch_left(
      static_cast<std::size_t>(prep.num_patches) *
          static_cast<std::size_t>(prep.num_groups),
      prep.num_angles);
  std::vector<std::int64_t> group_left(
      static_cast<std::size_t>(prep.num_groups),
      static_cast<std::int64_t>(prep.num_angles) * prep.num_patches);

  // Per-process state. Free workers are an id stack (not a counter) so the
  // simulator knows which worker runs each chunk — per-worker trace tracks
  // need the identity; pop/push keeps the counts, and therefore the
  // schedule, identical to a plain counter.
  std::vector<std::vector<std::int32_t>> free_workers(
      static_cast<std::size_t>(config_.processes));
  for (auto& ids : free_workers)
    for (std::int32_t w = config_.workers_per_process - 1; w >= 0; --w)
      ids.push_back(w);
  std::vector<std::priority_queue<ReadyEntry>> ready(
      static_cast<std::size_t>(config_.processes));
  std::vector<double> master_free(
      static_cast<std::size_t>(config_.processes), 0.0);

  std::priority_queue<Event, std::vector<Event>, std::greater<>> events;
  std::uint64_t seq = 0;

  const auto angle_of = [&](std::int64_t prog) { return prep.angle_of(prog); };
  const auto patch_of = [&](std::int64_t prog) { return prep.patch_of(prog); };
  const auto group_of = [&](std::int64_t prog) { return prep.group_of(prog); };

  // Virtual-time trace emission (track pointers cached per proc/worker).
  trace::Recorder* const rec = config_.recorder;
  std::vector<trace::Track*> trace_workers;
  std::vector<trace::Track*> trace_masters;
  if (rec != nullptr) {
    trace_workers.assign(static_cast<std::size_t>(config_.processes) *
                             static_cast<std::size_t>(
                                 config_.workers_per_process),
                         nullptr);
    trace_masters.assign(static_cast<std::size_t>(config_.processes),
                         nullptr);
  }
  const auto wtrack = [&](std::size_t proc,
                          std::int32_t worker) -> trace::Track& {
    trace::Track*& t =
        trace_workers[proc * static_cast<std::size_t>(
                                 config_.workers_per_process) +
                      static_cast<std::size_t>(worker)];
    if (t == nullptr)
      t = &rec->track(static_cast<std::int32_t>(proc), worker);
    return *t;
  };
  const auto mtrack = [&](std::size_t proc) -> trace::Track& {
    trace::Track*& t = trace_masters[proc];
    if (t == nullptr)
      t = &rec->track(static_cast<std::int32_t>(proc), trace::kMasterTrack);
    return *t;
  };
  const auto key_of = [&](std::int64_t prog) {
    return ProgramKey{PatchId{patch_of(prog)},
                      TaskTag{group_of(prog) * prep.num_angles +
                              angle_of(prog)}};
  };
  const auto vns = [](double t) { return static_cast<std::int64_t>(t); };
  const auto priority_of = [&](std::int64_t prog) {
    const int a = angle_of(prog);
    const int oct = quad_.angle(a).octant;
    // Group-major task priority, matching the real solver: earlier groups
    // dominate (they unblock downstream sources), then earlier angles.
    return graph::combined_priority(
        -static_cast<double>(group_of(prog) * prep.num_angles + a),
        prep.patch_prio[static_cast<std::size_t>(oct)]
                       [static_cast<std::size_t>(patch_of(prog))]);
  };

  /// Deps of the pending chunk satisfied?
  const auto deps_ready = [&](std::int64_t prog) {
    const int g = group_of(prog);
    const std::int32_t p = patch_of(prog);
    if (g > 0) {  // group gate: previous group's sources must exist
      if (config_.group_pipelining) {
        if (patch_left[static_cast<std::size_t>(p) * prep.num_groups +
                       static_cast<std::size_t>(g - 1)] > 0)
          return false;
      } else {
        if (group_left[static_cast<std::size_t>(g - 1)] > 0) return false;
      }
    }
    const int a = angle_of(prog);
    const int oct = quad_.angle(a).octant;
    const auto& curves = prep.curves[static_cast<std::size_t>(oct)];
    const std::int32_t c = next_chunk[static_cast<std::size_t>(prog)];
    const std::int64_t base = prep.avail_base(g, a, p, oct);
    const std::int64_t lag_base = prep.avail_base(0, a, p, oct);
    std::int64_t slot = 0;
    bool ok = true;
    topo_.for_upwind(p, quad_.angle(a).dir, [&](const PatchNeighbor& nb) {
      if (ok && !prep.slot_lagged(lag_base + slot)) {
        const int req = curves.required_upwind_chunk(
            c, prep.nchunks[static_cast<std::size_t>(p)],
            prep.nchunks[static_cast<std::size_t>(nb.patch)]);
        if (avail[static_cast<std::size_t>(base + slot)] < req) ok = false;
      }
      ++slot;
    });
    return ok;
  };

  const auto chunk_cells = [&](std::int32_t p, std::int32_t c) {
    const auto n = prep.nchunks[static_cast<std::size_t>(p)];
    if (c + 1 == n) return prep.chunk_cells_last[static_cast<std::size_t>(p)];
    return (topo_.cells(p) + n - 1) / n;
  };

  const auto start_chunk = [&](std::int64_t prog, double t,
                               std::int32_t worker) {
    const std::int32_t p = patch_of(prog);
    const std::int32_t c = next_chunk[static_cast<std::size_t>(prog)];
    const auto cells = static_cast<double>(chunk_cells(p, c));
    const double fold = prep.fold[static_cast<std::size_t>(p)];
    const double dur = cells * (cm.t_vertex_ns + graphop_ns) +
                       fold * cm.t_exec_overhead_ns;
    result.breakdown.kernel += cells * cm.t_vertex_ns;
    result.breakdown.graphop += cells * graphop_ns +
                                fold * cm.t_exec_overhead_ns;
    result.chunk_executions += static_cast<std::int64_t>(fold);
    events.push(Event{t + dur, seq++, Event::kChunkDone, prog, c, 0, worker});
    if (rec != nullptr) {
      auto e = trace::make_span(trace::EventKind::Exec, vns(t), vns(t + dur));
      e.src = key_of(prog);
      e.bytes = static_cast<std::int64_t>(cells);
      wtrack(static_cast<std::size_t>(
                 prep.proc_of[static_cast<std::size_t>(p)]),
             worker)
          .record(e);
    }
  };

  /// Enqueue the program's pending chunk if it exists, is unqueued and
  /// dep-ready; start immediately when a worker is free.
  const auto try_activate = [&](std::int64_t prog, double t) {
    if (queued[static_cast<std::size_t>(prog)]) return;
    const std::int32_t p = patch_of(prog);
    if (next_chunk[static_cast<std::size_t>(prog)] >=
        prep.nchunks[static_cast<std::size_t>(p)])
      return;
    if (!deps_ready(prog)) return;
    queued[static_cast<std::size_t>(prog)] = 1;
    const auto proc = static_cast<std::size_t>(
        prep.proc_of[static_cast<std::size_t>(p)]);
    if (!free_workers[proc].empty()) {
      const std::int32_t worker = free_workers[proc].back();
      free_workers[proc].pop_back();
      start_chunk(prog, t, worker);
    } else {
      ready[proc].push(ReadyEntry{priority_of(prog), seq++, prog});
    }
  };

  // Seed: every program's first chunk that has no unmet dependencies.
  for (std::int64_t prog = 0; prog < prep.num_programs; ++prog)
    try_activate(prog, 0.0);

  double now = 0.0;
  while (!events.empty()) {
    const Event ev = events.top();
    events.pop();
    now = ev.t;

    if (ev.kind == Event::kGroupOpen) {
      try_activate(ev.prog, now);
      continue;
    }

    if (ev.kind == Event::kDepArrive) {
      // Update the avail slot for (prog ← upwind patch a1) to chunk a2.
      const int a = angle_of(ev.prog);
      const std::int32_t p = patch_of(ev.prog);
      const int oct = quad_.angle(a).octant;
      const std::int64_t base = prep.avail_base(group_of(ev.prog), a, p, oct);
      std::int64_t slot = 0;
      topo_.for_upwind(p, quad_.angle(a).dir, [&](const PatchNeighbor& nb) {
        if (nb.patch == ev.a1) {
          auto& slot_avail = avail[static_cast<std::size_t>(base + slot)];
          slot_avail = std::max(slot_avail, ev.a2);
        }
        ++slot;
      });
      try_activate(ev.prog, now);
      continue;
    }

    // ChunkDone.
    const std::int64_t prog = ev.prog;
    const std::int32_t c = ev.a1;
    const int a = angle_of(prog);
    const int g = group_of(prog);
    const std::int32_t p = patch_of(prog);
    const int oct = quad_.angle(a).octant;
    const auto proc = static_cast<std::size_t>(
        prep.proc_of[static_cast<std::size_t>(p)]);
    const auto& curves = prep.curves[static_cast<std::size_t>(oct)];

    next_chunk[static_cast<std::size_t>(prog)] = c + 1;
    queued[static_cast<std::size_t>(prog)] = 0;

    // Program finished? Advance the group gates, possibly injecting the
    // next group (per patch when pipelining, globally — after one
    // collective — when barriered).
    if (c + 1 == prep.nchunks[static_cast<std::size_t>(p)]) {
      auto& pl = patch_left[static_cast<std::size_t>(p) * prep.num_groups +
                            static_cast<std::size_t>(g)];
      --pl;
      auto& gl = group_left[static_cast<std::size_t>(g)];
      --gl;
      if (g + 1 < prep.num_groups) {
        if (config_.group_pipelining) {
          if (pl == 0)
            for (int na = 0; na < prep.num_angles; ++na)
              events.push(Event{now, seq++, Event::kGroupOpen,
                                prep.prog_id(g + 1, na, p), 0, 0});
        } else if (gl == 0) {
          const double t = now + cm.collective_ns(config_.processes);
          for (int na = 0; na < prep.num_angles; ++na)
            for (std::int32_t np = 0; np < prep.num_patches; ++np)
              events.push(Event{t, seq++, Event::kGroupOpen,
                                prep.prog_id(g + 1, na, np), 0, 0});
        }
      }
    }

    // Emissions to downwind neighbors. Remote streams headed to the same
    // destination process share one wire message, exactly like the real
    // engine's flush_remote() batching.
    const double frac_now =
        curves.emission_at(c, prep.nchunks[static_cast<std::size_t>(p)]);
    const double frac_prev =
        curves.emission_at(c - 1, prep.nchunks[static_cast<std::size_t>(p)]);
    const double delta = frac_now - frac_prev;
    struct RemoteBatch {
      std::size_t dproc;
      double bytes = 0.0;
      std::array<std::int64_t, 8> dprogs{};
      int count = 0;
    };
    std::array<RemoteBatch, 8> batches;
    int nbatches = 0;
    topo_.for_downwind(p, quad_.angle(a).dir, [&](const PatchNeighbor& nb) {
      if (delta <= 0.0) return;
      const std::int64_t dprog = prep.prog_id(g, a, nb.patch);
      const auto dproc = static_cast<std::size_t>(
          prep.proc_of[static_cast<std::size_t>(nb.patch)]);
      const double bytes =
          delta * static_cast<double>(nb.interface_faces) * kFaceBytes;
      if (dproc == proc) {
        const double ts =
            std::max(master_free[proc], now) + cm.local_route_ns;
        master_free[proc] = ts;
        result.breakdown.route += cm.local_route_ns;
        events.push(Event{ts, seq++, Event::kDepArrive, dprog, p, c});
        if (rec != nullptr) {
          trace::Track& mt = mtrack(proc);
          mt.record(trace::make_span(trace::EventKind::Route,
                                     vns(ts - cm.local_route_ns), vns(ts)));
          auto send = trace::make_instant(trace::EventKind::StreamSend,
                                          vns(ts));
          send.src = key_of(prog);
          send.dst = key_of(dprog);
          send.bytes = static_cast<std::int64_t>(bytes);
          mt.record(send);
          auto recv = send;
          recv.kind = trace::EventKind::StreamRecv;
          mt.record(recv);
        }
        return;
      }
      RemoteBatch* batch = nullptr;
      for (int i = 0; i < nbatches; ++i)
        if (batches[static_cast<std::size_t>(i)].dproc == dproc)
          batch = &batches[static_cast<std::size_t>(i)];
      if (batch == nullptr && nbatches < 8)
        batch = &batches[static_cast<std::size_t>(nbatches++)];
      if (batch == nullptr) return;  // >8 downwind procs: topology limit
      batch->dproc = dproc;
      batch->bytes += bytes;
      if (batch->count < 8) batch->dprogs[static_cast<std::size_t>(
                                batch->count++)] = dprog;
    });
    {
      // A folded chunk stands for `fold` true executions, each of which
      // would have sent its own (smaller) message: scale per-message
      // service costs and counts; bytes and latency charge once.
      const double fold = prep.fold[static_cast<std::size_t>(p)];
      for (int i = 0; i < nbatches; ++i) {
        const RemoteBatch& batch = batches[static_cast<std::size_t>(i)];
        const double pack_ns = batch.bytes * cm.pack_byte_ns;
        const double route_ns = fold * cm.route_msg_ns;
        const double send_start = std::max(master_free[proc], now);
        const double ts = send_start + pack_ns + route_ns;
        master_free[proc] = ts;
        result.breakdown.pack += pack_ns;
        result.breakdown.route += route_ns;
        result.messages += static_cast<std::int64_t>(fold);
        result.bytes += static_cast<std::int64_t>(batch.bytes);
        const double arrival =
            ts + cm.msg_latency_ns + batch.bytes * cm.byte_ns;
        const double recv_start = std::max(master_free[batch.dproc], arrival);
        const double tr = recv_start + pack_ns + route_ns;
        master_free[batch.dproc] = tr;
        result.breakdown.pack += pack_ns;
        result.breakdown.route += route_ns;
        for (int j = 0; j < batch.count; ++j)
          events.push(Event{tr, seq++, Event::kDepArrive,
                            batch.dprogs[static_cast<std::size_t>(j)], p, c});
        if (rec != nullptr) {
          trace::Track& smt = mtrack(proc);
          smt.record(trace::make_span(trace::EventKind::Pack, vns(send_start),
                                      vns(send_start + pack_ns)));
          smt.record(trace::make_span(trace::EventKind::Route,
                                      vns(send_start + pack_ns), vns(ts)));
          trace::Track& dmt = mtrack(batch.dproc);
          dmt.record(trace::make_span(trace::EventKind::Pack, vns(recv_start),
                                      vns(recv_start + pack_ns)));
          dmt.record(trace::make_span(trace::EventKind::Route,
                                      vns(recv_start + pack_ns), vns(tr)));
          const auto per_stream = static_cast<std::int64_t>(
              batch.bytes / std::max(1, batch.count));
          for (int j = 0; j < batch.count; ++j) {
            auto send = trace::make_instant(trace::EventKind::StreamSend,
                                            vns(ts));
            send.src = key_of(prog);
            send.dst =
                key_of(batch.dprogs[static_cast<std::size_t>(j)]);
            send.bytes = per_stream;
            smt.record(send);
            auto recv = send;
            recv.kind = trace::EventKind::StreamRecv;
            recv.t0_ns = recv.t1_ns = vns(tr);
            dmt.record(recv);
          }
        }
      }
    }

    // This program's next chunk may already be runnable.
    try_activate(prog, now);

    // The worker that finished picks the highest-priority ready chunk.
    auto& queue = ready[proc];
    if (!queue.empty()) {
      const auto entry = queue.top();
      queue.pop();
      start_chunk(entry.prog, now, ev.worker);
    } else {
      free_workers[proc].push_back(ev.worker);
    }
  }

  // Verify completion.
  for (std::int64_t prog = 0; prog < prep.num_programs; ++prog) {
    JSWEEP_CHECK_MSG(
        next_chunk[static_cast<std::size_t>(prog)] ==
            prep.nchunks[static_cast<std::size_t>(
                patch_of(prog))],
        "simulated sweep deadlocked at program " << prog);
  }

  const double elapsed_ns = now + cm.collective_ns(config_.processes);
  if (rec != nullptr)
    for (int proc = 0; proc < config_.processes; ++proc)
      mtrack(static_cast<std::size_t>(proc))
          .record(trace::make_span(trace::EventKind::Collective, vns(now),
                                   vns(elapsed_ns)));
  result.elapsed_seconds = elapsed_ns * 1e-9;
  const double busy_ns = result.breakdown.kernel + result.breakdown.graphop +
                         result.breakdown.pack + result.breakdown.route;
  result.breakdown.kernel *= 1e-9;
  result.breakdown.graphop *= 1e-9;
  result.breakdown.pack *= 1e-9;
  result.breakdown.route *= 1e-9;
  result.breakdown.idle =
      result.elapsed_seconds * result.cores - busy_ns * 1e-9;
  return result;
}

// ---------------------------------------------------------------------------
// BSP superstep simulation (Fig. 17 baseline)
// ---------------------------------------------------------------------------

SimResult DataDrivenSim::run_bsp(const Prepared& prep) {
  const CostModel& cm = config_.cost;
  const double graphop_ns =
      config_.coarsened ? cm.t_graphop_coarse_ns : cm.t_graphop_ns;

  SimResult result;
  result.cores = config_.processes * config_.cores_per_process();
  result.lagged_slots = prep.num_lagged;

  std::vector<std::int32_t> next_chunk(
      static_cast<std::size_t>(prep.num_programs), 0);
  std::vector<std::int32_t> avail(
      static_cast<std::size_t>(prep.num_groups * prep.group_span), -1);

  // Group gates (see run_data_driven); updated at superstep boundaries.
  std::vector<std::int32_t> patch_left(
      static_cast<std::size_t>(prep.num_patches) *
          static_cast<std::size_t>(prep.num_groups),
      prep.num_angles);
  std::vector<std::int64_t> group_left(
      static_cast<std::size_t>(prep.num_groups),
      static_cast<std::int64_t>(prep.num_angles) * prep.num_patches);

  const auto deps_ready = [&](std::int64_t prog) {
    const int g = prep.group_of(prog);
    const auto p = prep.patch_of(prog);
    if (g > 0) {
      if (config_.group_pipelining) {
        if (patch_left[static_cast<std::size_t>(p) * prep.num_groups +
                       static_cast<std::size_t>(g - 1)] > 0)
          return false;
      } else {
        if (group_left[static_cast<std::size_t>(g - 1)] > 0) return false;
      }
    }
    const int a = prep.angle_of(prog);
    const int oct = quad_.angle(a).octant;
    const auto& curves = prep.curves[static_cast<std::size_t>(oct)];
    const std::int32_t c = next_chunk[static_cast<std::size_t>(prog)];
    const std::int64_t base = prep.avail_base(g, a, p, oct);
    const std::int64_t lag_base = prep.avail_base(0, a, p, oct);
    std::int64_t slot = 0;
    bool ok = true;
    topo_.for_upwind(p, quad_.angle(a).dir, [&](const PatchNeighbor& nb) {
      if (ok && !prep.slot_lagged(lag_base + slot)) {
        const int req = curves.required_upwind_chunk(
            c, prep.nchunks[static_cast<std::size_t>(p)],
            prep.nchunks[static_cast<std::size_t>(nb.patch)]);
        if (avail[static_cast<std::size_t>(base + slot)] < req) ok = false;
      }
      ++slot;
    });
    return ok;
  };

  std::int64_t remaining = 0;
  for (std::int32_t p = 0; p < prep.num_patches; ++p)
    remaining += static_cast<std::int64_t>(
                     prep.nchunks[static_cast<std::size_t>(p)]) *
                 prep.num_angles * prep.num_groups;

  double elapsed_ns = 0.0;
  std::vector<double> proc_compute(
      static_cast<std::size_t>(config_.processes));
  std::vector<double> proc_master(
      static_cast<std::size_t>(config_.processes));
  std::vector<std::pair<std::int64_t, std::int32_t>> completed;

  while (remaining > 0) {
    ++result.supersteps;
    double max_chunk_ns = 0.0;
    std::fill(proc_compute.begin(), proc_compute.end(), 0.0);
    std::fill(proc_master.begin(), proc_master.end(), 0.0);
    completed.clear();

    // Compute phase: every ready program executes exactly one chunk.
    for (std::int64_t prog = 0; prog < prep.num_programs; ++prog) {
      const auto p = static_cast<std::int32_t>(prog % prep.num_patches);
      if (next_chunk[static_cast<std::size_t>(prog)] >=
          prep.nchunks[static_cast<std::size_t>(p)])
        continue;
      if (!deps_ready(prog)) continue;
      const std::int32_t c = next_chunk[static_cast<std::size_t>(prog)];
      const auto n = prep.nchunks[static_cast<std::size_t>(p)];
      const std::int64_t cells =
          (c + 1 == n) ? prep.chunk_cells_last[static_cast<std::size_t>(p)]
                       : (topo_.cells(p) + n - 1) / n;
      const double fold = prep.fold[static_cast<std::size_t>(p)];
      const double dur = static_cast<double>(cells) *
                             (cm.t_vertex_ns + graphop_ns) +
                         fold * cm.t_exec_overhead_ns;
      proc_compute[static_cast<std::size_t>(
          prep.proc_of[static_cast<std::size_t>(p)])] += dur;
      max_chunk_ns = std::max(max_chunk_ns, dur);
      result.breakdown.kernel += static_cast<double>(cells) * cm.t_vertex_ns;
      result.breakdown.graphop +=
          static_cast<double>(cells) * graphop_ns + cm.t_exec_overhead_ns;
      ++result.chunk_executions;
      completed.emplace_back(prog, c);
    }
    JSWEEP_CHECK_MSG(!completed.empty(), "BSP simulation stalled");

    // Exchange phase at the superstep boundary.
    for (const auto& [prog, c] : completed) {
      const int a = prep.angle_of(prog);
      const int g = prep.group_of(prog);
      const auto p = prep.patch_of(prog);
      const int oct = quad_.angle(a).octant;
      const auto& curves = prep.curves[static_cast<std::size_t>(oct)];
      next_chunk[static_cast<std::size_t>(prog)] = c + 1;
      --remaining;
      // Advance the group gates (visible next superstep, BSP semantics).
      if (c + 1 == prep.nchunks[static_cast<std::size_t>(p)]) {
        --patch_left[static_cast<std::size_t>(p) * prep.num_groups +
                     static_cast<std::size_t>(g)];
        --group_left[static_cast<std::size_t>(g)];
      }
      const double delta =
          curves.emission_at(c, prep.nchunks[static_cast<std::size_t>(p)]) -
          curves.emission_at(c - 1,
                             prep.nchunks[static_cast<std::size_t>(p)]);
      topo_.for_downwind(p, quad_.angle(a).dir,
                         [&](const PatchNeighbor& nb) {
        // Update the downwind program's avail slot (visible next step).
        const std::int64_t dprog = prep.prog_id(g, a, nb.patch);
        const int doct = oct;
        const std::int64_t base = prep.avail_base(g, a, nb.patch, doct);
        std::int64_t slot = 0;
        topo_.for_upwind(nb.patch, quad_.angle(a).dir,
                         [&](const PatchNeighbor& up) {
          if (up.patch == p) {
            auto& v = avail[static_cast<std::size_t>(base + slot)];
            v = std::max(v, c);
          }
          ++slot;
        });
        (void)dprog;
        if (delta <= 0.0) return;
        const auto sproc = static_cast<std::size_t>(
            prep.proc_of[static_cast<std::size_t>(p)]);
        const auto dproc = static_cast<std::size_t>(
            prep.proc_of[static_cast<std::size_t>(nb.patch)]);
        const double fold = prep.fold[static_cast<std::size_t>(p)];
        if (sproc == dproc) {
          // Local streams still pass through the master's router, exactly
          // as in the data-driven engine.
          proc_master[sproc] += fold * cm.local_route_ns;
          result.breakdown.route += fold * cm.local_route_ns;
        }
        if (sproc != dproc) {
          const double bytes =
              delta * static_cast<double>(nb.interface_faces) * kFaceBytes;
          const double pack_ns = bytes * cm.pack_byte_ns;
          const double route_ns = fold * cm.route_msg_ns;
          proc_master[sproc] += pack_ns + route_ns;
          proc_master[dproc] += pack_ns + route_ns;
          result.breakdown.pack += 2.0 * pack_ns;
          result.breakdown.route += 2.0 * route_ns;
          result.messages += static_cast<std::int64_t>(fold);
          result.bytes += static_cast<std::int64_t>(bytes);
        }
      });
    }

    double step_ns = 0.0;
    for (std::size_t proc = 0; proc < proc_compute.size(); ++proc) {
      const double compute =
          proc_compute[proc] / config_.workers_per_process;
      step_ns = std::max(step_ns, compute + proc_master[proc]);
    }
    // Straggler: the last wave of a superstep cannot be packed perfectly.
    step_ns += max_chunk_ns;
    step_ns += cm.msg_latency_ns + cm.collective_ns(config_.processes);
    if (config_.recorder != nullptr) {
      auto e = trace::make_span(trace::EventKind::Superstep,
                                static_cast<std::int64_t>(elapsed_ns),
                                static_cast<std::int64_t>(elapsed_ns +
                                                          step_ns));
      e.bytes = result.supersteps;
      config_.recorder->track(0, trace::kMasterTrack).record(e);
    }
    elapsed_ns += step_ns;
  }

  result.elapsed_seconds = elapsed_ns * 1e-9;
  const double busy_ns = result.breakdown.kernel + result.breakdown.graphop +
                         result.breakdown.pack + result.breakdown.route;
  result.breakdown.kernel *= 1e-9;
  result.breakdown.graphop *= 1e-9;
  result.breakdown.pack *= 1e-9;
  result.breakdown.route *= 1e-9;
  result.breakdown.idle =
      result.elapsed_seconds * result.cores - busy_ns * 1e-9;
  return result;
}

}  // namespace jsweep::sim
