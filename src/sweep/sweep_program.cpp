#include "sweep/sweep_program.hpp"

#include "support/check.hpp"
#include "sweep/group_pipeline.hpp"

namespace jsweep::sweep {

namespace {

/// At init, seed every lagged read face with the previous sweep's iterate
/// so cut dependencies never wait. `group` is the base energy group and
/// `width` the group-set width: lane l seeds workspace index
/// `ws_slot * width + l` from group `group + l`'s store stride (width 1 is
/// the classic scalar layout, bit-for-bit).
void seed_lagged_faces(const SweepTaskData& data, const LaggedFluxStore* store,
                       GroupId group, sn::FaceFluxWorkspace& flux,
                       int width) {
  if (!data.has_lagged()) return;
  JSWEEP_CHECK_MSG(store != nullptr,
                   "task graph has lagged edges but no LaggedFluxStore");
  // The scale is 1.0 for cycle-cut faces (1.0 · x is bitwise x) and the
  // side's albedo for reflecting-boundary reads.
  for (const auto& s : data.lagged_seed_slots())
    for (int l = 0; l < width; ++l)
      flux.write(s.ws_slot * width + l,
                 s.scale *
                     store->prev_by_slot(s.store_slot, group.value() + l));
}

/// After computing vertex v, stage each lagged face it wrote for the next
/// sweep and restore the old iterate, so any later reader sees the value
/// the cut promised regardless of execution order. Same (group, width)
/// striding contract as seed_lagged_faces().
void stage_lagged_writes(const SweepTaskData& data, LaggedFluxStore* store,
                         GroupId group, std::int32_t v,
                         sn::FaceFluxWorkspace& flux, int width) {
  data.for_lagged_writes(v, [&](const LaggedSlot& s) {
    for (int l = 0; l < width; ++l) {
      const std::int32_t ws = s.ws_slot * width + l;
      JSWEEP_ASSERT(flux.has(ws));
      store->stage_by_slot(s.store_slot, group.value() + l, flux.read(ws));
      flux.write(ws, store->prev_by_slot(s.store_slot, group.value() + l));
    }
  });
}

}  // namespace

void WorkspaceLease::reset_for_run(const SweepShared& shared) {
  // The privately owned fallback workspace must never enter the pool.
  if (flux_ != nullptr && flux_ != &owned_ && shared.flux_pool != nullptr)
    shared.flux_pool->release(flux_);  // stale borrow from an aborted run
  flux_ = nullptr;
}

sn::FaceFluxWorkspace& WorkspaceLease::ensure(const SweepShared& shared,
                                              const SweepTaskData& data,
                                              GroupId group, int width) {
  if (flux_ != nullptr) return *flux_;
  // Borrow a workspace sized for this task's face-slot count (times the
  // set width — the lanes of one face sit adjacent); reset is an O(1)
  // epoch bump, so reuse across sweeps and programs costs nothing.
  const std::int64_t slots = data.num_flux_slots() * width;
  if (shared.flux_pool != nullptr) {
    flux_ = shared.flux_pool->acquire(slots);
  } else {
    owned_.prepare(slots);
    flux_ = &owned_;
  }
  // Cycle-cut faces read the previous sweep's flux instead of waiting.
  seed_lagged_faces(data, shared.lagged, group, *flux_, width);
  return *flux_;
}

void WorkspaceLease::release_if(bool done, const SweepShared& shared) {
  if (!done || shared.flux_pool == nullptr || flux_ == nullptr ||
      flux_ == &owned_)
    return;
  shared.flux_pool->release(flux_);
  flux_ = nullptr;
}

namespace {

/// Init-time sizing of the per-destination out-item buffers to their
/// static per-sweep maximum (allocation-free batching afterwards).
void prepare_out_buffers(const SweepTaskData& data,
                         std::vector<std::vector<StreamItem>>& out_items,
                         std::vector<core::Stream>& pending) {
  out_items.resize(static_cast<std::size_t>(data.num_destinations()));
  for (std::int32_t d = 0; d < data.num_destinations(); ++d) {
    auto& items = out_items[static_cast<std::size_t>(d)];
    items.clear();
    items.reserve(static_cast<std::size_t>(data.destination_capacity(d)));
  }
  pending.clear();
  pending.reserve(static_cast<std::size_t>(data.num_destinations()));
}

/// Batch-end flush: encode each destination's buffered items into one
/// pooled-payload stream (ascending patch id — the deterministic emission
/// order) and queue it on `pending`.
void flush_out_streams(const SweepTaskData& data, const SweepShared& shared,
                       const ProgramKey& src,
                       std::vector<std::vector<StreamItem>>& out_items,
                       std::vector<core::Stream>& pending) {
  for (std::int32_t d = 0; d < data.num_destinations(); ++d) {
    auto& items = out_items[static_cast<std::size_t>(d)];
    if (items.empty()) continue;
    core::Stream s;
    s.src = src;
    s.dst = ProgramKey{data.destination(d), src.task};
    s.data = shared.stream_buffers != nullptr
                 ? shared.stream_buffers->acquire()
                 : comm::Bytes{};
    encode_items_into(items, s.data);
    items.clear();
    pending.push_back(std::move(s));
  }
}

/// Group-set counterparts of prepare_out_buffers()/flush_out_streams():
/// each remote face delivery becomes one SetStreamRecord plus `width` lane
/// values (lanes flat in `out_lanes[d]`, record i owning
/// `[i*width, (i+1)*width)`), encoded with the set codec so the receiver
/// decrements its dependency counter once per record.
void prepare_set_out_buffers(
    const SweepTaskData& data, int width,
    std::vector<std::vector<SetStreamRecord>>& out_records,
    std::vector<std::vector<double>>& out_lanes,
    std::vector<core::Stream>& pending) {
  out_records.resize(static_cast<std::size_t>(data.num_destinations()));
  out_lanes.resize(static_cast<std::size_t>(data.num_destinations()));
  for (std::int32_t d = 0; d < data.num_destinations(); ++d) {
    auto& records = out_records[static_cast<std::size_t>(d)];
    auto& lanes = out_lanes[static_cast<std::size_t>(d)];
    records.clear();
    records.reserve(static_cast<std::size_t>(data.destination_capacity(d)));
    lanes.clear();
    lanes.reserve(static_cast<std::size_t>(data.destination_capacity(d)) *
                  static_cast<std::size_t>(width));
  }
  pending.clear();
  pending.reserve(static_cast<std::size_t>(data.num_destinations()));
}

void flush_set_out_streams(
    const SweepTaskData& data, const SweepShared& shared, int width,
    const ProgramKey& src,
    std::vector<std::vector<SetStreamRecord>>& out_records,
    std::vector<std::vector<double>>& out_lanes,
    std::vector<core::Stream>& pending) {
  // Same ascending-destination emission order as the scalar flush.
  for (std::int32_t d = 0; d < data.num_destinations(); ++d) {
    auto& records = out_records[static_cast<std::size_t>(d)];
    if (records.empty()) continue;
    auto& lanes = out_lanes[static_cast<std::size_t>(d)];
    core::Stream s;
    s.src = src;
    s.dst = ProgramKey{data.destination(d), src.task};
    s.data = shared.stream_buffers != nullptr
                 ? shared.stream_buffers->acquire()
                 : comm::Bytes{};
    encode_set_items_into(records, lanes, width, s.data);
    records.clear();
    lanes.clear();
    pending.push_back(std::move(s));
  }
}

}  // namespace

SweepPatchProgram::SweepPatchProgram(const SweepTaskData& data,
                                     const SweepShared& shared,
                                     SweepProgramOptions options)
    : core::PatchProgram(
          data.patch(),
          TaskTag{sweep_task_tag(data.angle(), options.group,
                                 shared.quad->num_angles())
                      .value() +
                  options.lane_tag_offset}),
      data_(data),
      shared_(shared),
      options_(options) {
  JSWEEP_CHECK(options_.cluster_grain >= 1);
  JSWEEP_CHECK(options_.group.value() >= 0);
  JSWEEP_CHECK(options_.lane_tag_offset >= 0);
  JSWEEP_CHECK_MSG(options_.group.value() == 0 || shared_.pipeline != nullptr,
                   "group > 0 programs need a GroupPipeline");
  if (shared_.pipeline != nullptr) {
    JSWEEP_CHECK(options_.group.value() < shared_.pipeline->num_sets());
    set_width_ = shared_.pipeline->set_width_of(options_.group);
    group_base_ = shared_.pipeline->set_base(options_.group);
  }
}

void SweepPatchProgram::mark_ready(std::int32_t v) {
  ready_.push(ReadyEntry{data_.vertex_priority(v), v});
}

void SweepPatchProgram::init() {
  counts_ = data_.initial_counts();
  ready_ = {};
  for (std::int32_t v = 0; v < data_.num_vertices(); ++v)
    if (counts_[static_cast<std::size_t>(v)] == 0) mark_ready(v);
  // The workspace itself is borrowed lazily (WorkspaceLease::ensure) on
  // the first input or compute that touches flux.
  lease_.reset_for_run(shared_);
  if (set_width_ > 1)
    prepare_set_out_buffers(data_, set_width_, out_records_, out_lanes_,
                            pending_);
  else
    prepare_out_buffers(data_, out_items_, pending_);
  phi_.assign(static_cast<std::size_t>(data_.num_vertices()) *
                  static_cast<std::size_t>(set_width_),
              0.0);
  computed_ = 0;
  gate_open_ =
      shared_.pipeline == nullptr || options_.group == GroupId{0};
  completion_reported_ = false;
}

void SweepPatchProgram::input(const core::Stream& s) {
  JSWEEP_CHECK_MSG(s.dst == key(), "stream for " << s.dst << " delivered to "
                                                 << key());
  JSWEEP_CHECK_MSG(computed_ < data_.num_vertices(),
                   "stream delivered to " << key()
                                          << " after it retired all work");
  if (s.data.empty()) {  // group-activation marker: sources are ready
    gate_open_ = true;
    if (shared_.pipeline != nullptr)
      shared_.pipeline->note_gate_opened(data_.patch(), options_.group);
    return;
  }
  sn::FaceFluxWorkspace& flux =
      lease_.ensure(shared_, data_, lag_group(), set_width_);
  const auto deliver = [&](std::int64_t dst_cell) {
    const CellId cell{dst_cell};
    JSWEEP_ASSERT(shared_.patches->patch_of(cell) == data_.patch());
    const std::int32_t v = shared_.patches->local_index(cell);
    auto& count = counts_[static_cast<std::size_t>(v)];
    JSWEEP_CHECK_MSG(count > 0, "dependency underflow at vertex " << v);
    if (--count == 0) mark_ready(v);
  };
  if (set_width_ > 1) {
    // One record carries the whole set's lane fluxes for a face — one
    // dependency decrement per face delivery, exactly like the scalar path.
    for_each_set_item(
        s.data, set_width_,
        [&](std::int64_t cell, std::int64_t face, const double* lanes) {
          const std::int32_t slot = data_.slot_of_remote_in(face);
          for (int l = 0; l < set_width_; ++l)
            flux.write(slot * set_width_ + l, lanes[l]);
          deliver(cell);
        });
  } else {
    for_each_item(s.data, [&](const StreamItem& item) {
      flux.write(data_.slot_of_remote_in(item.face), item.value);
      deliver(item.cell);
    });
  }
}

void SweepPatchProgram::compute() {
  // Gated (group > 0) programs buffer inputs but compute nothing until the
  // pipeline injects this group on this patch.
  if (!gate_open_) return;

  // Optional per-patch serialization (patch-angle parallelism ablation).
  std::unique_lock<std::mutex> serialize_lock;
  if (options_.patch_serializer != nullptr)
    serialize_lock = std::unique_lock<std::mutex>(*options_.patch_serializer);

  const sn::Ordinate& ang = shared_.quad->angle(data_.angle().value());
  // Group-aware solves resolve kernel and source per set; single-group
  // solves use the solver-installed pair directly.
  const sn::Discretization* disc = shared_.disc;
  const std::vector<double>* q_ptr = shared_.q_per_ster;
  const double* sigma_t_lanes = nullptr;
  if (shared_.pipeline != nullptr) {
    // The base group's kernel carries the geometry; the batched kernel
    // takes the set's strided σ_t explicitly.
    disc = shared_.pipeline->group_disc(GroupId{group_base_});
    q_ptr = &shared_.pipeline->q_set(options_.group);
    sigma_t_lanes = shared_.pipeline->sigma_t_set(options_.group).data();
  }
  const std::vector<double>& q = *q_ptr;
  const auto& cells = shared_.patches->cells(data_.patch());

  int in_batch = 0;
  while (!ready_.empty() && in_batch < options_.cluster_grain) {
    sn::FaceFluxWorkspace& flux =
        lease_.ensure(shared_, data_, lag_group(), set_width_);
    const std::int32_t v = ready_.top().v;
    ready_.pop();
    ++in_batch;

    const CellId cell = cells[static_cast<std::size_t>(v)];
    if (set_width_ > 1) {
      const sn::FaceFluxSetView view{&flux, &data_.cell_slots(v),
                                     set_width_};
      double psi[sn::kMaxGroupSetWidth];
      disc->sweep_cell_set(cell, ang, set_width_, q.data(), sigma_t_lanes,
                           view, psi);
      for (int l = 0; l < set_width_; ++l)
        phi_[static_cast<std::size_t>(v) *
                 static_cast<std::size_t>(set_width_) +
             static_cast<std::size_t>(l)] = ang.weight * psi[l];
    } else {
      const sn::FaceFluxView view{&flux, &data_.cell_slots(v)};
      const double psi = disc->sweep_cell(cell, ang, q, view);
      phi_[static_cast<std::size_t>(v)] = ang.weight * psi;
    }
    ++computed_;

    // Downwind updates: local vertices may become ready (possibly within
    // this same batch — Listing 1's inner enqueue); remote edges buffer
    // stream items for their destination patch.
    data_.for_out_local(v, [&](const OutLocal& e) {
      if (--counts_[static_cast<std::size_t>(e.w)] == 0) mark_ready(e.w);
    });
    if (set_width_ > 1) {
      data_.for_out_remote(v, [&](const RemoteOut& e) {
        out_records_[static_cast<std::size_t>(e.dst)].push_back(
            SetStreamRecord{e.dst_cell, e.face});
        auto& lanes = out_lanes_[static_cast<std::size_t>(e.dst)];
        for (int l = 0; l < set_width_; ++l) {
          const std::int32_t ws = e.slot * set_width_ + l;
          JSWEEP_ASSERT(flux.has(ws));
          lanes.push_back(flux.read(ws));
        }
      });
    } else {
      data_.for_out_remote(v, [&](const RemoteOut& e) {
        JSWEEP_ASSERT(flux.has(e.slot));
        out_items_[static_cast<std::size_t>(e.dst)].push_back(
            StreamItem{e.dst_cell, e.face, flux.read(e.slot)});
      });
    }
    // Lagged (cycle-cut) faces: stage the fresh value for the next sweep,
    // then restore the old iterate so any later reader — regardless of
    // scheduling order — sees the same value the cut promised it.
    stage_lagged_writes(data_, shared_.lagged, lag_group(), v, flux,
                        set_width_);
  }

  if (set_width_ > 1)
    flush_set_out_streams(data_, shared_, set_width_, key(), out_records_,
                          out_lanes_, pending_);
  else
    flush_out_streams(data_, shared_, key(), out_items_, pending_);
  // All vertices retired: the workspace has served its purpose — return it
  // so a not-yet-finished program can reuse the allocation.
  const bool done = computed_ == data_.num_vertices();
  lease_.release_if(done, shared_);
  // Multigroup: tell the pipeline this (patch, angle, group) retired; the
  // patch's last angle accumulates φ, forms group g+1's source and appends
  // its activation streams to pending_.
  if (done && !completion_reported_ && shared_.pipeline != nullptr) {
    completion_reported_ = true;
    shared_.pipeline->on_program_complete(data_.patch(), options_.group,
                                          key(), pending_);
  }
}

std::optional<core::Stream> SweepPatchProgram::output() {
  if (pending_.empty()) return std::nullopt;
  core::Stream s = std::move(pending_.back());
  pending_.pop_back();
  return s;
}

bool SweepPatchProgram::vote_to_halt() {
  return !gate_open_ || ready_.empty();
}

}  // namespace jsweep::sweep
