// jsweep_perfbench — the layer benchmark of the JSweep reproduction.
//
//   jsweep_perfbench --workload kobayashi_si|swirled_lag|reactor_keff
//                    --seed N --seconds S --trace 0|1 [--spans PATH]
//
// One process runs one workload as a closed-loop batch solver: it sets the
// problem up several times (median = setup_s), computes the serial
// reference once, then solves back to back, one solve at a time, until
// `--seconds` have passed. Every solve is checked against the reference.
// With --trace 0 the last stdout line is a JSON object carrying the
// end-to-end metrics; with --trace 1 it carries the per-layer metrics:
// spans around every public call, the library's stats structs and (for
// reactor_keff) its metrics registry, plus a kernel probe. README.md in
// this directory maps each per-layer metric to the end-to-end metric and
// workload it should move.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "comm/cluster.hpp"
#include "mesh/generators.hpp"
#include "metrics/metrics.hpp"
#include "partition/adjacency.hpp"
#include "partition/block_layout.hpp"
#include "partition/graph_partition.hpp"
#include "partition/patch_set.hpp"
#include "sn/discretization.hpp"
#include "sn/face_flux.hpp"
#include "sn/fission.hpp"
#include "sn/multigroup.hpp"
#include "sn/quadrature.hpp"
#include "sn/serial_sweep.hpp"
#include "sn/source_iteration.hpp"
#include "sn/xs.hpp"
#include "spans.hpp"
#include "sweep/eigen.hpp"
#include "sweep/plan.hpp"
#include "sweep/session.hpp"

namespace {

using namespace jsweep;
using perfbench::ScopedSpan;
using perfbench::SpanRecorder;

/// Relative L∞ bound of every solve against the serial reference (φ, and
/// k for the eigenvalue workload).
constexpr double kReferenceBound = 1e-12;
/// Set-ups per run; setup_s is their median.
constexpr int kSetupReps = 7;
/// Passes of the kernel probe; sn.kernel_ns is their median.
constexpr int kKernelReps = 9;
constexpr int kQuadratureOrder = 4;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), &end, 10);
      if (val.empty() || *end != '\0') return std::nullopt;
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val.c_str(), &end);
      if (val.empty() || *end != '\0' || !(a.seconds > 0.0))
        return std::nullopt;
    } else if (key == "--trace") {
      if (val != "0" && val != "1") return std::nullopt;
      a.trace = val == "1";
    } else if (key == "--spans") {
      a.spans_path = val;
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 != 1 || !have_workload) return std::nullopt;
  return a;
}

// --- Workload seed ----------------------------------------------------------

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Deterministic per-cell factor in [0.99, 1.01). `stream` 1 scales σ_t,
/// stream 2 scales σ_s. Every material table here has σ_s/σ_t = 0.5, so
/// the jittered scattering ratio stays below 0.52.
double jitter(std::uint64_t seed, std::uint64_t stream, std::int64_t cell) {
  const std::uint64_t h = splitmix64(splitmix64(seed * 2 + stream) ^
                                     static_cast<std::uint64_t>(cell));
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  return 0.99 + 0.02 * u;
}

void jitter_xs(std::uint64_t seed, sn::CellXs& xs) {
  for (std::size_t c = 0; c < xs.sigma_t.size(); ++c) {
    const auto cell = static_cast<std::int64_t>(c);
    xs.sigma_t[c] *= jitter(seed, 1, cell);
    xs.sigma_s[c] *= jitter(seed, 2, cell);
  }
}

void jitter_xs(std::uint64_t seed, sn::MultigroupXs& xs) {
  for (std::int64_t c = 0; c < xs.cells(); ++c) {
    const double t = jitter(seed, 1, c);
    const double s = jitter(seed, 2, c);
    for (int g = 0; g < xs.groups(); ++g) {
      xs.sigma_t(g, c) *= t;
      for (int to = 0; to < xs.groups(); ++to) xs.sigma_s(g, to, c) *= s;
    }
  }
}

// --- What one run collects ---------------------------------------------------

/// Engine counters summed over runs (and ranks).
struct EngineTotals {
  std::int64_t runs = 0;
  std::int64_t executions = 0;
  std::int64_t streams_local = 0;
  std::int64_t streams_remote = 0;
  std::int64_t stream_bytes = 0;
  std::int64_t messages = 0;
  std::int64_t steal_attempts = 0;
  std::int64_t steals = 0;
  double busy_s = 0.0;
  double idle_s = 0.0;
  double master_route_s = 0.0;
  double master_idle_s = 0.0;

  void add(const core::EngineStats& s) {
    ++runs;
    executions += s.executions;
    streams_local += s.streams_local;
    streams_remote += s.streams_remote;
    stream_bytes += s.stream_bytes;
    messages += s.messages_sent;
    steal_attempts += s.steal_attempts;
    steals += s.steals;
    busy_s += s.worker_busy_seconds;
    idle_s += s.worker_idle_seconds;
    master_route_s += s.master_route_seconds;
    master_idle_s += s.master_idle_seconds;
  }

  void merge(const EngineTotals& o) {
    runs += o.runs;
    executions += o.executions;
    streams_local += o.streams_local;
    streams_remote += o.streams_remote;
    stream_bytes += o.stream_bytes;
    messages += o.messages;
    steal_attempts += o.steal_attempts;
    steals += o.steals;
    busy_s += o.busy_s;
    idle_s += o.idle_s;
    master_route_s += o.master_route_s;
    master_idle_s += o.master_idle_s;
  }
};

/// Plan structure; every set-up of one seed must reproduce it exactly.
struct PlanCounts {
  std::int64_t patches = 0;
  std::int64_t programs = 0;   ///< summed over ranks
  std::int64_t task_data = 0;  ///< summed over ranks
  std::int64_t cyclic_angles = 0;
  std::int64_t edges_cut = 0;
  std::int64_t largest_scc = 0;

  bool operator==(const PlanCounts&) const = default;
};

struct Sample {
  double seconds = 0.0;
  bool traced = false;
  std::int64_t iterations = 0;  ///< source or power iterations
  std::int64_t sweeps = 0;      ///< transport sweeps (all groups)
  double error = 0.0;           ///< relative L∞ against the reference
  bool converged = false;
};

struct RunData {
  std::int64_t cells = 0;
  std::int64_t angles = 0;
  std::int64_t groups = 1;
  std::vector<double> setup_s;
  std::vector<PlanCounts> plan_counts;  ///< one per set-up
  std::vector<Sample> samples;
  double reference_s = 0.0;
  double kernel_ns = 0.0;
  // Traced solves only, summed over them.
  EngineTotals engine;
  std::int64_t session_sweeps = 0;
  std::int64_t multigroup_passes = 0;
  std::int64_t pipeline_activations = 0;
  double pipeline_fill_s = 0.0;
  /// Wall time per sweep (per pass for reactor_keff).
  std::vector<double> sweep_s;
};

/// Keep solving? Rank 0 decides (at least `min_solves`, then until the
/// deadline); every rank learns the answer through one collective.
bool keep_going(comm::Context& ctx, int solves, int min_solves, double start,
                double seconds) {
  const bool go = ctx.rank().value() == 0 &&
                  (solves < min_solves || now_s() - start < seconds);
  return ctx.allreduce_sum(std::int64_t{go ? 1 : 0}) > 0;
}

/// A traced run alternates untraced and traced solves, so it needs two.
int min_solves(const Args& args) { return args.trace ? 2 : 1; }

PlanCounts plan_counts(const sweep::SweepPlan& plan) {
  PlanCounts pc;
  pc.patches = plan.patches().num_patches();
  pc.programs = static_cast<std::int64_t>(plan.programs().size());
  std::size_t data = 0;
  for (const auto& p : plan.programs())
    data = std::max(data, p.data_index + 1);
  pc.task_data = static_cast<std::int64_t>(data);
  pc.cyclic_angles = plan.cyclic_angles();
  pc.edges_cut = plan.cycle_stats().edges_cut;
  pc.largest_scc = plan.cycle_stats().largest_component;
  return pc;
}

/// Sum the per-rank plan counts (programs and task data are per rank; the
/// cycle diagnostics cover all directions on every rank).
PlanCounts sum_ranks(const std::vector<PlanCounts>& per_rank) {
  PlanCounts total = per_rank.front();
  total.programs = 0;
  total.task_data = 0;
  for (const auto& pc : per_rank) {
    total.programs += pc.programs;
    total.task_data += pc.task_data;
  }
  return total;
}

// --- Kernel probe -----------------------------------------------------------

mesh::Vec3 center(const mesh::StructuredMesh& m, std::int64_t c) {
  return m.cell_center(CellId{c});
}
mesh::Vec3 center(const mesh::TetMesh& m, std::int64_t c) {
  return m.cell_centroid(CellId{c});
}

/// Time the dense kernel over every cell and ordinate of the workload:
/// `sweep_cell` for width 1, `sweep_cell_set` at `width` lanes otherwise.
/// `q` and `sigma_t` are set-strided ([c * width + lane]) when width > 1.
/// Cells are visited the way the engine's programs visit them: patch by
/// patch, and within a patch in upwind order (ascending projection of the
/// cell centre on the direction). Returns the median ns per
/// cell-angle-group over kKernelReps passes.
template <class Mesh>
double kernel_probe(const Mesh& m, const partition::PatchSet& patches,
                    const sn::Discretization& disc,
                    const sn::Quadrature& quad, int width,
                    const std::vector<double>& q,
                    const std::vector<double>& sigma_t) {
  const std::int64_t cells = disc.num_cells();
  std::vector<std::vector<std::int64_t>> order(
      static_cast<std::size_t>(quad.num_angles()));
  std::vector<std::vector<sn::CellFaceSlots>> slots(order.size());
  std::int64_t max_slot = 0;
  for (int a = 0; a < quad.num_angles(); ++a) {
    const sn::Ordinate& ang = quad.angle(a);
    auto& ord = order[static_cast<std::size_t>(a)];
    for (int p = 0; p < patches.num_patches(); ++p) {
      std::vector<std::pair<double, std::int64_t>> keyed;
      for (const CellId c : patches.cells(PatchId{p})) {
        const mesh::Vec3 x = center(m, c.value());
        keyed.emplace_back(
            x.x * ang.dir.x + x.y * ang.dir.y + x.z * ang.dir.z, c.value());
      }
      std::sort(keyed.begin(), keyed.end());
      for (const auto& kc : keyed) ord.push_back(kc.second);
    }
    slots[static_cast<std::size_t>(a)] = sn::build_identity_slots(disc, ang);
    for (const auto& s : slots[static_cast<std::size_t>(a)])
      for (int k = 0; k < 4; ++k)
        max_slot = std::max<std::int64_t>(
            {max_slot, s.in[static_cast<std::size_t>(k)],
             s.out[static_cast<std::size_t>(k)]});
  }
  sn::FaceFluxWorkspace ws;
  ws.prepare((max_slot + 1) * width);
  std::vector<double> ns;
  double sink = 0.0;
  double psi[sn::kMaxGroupSetWidth];
  for (int rep = 0; rep < kKernelReps; ++rep) {
    const double t0 = now_s();
    for (int a = 0; a < quad.num_angles(); ++a) {
      const sn::Ordinate& ang = quad.angle(a);
      const auto& sl = slots[static_cast<std::size_t>(a)];
      ws.reset();
      for (const std::int64_t c : order[static_cast<std::size_t>(a)]) {
        const auto& cs = sl[static_cast<std::size_t>(c)];
        if (width == 1) {
          sink += disc.sweep_cell(CellId{c}, ang, q,
                                  sn::FaceFluxView{&ws, &cs});
        } else {
          disc.sweep_cell_set(CellId{c}, ang, width, q.data(), sigma_t.data(),
                              sn::FaceFluxSetView{&ws, &cs, width}, psi);
          sink += psi[0];
        }
      }
    }
    ns.push_back((now_s() - t0) * 1e9 /
                 static_cast<double>(cells * quad.num_angles() * width));
  }
  if (!std::isfinite(sink))
    throw std::runtime_error("kernel probe produced a non-finite flux");
  return median(ns);
}

// --- Fixed-source workloads (source iteration) ------------------------------

/// kobayashi_si: the paper's structured case (Kobayashi 32³, S4, vacuum,
/// 64 patches of 8³ cells, 1 rank × 3 workers).
struct KobayashiSi {
  using Mesh = mesh::StructuredMesh;
  using Disc = sn::StructuredDD;
  using Reference = sn::StructuredSerialSweeper;
  static constexpr int kRanks = 1;
  static constexpr int kWorkers = 3;
  static constexpr sweep::CyclePolicy kCycles = sweep::CyclePolicy::Error;

  static Mesh make_mesh() { return mesh::make_kobayashi_mesh(32); }
  static std::unique_ptr<partition::PatchSet> make_patches(const Mesh& m) {
    const partition::StructuredBlockLayout layout(m.dims(), {8, 8, 8});
    const partition::CsrGraph cg = partition::cell_graph(m);
    return std::make_unique<partition::PatchSet>(
        partition::block_partition(layout), layout.num_patches(), &cg);
  }
  static sn::MaterialTable table() { return sn::MaterialTable::kobayashi(); }
};

/// swirled_lag: the unstructured, cyclic case (swirled tet ball n=16,
/// S4, CyclePolicy::Lag, ~500-cell graph patches, 2 ranks × 1 worker).
struct SwirledLag {
  using Mesh = mesh::TetMesh;
  using Disc = sn::TetStep;
  using Reference = sn::SerialSweeper;
  static constexpr int kRanks = 2;
  static constexpr int kWorkers = 1;
  static constexpr sweep::CyclePolicy kCycles = sweep::CyclePolicy::Lag;

  static Mesh make_mesh() { return mesh::make_swirled_ball_mesh(16, 50.0); }
  static std::unique_ptr<partition::PatchSet> make_patches(const Mesh& m) {
    const partition::CsrGraph cg = partition::cell_graph(m);
    const int parts =
        std::max(2, static_cast<int>(m.num_cells() / 500));
    return std::make_unique<partition::PatchSet>(
        partition::partition_graph(cg, parts), parts, &cg);
  }
  static sn::MaterialTable table() { return sn::MaterialTable::ball(); }
};

template <class P>
struct SiInputs {
  std::unique_ptr<typename P::Mesh> mesh;
  std::unique_ptr<partition::PatchSet> patches;
  sn::CellXs xs;
  std::unique_ptr<typename P::Disc> disc;
};

/// Mesh, partition, seeded cross sections and kernel; spans "mesh" and
/// "partition" go under `parent` when a recorder is given.
template <class P>
SiInputs<P> make_si_inputs(std::uint64_t seed, SpanRecorder* rec, int trace,
                           int parent) {
  SiInputs<P> in;
  {
    const ScopedSpan s(rec, "mesh", trace, parent);
    in.mesh = std::make_unique<typename P::Mesh>(P::make_mesh());
  }
  {
    const ScopedSpan s(rec, "partition", trace, parent);
    in.patches = P::make_patches(*in.mesh);
  }
  in.xs = sn::expand(P::table(), in.mesh->materials(), in.mesh->num_cells());
  jitter_xs(seed, in.xs);
  in.disc = std::make_unique<typename P::Disc>(*in.mesh, in.xs);
  return in;
}

template <class P>
RunData run_source_iteration(const Args& args, SpanRecorder* rec) {
  RunData data;
  const sn::Quadrature quad = sn::Quadrature::level_symmetric(kQuadratureOrder);
  const sn::SourceIterationOptions si{1e-6, 200, false};
  data.angles = quad.num_angles();

  // Serial reference, once, outside every timed region.
  std::vector<double> reference;
  {
    const SiInputs<P> in = make_si_inputs<P>(args.seed, nullptr, 0, -1);
    data.cells = in.mesh->num_cells();
    const double t0 = now_s();
    {
      const ScopedSpan s(rec, "reference", rec ? rec->new_trace() : 0);
      typename P::Reference sweeper(*in.disc, quad);
      reference = sn::source_iteration(
                      in.xs,
                      [&](const std::vector<double>& q) {
                        return sweeper.sweep(q);
                      },
                      si)
                      .phi;
    }
    data.reference_s = now_s() - t0;
    if (rec != nullptr) {
      const std::vector<double> q = sn::emission_density(in.xs, reference);
      data.kernel_ns =
          kernel_probe(*in.mesh, *in.patches, *in.disc, quad, 1, q,
                       in.xs.sigma_t);
    }
  }

  std::vector<EngineTotals> engine(P::kRanks);
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const bool last = rep + 1 == kSetupReps;
    const int trace = rec != nullptr ? rec->new_trace() : 0;
    const int root = rec != nullptr ? rec->open("setup", trace, -1) : -1;
    const double t0 = now_s();
    const SiInputs<P> in = make_si_inputs<P>(args.seed, rec, trace, root);
    double setup_end = 0.0;
    std::vector<PlanCounts> counts(P::kRanks);

    comm::Cluster::run(P::kRanks, [&](comm::Context& ctx) {
      const int rank = ctx.rank().value();
      SpanRecorder* const rec0 = rank == 0 ? rec : nullptr;
      sweep::PlanConfig pc;
      pc.cycle_policy = P::kCycles;
      sweep::SolveConfig sc;
      sc.num_workers = P::kWorkers;
      sc.scheduler_seed = args.seed;
      std::shared_ptr<const sweep::SweepPlan> plan;
      {
        const ScopedSpan s(rec0, "plan", trace, root);
        plan = sweep::SweepPlan::build(
            ctx, *in.mesh, *in.patches,
            partition::assign_contiguous(in.patches->num_patches(),
                                         P::kRanks),
            *in.disc, quad, pc);
      }
      counts[static_cast<std::size_t>(rank)] = plan_counts(*plan);
      std::unique_ptr<sweep::SweepSession> session;
      {
        const ScopedSpan s(rec0, "session", trace, root);
        session = std::make_unique<sweep::SweepSession>(ctx, plan, sc);
      }
      ctx.barrier();
      if (rank == 0) {
        setup_end = now_s();
        if (rec != nullptr) rec->close(root);
      }
      if (!last) return;

      // Closed loop: one solve at a time until the deadline. Each solve
      // gets a fresh session so lagged iterates restart from vacuum; the
      // first reuses the set-up's session.
      const double start = now_s();
      for (int solves = 0; keep_going(ctx, solves, min_solves(args), start,
                                        args.seconds);
           ++solves) {
        // A traced run alternates untraced and traced solves; the
        // difference of their medians is the tracing overhead.
        const bool traced = args.trace && solves % 2 == 1;
        const int strace = rec0 != nullptr ? rec0->new_trace() : 0;
        if (!session) {
          const ScopedSpan s(rec0, "session", strace);
          session = std::make_unique<sweep::SweepSession>(ctx, plan, sc);
        }
        ctx.barrier();
        sn::SourceIterationResult r;
        const double s0 = now_s();
        if (traced) {
          const ScopedSpan solve(rec0, "solve", strace);
          const auto op = [&](const std::vector<double>& q) {
            const ScopedSpan s(rec0, "sweep", strace, solve.id());
            auto phi = session->sweep(q);
            engine[static_cast<std::size_t>(rank)].add(
                session->stats().engine);
            return phi;
          };
          r = sn::source_iteration(in.xs, op, si);
        } else {
          r = sn::source_iteration(in.xs, session->as_operator(), si);
        }
        const double s1 = now_s();
        if (rank == 0) {
          Sample smp;
          smp.seconds = s1 - s0;
          smp.traced = traced;
          smp.iterations = r.iterations;
          smp.sweeps = session->stats().sweeps;
          smp.error = sn::relative_linf(reference, r.phi);
          smp.converged = r.converged;
          data.samples.push_back(smp);
          if (traced) data.session_sweeps += session->stats().sweeps;
        }
        session.reset();
      }
    });
    data.setup_s.push_back(setup_end - t0);
    data.plan_counts.push_back(sum_ranks(counts));
  }
  for (const auto& e : engine) data.engine.merge(e);
  if (rec != nullptr) data.sweep_s = rec->durations("sweep");
  return data;
}

// --- Eigenvalue workload ----------------------------------------------------

/// reactor_keff: Kobayashi geometry 16³, an 8-group downscatter cascade
/// with fission in the source material (νΣ_f = 0.4 σ_t, fast-born χ — the
/// construction of `jsweep_cli --k-eigenvalue`), group-set width 4, albedo
/// 1 on the three low sides, S4, 64 patches, 1 rank × 3 workers.
constexpr int kReactorGroups = 8;
constexpr int kReactorSetWidth = 4;
constexpr int kReactorQuadratureOrder = 2;
/// k tolerance; the fission-source tolerance is 100x looser and the inner
/// tolerance equal, as `jsweep_cli --k-eigenvalue --tolerance` sets them.
constexpr double kReactorTolerance = 1e-4;

struct ReactorInputs {
  std::unique_ptr<mesh::StructuredMesh> mesh;
  std::unique_ptr<partition::PatchSet> patches;
  std::unique_ptr<sn::MultigroupXs> xs;
  std::unique_ptr<sn::FissionXs> fission;
  std::unique_ptr<sn::StructuredDD> disc;
};

sn::BoundarySpec reactor_boundary() {
  sn::BoundarySpec bc;
  bc.side(mesh::FaceDir::XLo) = 1.0;
  bc.side(mesh::FaceDir::YLo) = 1.0;
  bc.side(mesh::FaceDir::ZLo) = 1.0;
  return bc;
}

ReactorInputs make_reactor_inputs(std::uint64_t seed, SpanRecorder* rec,
                                  int trace, int parent) {
  ReactorInputs in;
  {
    const ScopedSpan s(rec, "mesh", trace, parent);
    in.mesh = std::make_unique<mesh::StructuredMesh>(
        mesh::make_kobayashi_mesh(16));
  }
  {
    const ScopedSpan s(rec, "partition", trace, parent);
    const partition::StructuredBlockLayout layout(in.mesh->dims(), {4, 4, 4});
    const partition::CsrGraph cg = partition::cell_graph(*in.mesh);
    in.patches = std::make_unique<partition::PatchSet>(
        partition::block_partition(layout), layout.num_patches(), &cg);
  }
  const sn::MaterialTable table = sn::MaterialTable::kobayashi();
  const std::int64_t cells = in.mesh->num_cells();
  in.xs = std::make_unique<sn::MultigroupXs>(sn::MultigroupXs::cascade(
      table, in.mesh->materials(), cells, kReactorGroups));
  jitter_xs(seed, *in.xs);
  in.fission = std::make_unique<sn::FissionXs>(kReactorGroups, cells);
  in.fission->chi(0) = 1.0;
  for (std::int64_t c = 0; c < cells; ++c) {
    if (table.at(in.mesh->materials()[static_cast<std::size_t>(c)]).source <=
        0.0)
      continue;
    for (int g = 0; g < kReactorGroups; ++g)
      in.fission->nu_sigma_f(g, c) = 0.4 * in.xs->sigma_t(g, c);
  }
  sn::CellXs base = sn::expand(table, in.mesh->materials(), cells);
  jitter_xs(seed, base);
  in.disc = std::make_unique<sn::StructuredDD>(*in.mesh, std::move(base),
                                               true, reactor_boundary());
  return in;
}

sweep::EigenOptions reactor_options() {
  sweep::EigenOptions o;
  o.max_outer_iterations = 200;
  o.k_tolerance = kReactorTolerance;
  o.fission_tolerance = 100.0 * kReactorTolerance;
  o.multigroup.inner = {kReactorTolerance, 200, false};
  o.multigroup.group_set_width = kReactorSetWidth;
  return o;
}

/// Sum of every series of registry family `name` whose labels include
/// `label` (all series when `label` is empty).
double family_sum(const std::vector<metrics::FamilySnapshot>& snap,
                  const std::string& name,
                  const std::pair<std::string, std::string>& label = {}) {
  double total = 0.0;
  for (const auto& fam : snap) {
    if (fam.name != name) continue;
    for (const auto& s : fam.series) {
      if (!label.first.empty() &&
          std::find(s.labels.begin(), s.labels.end(), label) ==
              s.labels.end())
        continue;
      switch (fam.kind) {
        case metrics::Kind::kCounter:
          total += static_cast<double>(s.counter_value);
          break;
        case metrics::Kind::kGauge:
          total += s.gauge_value;
          break;
        case metrics::Kind::kHistogram:
          total += s.histogram.sum;
          break;
      }
    }
  }
  return total;
}

std::int64_t histogram_count(const std::vector<metrics::FamilySnapshot>& snap,
                             const std::string& name) {
  std::int64_t n = 0;
  for (const auto& fam : snap)
    if (fam.name == name)
      for (const auto& s : fam.series) n += s.histogram.count;
  return n;
}

/// Fold one traced eigen solve's registry into the run's totals. The
/// registry has no master route timer: core.master_route_s here is the
/// master's unblocked time, pass wall time minus master idle time.
void read_registry(const metrics::Registry& reg, RunData& data) {
  const auto snap = reg.snapshot();
  const auto count = [&](const std::string& name,
                         const std::pair<std::string, std::string>& l = {}) {
    return static_cast<std::int64_t>(family_sum(snap, name, l));
  };
  EngineTotals& e = data.engine;
  e.runs += count("jsweep_engine_runs_total");
  e.executions += count("jsweep_engine_executions_total");
  e.streams_local += count("jsweep_engine_streams_total", {"path", "local"});
  e.streams_remote +=
      count("jsweep_engine_streams_total", {"path", "remote"});
  e.stream_bytes += count("jsweep_engine_stream_bytes_total");
  e.messages += count("jsweep_engine_messages_total");
  const std::int64_t hits =
      count("jsweep_engine_steals_total", {"result", "hit"});
  e.steals += hits;
  e.steal_attempts +=
      hits + count("jsweep_engine_steals_total", {"result", "miss"});
  e.busy_s += family_sum(snap, "jsweep_engine_worker_busy_seconds");
  e.idle_s += family_sum(snap, "jsweep_engine_worker_idle_seconds");
  const double master_idle =
      family_sum(snap, "jsweep_engine_master_idle_seconds");
  const double pass_wall = family_sum(snap, "jsweep_session_sweep_seconds");
  e.master_idle_s += master_idle;
  e.master_route_s += pass_wall - master_idle;
  const std::int64_t passes =
      histogram_count(snap, "jsweep_session_sweep_seconds");
  if (passes > 0)
    data.sweep_s.push_back(pass_wall / static_cast<double>(passes));
  data.session_sweeps += count("jsweep_session_sweeps_total");
  data.multigroup_passes += count("jsweep_pipeline_passes_total");
  data.pipeline_activations += count("jsweep_pipeline_activations_total");
  data.pipeline_fill_s += family_sum(snap, "jsweep_pipeline_fill_seconds");
}

/// Relative L∞ distance of an eigen solve from the reference: the larger
/// of the k error and every group's φ error.
double eigen_error(const sweep::EigenResult& ref,
                   const sweep::EigenResult& r) {
  double err = std::abs(r.k - ref.k) / std::abs(ref.k);
  for (std::size_t g = 0; g < ref.phi.size(); ++g)
    err = std::max(err, sn::relative_linf(ref.phi[g], r.phi[g]));
  return err;
}

RunData run_reactor(const Args& args, SpanRecorder* rec) {
  RunData data;
  const sn::Quadrature quad =
      sn::Quadrature::level_symmetric(kReactorQuadratureOrder);
  const sweep::EigenOptions options = reactor_options();
  data.angles = quad.num_angles();
  data.groups = kReactorGroups;

  sweep::EigenResult reference;
  {
    ReactorInputs in = make_reactor_inputs(args.seed, nullptr, 0, -1);
    data.cells = in.mesh->num_cells();
    sn::MultigroupXs& xs = *in.xs;
    const auto group_sweep = [&](int g) -> sn::SweepOperator {
      auto disc = std::make_shared<sn::StructuredDD>(
          *in.mesh, xs.group_view(g), true, reactor_boundary());
      auto sweeper = std::make_shared<sn::StructuredSerialSweeper>(*disc, quad);
      return [disc, sweeper](const std::vector<double>& q) {
        return sweeper->sweep(q);
      };
    };
    const double t0 = now_s();
    {
      const ScopedSpan s(rec, "reference", rec ? rec->new_trace() : 0);
      reference = sweep::solve_k_eigenvalue_serial(
          xs, *in.fission, *in.disc,
          [&] {
            return sn::sequential_sweep_pass(xs, group_sweep,
                                             kReactorSetWidth);
          },
          options);
    }
    data.reference_s = now_s() - t0;
    if (rec != nullptr) {
      // Group set 0 at the converged iterate: within-group emission plus
      // the final outer's fission source, set-strided.
      const auto w = static_cast<std::size_t>(kReactorSetWidth);
      std::vector<double> q(static_cast<std::size_t>(data.cells) * w);
      std::vector<double> sigma_t(q.size());
      for (std::int64_t c = 0; c < data.cells; ++c)
        for (int l = 0; l < kReactorSetWidth; ++l) {
          const std::size_t i = static_cast<std::size_t>(c) * w +
                                static_cast<std::size_t>(l);
          sigma_t[i] = xs.sigma_t(l, c);
          q[i] = (xs.sigma_s(l, l, c) *
                      reference.phi[static_cast<std::size_t>(l)]
                                   [static_cast<std::size_t>(c)] +
                  xs.source(l, c)) *
                 sn::kInvFourPi;
        }
      data.kernel_ns = kernel_probe(*in.mesh, *in.patches, *in.disc, quad,
                                    kReactorSetWidth, q, sigma_t);
    }
  }

  for (int rep = 0; rep < kSetupReps; ++rep) {
    const bool last = rep + 1 == kSetupReps;
    const int trace = rec != nullptr ? rec->new_trace() : 0;
    const int root = rec != nullptr ? rec->open("setup", trace, -1) : -1;
    const double t0 = now_s();
    ReactorInputs in = make_reactor_inputs(args.seed, rec, trace, root);
    double setup_end = 0.0;
    PlanCounts counts;

    comm::Cluster::run(1, [&](comm::Context& ctx) {
      sweep::PlanConfig pc;
      pc.multigroup = in.xs.get();
      pc.group_set_width = kReactorSetWidth;
      sweep::SolveConfig sc;
      sc.num_workers = 3;
      sc.scheduler_seed = args.seed;
      std::shared_ptr<const sweep::SweepPlan> plan;
      {
        const ScopedSpan s(rec, "plan", trace, root);
        plan = sweep::SweepPlan::build(
            ctx, *in.mesh, *in.patches,
            partition::assign_contiguous(in.patches->num_patches(), 1),
            *in.disc, quad, pc);
      }
      counts = plan_counts(*plan);
      setup_end = now_s();
      if (rec != nullptr) {
        // solve_k_eigenvalue makes its own session per outer; this one
        // only measures what each of those costs to create.
        const ScopedSpan s(rec, "session", trace, root);
        const sweep::SweepSession probe(ctx, plan, sc);
      }
      if (rec != nullptr) rec->close(root);
      if (!last) return;

      const double start = now_s();
      for (int solves = 0; keep_going(ctx, solves, min_solves(args), start,
                                        args.seconds);
           ++solves) {
        const bool traced = args.trace && solves % 2 == 1;
        const int strace = rec != nullptr ? rec->new_trace() : 0;
        std::optional<metrics::Registry> registry;
        sweep::SolveConfig run_config = sc;
        if (traced) {
          registry.emplace();
          run_config.metrics.registry = &*registry;
        }
        sweep::EigenResult r;
        const double s0 = now_s();
        {
          const ScopedSpan s(traced ? rec : nullptr, "solve", strace);
          r = sweep::solve_k_eigenvalue(ctx, plan, *in.xs, *in.fission,
                                        options, run_config);
        }
        const double s1 = now_s();
        Sample smp;
        smp.seconds = s1 - s0;
        smp.traced = traced;
        smp.iterations = r.outer_iterations;
        smp.sweeps = r.stats.transport_sweeps;
        smp.error = eigen_error(reference, r);
        smp.converged = r.converged;
        data.samples.push_back(smp);
        if (traced) read_registry(*registry, data);
      }
    });
    data.setup_s.push_back(setup_end - t0);
    data.plan_counts.push_back(counts);
  }
  return data;
}

// --- Report -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Highest percentile with at least ten samples above it, as text.
std::string tail(std::vector<double> v) {
  if (v.size() < 11) return "tail n/a (n < 11)";
  std::sort(v.begin(), v.end());
  const std::size_t i = v.size() - 11;
  char buf[96];
  std::snprintf(buf, sizeof(buf), "p%.1f %.6g",
                100.0 * static_cast<double>(i + 1) /
                    static_cast<double>(v.size()),
                v[i]);
  return buf;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int report(const Args& args, const RunData& d, const SpanRecorder* rec) {
  // Exact-repeat checks: plan structure across set-ups, sweep and
  // iteration counts across solves. A mismatch fails the solve.
  bool plan_repeat = true;
  for (const auto& pc : d.plan_counts)
    plan_repeat = plan_repeat && pc == d.plan_counts.front();
  const Sample& first = d.samples.front();
  std::int64_t failed = 0;
  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  double worst_error = 0.0;
  for (const Sample& s : d.samples) {
    const bool ok = plan_repeat && s.converged && s.error <= kReferenceBound &&
                    s.iterations == first.iterations &&
                    s.sweeps == first.sweeps;
    if (!ok) ++failed;
    worst_error = std::max(worst_error, s.error);
    (s.traced ? traced_s : untraced_s).push_back(s.seconds);
  }
  const auto attempted = static_cast<std::int64_t>(d.samples.size());
  const PlanCounts& plan = d.plan_counts.front();
  const double work = static_cast<double>(d.cells * d.angles) *
                      static_cast<double>(first.sweeps);

  std::printf("workload %s seed %llu: %lld cells, %lld angles, %lld "
              "group(s), %lld sweeps per solve\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              static_cast<long long>(d.cells),
              static_cast<long long>(d.angles),
              static_cast<long long>(d.groups),
              static_cast<long long>(first.sweeps));
  std::printf("reference check: worst relative Linf %.3g (bound %.0e), "
              "%lld of %lld solves failed (failed_frac %.3f)%s\n",
              worst_error, kReferenceBound, static_cast<long long>(failed),
              static_cast<long long>(attempted),
              static_cast<double>(failed) / static_cast<double>(attempted),
              plan_repeat ? "" : ", plan counts differ across set-ups");
  std::printf("setup_s median %.6g, %s, n=%zu:", median(d.setup_s),
              tail(d.setup_s).c_str(), d.setup_s.size());
  for (const double s : d.setup_s) std::printf(" %.4g", s);
  std::printf("\n");
  std::printf("solve_s median %.6g, %s, n=%zu (untraced):",
              median(untraced_s), tail(untraced_s).c_str(),
              untraced_s.size());
  for (const double s : untraced_s) std::printf(" %.4g", s);
  std::printf("\n");

  std::vector<Metric> out;
  if (!args.trace) {
    const double solve = median(untraced_s);
    out = {{"setup_s", median(d.setup_s), "s"},
           {"solve_s", solve, "s"},
           {"grind_ns", solve * 1e9 / work, "ns"},
           {"peak_rss_mb", peak_rss_mb(), "MB"}};
  } else {
    const double n =
        std::max<double>(1.0, static_cast<double>(traced_s.size()));
    const EngineTotals& e = d.engine;
    const auto span_median = [&](const char* name) {
      return median(rec->durations(name));
    };
    const double busy_ns = e.busy_s * 1e9 / (work * n);
    out = {
        {"mesh.build_s", span_median("mesh"), "s"},
        {"partition.build_s", span_median("partition"), "s"},
        {"partition.patches", static_cast<double>(plan.patches), "count"},
        {"plan.build_s", span_median("plan"), "s"},
        {"plan.programs", static_cast<double>(plan.programs), "count"},
        {"plan.task_data", static_cast<double>(plan.task_data), "count"},
        {"graph.cyclic_angles", static_cast<double>(plan.cyclic_angles),
         "count"},
        {"graph.edges_cut", static_cast<double>(plan.edges_cut), "count"},
        {"graph.largest_scc", static_cast<double>(plan.largest_scc), "cells"},
        {"session.create_s", span_median("session"), "s"},
        {"session.sweep_s", median(d.sweep_s), "s"},
        {"session.sweeps", static_cast<double>(d.session_sweeps) / n,
         "count"},
        {"sn.kernel_ns", d.kernel_ns, "ns"},
        {"sn.reference_s", d.reference_s, "s"},
        {"sn.iterations", static_cast<double>(first.iterations), "count"},
        {"sn.transport_sweeps", static_cast<double>(first.sweeps), "count"},
        {"sn.multigroup_passes", static_cast<double>(d.multigroup_passes) / n,
         "count"},
        {"core.engine_runs", static_cast<double>(e.runs) / n, "count"},
        {"core.executions", static_cast<double>(e.executions) / n, "count"},
        {"core.cell_angles_per_exec",
         e.executions > 0 ? work * n / static_cast<double>(e.executions) : 0.0,
         "count"},
        {"core.busy_ns_per_cell_angle", busy_ns, "ns"},
        {"core.overhead_x", d.kernel_ns > 0.0 ? busy_ns / d.kernel_ns : 0.0,
         "x"},
        {"core.idle_fraction",
         e.busy_s + e.idle_s > 0.0 ? e.idle_s / (e.busy_s + e.idle_s) : 0.0,
         "fraction"},
        {"core.master_route_s", e.master_route_s / n, "s"},
        {"core.master_idle_s", e.master_idle_s / n, "s"},
        {"core.steal_attempts", static_cast<double>(e.steal_attempts) / n,
         "count"},
        {"core.steals", static_cast<double>(e.steals) / n, "count"},
        {"core.steal_hit_rate",
         e.steal_attempts > 0 ? static_cast<double>(e.steals) /
                                    static_cast<double>(e.steal_attempts)
                              : 0.0,
         "fraction"},
        {"core.streams_local", static_cast<double>(e.streams_local) / n,
         "count"},
        {"comm.streams_remote", static_cast<double>(e.streams_remote) / n,
         "count"},
        {"comm.messages", static_cast<double>(e.messages) / n, "count"},
        {"comm.stream_bytes", static_cast<double>(e.stream_bytes) / n,
         "bytes"},
        {"comm.bytes_per_sweep",
         static_cast<double>(e.stream_bytes) /
             (n * static_cast<double>(first.sweeps)),
         "bytes"},
        {"pipeline.activations",
         static_cast<double>(d.pipeline_activations) / n, "count"},
        {"pipeline.fill_s", d.pipeline_fill_s / n, "s"},
    };
    const auto self = rec->self_seconds_per_trace();
    for (const char* span : {"setup", "mesh", "partition", "plan", "session",
                             "reference", "solve", "sweep"}) {
      const auto it = self.find(span);
      out.push_back({std::string("span.") + span + ".self_s",
                     it != self.end() ? it->second : 0.0, "s"});
    }
    const double untraced = median(untraced_s);
    out.push_back({"trace.overhead_frac",
                   untraced > 0.0 ? median(traced_s) / untraced - 1.0 : 0.0,
                   "fraction"});
  }

  for (const Metric& m : out)
    std::printf("  %-28s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              failed == 0 ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed));
  for (std::size_t i = 0; i < out.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i > 0 ? ", " : "", out[i].name.c_str(), out[i].value,
                out[i].unit.c_str());
  std::printf("}}\n");
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> args = parse_args(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: jsweep_perfbench --workload "
                 "kobayashi_si|swirled_lag|reactor_keff --seed N --seconds S "
                 "--trace 0|1 [--spans PATH]\n");
    return 2;
  }
  try {
    std::optional<SpanRecorder> recorder;
    if (args->trace) recorder.emplace();
    SpanRecorder* const rec = recorder ? &*recorder : nullptr;
    RunData data;
    if (args->workload == "kobayashi_si") {
      data = run_source_iteration<KobayashiSi>(*args, rec);
    } else if (args->workload == "swirled_lag") {
      data = run_source_iteration<SwirledLag>(*args, rec);
    } else if (args->workload == "reactor_keff") {
      data = run_reactor(*args, rec);
    } else {
      std::fprintf(stderr, "unknown workload '%s'\n", args->workload.c_str());
      return 2;
    }
    if (rec != nullptr && !args->spans_path.empty() &&
        !rec->write_json(args->spans_path)) {
      std::fprintf(stderr, "cannot write spans to %s\n",
                   args->spans_path.c_str());
      return 1;
    }
    return report(*args, data, rec);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
