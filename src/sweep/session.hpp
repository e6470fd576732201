#pragma once

/// \file session.hpp
/// The per-request half of the two-phase solver lifecycle.
///
/// A **SweepSession** executes solves against a shared immutable SweepPlan
/// (plan.hpp). It owns exactly the state one solve request needs: the
/// current source vector, the per-session FaceFluxPool the kernels draw
/// workspaces from, the lagged (cycle-cut) old-iterate *values* (a copy of
/// the plan's slot-layout template), the group-pipeline gates of a
/// multigroup solve, and — in standalone mode — the engine the programs
/// run on. Creating a session performs no task-graph construction and no
/// face-slot interning; those live in the plan.
///
/// Two modes:
///  - **standalone** (the common case): the session owns a core::Engine or
///    core::BspEngine and sweep()/solve_multigroup() drive it directly.
///  - **service-attached**: the session registers its programs into a host
///    engine under a request-lane tag offset (lane_task_tag) and exposes
///    the begin_sweep()/commit_lagged()/finish_sweep() protocol; the
///    SweepService (service.hpp) runs the host engine over all lanes of a
///    batch at once.

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "comm/cluster.hpp"
#include "core/bsp_engine.hpp"
#include "core/engine.hpp"
#include "sn/multigroup.hpp"
#include "sn/source_iteration.hpp"
#include "sweep/group_pipeline.hpp"
#include "sweep/plan.hpp"
#include "sweep/sweep_program.hpp"

namespace jsweep::trace {
class Recorder;
}  // namespace jsweep::trace

namespace jsweep::sweep {

/// Which runtime executes the sweep programs.
enum class EngineKind {
  DataDriven,  ///< core::Engine — the paper's asynchronous runtime
  Bsp,         ///< core::BspEngine — the superstep baseline
};

/// Runtime-tracing knob: when `recorder` is non-null every engine run of
/// the session records events into it, ready for trace::write_chrome_trace
/// / trace::analyze. Null (default) = off.
struct TraceConfig {
  trace::Recorder* recorder = nullptr;  ///< null disables tracing
};

/// Live-metrics knob: when `registry` is non-null the session, its engines
/// and its group pipeline publish live counters/gauges/histograms into it
/// (metrics/metrics.hpp; exposition via metrics/export.hpp). Null
/// (default) = off — every update site degrades to one pointer check.
struct MetricsConfig {
  metrics::Registry* registry = nullptr;  ///< null disables metrics
};

/// The execution-time knobs of one session — everything a solve request
/// may vary without touching the plan. Structure-determining knobs live in
/// PlanConfig (plan.hpp).
struct SolveConfig {
  EngineKind engine = EngineKind::DataDriven;  ///< runtime selection
  int num_workers = 2;  ///< worker threads per rank (standalone mode)
  /// With CyclePolicy::Lag and a cyclic mesh, run up to this many engine
  /// sweeps per sweep() call, re-feeding the lagged faces each time, until
  /// their residual drops below `lag_tolerance`. 1 = plain lagging (the
  /// outer source iteration absorbs the lag error).
  int max_lag_sweeps = 1;
  double lag_tolerance = 0.0;  ///< stop the lag loop below this residual
  /// Seed of the engine's deterministic scheduling tie-breaks (owner
  /// assignment rotation, steal-victim order).
  std::uint64_t scheduler_seed = 0;
  /// Runtime tracing (off unless a recorder is supplied).
  TraceConfig trace;
  /// Live metrics (off unless a registry is supplied).
  MetricsConfig metrics;
};

/// Counters and timings accumulated across a session's lifetime. Cycle
/// diagnostics and build time are inherited from the plan.
struct SolveStats {
  int sweeps = 0;  ///< transport sweeps executed (all groups counted)
  /// Energy groups of the solve (1 unless multigroup).
  int groups = 1;
  /// Multigroup sweep passes executed by solve_multigroup().
  int multigroup_passes = 0;
  double build_seconds = 0.0;       ///< plan build + program install time
  double last_sweep_seconds = 0.0;  ///< wall time of the last sweep/pass
  core::EngineStats engine;  ///< last data-driven run
  core::BspStats bsp;        ///< last BSP run
  // Cycle-breaking diagnostics (all zero on acyclic meshes).
  graph::CycleStats cycles;  ///< accumulated over all angles at plan build
  int cyclic_angles = 0;     ///< directions that needed a cut
  int last_lag_sweeps = 0;   ///< engine runs of the last sweep() call
  double last_lag_residual = 0.0;  ///< max lagged-face change, last commit
  /// Worker idle share, idle / (busy + idle), of the last data-driven
  /// engine run (0 on BSP runs, whose stats carry no busy/idle split).
  double last_idle_fraction = 0.0;
};

/// A solve session over a shared immutable plan (see \ref session.hpp).
/// One instance per rank per request; all solve entry points are
/// collective across the cluster the plan was built on.
class SweepSession {
 public:
  /// Standalone session: owns its engine, ready for sweep() /
  /// solve_multigroup(). `ctx` must match the plan's build rank/size and
  /// outlive the session.
  SweepSession(comm::Context& ctx, std::shared_ptr<const SweepPlan> plan,
               SolveConfig config = {});

  /// Service-attached session (request lane `lane` ≥ 0): registers its
  /// programs into `host` under the lane's tag namespace and is driven via
  /// begin_sweep()/commit_lagged()/finish_sweep() by the SweepService.
  /// `host` must outlive the session; the direct solve entry points are
  /// unavailable in this mode.
  SweepSession(comm::Context& ctx, std::shared_ptr<const SweepPlan> plan,
               SolveConfig config, core::Engine& host, int lane);

  ~SweepSession();  ///< joins nothing; engines stop at end of each run

  SweepSession(const SweepSession&) = delete;             ///< non-copyable
  SweepSession& operator=(const SweepSession&) = delete;  ///< non-copyable

  /// One full transport sweep over all angles; returns the global scalar
  /// flux (identical on every rank). Collective. Single-group plans only —
  /// a pipelined multigroup plan must go through solve_multigroup().
  std::vector<double> sweep(const std::vector<double>& q_per_ster);

  /// One standalone transport sweep of energy group g: swaps in group g's
  /// kernel and runs the shared single-group task system (requires a
  /// multigroup plan with group_pipelining off). Collective. On cyclic
  /// meshes with G > 1 this refuses — per-call lag commits would
  /// cross-contaminate the groups' old iterates; use solve_multigroup(),
  /// whose passes commit once per pass over all groups.
  std::vector<double> sweep_group(GroupId g,
                                  const std::vector<double>& q_per_ster);

  /// Full multigroup solve over the plan's MultigroupXs with the
  /// sweep-pass outer scheme (sn::solve_multigroup_sweeps): pipelined
  /// passes when the plan was built with group_pipelining, per-group
  /// barriered engine runs otherwise. Collective; identical result on
  /// every rank.
  sn::MultigroupResult solve_multigroup(
      const sn::MultigroupOptions& options = {});

  /// Adapter for sn::source_iteration.
  [[nodiscard]] sn::SweepOperator as_operator() {
    return [this](const std::vector<double>& q) { return sweep(q); };
  }

  /// Swap the per-cell sweep kernel for subsequent sweeps (per-request
  /// cross sections over the same mesh); null restores the plan's kernel.
  /// Single-group plans only; the kernel must cover the plan's cells.
  void set_kernel(const sn::Discretization* disc);

  /// The shared plan this session executes.
  [[nodiscard]] const SweepPlan& plan() const { return *plan_; }
  /// Counters and timings accumulated so far.
  [[nodiscard]] const SolveStats& stats() const { return stats_; }
  /// Observability for tests/benches: the per-session face-flux workspace
  /// pool (created/acquire/reuse counters prove steady-state recycling).
  [[nodiscard]] const sn::FaceFluxPool& flux_pool() const {
    return flux_pool_;
  }

  // --- Service-lane protocol (used by SweepService; public so tests can
  // --- drive attached sessions directly) --------------------------------

  /// True for service-attached sessions (host engine, lane tag offset).
  [[nodiscard]] bool attached() const { return host_ != nullptr; }
  /// Request lane of an attached session (0 for standalone).
  [[nodiscard]] int lane() const { return lane_; }
  /// Engine keys of this session's programs (one per (patch, angle, group)
  /// in the lane's tag namespace) — what the service enables/disables to
  /// run only the current batch's lanes.
  [[nodiscard]] const std::vector<ProgramKey>& program_keys() const {
    return keys_;
  }
  /// Stage the source vector for the next host-engine run (attached mode's
  /// first third of sweep()).
  void begin_sweep(const std::vector<double>& q_per_ster);
  /// True when the plan carries cycle cuts (the service must commit the
  /// session's lagged store after every engine run).
  [[nodiscard]] bool has_lagged() const { return !lagged_store_.empty(); }
  /// Commit this session's lagged store (collective); returns the residual
  /// (max lagged-face change). Call once per engine run, in lane order.
  double commit_lagged();
  /// Collect and allreduce this session's scalar flux after a host-engine
  /// run (attached mode's last third of sweep()). Collective.
  std::vector<double> finish_sweep();

 private:
  /// Common ctor: `host` null = standalone (own engine per `config`).
  SweepSession(comm::Context& ctx, std::shared_ptr<const SweepPlan> plan,
               SolveConfig config, core::Engine* host, int lane);

  void install_programs();
  void collect_phi(std::vector<double>& phi_global) const;
  /// Exactly one engine (or BSP) run; updates the engine stats.
  void run_engine_once();
  /// Engine run(s) including the cyclic-mesh lag loop (commit after every
  /// run) — the single-group sweep() core.
  void run_engines_once();
  /// One multigroup sweep pass (sn::MultigroupSweepPass shape), pipelined
  /// or barriered per the plan. On cut meshes the lagged store commits
  /// once per pass (after ALL groups), and `max_lag_sweeps` repeats the
  /// whole pass — both modes therefore see identical old iterates.
  void multigroup_pass(const std::vector<std::vector<double>>& q_base,
                       std::vector<std::vector<double>>& phi);

  comm::Context& ctx_;
  std::shared_ptr<const SweepPlan> plan_;
  SolveConfig config_;
  core::Engine* host_ = nullptr;  ///< non-null = service-attached
  int lane_ = 0;

  SweepShared shared_;
  /// Per-session lagged values (copy of the plan's slot-layout template).
  LaggedFluxStore lagged_store_;
  /// Face-flux workspaces recycled across programs and sweeps (dense hot
  /// path; see sn/face_flux.hpp).
  sn::FaceFluxPool flux_pool_;
  std::vector<double> q_current_;

  /// Per-session multigroup gate/source coordinator (pipelined plans).
  std::unique_ptr<GroupPipeline> pipeline_;
  /// Source-tail overlap state: true once a pipelined pass has run with
  /// the overlap enabled, so the pipeline's next_pass_q() is valid for
  /// the following pass's q_base formation. Reset per solve.
  bool next_q_armed_ = false;
  std::vector<std::unique_ptr<std::mutex>> patch_mutex_;  ///< ablation

  std::unique_ptr<core::Engine> engine_;
  std::unique_ptr<core::BspEngine> bsp_;
  std::vector<SweepPatchProgram*> programs_;  ///< engine-owned, fixed order
  std::vector<ProgramKey> keys_;              ///< parallel to programs_

  // Live instruments, created once at construction when
  // config_.metrics.registry is set (all null otherwise).
  metrics::Counter* metric_sweeps_ = nullptr;
  metrics::Histogram* metric_sweep_seconds_ = nullptr;
  metrics::Gauge* metric_lag_residual_ = nullptr;
  metrics::Gauge* metric_lag_sweeps_ = nullptr;
  metrics::Gauge* metric_idle_fraction_ = nullptr;

  SolveStats stats_;
};

}  // namespace jsweep::sweep
