#include "sweep/session.hpp"

#include <algorithm>
#include <string>

#include "metrics/metrics.hpp"
#include "support/check.hpp"
#include "support/timer.hpp"

namespace jsweep::sweep {

SweepSession::SweepSession(comm::Context& ctx,
                           std::shared_ptr<const SweepPlan> plan,
                           SolveConfig config)
    : SweepSession(ctx, std::move(plan), config, nullptr, 0) {}

SweepSession::SweepSession(comm::Context& ctx,
                           std::shared_ptr<const SweepPlan> plan,
                           SolveConfig config, core::Engine& host, int lane)
    : SweepSession(ctx, std::move(plan), config, &host, lane) {}

SweepSession::SweepSession(comm::Context& ctx,
                           std::shared_ptr<const SweepPlan> plan,
                           SolveConfig config, core::Engine* host, int lane)
    : ctx_(ctx),
      plan_(std::move(plan)),
      config_(config),
      host_(host),
      lane_(lane) {
  JSWEEP_CHECK_MSG(plan_ != nullptr, "session needs a plan");
  JSWEEP_CHECK_MSG(
      ctx_.size() == plan_->built_size() && ctx_.rank() == plan_->built_rank(),
      "session on rank " << ctx_.rank() << " of " << ctx_.size()
                         << " ranks, but the plan was built on rank "
                         << plan_->built_rank() << " of "
                         << plan_->built_size()
                         << " — a plan binds to the cluster shape it was "
                            "built for");
  JSWEEP_CHECK(lane_ >= 0);
  JSWEEP_CHECK_MSG(host_ == nullptr || config_.engine == EngineKind::DataDriven,
                   "service-attached sessions run on the host data-driven "
                   "engine; EngineKind::Bsp is standalone-only");

  WallTimer timer;
  const PlanConfig& pc = plan_->config();
  shared_.disc = &plan_->disc();
  shared_.patches = &plan_->patches();
  shared_.quad = &plan_->quadrature();

  // Per-session lagged values: the plan's slot layout (identical store
  // slots to the ones its task data was interned against), vacuum values.
  lagged_store_ = plan_->lagged_template();
  if (!lagged_store_.empty()) shared_.lagged = &lagged_store_;
  shared_.flux_pool = &flux_pool_;

  if (pc.multigroup != nullptr && pc.group_pipelining) {
    std::vector<const sn::Discretization*> discs;
    for (int g = 0; g < plan_->num_groups(); ++g)
      discs.push_back(plan_->group_disc(g));
    pipeline_ = std::make_unique<GroupPipeline>(
        *pc.multigroup, plan_->patches(), plan_->num_angles(),
        std::move(discs), pc.group_set_width,
        lane_ * plan_->tags_per_request());
    pipeline_->register_patches(plan_->local_patches());
    pipeline_->set_metrics(config_.metrics.registry, ctx_.rank().value());
    shared_.pipeline = pipeline_.get();
  }

  if (metrics::Registry* reg = config_.metrics.registry; reg != nullptr) {
    const metrics::Labels labels{{"rank", std::to_string(ctx_.rank().value())},
                                 {"lane", std::to_string(lane_)}};
    metric_sweeps_ = &reg->counter("jsweep_session_sweeps_total",
                                   "transport sweeps executed", labels);
    metric_sweep_seconds_ = &reg->histogram(
        "jsweep_session_sweep_seconds", "wall time per sweep or pass",
        metrics::Registry::exponential_buckets(1e-4, 4.0, 10), labels);
    metric_lag_residual_ = &reg->gauge(
        "jsweep_session_lag_residual",
        "max lagged-face change at the last commit", labels);
    metric_lag_sweeps_ = &reg->gauge(
        "jsweep_session_lag_sweeps",
        "engine runs of the last sweep (cycle-lag convergence)", labels);
    metric_idle_fraction_ = &reg->gauge(
        "jsweep_session_idle_fraction",
        "worker idle share of the last engine run", labels);
  }

  if (!pc.patch_angle_parallelism) {
    patch_mutex_.resize(
        static_cast<std::size_t>(plan_->patches().num_patches()));
    for (const auto p : plan_->local_patches())
      patch_mutex_[static_cast<std::size_t>(p.value())] =
          std::make_unique<std::mutex>();
  }

  stats_.groups = plan_->num_groups();
  stats_.cycles = plan_->cycle_stats();
  stats_.cyclic_angles = plan_->cyclic_angles();

  install_programs();
  stats_.build_seconds = plan_->build_seconds() + timer.seconds();
}

SweepSession::~SweepSession() = default;

void SweepSession::install_programs() {
  core::Engine* target = host_;
  if (host_ == nullptr) {
    if (config_.engine == EngineKind::DataDriven) {
      core::EngineConfig ec;
      ec.num_workers = config_.num_workers;
      ec.termination = core::TerminationMode::KnownWorkload;
      ec.recorder = config_.trace.recorder;
      ec.metrics = config_.metrics.registry;
      ec.scheduler_seed = config_.scheduler_seed;
      engine_ = std::make_unique<core::Engine>(ctx_, ec);
      target = engine_.get();
      shared_.stream_buffers = &engine_->buffer_pool();
    } else {
      core::BspConfig bc;
      bc.num_threads = std::max(0, config_.num_workers - 1);
      bc.recorder = config_.trace.recorder;
      bc.metrics = config_.metrics.registry;
      bsp_ = std::make_unique<core::BspEngine>(ctx_, bc);
      shared_.stream_buffers = &bsp_->buffer_pool();
    }
  } else {
    shared_.stream_buffers = &host_->buffer_pool();
  }

  const int lane_offset = lane_ * plan_->tags_per_request();
  for (const PlanProgram& slot : plan_->programs()) {
    const SweepTaskData& data = plan_->task_data(slot.data_index);
    SweepProgramOptions opts;
    opts.cluster_grain = plan_->config().cluster_grain;
    opts.group = slot.group;
    opts.lane_tag_offset = lane_offset;
    if (!plan_->config().patch_angle_parallelism)
      opts.patch_serializer =
          patch_mutex_[static_cast<std::size_t>(data.patch().value())].get();
    auto prog = std::make_unique<SweepPatchProgram>(data, shared_, opts);
    programs_.push_back(prog.get());
    keys_.push_back(prog->key());
    if (pipeline_ != nullptr)
      pipeline_->register_program(data.patch(), data.angle(), slot.group,
                                  &prog->phi_local());
    // Groups > 0 wait for their activation stream (gate); everything else
    // is runnable from the start.
    const bool initially_active = slot.group == GroupId{0};
    if (target != nullptr) {
      target->add_program(std::move(prog), slot.priority, initially_active);
    } else {
      bsp_->add_program(std::move(prog), initially_active);
    }
  }
  // All lanes of one service host share the same plan, hence the same
  // route table — re-setting it per session is idempotent.
  if (target != nullptr) {
    target->set_routes(plan_->patch_owner());
  } else {
    bsp_->set_routes(plan_->patch_owner());
  }
}

void SweepSession::collect_phi(std::vector<double>& phi_global) const {
  // Fixed program order + rank-ordered allreduce → bitwise deterministic
  // results regardless of worker count or scheduling.
  for (const auto* prog : programs_) {
    const auto& cells = plan_->patches().cells(prog->key().patch);
    const auto& phi = prog->phi_local();
    for (std::size_t v = 0; v < phi.size(); ++v)
      phi_global[static_cast<std::size_t>(cells[v].value())] += phi[v];
  }
}

void SweepSession::run_engine_once() {
  if (engine_) {
    engine_->run();
    stats_.engine = engine_->stats();
    const double busy = stats_.engine.worker_busy_seconds;
    const double idle = stats_.engine.worker_idle_seconds;
    stats_.last_idle_fraction =
        busy + idle > 0.0 ? idle / (busy + idle) : 0.0;
  } else {
    bsp_->run();
    stats_.bsp = bsp_->stats();
    stats_.last_idle_fraction = 0.0;  // BSP stats carry no busy/idle split
  }
  if (metric_idle_fraction_ != nullptr)
    metric_idle_fraction_->set(stats_.last_idle_fraction);
}

void SweepSession::run_engines_once() {
  // On a cut (cyclic) mesh, optionally iterate the engine run until the
  // lagged faces stop changing, so one sweep() approximates the true
  // (cycle-resolved) transport application. Every run must commit — even
  // the last — so the next sweep() starts from the freshest iterates.
  stats_.last_lag_sweeps = 0;
  for (;;) {
    run_engine_once();
    ++stats_.last_lag_sweeps;
    if (lagged_store_.empty()) break;
    stats_.last_lag_residual = lagged_store_.commit(ctx_);
    if (stats_.last_lag_sweeps >= std::max(1, config_.max_lag_sweeps)) break;
    if (stats_.last_lag_residual <= config_.lag_tolerance) break;
  }
}

std::vector<double> SweepSession::sweep(
    const std::vector<double>& q_per_ster) {
  JSWEEP_CHECK_MSG(!attached(),
                   "attached sessions are driven by the SweepService "
                   "(begin_sweep/finish_sweep), not sweep()");
  JSWEEP_CHECK_MSG(pipeline_ == nullptr,
                   "this plan was built group-pipelined; use "
                   "solve_multigroup() instead of sweep()");
  JSWEEP_CHECK(static_cast<std::int64_t>(q_per_ster.size()) ==
               plan_->patches().num_cells());
  WallTimer timer;
  q_current_ = q_per_ster;
  shared_.q_per_ster = &q_current_;

  run_engines_once();

  std::vector<double> phi(
      static_cast<std::size_t>(plan_->patches().num_cells()), 0.0);
  collect_phi(phi);
  ctx_.allreduce_sum(phi);

  ++stats_.sweeps;
  stats_.last_sweep_seconds = timer.seconds();
  if (metric_sweeps_ != nullptr) {
    metric_sweeps_->inc();
    metric_sweep_seconds_->observe(stats_.last_sweep_seconds);
    metric_lag_sweeps_->set(stats_.last_lag_sweeps);
    metric_lag_residual_->set(stats_.last_lag_residual);
  }
  return phi;
}

void SweepSession::set_kernel(const sn::Discretization* disc) {
  JSWEEP_CHECK_MSG(plan_->config().multigroup == nullptr,
                   "per-request kernels apply to single-group plans only "
                   "(multigroup plans own one kernel per group)");
  if (disc == nullptr) {
    shared_.disc = &plan_->disc();
    return;
  }
  JSWEEP_CHECK_MSG(disc->num_cells() == plan_->patches().num_cells(),
                   "request kernel covers " << disc->num_cells()
                                            << " cells, the plan "
                                            << plan_->patches().num_cells()
                                            << " — per-request kernels must "
                                               "discretize the plan's mesh");
  disc->xs().validate();
  shared_.disc = disc;
}

void SweepSession::begin_sweep(const std::vector<double>& q_per_ster) {
  JSWEEP_CHECK_MSG(pipeline_ == nullptr,
                   "the lane sweep protocol is single-group; multigroup "
                   "plans solve standalone via solve_multigroup()");
  JSWEEP_CHECK(static_cast<std::int64_t>(q_per_ster.size()) ==
               plan_->patches().num_cells());
  q_current_ = q_per_ster;
  shared_.q_per_ster = &q_current_;
}

double SweepSession::commit_lagged() {
  if (lagged_store_.empty()) return 0.0;
  stats_.last_lag_residual = lagged_store_.commit(ctx_);
  if (metric_lag_residual_ != nullptr)
    metric_lag_residual_->set(stats_.last_lag_residual);
  return stats_.last_lag_residual;
}

std::vector<double> SweepSession::finish_sweep() {
  std::vector<double> phi(
      static_cast<std::size_t>(plan_->patches().num_cells()), 0.0);
  collect_phi(phi);
  ctx_.allreduce_sum(phi);
  if (host_ != nullptr) stats_.engine = host_->stats();
  ++stats_.sweeps;
  if (metric_sweeps_ != nullptr) metric_sweeps_->inc();
  return phi;
}

std::vector<double> SweepSession::sweep_group(
    GroupId g, const std::vector<double>& q_per_ster) {
  JSWEEP_CHECK_MSG(plan_->config().multigroup != nullptr,
                   "sweep_group() needs a multigroup plan "
                   "(PlanConfig::multigroup)");
  JSWEEP_CHECK_MSG(pipeline_ == nullptr,
                   "group-pipelined plans sweep all groups per engine "
                   "run; use solve_multigroup()");
  JSWEEP_CHECK_MSG(
      lagged_store_.empty() || plan_->num_groups() == 1,
      "standalone per-group sweeps on a cut (cyclic) mesh would commit "
      "lagged fluxes per group; use solve_multigroup()");
  JSWEEP_CHECK(g.value() >= 0 && g.value() < plan_->num_groups());
  // Swap in group g's kernel; the task system (graphs, slots, programs) is
  // group-independent and shared by every group.
  const sn::Discretization* base = shared_.disc;
  shared_.disc = plan_->group_disc(g.value());
  shared_.current_group = g;
  std::vector<double> phi = sweep(q_per_ster);
  shared_.current_group = GroupId{0};
  shared_.disc = base;
  return phi;
}

void SweepSession::multigroup_pass(
    const std::vector<std::vector<double>>& q_base,
    std::vector<std::vector<double>>& phi) {
  WallTimer timer;
  const sn::MultigroupXs& xs = *plan_->config().multigroup;
  const int G = xs.groups();
  const std::int64_t n = plan_->patches().num_cells();

  // Cyclic meshes: the lag loop repeats the WHOLE pass, committing the
  // lagged store once per pass over all groups — identical protocol in
  // pipelined and barriered mode (and the reason standalone sweep_group()
  // refuses cut multigroup meshes). Pipelined gates re-arm per repeat via
  // begin_pass.
  stats_.last_lag_sweeps = 0;
  for (;;) {
    if (pipeline_ != nullptr) {
      pipeline_->begin_pass(q_base);
      run_engine_once();
      pipeline_->finish_pass_metrics();
    } else {
      // Group-barriered baseline: one engine run (global barrier) per
      // group, ascending, with the same fresh in-scatter accumulation the
      // serial reference and the pipeline use (inscatter_term). At group
      // set width W > 1 the fresh bound drops to the set base — within-set
      // downscatter is already in q_base, lagged one pass by the solve —
      // so barriered and pipelined passes stay bitwise comparable.
      const int W = plan_->config().group_set_width;
      const sn::Discretization* base_disc = shared_.disc;
      for (int g = 0; g < G; ++g) {
        q_current_ = q_base[static_cast<std::size_t>(g)];
        const int fresh_bound = sn::group_set_base(g, W);
        for (int from = 0; from < fresh_bound; ++from) {
          const auto& pf = phi[static_cast<std::size_t>(from)];
          for (std::int64_t c = 0; c < n; ++c)
            q_current_[static_cast<std::size_t>(c)] += sn::inscatter_term(
                xs, from, g, c, pf[static_cast<std::size_t>(c)]);
        }
        shared_.q_per_ster = &q_current_;
        shared_.disc = plan_->group_disc(g);
        shared_.current_group = GroupId{g};
        run_engine_once();
        auto& phi_g = phi[static_cast<std::size_t>(g)];
        phi_g.assign(static_cast<std::size_t>(n), 0.0);
        collect_phi(phi_g);
        ctx_.allreduce_sum(phi_g);
      }
      shared_.current_group = GroupId{0};
      shared_.disc = base_disc;
    }
    ++stats_.last_lag_sweeps;
    if (lagged_store_.empty()) break;
    stats_.last_lag_residual = lagged_store_.commit(ctx_);
    if (stats_.last_lag_sweeps >= std::max(1, config_.max_lag_sweeps)) break;
    if (stats_.last_lag_residual <= config_.lag_tolerance) break;
  }
  if (pipeline_ != nullptr) {
    for (int g = 0; g < G; ++g) {
      phi[static_cast<std::size_t>(g)] = pipeline_->phi_group(GroupId{g});
      ctx_.allreduce_sum(phi[static_cast<std::size_t>(g)]);
    }
    // The gate completions of this pass precomputed the next pass's base
    // sources (source-tail overlap) — arm the q_base provider for the
    // solver's next formation step.
    next_q_armed_ = true;
  }
  ++stats_.multigroup_passes;
  stats_.sweeps += G;
  stats_.last_sweep_seconds = timer.seconds();
  if (metric_sweeps_ != nullptr) {
    metric_sweeps_->inc(G);
    metric_sweep_seconds_->observe(stats_.last_sweep_seconds);
    metric_lag_sweeps_->set(stats_.last_lag_sweeps);
    metric_lag_residual_->set(stats_.last_lag_residual);
  }
}

sn::MultigroupResult SweepSession::solve_multigroup(
    const sn::MultigroupOptions& options) {
  JSWEEP_CHECK_MSG(!attached(),
                   "attached sessions are driven by the SweepService; "
                   "multigroup solves run standalone");
  JSWEEP_CHECK_MSG(plan_->config().multigroup != nullptr,
                   "solve_multigroup() needs a multigroup plan "
                   "(PlanConfig::multigroup)");
  // The block scheme must match the plan's program structure: the solve's
  // group-set width is the plan's (callers leave the option at its default;
  // anything else would desynchronize the fresh/lagged in-scatter split).
  JSWEEP_CHECK_MSG(
      options.group_set_width == 1 ||
          options.group_set_width == plan_->config().group_set_width,
      "MultigroupOptions::group_set_width = "
          << options.group_set_width << " but the plan was built with "
          << plan_->config().group_set_width
          << " — the session derives the width from its plan");
  sn::MultigroupOptions opts = options;
  opts.group_set_width = plan_->config().group_set_width;
  // Source-tail overlap: serve precomputed q_base parts once a pipelined
  // pass has run (the first pass of a solve always forms serially).
  next_q_armed_ = false;
  if (pipeline_ != nullptr && options.q_base_provider == nullptr) {
    opts.q_base_provider = [this](int g, std::vector<double>& q) {
      if (!next_q_armed_) return false;
      q = pipeline_->next_pass_q(GroupId{g});
      return true;
    };
  }
  return sn::solve_multigroup_sweeps(
      *plan_->config().multigroup,
      [this](const std::vector<std::vector<double>>& q_base,
             std::vector<std::vector<double>>& phi) {
        multigroup_pass(q_base, phi);
      },
      opts);
}

}  // namespace jsweep::sweep
