// jsweep_cli — general driver over the public API: pick a benchmark
// problem, a mesh resolution, an engine and its knobs from the command
// line, solve it, and optionally dump the flux as VTK.
/*
   build/examples/jsweep_cli --mesh=kobayashi --n=16 --sn=4 \
       --engine=jsweep --ranks=4 --workers=2 --grain=1000 \
       --priority=SLBD --trace=/tmp/trace.json --profile \
       --vtk=/tmp/flux.vtk
*/
// Run with --help for the full flag list.

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>

#include "comm/cluster.hpp"
#include "mesh/generators.hpp"
#include "metrics/export.hpp"
#include "metrics/metrics.hpp"
#include "metrics/trace_bridge.hpp"
#include "mesh/vtk_output.hpp"
#include "partition/adjacency.hpp"
#include "partition/block_layout.hpp"
#include "partition/graph_partition.hpp"
#include "partition/patch_set.hpp"
#include "sn/boundary.hpp"
#include "sn/fission.hpp"
#include "sn/serial_sweep.hpp"
#include "sn/source_iteration.hpp"
#include "support/table.hpp"
#include "support/timer.hpp"
#include "sweep/eigen.hpp"
#include "sweep/session.hpp"
#include "trace/chrome_export.hpp"
#include "trace/critical_path.hpp"
#include "trace/trace.hpp"

namespace {

using namespace jsweep;

struct Options {
  // kobayashi | ball | reactor | twisted | swirled
  std::string mesh = "kobayashi";
  int n = 16;
  int sn = 4;
  int groups = 1;
  int group_set = 1;
  bool group_barrier = false;
  bool k_eigenvalue = false;
  double albedo = 0.0;  // of the three low box sides; 0 = vacuum
  std::string engine = "jsweep";   // jsweep | bsp | serial
  int ranks = 4;
  int workers = 2;
  int grain = sweep::PlanConfig{}.cluster_grain;
  int patch_cells = 0;  // 0 = default per mesh type
  std::string priority = "SLBD";
  std::string cycle_policy = "error";  // assume | error | lag
  int lag_sweeps = 1;
  double tolerance = 1e-6;
  int max_iterations = 200;
  int sched_seed = 0;
  std::string vtk;
  std::string trace;
  std::string metrics;
  bool profile = false;
};

void usage() {
  std::printf(R"(jsweep_cli — solve an Sn transport benchmark problem

  --mesh=kobayashi|ball|reactor|twisted|swirled
                                  problem geometry (default kobayashi);
                                  twisted/swirled meshes have cyclic sweep
                                  dependencies (need --cycle-policy=lag)
  --n=N                           mesh resolution (cells across; default 16)
  --sn=2|4|6|8                    level-symmetric order (default 4)
  --groups=G                      energy groups (default 1); G > 1 solves a
                                  downscatter-cascade multigroup problem with
                                  group-pipelined sweeps (see --group-barrier)
  --group-set=W                   group-set width (default 1): sweep W
                                  consecutive groups per program in SIMD
                                  lanes, within-set downscatter lagged one
                                  pass; needs --groups=G > 1
  --group-barrier                 disable group pipelining: one engine run
                                  (and a global barrier) per group per pass —
                                  the ablation baseline
  --k-eigenvalue                  solve the k-eigenvalue problem by power
                                  iteration over the cached sweep plan:
                                  fission lives in the problem's source
                                  material (νΣ_f = 0.4 σ_t per group,
                                  fast-born χ); prints k-eff
  --albedo=A                      reflect the three low box sides with
                                  coefficient A in [0, 1] (0 = vacuum, the
                                  default; 1 = mirror); --mesh=kobayashi
                                  only — tet boundaries are vacuum
  --engine=jsweep|bsp|serial      sweep engine (default jsweep; serial =
                                  the dense one-thread reference sweeper)
  --ranks=R                       in-process ranks (default 4)
  --workers=W                     worker threads per rank (default 2)
  --grain=G                       vertex clustering grain: max cells per
                                  program execution (default %d)
  --patch-cells=P                 cells per patch (default: mesh-specific)
  --priority=None|BFS|LDCP|SLBD   patch+vertex strategy (default SLBD)
  --cycle-policy=assume|error|lag cyclic-dependence handling (default error:
                                  detect and refuse; lag: cut feedback edges
                                  and iterate their fluxes)
  --lag-sweeps=K                  max engine sweeps per transport sweep on a
                                  cut mesh (default 1)
  --tolerance=T                   source-iteration tolerance (default 1e-6)
  --max-iterations=K              source-iteration cap (default 200)
  --sched-seed=S                  seed of the engine's deterministic
                                  scheduling tie-breaks (default 0)
  --vtk=PATH                      write flux + material as legacy VTK
  --trace=PATH                    record the runs and write a Chrome trace
                                  (open in chrome://tracing or Perfetto)
  --metrics=PATH                  publish live engine/session metrics and
                                  write a snapshot: Prometheus text, or
                                  JSON when PATH ends in .json
  --profile                       print critical-path + busy/idle breakdown
                                  and rank 0's plan-build stages (with
                                  --k-eigenvalue: the plan stages only)
  --help                          this text
)",
              sweep::PlanConfig{}.cluster_grain);
}

/// `--profile`: where rank 0's plan build went, stage by stage, and the
/// task data it keeps (SweepPlan::build_stats()).
void print_plan_stages(const sweep::SweepPlan& plan) {
  const sweep::PlanBuildStats& st = plan.build_stats();
  std::int64_t cell_angles = 0;  // of this rank's patches
  for (const PatchId p : plan.local_patches())
    cell_angles += static_cast<std::int64_t>(plan.patches().cells(p).size()) *
                   plan.num_angles();
  std::printf("plan build: %.4fs\n", plan.build_seconds());
  std::printf("  plan lanes %d\n", st.lanes);
  std::printf("  plan stage cycle_cut    %.4fs\n", st.cycle_cut_seconds);
  std::printf("  plan stage patch_graph  %.4fs\n", st.patch_graph_seconds);
  std::printf("  plan stage task_graphs  %.4fs\n", st.task_graph_seconds);
  std::printf("  plan stage task_data    %.4fs (interning, priorities)\n",
              st.task_data_seconds);
  std::printf("  plan task_data_bytes    %lld (%.1f B per cell-angle)\n",
              static_cast<long long>(st.task_data_bytes),
              static_cast<double>(st.task_data_bytes) /
                  static_cast<double>(std::max<std::int64_t>(cell_angles, 1)));
}

/// Strict integer flag parsing: the whole value must be a base-10 integer
/// in int range. `--groups=abc` or `--groups=` refuse with a usage hint
/// instead of silently becoming 0 (the old atoi behavior).
bool parse_int_flag(const char* flag, const std::string& text, int& out) {
  errno = 0;
  char* end = nullptr;
  const long v = std::strtol(text.c_str(), &end, 10);
  if (text.empty() || end != text.c_str() + text.size() || errno == ERANGE ||
      v < INT_MIN || v > INT_MAX) {
    std::fprintf(stderr, "%s needs an integer, got '%s' (try --help)\n", flag,
                 text.c_str());
    return false;
  }
  out = static_cast<int>(v);
  return true;
}

/// Strict floating-point flag parsing, same contract as parse_int_flag().
bool parse_double_flag(const char* flag, const std::string& text,
                       double& out) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (text.empty() || end != text.c_str() + text.size() || errno == ERANGE) {
    std::fprintf(stderr, "%s needs a number, got '%s' (try --help)\n", flag,
                 text.c_str());
    return false;
  }
  out = v;
  return true;
}

/// Enum-valued flags accept only their listed spellings; anything else
/// refuses with a usage hint instead of falling back to a default.
bool check_choice(const char* flag, const std::string& value,
                  std::initializer_list<const char*> choices) {
  std::string listed;
  for (const char* c : choices) {
    if (value == c) return true;
    listed += listed.empty() ? c : std::string("|") + c;
  }
  std::fprintf(stderr, "%s must be one of %s, got '%s' (try --help)\n", flag,
               listed.c_str(), value.c_str());
  return false;
}

/// Lower-bound check for an integer flag, with a usage hint.
bool check_at_least(const char* flag, int value, int min) {
  if (value >= min) return true;
  std::fprintf(stderr, "%s must be >= %d, got %d (try --help)\n", flag, min,
               value);
  return false;
}

std::optional<Options> parse(int argc, char** argv) {
  Options opt;
  bool ok = true;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](const char* name) -> std::optional<std::string> {
      const std::string prefix = std::string(name) + "=";
      if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
      return std::nullopt;
    };
    const auto int_flag = [&](const char* name, int& out) {
      const auto v = value(name);
      if (v) ok = ok && parse_int_flag(name, *v, out);
      return v.has_value();
    };
    const auto double_flag = [&](const char* name, double& out) {
      const auto v = value(name);
      if (v) ok = ok && parse_double_flag(name, *v, out);
      return v.has_value();
    };
    if (arg == "--help") {
      usage();
      return std::nullopt;
    } else if (auto v = value("--mesh")) {
      opt.mesh = *v;
    } else if (int_flag("--n", opt.n)) {
    } else if (int_flag("--sn", opt.sn)) {
    } else if (int_flag("--groups", opt.groups)) {
    } else if (int_flag("--group-set", opt.group_set)) {
    } else if (arg == "--group-barrier") {
      opt.group_barrier = true;
    } else if (arg == "--k-eigenvalue") {
      opt.k_eigenvalue = true;
    } else if (double_flag("--albedo", opt.albedo)) {
    } else if (auto v = value("--engine")) {
      opt.engine = *v;
    } else if (int_flag("--ranks", opt.ranks)) {
    } else if (int_flag("--workers", opt.workers)) {
    } else if (int_flag("--grain", opt.grain)) {
    } else if (int_flag("--patch-cells", opt.patch_cells)) {
    } else if (auto v = value("--priority")) {
      opt.priority = *v;
    } else if (auto v = value("--cycle-policy")) {
      opt.cycle_policy = *v;
    } else if (int_flag("--lag-sweeps", opt.lag_sweeps)) {
    } else if (double_flag("--tolerance", opt.tolerance)) {
    } else if (int_flag("--max-iterations", opt.max_iterations)) {
    } else if (int_flag("--sched-seed", opt.sched_seed)) {
    } else if (auto v = value("--vtk")) {
      opt.vtk = *v;
    } else if (auto v = value("--trace")) {
      opt.trace = *v;
    } else if (auto v = value("--metrics")) {
      opt.metrics = *v;
    } else if (arg == "--profile") {
      opt.profile = true;
    } else {
      std::fprintf(stderr, "unknown flag '%s' (try --help)\n", arg.c_str());
      return std::nullopt;
    }
    if (!ok) return std::nullopt;
  }
  if (!check_choice("--engine", opt.engine, {"jsweep", "bsp", "serial"}) ||
      !check_choice("--priority", opt.priority,
                    {"None", "BFS", "LDCP", "SLBD"}) ||
      !check_choice("--cycle-policy", opt.cycle_policy,
                    {"assume", "error", "lag"}) ||
      !check_at_least("--groups", opt.groups, 1) ||
      !check_at_least("--ranks", opt.ranks, 1) ||
      !check_at_least("--workers", opt.workers, 1) ||
      !check_at_least("--grain", opt.grain, 1) ||
      !check_at_least("--patch-cells", opt.patch_cells, 0) ||
      !check_at_least("--lag-sweeps", opt.lag_sweeps, 1))
    return std::nullopt;
  if (!(std::isfinite(opt.tolerance) && opt.tolerance > 0.0)) {
    std::fprintf(stderr, "--tolerance must be finite and > 0, got %g (try "
                         "--help)\n",
                 opt.tolerance);
    return std::nullopt;
  }
  if (opt.group_set < 1 || opt.group_set > sn::kMaxGroupSetWidth) {
    std::fprintf(stderr, "--group-set must be in [1, %d], got %d (try "
                         "--help)\n",
                 sn::kMaxGroupSetWidth, opt.group_set);
    return std::nullopt;
  }
  if (opt.group_set > 1 && opt.groups <= 1) {
    std::fprintf(stderr, "--group-set=%d needs a multigroup solve "
                         "(--groups=G > 1)\n",
                 opt.group_set);
    return std::nullopt;
  }
  // The negated form also rejects NaN (which fails every comparison).
  if (!(opt.albedo >= 0.0 && opt.albedo <= 1.0)) {
    std::fprintf(stderr, "--albedo must be in [0, 1], got %g (try --help)\n",
                 opt.albedo);
    return std::nullopt;
  }
  if (opt.albedo != 0.0 && opt.mesh != "kobayashi") {
    std::fprintf(stderr, "--albedo needs the structured mesh "
                         "(--mesh=kobayashi); tet boundaries are vacuum\n");
    return std::nullopt;
  }
  return opt;
}

/// Dense serial reference sweeper of a structured mesh. It lags the
/// mirror-angle iterates of reflecting sides (--albedo > 0) exactly like
/// the engines' boundary store.
std::shared_ptr<sn::StructuredSerialSweeper> make_serial_sweeper(
    const sn::StructuredDD& disc, const sn::Quadrature& quad,
    sweep::CyclePolicy /*policy: an orthogonal grid is never cyclic*/) {
  return std::make_shared<sn::StructuredSerialSweeper>(disc, quad);
}

/// Dense serial reference sweeper of a tet mesh. It cuts and lags the
/// feedback faces like a CyclePolicy::Lag plan; under any other policy a
/// cyclic mesh is refused, as the engines' plan build refuses it.
std::shared_ptr<sn::SerialSweeper> make_serial_sweeper(
    const sn::TetStep& disc, const sn::Quadrature& quad,
    sweep::CyclePolicy policy) {
  auto sweeper = std::make_shared<sn::SerialSweeper>(disc, quad);
  JSWEEP_CHECK_MSG(policy == sweep::CyclePolicy::Lag ||
                       sweeper->cyclic_angles() == 0,
                   "mesh induces a cyclic sweep dependency in "
                       << sweeper->cyclic_angles() << " of "
                       << quad.num_angles()
                       << " direction(s); --cycle-policy=lag cuts and "
                          "lags them");
  return sweeper;
}

/// Per-group serial sweep operator: the dense serial sweeper over a copy
/// of the kernel carrying group cross sections `gxs`.
template <class Mesh, class Disc>
sn::SweepOperator make_group_sweep(const Mesh& mesh, const Disc& disc,
                                   const sn::Quadrature& quad,
                                   sn::CellXs gxs,
                                   sweep::CyclePolicy policy) {
  std::shared_ptr<const Disc> gd;
  if constexpr (std::is_same_v<Disc, sn::StructuredDD>)
    gd = std::make_shared<sn::StructuredDD>(mesh, std::move(gxs),
                                            disc.negative_flux_fixup(),
                                            disc.boundary());
  else
    gd = std::make_shared<Disc>(mesh, std::move(gxs));
  auto sweeper = make_serial_sweeper(*gd, quad, policy);
  return [gd, sweeper](const std::vector<double>& q) {
    return sweeper->sweep(q);
  };
}

/// k-eigenvalue solve (--k-eigenvalue): power iteration over the plan-
/// cached multigroup solve. Fission is synthesized in the material that
/// carries the problem's external source (νΣ_f = 0.4 σ_t per group,
/// fast-born χ); the external sources themselves are ignored — the driver
/// rewrites every group source each outer iteration.
template <class Mesh, class Disc>
int solve_k_eigen(const Options& opt, const Mesh& mesh, const Disc& disc,
                  const sn::MaterialTable& table,
                  const partition::PatchSet& patches) {
  const sn::Quadrature quad = sn::Quadrature::level_symmetric(opt.sn);
  sn::MultigroupXs xs = sn::MultigroupXs::cascade(
      table, mesh.materials(), mesh.num_cells(), opt.groups);
  sn::FissionXs fission(opt.groups, mesh.num_cells());
  fission.chi(0) = 1.0;
  for (std::int64_t c = 0; c < mesh.num_cells(); ++c) {
    const int mat = mesh.materials().empty()
                        ? 0
                        : mesh.materials()[static_cast<std::size_t>(c)];
    if (table.at(mat).source <= 0.0) continue;
    for (int g = 0; g < opt.groups; ++g)
      fission.nu_sigma_f(g, c) = 0.4 * xs.sigma_t(g, c);
  }

  sweep::EigenOptions options;
  options.max_outer_iterations = opt.max_iterations;
  options.k_tolerance = opt.tolerance;
  options.fission_tolerance = opt.tolerance * 100.0;
  options.multigroup.inner = {opt.tolerance, opt.max_iterations, false};
  options.multigroup.group_set_width = opt.group_set;
  const sweep::CyclePolicy cycle_policy =
      sweep::cycle_policy_from_string(opt.cycle_policy);

  std::printf("%lld cells, %d patches, S%d (%d angles), %d group(s), "
              "k-eigenvalue power iteration, engine=%s\n",
              static_cast<long long>(mesh.num_cells()),
              patches.num_patches(), opt.sn, quad.num_angles(), opt.groups,
              opt.engine.c_str());
  if (!opt.trace.empty() || !opt.metrics.empty())
    std::fprintf(stderr, "note: --trace/--metrics cover fixed-source solves "
                         "only; ignored for --k-eigenvalue\n");
  if (opt.profile && opt.engine == "serial")
    std::fprintf(stderr, "note: --profile needs --engine=jsweep or bsp; "
                         "ignored for the serial sweep\n");

  sweep::EigenResult result;
  std::shared_ptr<const sweep::SweepPlan> rank0_plan;  // for --profile
  WallTimer timer;
  if (opt.engine == "serial") {
    result = sweep::solve_k_eigenvalue_serial(
        xs, fission, disc,
        [&]() {
          return sn::sequential_sweep_pass(
              xs,
              [&](int g) {
                return make_group_sweep(mesh, disc, quad, xs.group_view(g),
                                        cycle_policy);
              },
              opt.group_set);
        },
        options);
  } else {
    comm::Cluster::run(opt.ranks, [&](comm::Context& ctx) {
      sn::MultigroupXs local = xs;  // per-rank writable copy (thread ranks)
      sweep::PlanConfig plan_config;
      plan_config.cluster_grain = opt.grain;
      plan_config.patch_priority = graph::priority_from_string(opt.priority);
      plan_config.vertex_priority = plan_config.patch_priority;
      plan_config.cycle_policy = cycle_policy;
      plan_config.multigroup = &local;
      plan_config.group_pipelining = !opt.group_barrier;
      plan_config.group_set_width = opt.group_set;
      const auto owner =
          partition::assign_contiguous(patches.num_patches(), ctx.size());
      const auto plan =
          sweep::SweepPlan::build(ctx, mesh, patches, owner, disc, quad,
                                  plan_config);
      sweep::SolveConfig solve_config;
      solve_config.engine = opt.engine == "bsp"
                                ? sweep::EngineKind::Bsp
                                : sweep::EngineKind::DataDriven;
      solve_config.num_workers = opt.workers;
      solve_config.max_lag_sweeps = opt.lag_sweeps;
      solve_config.scheduler_seed =
          static_cast<std::uint64_t>(opt.sched_seed);
      const auto r =
          sweep::solve_k_eigenvalue(ctx, plan, local, fission, options,
                                    solve_config);
      if (ctx.rank().value() == 0) {
        result = r;
        rank0_plan = plan;
      }
    });
  }
  const double seconds = timer.seconds();

  std::printf("%s: k-eff %.9f in %d outer(s), %lld sweeps, %.3fs "
              "(dk %.2e, dS %.2e)\n",
              result.converged ? "converged" : "NOT converged", result.k,
              result.outer_iterations,
              static_cast<long long>(result.stats.transport_sweeps), seconds,
              result.k_error, result.fission_error);
  for (int g = 0; g < opt.groups; ++g) {
    double peak = 0.0;
    double mean = 0.0;
    for (const auto phi : result.phi[static_cast<std::size_t>(g)]) {
      peak = std::max(peak, phi);
      mean += phi;
    }
    mean /=
        static_cast<double>(result.phi[static_cast<std::size_t>(g)].size());
    std::printf("group %d flux: mean %.5e  peak %.5e\n", g, mean, peak);
  }
  if (opt.profile && rank0_plan) print_plan_stages(*rank0_plan);

  if (!opt.vtk.empty()) {
    std::vector<mesh::CellField> fields;
    for (int g = 0; g < opt.groups; ++g)
      fields.push_back({"flux_g" + std::to_string(g),
                        &result.phi[static_cast<std::size_t>(g)]});
    mesh::write_vtk_file(opt.vtk, mesh, fields);
    std::printf("wrote %s\n", opt.vtk.c_str());
  }
  return result.converged ? 0 : 2;
}

/// Multigroup solve (--groups=G > 1): a downscatter cascade derived from
/// the problem's material table, solved with the sweep-pass outer scheme —
/// group-pipelined engines by default, barriered with --group-barrier,
/// per-group serial sweeps for --engine=serial.
template <class Mesh, class Disc>
int solve_multigroup(const Options& opt, const Mesh& mesh, const Disc& disc,
                     const sn::MaterialTable& table,
                     const partition::PatchSet& patches) {
  const sn::Quadrature quad = sn::Quadrature::level_symmetric(opt.sn);
  const sn::MultigroupXs mxs = sn::MultigroupXs::cascade(
      table, mesh.materials(), mesh.num_cells(), opt.groups);
  sn::MultigroupOptions mg;
  mg.inner = {opt.tolerance, opt.max_iterations, false};
  mg.group_set_width = opt.group_set;
  const sweep::CyclePolicy cycle_policy =
      sweep::cycle_policy_from_string(opt.cycle_policy);
  std::printf(
      "%lld cells, %d patches, S%d (%d angles), %d groups (set width %d), "
      "engine=%s%s\n",
      static_cast<long long>(mesh.num_cells()), patches.num_patches(),
      opt.sn, quad.num_angles(), opt.groups, opt.group_set,
      opt.engine.c_str(),
      opt.engine == "serial" ? ""
      : opt.group_barrier    ? " (group-barriered)"
                             : " (group-pipelined)");

  const bool want_trace = !opt.trace.empty() || opt.profile;
  std::optional<trace::Recorder> recorder;
  if (want_trace && opt.engine != "serial") recorder.emplace();
  if (want_trace && opt.engine == "serial")
    std::fprintf(stderr,
                 "note: --trace/--profile need --engine=jsweep or bsp; "
                 "ignored for the serial sweep\n");
  std::optional<metrics::Registry> registry;
  if (!opt.metrics.empty() && opt.engine != "serial") registry.emplace();
  if (!opt.metrics.empty() && opt.engine == "serial")
    std::fprintf(stderr, "note: --metrics needs --engine=jsweep or bsp; "
                         "ignored for the serial sweep\n");

  sn::MultigroupResult result;
  sweep::SolveStats solver_stats;
  std::shared_ptr<const sweep::SweepPlan> rank0_plan;  // for --profile
  WallTimer timer;
  if (opt.engine == "serial") {
    result = sn::solve_multigroup_sweeps(
        mxs,
        sn::sequential_sweep_pass(
            mxs,
            [&](int g) {
              return make_group_sweep(mesh, disc, quad, mxs.group_view(g),
                                      cycle_policy);
            },
            opt.group_set),
        mg);
  } else {
    comm::Cluster::run(opt.ranks, [&](comm::Context& ctx) {
      sweep::PlanConfig plan_config;
      plan_config.cluster_grain = opt.grain;
      plan_config.patch_priority = graph::priority_from_string(opt.priority);
      plan_config.vertex_priority = plan_config.patch_priority;
      plan_config.cycle_policy = cycle_policy;
      plan_config.multigroup = &mxs;
      plan_config.group_pipelining = !opt.group_barrier;
      plan_config.group_set_width = opt.group_set;
      const auto owner =
          partition::assign_contiguous(patches.num_patches(), ctx.size());
      const auto plan =
          sweep::SweepPlan::build(ctx, mesh, patches, owner, disc, quad,
                                  plan_config);
      sweep::SolveConfig solve_config;
      solve_config.engine = opt.engine == "bsp"
                                ? sweep::EngineKind::Bsp
                                : sweep::EngineKind::DataDriven;
      solve_config.num_workers = opt.workers;
      solve_config.max_lag_sweeps = opt.lag_sweeps;
      solve_config.scheduler_seed =
          static_cast<std::uint64_t>(opt.sched_seed);
      solve_config.trace.recorder = recorder ? &*recorder : nullptr;
      solve_config.metrics.registry = registry ? &*registry : nullptr;
      sweep::SweepSession session(ctx, plan, solve_config);
      const auto r = session.solve_multigroup(mg);
      if (ctx.rank().value() == 0) {
        result = r;
        solver_stats = session.stats();
        rank0_plan = plan;
      }
    });
  }
  const double seconds = timer.seconds();

  if (solver_stats.cycles.any()) {
    std::printf(
        "cycles: %d direction(s) cyclic, %d SCC(s), largest %d cells, "
        "%lld feedback edge(s) lagged; last pass: %d engine run(s), "
        "lag residual %.2e\n",
        solver_stats.cyclic_angles, solver_stats.cycles.cyclic_components,
        solver_stats.cycles.largest_component,
        static_cast<long long>(solver_stats.cycles.edges_cut),
        solver_stats.last_lag_sweeps, solver_stats.last_lag_residual);
  }

  if (recorder) {
    if (!opt.trace.empty()) {
      if (!trace::write_chrome_trace_file(*recorder, opt.trace)) {
        std::fprintf(stderr, "error: cannot write trace to %s\n",
                     opt.trace.c_str());
        return 1;
      }
      std::printf("wrote %s (%lld events, %lld dropped)\n", opt.trace.c_str(),
                  static_cast<long long>(recorder->total_events()),
                  static_cast<long long>(recorder->dropped_events()));
    }
    if (opt.profile) {
      const trace::ProfileReport prof = trace::analyze(*recorder);
      std::printf("\n%s\n", trace::render_profile(prof).c_str());
      if (rank0_plan) print_plan_stages(*rank0_plan);
    }
  }
  if (registry) {
    // The trace bridge folds the post-mortem per-rank breakdown into the
    // same registry, so one snapshot carries both views.
    if (recorder) metrics::fold_profile(trace::analyze(*recorder), *registry);
    metrics::write_snapshot(*registry, opt.metrics);
    std::printf("wrote %s\n", opt.metrics.c_str());
  }

  std::printf("%s: %d outer(s), %d pass(es), %lld sweeps, %.3fs (error "
              "%.2e)\n",
              result.converged ? "converged" : "NOT converged",
              result.outer_iterations, result.pass_iterations,
              static_cast<long long>(result.total_sweeps), seconds,
              result.error);
  for (int g = 0; g < opt.groups; ++g) {
    double peak = 0.0;
    double mean = 0.0;
    for (const auto phi : result.phi[static_cast<std::size_t>(g)]) {
      peak = std::max(peak, phi);
      mean += phi;
    }
    mean /= static_cast<double>(result.phi[static_cast<std::size_t>(g)].size());
    std::printf("group %d flux: mean %.5e  peak %.5e\n", g, mean, peak);
  }

  if (!opt.vtk.empty()) {
    std::vector<mesh::CellField> fields;
    for (int g = 0; g < opt.groups; ++g)
      fields.push_back({"flux_g" + std::to_string(g),
                        &result.phi[static_cast<std::size_t>(g)]});
    mesh::write_vtk_file(opt.vtk, mesh, fields);
    std::printf("wrote %s\n", opt.vtk.c_str());
  }
  return result.converged ? 0 : 2;
}

/// Solve on a structured or tetrahedral mesh; shares all engine plumbing.
template <class Mesh, class Disc>
int solve(const Options& opt, const Mesh& mesh, const Disc& disc,
          const sn::CellXs& xs, const partition::PatchSet& patches) {
  const sn::Quadrature quad = sn::Quadrature::level_symmetric(opt.sn);
  const sn::SourceIterationOptions si{opt.tolerance, opt.max_iterations,
                                      false};
  std::printf("%lld cells, %d patches, S%d (%d angles), engine=%s\n",
              static_cast<long long>(mesh.num_cells()),
              patches.num_patches(), opt.sn, quad.num_angles(),
              opt.engine.c_str());

  const bool want_trace = !opt.trace.empty() || opt.profile;
  std::optional<trace::Recorder> recorder;
  if (want_trace && opt.engine != "serial") recorder.emplace();
  if (want_trace && opt.engine == "serial")
    std::fprintf(stderr,
                 "note: --trace/--profile need --engine=jsweep or bsp; "
                 "ignored for the serial sweep\n");
  std::optional<metrics::Registry> registry;
  if (!opt.metrics.empty() && opt.engine != "serial") registry.emplace();
  if (!opt.metrics.empty() && opt.engine == "serial")
    std::fprintf(stderr, "note: --metrics needs --engine=jsweep or bsp; "
                         "ignored for the serial sweep\n");

  const sweep::CyclePolicy cycle_policy =
      sweep::cycle_policy_from_string(opt.cycle_policy);

  sn::SourceIterationResult result;
  sweep::SolveStats solver_stats;
  std::shared_ptr<const sweep::SweepPlan> rank0_plan;  // for --profile
  WallTimer timer;
  if (opt.engine == "serial") {
    if (opt.lag_sweeps > 1)
      std::fprintf(stderr,
                   "note: --lag-sweeps needs --engine=jsweep or bsp; the "
                   "serial sweeper always lags one sweep\n");
    const auto sweeper = make_serial_sweeper(disc, quad, cycle_policy);
    result = sn::source_iteration(
        xs, [&](const std::vector<double>& q) { return sweeper->sweep(q); },
        si);
    if constexpr (std::is_same_v<Disc, sn::TetStep>) {
      solver_stats.cycles = sweeper->cycle_stats();
      solver_stats.cyclic_angles = sweeper->cyclic_angles();
    }
    solver_stats.last_lag_sweeps = 1;
    solver_stats.last_lag_residual = sweeper->last_lag_residual();
  } else {
    comm::Cluster::run(opt.ranks, [&](comm::Context& ctx) {
      sweep::PlanConfig plan_config;
      plan_config.cluster_grain = opt.grain;
      plan_config.patch_priority = graph::priority_from_string(opt.priority);
      plan_config.vertex_priority = plan_config.patch_priority;
      plan_config.cycle_policy = cycle_policy;
      const auto owner =
          partition::assign_contiguous(patches.num_patches(), ctx.size());
      const auto plan =
          sweep::SweepPlan::build(ctx, mesh, patches, owner, disc, quad,
                                  plan_config);
      sweep::SolveConfig solve_config;
      solve_config.engine = opt.engine == "bsp"
                                ? sweep::EngineKind::Bsp
                                : sweep::EngineKind::DataDriven;
      solve_config.num_workers = opt.workers;
      solve_config.max_lag_sweeps = opt.lag_sweeps;
      solve_config.scheduler_seed =
          static_cast<std::uint64_t>(opt.sched_seed);
      solve_config.trace.recorder = recorder ? &*recorder : nullptr;
      solve_config.metrics.registry = registry ? &*registry : nullptr;
      sweep::SweepSession session(ctx, plan, solve_config);
      const auto r = sn::source_iteration(xs, session.as_operator(), si);
      if (ctx.rank().value() == 0) {
        result = r;
        solver_stats = session.stats();
        rank0_plan = plan;
      }
    });
  }
  const double seconds = timer.seconds();

  if (solver_stats.cycles.any()) {
    std::printf(
        "cycles: %d direction(s) cyclic, %d SCC(s), largest %d cells, "
        "%lld feedback edge(s) lagged; last sweep: %d engine run(s), "
        "lag residual %.2e\n",
        solver_stats.cyclic_angles, solver_stats.cycles.cyclic_components,
        solver_stats.cycles.largest_component,
        static_cast<long long>(solver_stats.cycles.edges_cut),
        solver_stats.last_lag_sweeps, solver_stats.last_lag_residual);
  }

  if (recorder) {
    if (!opt.trace.empty()) {
      if (!trace::write_chrome_trace_file(*recorder, opt.trace)) {
        std::fprintf(stderr, "error: cannot write trace to %s\n",
                     opt.trace.c_str());
        return 1;
      }
      std::printf("wrote %s (%lld events, %lld dropped)\n",
                  opt.trace.c_str(),
                  static_cast<long long>(recorder->total_events()),
                  static_cast<long long>(recorder->dropped_events()));
    }
    if (opt.profile) {
      const trace::ProfileReport prof = trace::analyze(*recorder);
      std::printf("\n%s\n", trace::render_profile(prof).c_str());
      if (rank0_plan) print_plan_stages(*rank0_plan);
    }
  }
  if (registry) {
    // The trace bridge folds the post-mortem per-rank breakdown into the
    // same registry, so one snapshot carries both views.
    if (recorder) metrics::fold_profile(trace::analyze(*recorder), *registry);
    metrics::write_snapshot(*registry, opt.metrics);
    std::printf("wrote %s\n", opt.metrics.c_str());
  }

  double peak = 0.0;
  double mean = 0.0;
  for (const auto phi : result.phi) {
    peak = std::max(peak, phi);
    mean += phi;
  }
  mean /= static_cast<double>(result.phi.size());
  std::printf("%s in %d iterations, %.3fs (error %.2e)\n",
              result.converged ? "converged" : "NOT converged",
              result.iterations, seconds, result.error);
  std::printf("flux: mean %.5e  peak %.5e\n", mean, peak);

  if (!opt.vtk.empty()) {
    std::vector<double> material(
        static_cast<std::size_t>(mesh.num_cells()));
    for (std::int64_t c = 0; c < mesh.num_cells(); ++c)
      material[static_cast<std::size_t>(c)] = mesh.material(CellId{c});
    mesh::write_vtk_file(opt.vtk, mesh,
                         {{"flux", &result.phi}, {"material", &material}});
    std::printf("wrote %s\n", opt.vtk.c_str());
  }
  return result.converged ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  const auto parsed = parse(argc, argv);
  if (!parsed) return 1;
  const Options& opt = *parsed;

  try {
    if (opt.mesh == "kobayashi") {
      const mesh::StructuredMesh m = mesh::make_kobayashi_mesh(opt.n);
      const int pc = opt.patch_cells > 0
                         ? opt.patch_cells
                         : std::max(2, opt.n / 4) * std::max(2, opt.n / 4) *
                               std::max(2, opt.n / 4);
      const int side = std::max(2, static_cast<int>(std::cbrt(pc)));
      const partition::StructuredBlockLayout layout(m.dims(),
                                                    {side, side, side});
      const partition::CsrGraph cg = partition::cell_graph(m);
      const partition::PatchSet patches(partition::block_partition(layout),
                                        layout.num_patches(), &cg);
      const sn::MaterialTable table = sn::MaterialTable::kobayashi();
      const sn::CellXs xs = expand(table, m.materials(), m.num_cells());
      sn::BoundarySpec bc;
      bc.side(mesh::FaceDir::XLo) = opt.albedo;
      bc.side(mesh::FaceDir::YLo) = opt.albedo;
      bc.side(mesh::FaceDir::ZLo) = opt.albedo;
      const sn::StructuredDD disc(m, xs, /*negative_flux_fixup=*/true, bc);
      if (opt.k_eigenvalue) return solve_k_eigen(opt, m, disc, table, patches);
      if (opt.groups > 1)
        return solve_multigroup(opt, m, disc, table, patches);
      return solve(opt, m, disc, xs, patches);
    }
    const bool ball = opt.mesh == "ball";
    const bool reactor = opt.mesh == "reactor";
    const bool twisted = opt.mesh == "twisted";
    const bool swirled = opt.mesh == "swirled";
    if (!ball && !reactor && !twisted && !swirled) {
      std::fprintf(stderr, "unknown mesh '%s' (try --help)\n",
                   opt.mesh.c_str());
      return 1;
    }
    // twisted/swirled: cyclic-dependence meshes (cycle-breaking showcase).
    // The twisted column keeps the tuned twist/aspect and scales layers
    // with the resolution so any --n stays provably cyclic.
    const mesh::TetMesh m =
        ball      ? mesh::make_ball_mesh(opt.n, 50.0)
        : reactor ? mesh::make_reactor_mesh(opt.n, 50.0, 100.0)
        : twisted ? mesh::make_twisted_column_mesh(opt.n, 2 * opt.n, 5.0,
                                                   20.0, 4.0 * opt.n)
                  : mesh::make_swirled_ball_mesh(opt.n, 50.0);
    const int pc = opt.patch_cells > 0 ? opt.patch_cells : 500;
    const int nparts = std::max(
        2, static_cast<int>(m.num_cells() / std::max(1, pc)));
    const partition::CsrGraph cg = partition::cell_graph(m);
    const auto part = partition::partition_graph(cg, nparts);
    const partition::PatchSet patches(part, nparts, &cg);
    const sn::MaterialTable table =
        reactor ? sn::MaterialTable::reactor() : sn::MaterialTable::ball();
    const sn::CellXs xs = expand(table, m.materials(), m.num_cells());
    const sn::TetStep disc(m, xs);
    if (opt.k_eigenvalue) return solve_k_eigen(opt, m, disc, table, patches);
    if (opt.groups > 1) return solve_multigroup(opt, m, disc, table, patches);
    return solve(opt, m, disc, xs, patches);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
