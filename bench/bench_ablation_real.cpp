// Ablations on the REAL threaded runtime at host scale — the design
// choices DESIGN.md calls out, measured on actual execution rather than
// the simulator:
//
//   1. patch-angle parallelism vs patch-serial execution (Sec. V-B);
//   2. data-driven engine vs BSP supersteps (the Fig. 17 mechanism);
//   3. vertex clustering vs one vertex per execution (Sec. V-C);
//   4. dynamic (lightest-worker) assignment wins are implicit in 1-3 —
//      engine stats are printed for inspection.

#include "bench_common.hpp"

#include "comm/cluster.hpp"
#include "mesh/generators.hpp"
#include "partition/adjacency.hpp"
#include "partition/block_layout.hpp"
#include "partition/graph_partition.hpp"
#include "partition/patch_set.hpp"
#include "sweep/session.hpp"

using namespace jsweep;

namespace {

struct Fixture {
  Fixture()
      : mesh(mesh::make_kobayashi_mesh(32)),
        layout(mesh.dims(), {8, 8, 8}),
        graph(partition::cell_graph(mesh)),
        patches(partition::block_partition(layout), layout.num_patches(),
                &graph),
        xs(expand(sn::MaterialTable::kobayashi(), mesh.materials(),
                  mesh.num_cells())),
        disc(mesh, xs),
        quad(sn::Quadrature::level_symmetric(4)),
        q(static_cast<std::size_t>(mesh.num_cells()), 0.25) {}

  mesh::StructuredMesh mesh;
  partition::StructuredBlockLayout layout;
  partition::CsrGraph graph;
  partition::PatchSet patches;
  sn::CellXs xs;
  sn::StructuredDD disc;
  sn::Quadrature quad;
  std::vector<double> q;
};

constexpr int kRanks = 4;

/// Seconds/sweep plus the last sweep's engine counters (rank 0's view;
/// data-driven runs only — the BSP engine has its own stats shape).
struct Timed {
  double seconds = 0.0;
  core::EngineStats engine;
  bool has_engine = false;
};

/// Time `sweeps` repeated sweeps under a config; returns seconds/sweep of
/// the post-warm-up sweeps.
Timed time_sweeps(const Fixture& fx, const sweep::PlanConfig& plan_config,
                  const sweep::SolveConfig& solve_config, int sweeps = 3) {
  Timed result;
  comm::Cluster::run(kRanks, [&](comm::Context& ctx) {
    const auto owner =
        partition::assign_contiguous(fx.patches.num_patches(), ctx.size());
    const auto plan =
        sweep::SweepPlan::build(ctx, fx.mesh, fx.patches, owner, fx.disc,
                                fx.quad, plan_config);
    sweep::SweepSession session(ctx, plan, solve_config);
    (void)session.sweep(fx.q);  // warm-up sweep
    WallTimer timer;
    for (int i = 0; i < sweeps; ++i) (void)session.sweep(fx.q);
    if (ctx.rank().value() == 0) {
      result.seconds = timer.seconds() / sweeps;
      if (solve_config.engine == sweep::EngineKind::DataDriven) {
        result.engine = session.stats().engine;
        result.has_engine = true;
      }
    }
  });
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonReport report(argc, argv, "ablation_real");
  const Fixture fx;
  bench::print_header(
      "Ablations (real runtime)",
      "design-choice ablations on the threaded engine",
      "Kobayashi 32^3 (32,768 cells), patch 8^3, S4 (24 angles), 4 ranks x "
      "2 workers on this host; seconds per sweep after warm-up");

  Table table({"configuration", "s/sweep", "vs baseline"});
  sweep::PlanConfig base_plan;
  base_plan.cluster_grain = 64;
  sweep::SolveConfig base_solve;
  base_solve.num_workers = 2;
  const std::int64_t problem = fx.mesh.num_cells() * fx.quad.num_angles();
  const int threads = kRanks * base_solve.num_workers;
  const auto sample = [&](const char* tag, const Timed& t) {
    bench::Sample s{tag, t.seconds, threads, problem, {}};
    if (t.has_engine) bench::append_engine_stats(s, t.engine);
    bench::record(std::move(s));
  };
  const Timed t_base = time_sweeps(fx, base_plan, base_solve);
  table.add_row(
      {"data-driven DAG (baseline)", Table::num(t_base.seconds, 4), "1.00"});
  sample("baseline", t_base);

  {
    sweep::PlanConfig cfg = base_plan;
    cfg.patch_angle_parallelism = false;
    const Timed t = time_sweeps(fx, cfg, base_solve);
    table.add_row({"patch-serial (no patch-angle par.)",
                   Table::num(t.seconds, 4),
                   Table::num(t.seconds / t_base.seconds, 2) + "x slower"});
    sample("patch_serial", t);
  }
  {
    sweep::SolveConfig cfg = base_solve;
    cfg.engine = sweep::EngineKind::Bsp;
    const Timed t = time_sweeps(fx, base_plan, cfg);
    table.add_row({"BSP supersteps (pre-JSweep model)",
                   Table::num(t.seconds, 4),
                   Table::num(t.seconds / t_base.seconds, 2) + "x slower"});
    sample("bsp_supersteps", t);
  }
  {
    sweep::PlanConfig cfg = base_plan;
    cfg.cluster_grain = 1;
    const Timed t = time_sweeps(fx, cfg, base_solve);
    table.add_row({"no vertex clustering (grain 1)",
                   Table::num(t.seconds, 4),
                   Table::num(t.seconds / t_base.seconds, 2) + "x slower"});
    sample("no_clustering", t);
  }
  std::printf("%s", table.str().c_str());

  // --- Patch-angle parallelism on its natural workload -------------------
  // The paper (Sec. V-B): simultaneous sweeps per patch are "especially
  // useful for small meshes with large numbers of angles" — with fewer
  // patches than workers, per-patch serialization leaves cores idle.
  {
    bench::print_header(
        "Ablation: patch-angle parallelism",
        "few patches x many angles (the paper's Sec. V-B case)",
        "Kobayashi 16^3 in 4 patches, S8 (80 angles), 1 rank x 8 "
        "workers: with patches < workers only patch-angle parallelism "
        "can keep every core busy");
    const mesh::StructuredMesh small = mesh::make_kobayashi_mesh(16);
    const partition::StructuredBlockLayout layout(small.dims(), {8, 8, 16});
    const partition::CsrGraph graph = partition::cell_graph(small);
    const partition::PatchSet patches(partition::block_partition(layout),
                                      layout.num_patches(), &graph);
    const sn::CellXs xs = expand(sn::MaterialTable::kobayashi(),
                                 small.materials(), small.num_cells());
    const sn::StructuredDD disc(small, xs);
    const sn::Quadrature quad = sn::Quadrature::level_symmetric(8);
    const std::vector<double> q(static_cast<std::size_t>(small.num_cells()),
                                0.25);

    const auto time_small = [&](bool patch_angle) {
      Timed result;
      comm::Cluster::run(1, [&](comm::Context& ctx) {
        sweep::PlanConfig plan_config;
        plan_config.cluster_grain = 64;
        plan_config.patch_angle_parallelism = patch_angle;
        sweep::SolveConfig solve_config;
        solve_config.num_workers = 8;
        const auto owner =
            partition::assign_contiguous(patches.num_patches(), 1);
        const auto plan = sweep::SweepPlan::build(ctx, small, patches, owner,
                                                  disc, quad, plan_config);
        sweep::SweepSession session(ctx, plan, solve_config);
        (void)session.sweep(q);
        WallTimer timer;
        for (int i = 0; i < 3; ++i) (void)session.sweep(q);
        if (ctx.rank().value() == 0) {
          result.seconds = timer.seconds() / 3;
          result.engine = session.stats().engine;
          result.has_engine = true;
        }
      });
      return result;
    };
    const Timed with_pa = time_small(true);
    const Timed without_pa = time_small(false);
    const std::int64_t small_problem =
        small.num_cells() * quad.num_angles();
    {
      bench::Sample s{"small_mesh/patch_angle_parallel", with_pa.seconds, 8,
                      small_problem, {}};
      bench::append_engine_stats(s, with_pa.engine);
      bench::record(std::move(s));
    }
    {
      bench::Sample s{"small_mesh/patch_serial", without_pa.seconds, 8,
                      small_problem, {}};
      bench::append_engine_stats(s, without_pa.engine);
      bench::record(std::move(s));
    }
    Table t2({"configuration", "s/sweep", "ratio"});
    t2.add_row(
        {"patch-angle parallel", Table::num(with_pa.seconds, 4), "1.00"});
    t2.add_row({"patch-serial", Table::num(without_pa.seconds, 4),
                Table::num(without_pa.seconds / with_pa.seconds, 2) +
                    "x slower"});
    std::printf("%s", t2.str().c_str());
  }

  // --- Cycle-breaking cost ----------------------------------------------
  // Identical column lattice with and without twist: the twisted variant
  // has cyclic sweep dependencies in every direction and runs under
  // CyclePolicy::Lag (feedback edges cut, fluxes lagged). The gap is the
  // price of cycle handling; the cut/SCC counters land in the JSON.
  {
    bench::print_header(
        "Ablation: cycle-breaking",
        "twisted (cyclic) vs straight (acyclic) column, same lattice",
        "8x8x16-hex column as tets (6144 cells), S4 (24 angles), 2 ranks x "
        "2 workers; twisted runs with cycle_policy=lag");
    const auto time_column = [&](double twist, sweep::SolveStats* stats) {
      const mesh::TetMesh m =
          mesh::make_twisted_column_mesh(8, 16, twist, 20.0, 32.0);
      const partition::CsrGraph cg = partition::cell_graph(m);
      const partition::PatchSet ps(
          partition::partition_graph(cg, 12), 12, &cg);
      const sn::CellXs col_xs =
          expand(sn::MaterialTable::ball(), m.materials(), m.num_cells());
      const sn::TetStep disc(m, col_xs);
      const sn::Quadrature col_quad = sn::Quadrature::level_symmetric(4);
      const std::vector<double> col_q(
          static_cast<std::size_t>(m.num_cells()), 0.25);
      double seconds = 0.0;
      comm::Cluster::run(2, [&](comm::Context& ctx) {
        sweep::PlanConfig plan_config;
        plan_config.cluster_grain = 64;
        plan_config.cycle_policy = sweep::CyclePolicy::Lag;
        const auto owner =
            partition::assign_contiguous(ps.num_patches(), ctx.size());
        const auto plan = sweep::SweepPlan::build(ctx, m, ps, owner, disc,
                                                  col_quad, plan_config);
        sweep::SweepSession session(ctx, plan);
        (void)session.sweep(col_q);
        WallTimer timer;
        for (int i = 0; i < 3; ++i) (void)session.sweep(col_q);
        if (ctx.rank().value() == 0) {
          seconds = timer.seconds() / 3;
          *stats = session.stats();
        }
      });
      return seconds;
    };
    sweep::SolveStats straight_stats;
    sweep::SolveStats twisted_stats;
    const double t_straight = time_column(0.0, &straight_stats);
    const double t_twisted = time_column(5.0, &twisted_stats);
    const std::int64_t col_problem = 6144LL * 24;
    {
      bench::Sample s{"cycles/straight_column", t_straight, 4, col_problem,
                      {}};
      bench::append_engine_stats(s, straight_stats.engine);
      bench::append_cycle_stats(s, straight_stats);
      bench::record(std::move(s));
    }
    {
      bench::Sample s{"cycles/twisted_column", t_twisted, 4, col_problem,
                      {}};
      bench::append_engine_stats(s, twisted_stats.engine);
      bench::append_cycle_stats(s, twisted_stats);
      bench::record(std::move(s));
    }
    Table t3({"configuration", "s/sweep", "cyclic dirs", "edges lagged",
              "ratio"});
    t3.add_row({"straight column (acyclic)", Table::num(t_straight, 4),
                Table::num(static_cast<std::int64_t>(
                    straight_stats.cyclic_angles)),
                Table::num(straight_stats.cycles.edges_cut), "1.00"});
    t3.add_row({"twisted column (lag policy)", Table::num(t_twisted, 4),
                Table::num(static_cast<std::int64_t>(
                    twisted_stats.cyclic_angles)),
                Table::num(twisted_stats.cycles.edges_cut),
                Table::num(t_twisted / t_straight, 2) + "x"});
    std::printf("%s", t3.str().c_str());
  }
  return 0;
}
