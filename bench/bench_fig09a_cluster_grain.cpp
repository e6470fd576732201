// Fig. 9a — runtime vs vertex clustering grain on a structured mesh.
//
// Paper setup: SnSweep-S, 160×160×180 cells, patch 20³, S2, 96 cores.
// Paper observation: runtime falls steeply up to grain ≈ 10³, then rises
// again for very large grains (deferred communication stalls downwind
// patches).
//
// We reproduce at the paper's geometry/core count with the simulator, and
// additionally at host scale with the real threaded runtime (smaller mesh)
// to show the same U-shape emerges from the actual engine.

#include "bench_common.hpp"

#include "comm/cluster.hpp"
#include "mesh/generators.hpp"
#include "partition/adjacency.hpp"
#include "partition/block_layout.hpp"
#include "partition/patch_set.hpp"
#include "sweep/session.hpp"

using namespace jsweep;

namespace {

void simulated_paper_scale() {
  bench::print_header(
      "Fig 9a (simulated)",
      "vertex clustering grain vs runtime, structured",
      "mesh 160x160x180, patch 20^3, S2 (8 angles), 96 cores (8 procs x 12); "
      "paper: time falls to a minimum near grain ~1e3, then rises");

  const sim::PatchTopology topo =
      sim::PatchTopology::structured({160, 160, 180}, {20, 20, 20});
  const sn::Quadrature quad = sn::Quadrature::level_symmetric(2);

  constexpr int kCores = 96;
  Table table({"grain", "sim time(s)"});
  for (const int grain : {1, 8, 64, 256, 1024, 2048, 4096}) {
    sim::SimConfig cfg = bench::sim_config_for_cores(kCores);
    cfg.cluster_grain = grain;
    const auto r = sim::DataDrivenSim(topo, quad, cfg).run();
    table.add_row({Table::num(static_cast<std::int64_t>(grain)),
                   Table::num(r.elapsed_seconds, 3)});
    bench::record({"sim/grain_" + std::to_string(grain), r.elapsed_seconds,
                   kCores, topo.total_cells() * quad.num_angles(),
                   {{"simulated", 1.0}, {"grain", double(grain)}}});
  }
  std::printf("%s", table.str().c_str());
}

void real_host_scale() {
  bench::print_header(
      "Fig 9a (real runtime, host scale)",
      "vertex clustering grain vs runtime, real threaded engine",
      "mesh 40x40x40, patch 10^3, S2, 4 ranks x 2 workers on this host");

  const mesh::StructuredMesh m = mesh::make_kobayashi_mesh(40);
  const partition::StructuredBlockLayout layout(m.dims(), {10, 10, 10});
  const partition::CsrGraph cg = partition::cell_graph(m);
  const partition::PatchSet patches(partition::block_partition(layout),
                                    layout.num_patches(), &cg);
  const sn::CellXs xs =
      expand(sn::MaterialTable::kobayashi(), m.materials(), m.num_cells());
  const sn::StructuredDD disc(m, xs);
  const sn::Quadrature quad = sn::Quadrature::level_symmetric(2);
  const std::vector<double> q(static_cast<std::size_t>(m.num_cells()), 0.25);

  constexpr int kRanks = 4;
  constexpr int kWorkers = 2;
  Table table({"grain", "sweep time(s)", "executions"});
  for (const int grain : {1, 8, 64, 256, 1000, 4096}) {
    double seconds = 0.0;
    std::int64_t executions = 0;
    comm::Cluster::run(kRanks, [&](comm::Context& ctx) {
      sweep::PlanConfig plan_config;
      plan_config.cluster_grain = grain;
      sweep::SolveConfig solve_config;
      solve_config.num_workers = kWorkers;
      const auto owner =
          partition::assign_contiguous(patches.num_patches(), ctx.size());
      const auto plan = sweep::SweepPlan::build(ctx, m, patches, owner, disc,
                                                quad, plan_config);
      sweep::SweepSession session(ctx, plan, solve_config);
      (void)session.sweep(q);  // warm-up (graph build amortized)
      WallTimer timer;
      (void)session.sweep(q);
      if (ctx.rank().value() == 0) {
        seconds = timer.seconds();
        executions = session.stats().engine.executions;
      }
    });
    table.add_row({Table::num(static_cast<std::int64_t>(grain)),
                   Table::num(seconds, 4), Table::num(executions)});
    bench::record({"real/grain_" + std::to_string(grain), seconds,
                   kRanks * kWorkers, m.num_cells() * quad.num_angles(),
                   {{"grain", double(grain)},
                    {"executions", double(executions)}}});
  }
  std::printf("%s", table.str().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonReport report(argc, argv, "fig09a_cluster_grain");
  simulated_paper_scale();
  real_host_scale();
  return 0;
}
