// Kobayashi benchmark (the paper's JSNT-S workload, Sec. VI-A) at host
// scale: solves the source/void-duct/shield problem with three sweep
// engines — serial reference, JSweep data-driven, and BSP baseline — and
// reports flux agreement and timings.
//
//   build/examples/kobayashi [n]   (default n = 20 → 8000 cells)

#include <cstdio>
#include <cstdlib>

#include "comm/cluster.hpp"
#include "mesh/generators.hpp"
#include "partition/adjacency.hpp"
#include "partition/block_layout.hpp"
#include "partition/patch_set.hpp"
#include "sn/serial_sweep.hpp"
#include "sn/source_iteration.hpp"
#include "support/table.hpp"
#include "support/timer.hpp"
#include "sweep/session.hpp"

int main(int argc, char** argv) {
  using namespace jsweep;
  const int n = argc > 1 ? std::atoi(argv[1]) : 20;

  const mesh::StructuredMesh m = mesh::make_kobayashi_mesh(n);
  const mesh::Index3 patch_dims{std::max(2, n / 4), std::max(2, n / 4),
                                std::max(2, n / 4)};
  const partition::StructuredBlockLayout layout(m.dims(), patch_dims);
  const partition::CsrGraph cg = partition::cell_graph(m);
  const partition::PatchSet patches(partition::block_partition(layout),
                                    layout.num_patches(), &cg);
  const sn::CellXs xs =
      expand(sn::MaterialTable::kobayashi(), m.materials(), m.num_cells());
  const sn::StructuredDD disc(m, xs);
  const sn::Quadrature quad = sn::Quadrature::level_symmetric(4);
  const sn::SourceIterationOptions opts{1e-6, 100, false};

  std::printf("Kobayashi %d^3: %lld cells, %d patches, S4 (%d angles)\n", n,
              static_cast<long long>(m.num_cells()), patches.num_patches(),
              quad.num_angles());

  Table table({"engine", "iterations", "time(s)", "max|dphi|"});

  // Serial reference: the dense single-threaded sweep (set-up timed too,
  // as the engines' plan builds are).
  WallTimer t_serial;
  sn::StructuredSerialSweeper serial_sweeper(disc, quad);
  const auto serial = sn::source_iteration(
      xs,
      [&](const std::vector<double>& q) { return serial_sweeper.sweep(q); },
      opts);
  table.add_row({"serial", Table::num(static_cast<std::int64_t>(
                               serial.iterations)),
                 Table::num(t_serial.seconds()), "0"});

  // Parallel engines.
  for (const auto engine : {sweep::EngineKind::DataDriven,
                            sweep::EngineKind::Bsp}) {
    sn::SourceIterationResult result;
    WallTimer t_engine;
    comm::Cluster::run(4, [&](comm::Context& ctx) {
      const auto owner =
          partition::assign_contiguous(patches.num_patches(), ctx.size());
      const auto plan = sweep::SweepPlan::build(ctx, m, patches, owner, disc,
                                                quad, {});
      sweep::SolveConfig solve_config;
      solve_config.engine = engine;
      solve_config.num_workers = 2;
      sweep::SweepSession session(ctx, plan, solve_config);
      const auto r = sn::source_iteration(xs, session.as_operator(), opts);
      if (ctx.rank().value() == 0) result = r;
    });
    double max_diff = 0.0;
    for (std::size_t c = 0; c < result.phi.size(); ++c)
      max_diff = std::max(max_diff, std::abs(result.phi[c] - serial.phi[c]));
    table.add_row(
        {engine == sweep::EngineKind::DataDriven ? "jsweep" : "bsp",
         Table::num(static_cast<std::int64_t>(result.iterations)),
         Table::num(t_engine.seconds()), Table::num(max_diff, 3)});
  }

  std::printf("%s", table.str().c_str());
  return 0;
}
