// Unstructured ball transport (the paper's JSNT-U ball workload, Sec.
// VI-B): a tetrahedral ball with a source core inside a scattering shield,
// solved with the data-driven sweep on a graph-partitioned mesh.
//
//   build/examples/ball_transport [n]   (default n = 10 lattice cells across)

#include <cstdio>
#include <cstdlib>

#include "comm/cluster.hpp"
#include "mesh/generators.hpp"
#include "partition/adjacency.hpp"
#include "partition/graph_partition.hpp"
#include "partition/patch_set.hpp"
#include "sn/source_iteration.hpp"
#include "support/table.hpp"
#include "support/timer.hpp"
#include "sweep/session.hpp"

int main(int argc, char** argv) {
  using namespace jsweep;
  const int n = argc > 1 ? std::atoi(argv[1]) : 10;

  WallTimer t_mesh;
  const mesh::TetMesh m = mesh::make_ball_mesh(n, 50.0);
  std::printf("ball mesh: %lld tets, %lld nodes (built in %.2fs)\n",
              static_cast<long long>(m.num_cells()),
              static_cast<long long>(m.num_nodes()), t_mesh.seconds());

  // Paper defaults: patch size ≈ 500 cells, S4, SLBD+SLBD, grain 64.
  const int num_patches =
      std::max(2, static_cast<int>(m.num_cells() / 500));
  const partition::CsrGraph cg = partition::cell_graph(m);
  const auto part = partition::partition_graph(cg, num_patches);
  const partition::PatchSet patches(part, num_patches, &cg);
  std::printf("patches: %d (edge cut %lld, imbalance %.3f)\n", num_patches,
              static_cast<long long>(partition::edge_cut(cg, part)),
              partition::imbalance(part, num_patches));

  const sn::CellXs xs =
      expand(sn::MaterialTable::ball(), m.materials(), m.num_cells());
  const sn::TetStep disc(m, xs);
  const sn::Quadrature quad = sn::Quadrature::level_symmetric(4);

  comm::Cluster::run(4, [&](comm::Context& ctx) {
    const auto owner =
        partition::assign_contiguous(patches.num_patches(), ctx.size());
    const auto plan = sweep::SweepPlan::build(ctx, m, patches, owner, disc,
                                              quad, {});
    sweep::SolveConfig solve_config;
    solve_config.num_workers = 2;
    sweep::SweepSession session(ctx, plan, solve_config);

    WallTimer t_solve;
    const auto result =
        sn::source_iteration(xs, session.as_operator(), {1e-6, 200, false});
    if (ctx.rank().value() == 0) {
      std::printf("solve: %d iterations in %.2fs (converged: %s)\n",
                  result.iterations, t_solve.seconds(),
                  result.converged ? "yes" : "no");
      // Radial flux profile.
      Table profile({"radius", "mean flux"});
      constexpr int kBins = 5;
      std::vector<double> sum(kBins, 0.0);
      std::vector<int> count(kBins, 0);
      for (std::int64_t c = 0; c < m.num_cells(); ++c) {
        const double r = norm(m.cell_centroid(CellId{c})) / 50.0;
        const int bin = std::min(kBins - 1, static_cast<int>(r * kBins));
        sum[static_cast<std::size_t>(bin)] +=
            result.phi[static_cast<std::size_t>(c)];
        ++count[static_cast<std::size_t>(bin)];
      }
      for (int b = 0; b < kBins; ++b)
        profile.add_row(
            {Table::num(static_cast<double>(b + 1) / kBins * 50.0, 0),
             Table::num(sum[static_cast<std::size_t>(b)] /
                            std::max(1, count[static_cast<std::size_t>(b)]),
                        5)});
      std::printf("%s", profile.str().c_str());
    }
  });
  return 0;
}
