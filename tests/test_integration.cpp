// Cross-module property and stress tests: random jagged partitions,
// solver variants, and comm-layer stress.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "comm/cluster.hpp"
#include "mesh/generators.hpp"
#include "mesh/refine.hpp"
#include "partition/adjacency.hpp"
#include "partition/block_layout.hpp"
#include "partition/graph_partition.hpp"
#include "partition/patch_set.hpp"
#include "partition/rcb.hpp"
#include "sn/serial_sweep.hpp"
#include "sn/source_iteration.hpp"
#include "support/rng.hpp"
#include "sweep/session.hpp"

namespace jsweep {
namespace {

/// Random (non-contiguous, jagged) cell→patch assignment: the hardest case
/// for partial computation — every patch interleaves with every other, so
/// programs must execute many times (the paper's Fig. 4 taken to the
/// extreme).
std::vector<std::int32_t> random_partition(std::int64_t cells, int patches,
                                           std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::int32_t> part(static_cast<std::size_t>(cells));
  for (auto& p : part)
    p = static_cast<std::int32_t>(rng.below(static_cast<std::uint64_t>(patches)));
  // Ensure no patch is empty.
  for (int p = 0; p < patches; ++p)
    part[static_cast<std::size_t>(p)] = p;
  return part;
}

TEST(RandomPartitionSweep, JaggedPatchesMatchSerial) {
  const mesh::StructuredMesh m = mesh::make_cube_mesh(6, 6.0);
  sn::CellXs xs;
  const auto n = static_cast<std::size_t>(m.num_cells());
  xs.sigma_t.assign(n, 0.8);
  xs.sigma_s.assign(n, 0.3);
  xs.source.assign(n, 1.0);
  const sn::StructuredDD disc(m, xs);
  const sn::Quadrature quad = sn::Quadrature::level_symmetric(2);
  const std::vector<double> q(n, 0.5);
  const auto serial = sn::serial_sweep(disc, quad, q);

  for (const std::uint64_t seed : {1u, 7u, 42u}) {
    const partition::CsrGraph cg = partition::cell_graph(m);
    const partition::PatchSet ps(random_partition(m.num_cells(), 5, seed), 5,
                                 &cg);
    std::vector<double> phi;
    comm::Cluster::run(2, [&](comm::Context& ctx) {
      sweep::PlanConfig config;
      config.cluster_grain = 4;
      const auto owner =
          partition::assign_contiguous(ps.num_patches(), ctx.size());
      sweep::SweepSession session(
          ctx, sweep::SweepPlan::build(ctx, m, ps, owner, disc, quad, config));
      const auto result = session.sweep(q);
      if (ctx.rank().value() == 0) phi = result;
    });
    ASSERT_EQ(phi.size(), serial.size());
    for (std::size_t c = 0; c < phi.size(); ++c)
      ASSERT_NEAR(phi[c], serial[c], 1e-13) << "seed " << seed;
  }
}

TEST(RandomPartitionSweep, ManyExecutionsPerProgram) {
  // With jagged patches, partial computation must show up as far more
  // program executions than programs.
  const mesh::StructuredMesh m = mesh::make_cube_mesh(6, 6.0);
  sn::CellXs xs;
  const auto n = static_cast<std::size_t>(m.num_cells());
  xs.sigma_t.assign(n, 0.8);
  xs.sigma_s.assign(n, 0.0);
  xs.source.assign(n, 1.0);
  const sn::StructuredDD disc(m, xs);
  const sn::Quadrature quad = sn::Quadrature::level_symmetric(2);
  const std::vector<double> q(n, 0.5);

  const partition::CsrGraph cg = partition::cell_graph(m);
  const partition::PatchSet ps(random_partition(m.num_cells(), 4, 3), 4, &cg);
  comm::Cluster::run(1, [&](comm::Context& ctx) {
    sweep::PlanConfig config;
    config.cluster_grain = 1000000;  // unbounded batches
    const auto owner = partition::assign_contiguous(4, 1);
    sweep::SweepSession session(
        ctx, sweep::SweepPlan::build(ctx, m, ps, owner, disc, quad, config));
    (void)session.sweep(q);
    // 4 patches × 8 angles programs, but far more executions.
    EXPECT_GT(session.stats().engine.executions, 4 * 8 * 3);
  });
}

TEST(SolverVariants, RcbPartitionAndSfcOwnersMatchSerial) {
  const mesh::TetMesh m = mesh::make_ball_mesh(6, 3.0);
  const auto centroids = partition::cell_centroids(m);
  const auto part = partition::partition_rcb(centroids, 6);
  const partition::CsrGraph cg = partition::cell_graph(m);
  const partition::PatchSet ps(part, 6, &cg);
  const sn::CellXs xs =
      expand(sn::MaterialTable::ball(), m.materials(), m.num_cells());
  const sn::TetStep disc(m, xs);
  const sn::Quadrature quad = sn::Quadrature::level_symmetric(2);
  const std::vector<double> q(static_cast<std::size_t>(m.num_cells()), 0.5);
  const auto serial = sn::serial_sweep(disc, quad, q);

  std::vector<double> phi;
  comm::Cluster::run(3, [&](comm::Context& ctx) {
    const auto owner = partition::assign_by_sfc(
        patch_centroids(ps, centroids), ctx.size());
    sweep::SweepSession session(
        ctx, sweep::SweepPlan::build(ctx, m, ps, owner, disc, quad));
    const auto result = session.sweep(q);
    if (ctx.rank().value() == 0) phi = result;
  });
  for (std::size_t c = 0; c < phi.size(); ++c)
    ASSERT_NEAR(phi[c], serial[c], 1e-13);
}

TEST(SolverVariants, RefinedMeshSolveConverges) {
  // Weak-scaling building block: refine the ball once and solve.
  const mesh::TetMesh coarse = mesh::make_ball_mesh(4, 2.0);
  const mesh::TetMesh m = mesh::refine_uniform(coarse);
  const partition::CsrGraph cg = partition::cell_graph(m);
  const auto part = partition::partition_graph(cg, 8);
  const partition::PatchSet ps(part, 8, &cg);
  const sn::CellXs xs =
      expand(sn::MaterialTable::ball(), m.materials(), m.num_cells());
  const sn::TetStep disc(m, xs);
  const sn::Quadrature quad = sn::Quadrature::level_symmetric(2);

  comm::Cluster::run(2, [&](comm::Context& ctx) {
    const auto owner = partition::assign_contiguous(8, ctx.size());
    sweep::SweepSession session(
        ctx, sweep::SweepPlan::build(ctx, m, ps, owner, disc, quad));
    const auto result =
        sn::source_iteration(xs, session.as_operator(), {1e-5, 100, false});
    EXPECT_TRUE(result.converged);
  });
}

TEST(CommStress, ManyRanksManyMessages) {
  // Flood the mailboxes from every rank to every rank and verify counts.
  constexpr int kRanks = 8;
  constexpr int kPerPair = 200;
  comm::Cluster::run(kRanks, [&](comm::Context& ctx) {
    Rng rng(static_cast<std::uint64_t>(ctx.rank().value()) + 99);
    for (int i = 0; i < kPerPair * (kRanks - 1); ++i) {
      const int dst = static_cast<int>(rng.below(kRanks - 1));
      const int target = dst >= ctx.rank().value() ? dst + 1 : dst;
      comm::ByteWriter w;
      w.write(std::int32_t{i});
      ctx.send(RankId{target}, comm::kTagUser, w.take());
    }
    // Everyone receives exactly what was sent to them globally.
    const std::int64_t sent = ctx.traffic().basic_sent;
    const std::int64_t total_sent = ctx.allreduce_sum(sent);
    EXPECT_EQ(total_sent, static_cast<std::int64_t>(kRanks) * kPerPair *
                              (kRanks - 1));
    std::int64_t received = 0;
    while (ctx.pending_messages() > 0 ||
           ctx.allreduce_sum(received) < total_sent) {
      while (auto msg = ctx.try_recv()) ++received;
      if (received >= total_sent) break;  // single-rank fast exit
      ctx.wait_message(std::chrono::microseconds(100));
      // Re-check global progress at most a bounded number of times is not
      // needed: counts are conserved, so this loop terminates.
    }
    SUCCEED();
  });
}

TEST(GridConvergence, UniformMediumFluxConverges) {
  // On a resolution-independent problem (uniform absorber + scattering,
  // uniform source), the DD solution must approach the fine-grid answer:
  // projected L2 error vs the n=32 reference shrinks as the mesh refines.
  // (The Kobayashi geometry is unsuitable here: its material boundaries
  // snap to the grid, so each resolution solves a different problem.)
  const sn::Quadrature quad = sn::Quadrature::level_symmetric(2);
  const auto solve = [&](int n) {
    const mesh::StructuredMesh m = mesh::make_cube_mesh(n, 10.0);
    sn::CellXs xs;
    const auto cells = static_cast<std::size_t>(m.num_cells());
    xs.sigma_t.assign(cells, 0.6);
    xs.sigma_s.assign(cells, 0.2);
    xs.source.assign(cells, 1.0);
    const sn::StructuredDD disc(m, xs, /*fixup=*/false);
    return sn::source_iteration(
               xs,
               [&](const std::vector<double>& q) {
                 return serial_sweep(disc, quad, q);
               },
               {1e-9, 300, false})
        .phi;
  };
  const auto phi8 = solve(8);
  const auto phi16 = solve(16);
  const auto phi32 = solve(32);

  // Project a fine solution onto an n-cell grid by averaging children.
  const auto project = [](const std::vector<double>& fine, int nf, int nc) {
    const int ratio = nf / nc;
    std::vector<double> coarse(
        static_cast<std::size_t>(nc) * nc * nc, 0.0);
    const double w = 1.0 / (ratio * ratio * ratio);
    for (int k = 0; k < nf; ++k)
      for (int j = 0; j < nf; ++j)
        for (int i = 0; i < nf; ++i)
          coarse[static_cast<std::size_t>(
              i / ratio +
              nc * (j / ratio + static_cast<std::size_t>(nc) * (k / ratio)))] +=
              fine[static_cast<std::size_t>(
                  i + nf * (j + static_cast<std::size_t>(nf) * k))] *
              w;
    return coarse;
  };
  const auto l2 = [](const std::vector<double>& a,
                     const std::vector<double>& b) {
    double sum = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i)
      sum += (a[i] - b[i]) * (a[i] - b[i]);
    return std::sqrt(sum / static_cast<double>(a.size()));
  };
  const double err8 = l2(phi8, project(phi32, 32, 8));
  const double err16 = l2(project(phi16, 16, 8), project(phi32, 32, 8));
  EXPECT_LT(err16, err8);
}

}  // namespace
}  // namespace jsweep
