// Integration tests for the parallel sweep component: the data-driven
// engine and the BSP baseline must both reproduce the serial reference
// exactly, under every configuration.

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "comm/cluster.hpp"
#include "mesh/generators.hpp"
#include "partition/adjacency.hpp"
#include "partition/block_layout.hpp"
#include "partition/graph_partition.hpp"
#include "partition/patch_set.hpp"
#include "sn/serial_sweep.hpp"
#include "sn/source_iteration.hpp"
#include "sweep/session.hpp"

namespace jsweep::sweep {
namespace {

TEST(LaggedFluxStore, SlotLifecycleAndCommit) {
  comm::Cluster::run(2, [&](comm::Context& ctx) {
    LaggedFluxStore store;
    EXPECT_TRUE(store.empty());
    store.add_slot(0, 100);
    store.add_slot(0, 200);
    store.add_slot(3, 100);  // same face, different angle = distinct slot
    EXPECT_EQ(store.num_slots(), 3);
    // First sweep reads the vacuum iterate.
    EXPECT_EQ(store.prev(0, 100), 0.0);
    // Each "rank" owns disjoint slots.
    if (ctx.rank().value() == 0) {
      store.stage(0, 100, 2.0);
      store.stage(0, 200, 4.0);
    } else {
      store.stage(3, 100, 8.0);
    }
    const double residual = store.commit(ctx);
    EXPECT_DOUBLE_EQ(residual, 8.0);  // identical on every rank
    EXPECT_DOUBLE_EQ(store.prev(0, 100), 2.0);
    EXPECT_DOUBLE_EQ(store.prev(0, 200), 4.0);
    EXPECT_DOUBLE_EQ(store.prev(3, 100), 8.0);
    // A second commit with closer values shrinks the residual.
    if (ctx.rank().value() == 0) {
      store.stage(0, 100, 2.5);
      store.stage(0, 200, 4.0);
    } else {
      store.stage(3, 100, 8.0);
    }
    EXPECT_DOUBLE_EQ(store.commit(ctx), 0.5);
  });
}

TEST(LaggedFluxStore, GroupStridedSlots) {
  // Multigroup: every (angle, face) slot carries one value per group,
  // staged and committed independently; the map API addresses group 0.
  comm::Cluster::run(1, [&](comm::Context& ctx) {
    LaggedFluxStore store;
    store.set_num_groups(3);
    EXPECT_EQ(store.num_groups(), 3);
    store.add_slot(0, 100);
    store.add_slot(1, 100);
    EXPECT_EQ(store.num_slots(), 2);
    const std::int32_t s0 = store.slot_index(0, 100);
    const std::int32_t s1 = store.slot_index(1, 100);
    for (int g = 0; g < 3; ++g) {
      EXPECT_EQ(store.prev_by_slot(s0, g), 0.0);
      store.stage_by_slot(s0, g, 1.0 + g);
      store.stage_by_slot(s1, g, 10.0 + g);
    }
    EXPECT_DOUBLE_EQ(store.commit(ctx), 12.0);
    for (int g = 0; g < 3; ++g) {
      EXPECT_DOUBLE_EQ(store.prev_by_slot(s0, g), 1.0 + g);
      EXPECT_DOUBLE_EQ(store.prev_by_slot(s1, g), 10.0 + g);
    }
    // Map-keyed convenience API == dense group-0 view.
    EXPECT_DOUBLE_EQ(store.prev(0, 100), 1.0);
    EXPECT_DOUBLE_EQ(store.prev(1, 100), 10.0);
    // The stride is fixed once slots exist.
    EXPECT_THROW(store.set_num_groups(2), CheckError);
  });
}

/// Shared structured fixture: Kobayashi 8³ mesh in 2³-cell patches.
struct StructuredCase {
  StructuredCase()
      : mesh(mesh::make_kobayashi_mesh(8)),
        layout({8, 8, 8}, {2, 2, 2}),
        graph(partition::cell_graph(mesh)),
        patches(partition::block_partition(layout), layout.num_patches(),
                &graph),
        xs(sn::expand(sn::MaterialTable::kobayashi(), mesh.materials(),
                      mesh.num_cells())),
        disc(mesh, xs),
        quad(sn::Quadrature::level_symmetric(2)),
        q(static_cast<std::size_t>(mesh.num_cells()), 0.25) {}

  std::vector<double> serial() const {
    return sn::serial_sweep(disc, quad, q);
  }

  mesh::StructuredMesh mesh;
  partition::StructuredBlockLayout layout;
  partition::CsrGraph graph;
  partition::PatchSet patches;
  sn::CellXs xs;
  sn::StructuredDD disc;
  sn::Quadrature quad;
  std::vector<double> q;
};

/// Shared unstructured fixture: small tetrahedral ball.
struct BallCase {
  BallCase()
      : mesh(mesh::make_ball_mesh(6, 3.0)),
        graph(partition::cell_graph(mesh)),
        part(partition::partition_graph(graph, 5)),
        patches(part, 5, &graph),
        xs(sn::expand(sn::MaterialTable::ball(), mesh.materials(),
                      mesh.num_cells())),
        disc(mesh, xs),
        quad(sn::Quadrature::level_symmetric(4)),
        q(static_cast<std::size_t>(mesh.num_cells()), 0.125) {}

  std::vector<double> serial() const {
    return sn::serial_sweep(disc, quad, q);
  }

  mesh::TetMesh mesh;
  partition::CsrGraph graph;
  std::vector<std::int32_t> part;
  partition::PatchSet patches;
  sn::CellXs xs;
  sn::TetStep disc;
  sn::Quadrature quad;
  std::vector<double> q;
};

template <class Case>
std::vector<double> run_parallel(const Case& cs, int ranks,
                                 const PlanConfig& plan_config = {},
                                 const SolveConfig& solve_config = {}) {
  std::vector<double> result;
  std::mutex result_mutex;
  comm::Cluster::run(ranks, [&](comm::Context& ctx) {
    const auto owner = partition::assign_contiguous(
        cs.patches.num_patches(), ctx.size());
    SweepSession session(ctx,
                         SweepPlan::build(ctx, cs.mesh, cs.patches, owner,
                                          cs.disc, cs.quad, plan_config),
                         solve_config);
    const auto phi = session.sweep(cs.q);
    if (ctx.rank().value() == 0) {
      const std::lock_guard<std::mutex> lock(result_mutex);
      result = phi;
    }
  });
  return result;
}

void expect_equal(const std::vector<double>& a, const std::vector<double>& b,
                  double tol = 1e-13) {
  ASSERT_EQ(a.size(), b.size());
  double scale = 0.0;
  for (const auto v : a) scale = std::max(scale, std::abs(v));
  for (std::size_t i = 0; i < a.size(); ++i)
    ASSERT_NEAR(a[i], b[i], tol * scale) << "cell " << i;
}

// ---------------------------------------------------------------------------
// Data-driven engine vs serial reference
// ---------------------------------------------------------------------------

TEST(SweepStructured, MatchesSerialSingleRank) {
  const StructuredCase cs;
  expect_equal(run_parallel(cs, 1), cs.serial());
}

TEST(SweepStructured, MatchesSerialMultiRank) {
  const StructuredCase cs;
  SolveConfig cfg;
  cfg.num_workers = 3;
  expect_equal(run_parallel(cs, 4, {}, cfg), cs.serial());
}

TEST(SweepBall, MatchesSerialSingleRank) {
  const BallCase cs;
  expect_equal(run_parallel(cs, 1), cs.serial());
}

TEST(SweepBall, MatchesSerialMultiRank) {
  const BallCase cs;
  SolveConfig cfg;
  cfg.num_workers = 2;
  expect_equal(run_parallel(cs, 3, {}, cfg), cs.serial());
}

// The result must be bitwise identical whatever the parallel configuration:
// the DAG fixes every operand and the reduction order is fixed.
TEST(SweepDeterminism, BitwiseIdenticalAcrossConfigurations) {
  const BallCase cs;
  const auto base = run_parallel(cs, 1);
  for (const int ranks : {2, 4}) {
    for (const int workers : {1, 3}) {
      SolveConfig cfg;
      cfg.num_workers = workers;
      const auto phi = run_parallel(cs, ranks, {}, cfg);
      ASSERT_EQ(phi.size(), base.size());
      for (std::size_t i = 0; i < phi.size(); ++i)
        ASSERT_EQ(phi[i], base[i])
            << "ranks=" << ranks << " workers=" << workers << " cell=" << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Configuration sweeps (priorities, clustering, ablations)
// ---------------------------------------------------------------------------

using PriorityPair =
    std::pair<graph::PriorityStrategy, graph::PriorityStrategy>;

class SweepPriorities : public ::testing::TestWithParam<PriorityPair> {};

TEST_P(SweepPriorities, AllStrategiesMatchSerial) {
  const StructuredCase cs;
  PlanConfig cfg;
  cfg.patch_priority = GetParam().first;
  cfg.vertex_priority = GetParam().second;
  expect_equal(run_parallel(cs, 2, cfg), cs.serial());
}

INSTANTIATE_TEST_SUITE_P(
    Combos, SweepPriorities,
    ::testing::Values(
        PriorityPair{graph::PriorityStrategy::None,
                     graph::PriorityStrategy::None},
        PriorityPair{graph::PriorityStrategy::BFS,
                     graph::PriorityStrategy::BFS},
        PriorityPair{graph::PriorityStrategy::LDCP,
                     graph::PriorityStrategy::LDCP},
        PriorityPair{graph::PriorityStrategy::SLBD,
                     graph::PriorityStrategy::SLBD},
        PriorityPair{graph::PriorityStrategy::LDCP,
                     graph::PriorityStrategy::SLBD},
        PriorityPair{graph::PriorityStrategy::BFS,
                     graph::PriorityStrategy::SLBD}));

class SweepGrain : public ::testing::TestWithParam<int> {};

TEST_P(SweepGrain, AllClusterGrainsMatchSerial) {
  const BallCase cs;
  PlanConfig cfg;
  cfg.cluster_grain = GetParam();
  expect_equal(run_parallel(cs, 2, cfg), cs.serial());
}

INSTANTIATE_TEST_SUITE_P(Grains, SweepGrain,
                         ::testing::Values(1, 2, 8, 64, 4096));

TEST(SweepAblation, PatchSerializedStillCorrect) {
  const StructuredCase cs;
  PlanConfig plan_config;
  plan_config.patch_angle_parallelism = false;
  SolveConfig solve_config;
  solve_config.num_workers = 3;
  expect_equal(run_parallel(cs, 2, plan_config, solve_config), cs.serial());
}

// ---------------------------------------------------------------------------
// BSP engine
// ---------------------------------------------------------------------------

TEST(SweepBsp, MatchesSerial) {
  const StructuredCase cs;
  SolveConfig cfg;
  cfg.engine = EngineKind::Bsp;
  expect_equal(run_parallel(cs, 2, {}, cfg), cs.serial());
}

TEST(SweepBsp, BallMatchesSerial) {
  const BallCase cs;
  SolveConfig cfg;
  cfg.engine = EngineKind::Bsp;
  cfg.num_workers = 2;
  expect_equal(run_parallel(cs, 2, {}, cfg), cs.serial());
}

TEST(SweepBsp, DataDrivenUsesFewerGlobalSyncs) {
  // The data-driven engine needs one collective per sweep; BSP needs one
  // (plus a barrier) per superstep. Count supersteps to document the gap.
  const StructuredCase cs;
  std::atomic<std::int64_t> supersteps{0};
  comm::Cluster::run(2, [&](comm::Context& ctx) {
    SolveConfig cfg;
    cfg.engine = EngineKind::Bsp;
    const auto owner =
        partition::assign_contiguous(cs.patches.num_patches(), ctx.size());
    SweepSession session(ctx,
                         SweepPlan::build(ctx, cs.mesh, cs.patches, owner,
                                          cs.disc, cs.quad),
                         cfg);
    (void)session.sweep(cs.q);
    if (ctx.rank().value() == 0)
      supersteps.store(session.stats().bsp.supersteps);
  });
  EXPECT_GT(supersteps.load(), 3);
}

// ---------------------------------------------------------------------------
// Full solves: source iteration through the parallel sweep
// ---------------------------------------------------------------------------

TEST(SweepSourceIteration, ParallelSolveMatchesSerialSolve) {
  const StructuredCase cs;

  const auto serial_result = sn::source_iteration(
      cs.xs,
      [&](const std::vector<double>& q) {
        return sn::serial_sweep(cs.disc, cs.quad, q);
      },
      {1e-7, 100, false});
  ASSERT_TRUE(serial_result.converged);

  std::vector<double> parallel_phi;
  int parallel_iters = 0;
  comm::Cluster::run(3, [&](comm::Context& ctx) {
    const auto owner =
        partition::assign_contiguous(cs.patches.num_patches(), ctx.size());
    SweepSession session(ctx, SweepPlan::build(ctx, cs.mesh, cs.patches,
                                               owner, cs.disc, cs.quad));
    const auto result =
        sn::source_iteration(cs.xs, session.as_operator(), {1e-7, 100, false});
    EXPECT_TRUE(result.converged);
    if (ctx.rank().value() == 0) {
      parallel_phi = result.phi;
      parallel_iters = result.iterations;
    }
  });
  EXPECT_EQ(parallel_iters, serial_result.iterations);
  expect_equal(parallel_phi, serial_result.phi);
}

TEST(SweepStats, EngineCountsLookSane) {
  const StructuredCase cs;
  comm::Cluster::run(2, [&](comm::Context& ctx) {
    PlanConfig cfg;
    cfg.cluster_grain = 4;
    const auto owner =
        partition::assign_contiguous(cs.patches.num_patches(), ctx.size());
    SweepSession session(ctx, SweepPlan::build(ctx, cs.mesh, cs.patches,
                                               owner, cs.disc, cs.quad, cfg));
    (void)session.sweep(cs.q);
    const auto& st = session.stats().engine;
    // 8 angles × 32 local patches, at least one execution each.
    EXPECT_GE(st.executions, 8 * 32);
    EXPECT_GT(st.streams_remote + st.streams_local, 0);
    EXPECT_GT(st.worker_busy_seconds, 0.0);
  });
}

// ---------------------------------------------------------------------------
// Whole-patch executions
// ---------------------------------------------------------------------------

/// One 8³ patch per angle: every input is a domain boundary, so at the
/// default grain each (patch, angle) program retires all 512 cells in its
/// first execution — 8 executions per S2 sweep.
TEST(SweepStats, WholePatchRetiresInOneExecution) {
  const auto m = mesh::make_kobayashi_mesh(8);
  const partition::StructuredBlockLayout layout({8, 8, 8}, {8, 8, 8});
  const partition::PatchSet patches(partition::block_partition(layout),
                                    layout.num_patches());
  const sn::CellXs xs = sn::expand(sn::MaterialTable::kobayashi(),
                                   m.materials(), m.num_cells());
  const sn::StructuredDD disc(m, xs);
  const sn::Quadrature quad = sn::Quadrature::level_symmetric(2);
  const std::vector<double> q(static_cast<std::size_t>(m.num_cells()), 0.25);
  ASSERT_EQ(patches.num_patches(), 1);
  comm::Cluster::run(1, [&](comm::Context& ctx) {
    const auto owner = partition::assign_contiguous(1, ctx.size());
    SweepSession session(
        ctx, SweepPlan::build(ctx, m, patches, owner, disc, quad, {}));
    for (int sweep = 0; sweep < 2; ++sweep) {
      (void)session.sweep(q);  // stats().engine covers the last run
      EXPECT_EQ(session.stats().engine.executions, quad.num_angles())
          << "sweep " << sweep;
    }
  });
}

}  // namespace
}  // namespace jsweep::sweep
