// Tests for the discrete-event performance simulator: topology models,
// transfer-curve extraction, the data-driven/BSP simulators and the KBA
// pipeline model.

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "mesh/generators.hpp"
#include "partition/adjacency.hpp"
#include "partition/graph_partition.hpp"
#include "sim/cost_model.hpp"
#include "sim/data_driven_sim.hpp"
#include "sim/emission.hpp"
#include "sim/kba_sim.hpp"
#include "sim/patch_topology.hpp"
#include "support/check.hpp"
#include "sweep/stream_codec.hpp"

namespace jsweep::sim {
namespace {

TEST(PatchTopology, StructuredLatticeCountsAndNeighbors) {
  const PatchTopology topo =
      PatchTopology::structured({40, 40, 40}, {20, 20, 20});
  EXPECT_EQ(topo.num_patches(), 8);
  EXPECT_EQ(topo.total_cells(), 64000);
  for (std::int32_t p = 0; p < 8; ++p) {
    EXPECT_EQ(topo.cells(p), 8000);
    EXPECT_EQ(topo.neighbors(p).size(), 3u);  // corner of a 2³ lattice
    for (const auto& nb : topo.neighbors(p))
      EXPECT_EQ(nb.interface_faces, 400);
  }
}

TEST(PatchTopology, UpwindDownwindPartitionNeighbors) {
  const PatchTopology topo =
      PatchTopology::structured({60, 60, 60}, {20, 20, 20});
  const mesh::Vec3 omega = mesh::normalized({1, 1, 1});
  for (std::int32_t p = 0; p < topo.num_patches(); ++p) {
    std::size_t up = 0;
    std::size_t down = 0;
    topo.for_upwind(p, omega, [&](const PatchNeighbor&) { ++up; });
    topo.for_downwind(p, omega, [&](const PatchNeighbor&) { ++down; });
    EXPECT_EQ(up + down, topo.neighbors(p).size());
  }
  // The center patch of the 3³ lattice has 3 upwind and 3 downwind.
  const std::int32_t center = 1 + 3 * (1 + 3 * 1);
  std::size_t up = 0;
  topo.for_upwind(center, omega, [&](const PatchNeighbor&) { ++up; });
  EXPECT_EQ(up, 3u);
}

TEST(PatchTopology, LatticeBallApproximatesSphere) {
  const PatchTopology topo = PatchTopology::lattice_ball(10, 500, 60);
  // Sphere fills ~π/6 of the bounding lattice.
  const double expect = std::numbers::pi / 6.0 * 1000.0;
  EXPECT_NEAR(static_cast<double>(topo.num_patches()), expect,
              0.25 * expect);
  // Neighbor relation symmetric.
  for (std::int32_t p = 0; p < topo.num_patches(); ++p) {
    for (const auto& nb : topo.neighbors(p)) {
      bool back = false;
      for (const auto& nb2 : topo.neighbors(nb.patch))
        back |= (nb2.patch == p);
      EXPECT_TRUE(back);
    }
  }
}

TEST(PatchTopology, FromPatchsetMatchesMesh) {
  const mesh::TetMesh m = mesh::make_ball_mesh(6, 3.0);
  const partition::CsrGraph g = partition::cell_graph(m);
  const auto part = partition::partition_graph(g, 4);
  const partition::PatchSet ps(part, 4, &g);
  const PatchTopology topo = PatchTopology::from_patchset(m, ps);
  EXPECT_EQ(topo.num_patches(), 4);
  EXPECT_EQ(topo.total_cells(), m.num_cells());
  // Interface counts symmetric: faces(p→q) == faces(q→p).
  for (std::int32_t p = 0; p < 4; ++p) {
    for (const auto& nb : topo.neighbors(p)) {
      std::int64_t reverse = 0;
      for (const auto& nb2 : topo.neighbors(nb.patch))
        if (nb2.patch == p) reverse = nb2.interface_faces;
      EXPECT_EQ(nb.interface_faces, reverse);
    }
  }
}

TEST(PatchTopology, ProcessAssignmentBalanced) {
  const PatchTopology topo =
      PatchTopology::structured({80, 80, 80}, {20, 20, 20});
  const auto procs = assign_processes(topo, 8);
  std::vector<int> counts(8, 0);
  for (const auto p : procs) {
    ASSERT_GE(p, 0);
    ASSERT_LT(p, 8);
    ++counts[static_cast<std::size_t>(p)];
  }
  for (const auto c : counts) EXPECT_EQ(c, 8);
}

// ---------------------------------------------------------------------------
// Transfer curves
// ---------------------------------------------------------------------------

TEST(TransferCurves, MonotoneAndComplete) {
  for (const auto strategy :
       {graph::PriorityStrategy::None, graph::PriorityStrategy::BFS,
        graph::PriorityStrategy::SLBD}) {
    const TransferCurves c = extract_curves_structured(
        {8, 8, 8}, mesh::normalized({1, 1, 1}), strategy, 64);
    ASSERT_GE(c.num_chunks(), 1);
    double prev_e = 0.0;
    double prev_c = 0.0;
    for (int i = 0; i < c.num_chunks(); ++i) {
      EXPECT_GE(c.emission[static_cast<std::size_t>(i)], prev_e);
      EXPECT_GE(c.consumption[static_cast<std::size_t>(i)], prev_c);
      prev_e = c.emission[static_cast<std::size_t>(i)];
      prev_c = c.consumption[static_cast<std::size_t>(i)];
    }
    EXPECT_NEAR(c.emission.back(), 1.0, 1e-12);
    EXPECT_NEAR(c.consumption.back(), 1.0, 1e-12);
  }
}

TEST(TransferCurves, SlbdEmitsEarlierThanFifoOnAverage) {
  // SLBD exists precisely to push boundary data out sooner; its mean
  // cumulative emission must dominate the unprioritized order.
  const mesh::Vec3 omega = mesh::normalized({1, 1, 1});
  const TransferCurves slbd =
      extract_curves_structured({10, 10, 10}, omega,
                                graph::PriorityStrategy::SLBD, 25);
  const TransferCurves none =
      extract_curves_structured({10, 10, 10}, omega,
                                graph::PriorityStrategy::None, 25);
  ASSERT_EQ(slbd.num_chunks(), none.num_chunks());
  double mean_slbd = 0.0;
  double mean_none = 0.0;
  for (int i = 0; i < slbd.num_chunks(); ++i) {
    mean_slbd += slbd.emission[static_cast<std::size_t>(i)];
    mean_none += none.emission[static_cast<std::size_t>(i)];
  }
  EXPECT_GT(mean_slbd, mean_none);
}

TEST(TransferCurves, RequiredUpwindChunkSemantics) {
  const TransferCurves c = extract_curves_structured(
      {8, 8, 8}, mesh::normalized({1, 1, 1}), graph::PriorityStrategy::SLBD,
      64);
  const int n = c.num_chunks();
  // Monotone in my_chunk; never exceeds upwind chunk count.
  int prev = -1;
  for (int my = 0; my < n; ++my) {
    const int req = c.required_upwind_chunk(my, n, n);
    EXPECT_GE(req, prev);
    EXPECT_LT(req, n);
    prev = req;
  }
  // Last chunk needs (almost) everything: the required upwind chunk must
  // be one whose emission reaches 1.
  const int last_req = c.required_upwind_chunk(n - 1, n, n);
  EXPECT_GE(c.emission_at(last_req, n), 1.0 - 1e-9);
}

TEST(TransferCurves, TetExtractionWorks) {
  const TransferCurves c = extract_curves_tet(
      3, mesh::normalized({0.3, -0.5, 0.81}), graph::PriorityStrategy::SLBD,
      32);
  EXPECT_GE(c.num_chunks(), 2);
  EXPECT_NEAR(c.emission.back(), 1.0, 1e-12);
}

// ---------------------------------------------------------------------------
// Data-driven simulator
// ---------------------------------------------------------------------------

SimConfig small_config(int processes, int workers) {
  SimConfig cfg;
  cfg.processes = processes;
  cfg.workers_per_process = workers;
  cfg.cluster_grain = 200;
  cfg.rep_patch_dims = {8, 8, 8};
  return cfg;
}

/// Interface faces that one full sweep sends between processes: every
/// angle crosses each downwind interface of a patch once, and only the
/// ones whose two patches sit on different processes go on the wire.
double remote_faces_crossed(const PatchTopology& topo,
                            const sn::Quadrature& quad, int processes) {
  const auto proc_of = assign_processes(topo, processes);
  double faces = 0.0;
  for (int a = 0; a < quad.num_angles(); ++a)
    for (std::int32_t p = 0; p < topo.num_patches(); ++p)
      topo.for_downwind(p, quad.angle(a).dir, [&](const PatchNeighbor& nb) {
        if (proc_of[static_cast<std::size_t>(p)] !=
            proc_of[static_cast<std::size_t>(nb.patch)])
          faces += static_cast<double>(nb.interface_faces);
      });
  return faces;
}

/// A simulated program is one group wide, so each remote face costs one
/// single-lane stream record on the wire.
void expect_record_bytes_per_face(const SimResult& r, double faces) {
  ASSERT_GT(faces, 0.0);
  const auto record = static_cast<double>(sweep::record_size(1));
  EXPECT_NEAR(static_cast<double>(r.bytes) / faces, record, 0.01 * record);
}

TEST(DataDrivenSim, ExecutesAllChunks) {
  const PatchTopology topo =
      PatchTopology::structured({32, 32, 32}, {8, 8, 8});
  const sn::Quadrature quad = sn::Quadrature::level_symmetric(2);
  DataDrivenSim sim(topo, quad, small_config(4, 3));
  const SimResult r = sim.run();
  // 64 patches × 8 angles × ceil(512/200)=3 chunks.
  EXPECT_EQ(r.chunk_executions, 64 * 8 * 3);
  EXPECT_GT(r.elapsed_seconds, 0.0);
  EXPECT_GT(r.messages, 0);
  EXPECT_EQ(r.cores, 4 * 4);
  expect_record_bytes_per_face(r, remote_faces_crossed(topo, quad, 4));
  // Breakdown adds up to total core time.
  const auto& b = r.breakdown;
  EXPECT_NEAR(b.kernel + b.graphop + b.pack + b.route + b.idle,
              r.core_seconds(), 1e-9 * r.core_seconds() + 1e-12);
}

TEST(DataDrivenSim, StrongScalingReducesTime) {
  const PatchTopology topo =
      PatchTopology::structured({64, 64, 64}, {8, 8, 8});
  const sn::Quadrature quad = sn::Quadrature::level_symmetric(4);
  const double t1 = DataDrivenSim(topo, quad, small_config(1, 3)).run()
                        .elapsed_seconds;
  const double t8 = DataDrivenSim(topo, quad, small_config(8, 3)).run()
                        .elapsed_seconds;
  EXPECT_LT(t8, t1);
  // Speedup is sublinear but real.
  EXPECT_GT(t1 / t8, 2.0);
}

TEST(DataDrivenSim, MoreWorkersHelpUpToParallelism) {
  const PatchTopology topo =
      PatchTopology::structured({64, 64, 64}, {8, 8, 8});
  const sn::Quadrature quad = sn::Quadrature::level_symmetric(2);
  const double t2 = DataDrivenSim(topo, quad, small_config(2, 2)).run()
                        .elapsed_seconds;
  const double t8 = DataDrivenSim(topo, quad, small_config(2, 8)).run()
                        .elapsed_seconds;
  EXPECT_LE(t8, t2 * 1.001);
}

TEST(DataDrivenSim, CoarsenedGraphFaster) {
  const PatchTopology topo =
      PatchTopology::structured({48, 48, 48}, {8, 8, 8});
  const sn::Quadrature quad = sn::Quadrature::level_symmetric(2);
  SimConfig dag = small_config(2, 3);
  SimConfig cg = dag;
  cg.coarsened = true;
  const double t_dag = DataDrivenSim(topo, quad, dag).run().elapsed_seconds;
  const double t_cg = DataDrivenSim(topo, quad, cg).run().elapsed_seconds;
  EXPECT_LT(t_cg, t_dag);
}

TEST(DataDrivenSim, LaggedSlotsRelaxDependencesAndSpeedTheSweep) {
  // The cycle-breaking model: lagged dependence slots never gate chunk
  // readiness, so a fully-lagged sweep pipelines at least as well as the
  // gated baseline while executing the identical chunk workload — and a
  // zero fraction reproduces the baseline exactly.
  const PatchTopology topo =
      PatchTopology::structured({48, 48, 48}, {8, 8, 8});
  const sn::Quadrature quad = sn::Quadrature::level_symmetric(2);
  const SimConfig base = small_config(4, 3);

  const SimResult r_base = DataDrivenSim(topo, quad, base).run();
  EXPECT_EQ(r_base.lagged_slots, 0);

  SimConfig zero = base;
  zero.lagged_fraction = 0.0;
  const SimResult r_zero = DataDrivenSim(topo, quad, zero).run();
  EXPECT_EQ(r_zero.elapsed_seconds, r_base.elapsed_seconds);

  SimConfig all = base;
  all.lagged_fraction = 1.0;
  const SimResult r_all = DataDrivenSim(topo, quad, all).run();
  EXPECT_GT(r_all.lagged_slots, 0);
  EXPECT_EQ(r_all.chunk_executions, r_base.chunk_executions);
  EXPECT_LE(r_all.elapsed_seconds, r_base.elapsed_seconds);

  SimConfig half = base;
  half.lagged_fraction = 0.4;
  half.lag_seed = 99;
  const SimResult r_half = DataDrivenSim(topo, quad, half).run();
  EXPECT_GT(r_half.lagged_slots, 0);
  EXPECT_LT(r_half.lagged_slots, r_all.lagged_slots);
  // Deterministic in the seed.
  const SimResult r_half2 = DataDrivenSim(topo, quad, half).run();
  EXPECT_EQ(r_half.elapsed_seconds, r_half2.elapsed_seconds);
  EXPECT_EQ(r_half.lagged_slots, r_half2.lagged_slots);

  // BSP mode honors the same model.
  SimConfig bsp = all;
  bsp.engine = SimEngine::Bsp;
  const SimResult r_bsp = DataDrivenSim(topo, quad, bsp).run();
  EXPECT_GT(r_bsp.lagged_slots, 0);
  SimConfig bsp_base = base;
  bsp_base.engine = SimEngine::Bsp;
  const SimResult r_bsp_base = DataDrivenSim(topo, quad, bsp_base).run();
  EXPECT_LE(r_bsp.supersteps, r_bsp_base.supersteps);
}

TEST(DataDrivenSim, DeterministicAcrossRuns) {
  const PatchTopology topo =
      PatchTopology::structured({32, 32, 32}, {8, 8, 8});
  const sn::Quadrature quad = sn::Quadrature::level_symmetric(2);
  const double a =
      DataDrivenSim(topo, quad, small_config(4, 3)).run().elapsed_seconds;
  const double b =
      DataDrivenSim(topo, quad, small_config(4, 3)).run().elapsed_seconds;
  EXPECT_EQ(a, b);
}

TEST(DataDrivenSim, WorksOnBallLattice) {
  const PatchTopology topo = PatchTopology::lattice_ball(8, 500, 60);
  const sn::Quadrature quad = sn::Quadrature::level_symmetric(4);
  SimConfig cfg = small_config(4, 3);
  cfg.tet_mesh = true;
  cfg.rep_block_hexes = 3;
  cfg.cluster_grain = 64;
  const SimResult r = DataDrivenSim(topo, quad, cfg).run();
  EXPECT_GT(r.elapsed_seconds, 0.0);
  EXPECT_GT(r.messages, 0);
}

TEST(BspSim, SlowerThanDataDriven) {
  const PatchTopology topo =
      PatchTopology::structured({48, 48, 48}, {8, 8, 8});
  const sn::Quadrature quad = sn::Quadrature::level_symmetric(2);
  SimConfig dd = small_config(4, 3);
  SimConfig bsp = dd;
  bsp.engine = SimEngine::Bsp;
  const SimResult rd = DataDrivenSim(topo, quad, dd).run();
  const SimResult rb = DataDrivenSim(topo, quad, bsp).run();
  EXPECT_EQ(rb.chunk_executions, rd.chunk_executions);
  EXPECT_GT(rb.supersteps, 0);
  const double faces = remote_faces_crossed(topo, quad, 4);
  expect_record_bytes_per_face(rd, faces);
  expect_record_bytes_per_face(rb, faces);
  // The superstep barrier + one-chunk-per-step idling must cost time:
  // the paper's core claim (Fig. 17).
  EXPECT_GT(rb.elapsed_seconds, rd.elapsed_seconds);
}

// ---------------------------------------------------------------------------
// KBA pipeline model
// ---------------------------------------------------------------------------

TEST(KbaSim, SingleRankIsSerialWork) {
  KbaSimConfig cfg;
  cfg.mesh_dims = {32, 32, 32};
  cfg.px = 1;
  cfg.py = 1;
  const sn::Quadrature quad = sn::Quadrature::level_symmetric(2);
  const SimResult r = simulate_kba(cfg, quad);
  const double work_ns = static_cast<double>(32 * 32 * 32) * 8 *
                         cfg.cost.t_vertex_ns;
  EXPECT_NEAR(r.elapsed_seconds, work_ns * 1e-9, 0.05 * work_ns * 1e-9);
  EXPECT_EQ(r.messages, 0);
}

TEST(KbaSim, ScalesWithRanks) {
  KbaSimConfig base;
  base.mesh_dims = {64, 64, 64};
  base.z_block = 8;
  const sn::Quadrature quad = sn::Quadrature::level_symmetric(4);
  base.px = 1;
  base.py = 1;
  const double t1 = simulate_kba(base, quad).elapsed_seconds;
  base.px = 4;
  base.py = 4;
  const double t16 = simulate_kba(base, quad).elapsed_seconds;
  const double speedup = t1 / t16;
  EXPECT_GT(speedup, 4.0);
  EXPECT_LT(speedup, 16.0);  // pipeline fill keeps it sublinear
}

TEST(KbaSim, SmallerBlocksPipelineBetterAtScale) {
  KbaSimConfig cfg;
  cfg.mesh_dims = {64, 64, 64};
  cfg.px = 8;
  cfg.py = 8;
  const sn::Quadrature quad = sn::Quadrature::level_symmetric(4);
  cfg.z_block = 64;  // no pipelining within an angle
  const double coarse = simulate_kba(cfg, quad).elapsed_seconds;
  cfg.z_block = 4;
  const double fine = simulate_kba(cfg, quad).elapsed_seconds;
  EXPECT_LT(fine, coarse);
}

TEST(CostModel, CalibrationIsPlausible) {
  const double ns = calibrate_vertex_ns();
  EXPECT_GT(ns, 5.0);
  EXPECT_LT(ns, 5000.0);
}

TEST(CostModel, CollectiveGrowsLogarithmically) {
  const CostModel cm;
  EXPECT_EQ(cm.collective_ns(1), 0.0);
  EXPECT_GT(cm.collective_ns(1024), cm.collective_ns(16));
  EXPECT_NEAR(cm.collective_ns(1024) / cm.collective_ns(16),
              10.0 / 4.0, 1e-9);
}

}  // namespace
}  // namespace jsweep::sim

// --- Chunk-cap folding --------------------------------------------------------

namespace jsweep::sim {
namespace {

TEST(FoldFactor, TrueExecutionCountPreserved) {
  // grain=1 on 512-cell patches folds 512 true executions into at most
  // max_chunks simulated chunks; the reported execution count must still
  // reflect the true total.
  const PatchTopology topo =
      PatchTopology::structured({16, 16, 16}, {8, 8, 8});
  const sn::Quadrature quad = sn::Quadrature::level_symmetric(2);
  SimConfig cfg;
  cfg.processes = 2;
  cfg.workers_per_process = 3;
  cfg.cluster_grain = 1;
  cfg.max_chunks_per_program = 16;
  cfg.rep_patch_dims = {8, 8, 8};
  const SimResult r = DataDrivenSim(topo, quad, cfg).run();
  // 8 patches x 8 angles x 512 true executions.
  EXPECT_EQ(r.chunk_executions, 8 * 8 * 512);
}

TEST(FoldFactor, CapChangesGranularityNotTotals) {
  const PatchTopology topo =
      PatchTopology::structured({32, 32, 32}, {8, 8, 8});
  const sn::Quadrature quad = sn::Quadrature::level_symmetric(2);
  SimConfig coarse;
  coarse.processes = 4;
  coarse.workers_per_process = 3;
  coarse.cluster_grain = 2;
  coarse.max_chunks_per_program = 8;
  coarse.rep_patch_dims = {8, 8, 8};
  SimConfig fine = coarse;
  fine.max_chunks_per_program = 64;
  const SimResult rc = DataDrivenSim(topo, quad, coarse).run();
  const SimResult rf = DataDrivenSim(topo, quad, fine).run();
  EXPECT_EQ(rc.chunk_executions, rf.chunk_executions);
  // Folding coarsens pipelining but total busy work is identical, so the
  // two estimates stay within a factor of two of each other.
  EXPECT_LT(rc.elapsed_seconds / rf.elapsed_seconds, 2.0);
  EXPECT_GT(rc.elapsed_seconds / rf.elapsed_seconds, 0.5);
  EXPECT_NEAR(rc.breakdown.kernel, rf.breakdown.kernel,
              1e-9 * rf.breakdown.kernel);
}

TEST(CostPresets, DistinctAndOrdered) {
  const CostModel host;
  const CostModel s = CostModel::jsnt_s();
  const CostModel u = CostModel::jsnt_u();
  EXPECT_GT(s.t_vertex_ns, host.t_vertex_ns);
  EXPECT_GT(u.t_vertex_ns, s.t_vertex_ns);
}

TEST(DataDrivenSim, MultigroupExecutesAllGroupChunks) {
  const PatchTopology topo =
      PatchTopology::structured({32, 32, 32}, {8, 8, 8});
  const sn::Quadrature quad = sn::Quadrature::level_symmetric(2);
  SimConfig cfg = small_config(4, 3);
  cfg.groups = 4;
  const SimResult r = DataDrivenSim(topo, quad, cfg).run();
  // 64 patches × 8 angles × 4 groups × ceil(512/200)=3 chunks.
  EXPECT_EQ(r.chunk_executions, 64 * 8 * 4 * 3);
}

TEST(DataDrivenSim, GroupPipeliningBeatsGroupBarriers) {
  // The point of the group axis: pipelined injection hides the per-group
  // pipeline fill/drain that a barrier forces every group to pay.
  const PatchTopology topo =
      PatchTopology::structured({64, 64, 64}, {8, 8, 8});
  const sn::Quadrature quad = sn::Quadrature::level_symmetric(4);
  SimConfig cfg = small_config(8, 3);
  cfg.groups = 4;
  cfg.group_pipelining = true;
  const SimResult piped = DataDrivenSim(topo, quad, cfg).run();
  cfg.group_pipelining = false;
  const SimResult barriered = DataDrivenSim(topo, quad, cfg).run();
  EXPECT_EQ(piped.chunk_executions, barriered.chunk_executions);
  EXPECT_LT(piped.elapsed_seconds, barriered.elapsed_seconds);
}

TEST(DataDrivenSim, MultigroupBspCompletes) {
  const PatchTopology topo =
      PatchTopology::structured({32, 32, 32}, {8, 8, 8});
  const sn::Quadrature quad = sn::Quadrature::level_symmetric(2);
  SimConfig cfg = small_config(4, 3);
  cfg.groups = 3;
  cfg.engine = SimEngine::Bsp;
  const SimResult r = DataDrivenSim(topo, quad, cfg).run();
  EXPECT_EQ(r.chunk_executions, 64 * 8 * 3 * 3);
  EXPECT_GT(r.supersteps, 0);
}

}  // namespace
}  // namespace jsweep::sim
