// The dense face-flux subsystem (sn/face_flux.hpp) must be a drop-in,
// bitwise-identical replacement for the unordered_map flux store:
//   - random operation sequences agree with a map reference exactly;
//   - the epoch-based O(1) reset never leaks values across reuses;
//   - missing-key-reads-zero (vacuum boundary) semantics are preserved;
//   - the dense kernels match the retained hash-map kernels bitwise;
//   - the kernel grind loop performs zero heap allocations;
//   - workspaces are recycled through the pool under the real engine.

#include <gtest/gtest.h>

#include <unordered_map>

#include "comm/cluster.hpp"
#include "mesh/generators.hpp"
#include "partition/adjacency.hpp"
#include "partition/block_layout.hpp"
#include "partition/graph_partition.hpp"
#include "partition/patch_set.hpp"
#include "sn/face_flux.hpp"
#include "sn/serial_sweep.hpp"
#include "support/alloc_counter.hpp"
#include "support/rng.hpp"
#include "sweep/session.hpp"

namespace jsweep::sn {
namespace {

TEST(FaceFluxWorkspace, MatchesMapOnRandomOperationSequences) {
  Rng rng(20260731);
  FaceFluxWorkspace ws;
  std::unordered_map<std::int32_t, double> ref;
  for (int round = 0; round < 50; ++round) {
    const auto slots = static_cast<std::int32_t>(rng.range(1, 300));
    ws.prepare(slots);
    ref.clear();
    for (int op = 0; op < 500; ++op) {
      const auto s = static_cast<std::int32_t>(rng.range(0, slots - 1));
      if (rng.chance(0.5)) {
        const double v = rng.uniform(-10.0, 10.0);
        ws.write(s, v);
        ref[s] = v;
      } else {
        const auto it = ref.find(s);
        const double expect = it == ref.end() ? 0.0 : it->second;
        ASSERT_EQ(ws.read(s), expect);
        ASSERT_EQ(ws.has(s), it != ref.end());
      }
    }
  }
}

TEST(FaceFluxWorkspace, EpochResetIsCleanAfterManyReuses) {
  Rng rng(7);
  FaceFluxWorkspace ws;
  ws.prepare(128);
  for (int reuse = 0; reuse < 1000; ++reuse) {
    // Everything must read as unwritten after the O(1) reset...
    for (std::int32_t s = 0; s < 128; ++s) {
      ASSERT_FALSE(ws.has(s));
      ASSERT_EQ(ws.read(s), 0.0);
    }
    // ...then a few writes land only where made.
    const auto a = static_cast<std::int32_t>(rng.range(0, 127));
    const auto b = static_cast<std::int32_t>(rng.range(0, 127));
    ws.write(a, 1.0 + reuse);
    ws.write(b, -2.0 - reuse);
    ASSERT_EQ(ws.read(b), -2.0 - reuse);
    ASSERT_EQ(ws.read(a), a == b ? -2.0 - reuse : 1.0 + reuse);
    ws.reset();
  }
}

TEST(FaceFluxWorkspace, VacuumBoundaryReadsZero) {
  FaceFluxWorkspace ws;
  ws.prepare(8);
  EXPECT_EQ(ws.read(3), 0.0);  // never written: the vacuum boundary
  ws.write(3, 5.0);
  EXPECT_EQ(ws.read(3), 5.0);
  ws.reset();
  EXPECT_EQ(ws.read(3), 0.0);  // reset restores vacuum
  // A view whose `in` slot is kNone also reads zero.
  CellFaceSlots slots;
  const FaceFluxView view{&ws, &slots};
  EXPECT_EQ(view.read_in(0), 0.0);
}

/// Sweep every cell of a structured mesh with both kernel paths and demand
/// bitwise-equal ψ and outgoing face fluxes.
TEST(DenseKernel, StructuredBitwiseMatchesHashMapReference) {
  const mesh::StructuredMesh m({9, 7, 5}, {0.8, 1.1, 0.6});
  CellXs xs;
  const auto n = static_cast<std::size_t>(m.num_cells());
  Rng rng(42);
  xs.sigma_t.resize(n);
  xs.sigma_s.assign(n, 0.1);
  xs.source.assign(n, 1.0);
  std::vector<double> q(n);
  for (std::size_t c = 0; c < n; ++c) {
    xs.sigma_t[c] = rng.uniform(0.05, 2.0);
    q[c] = rng.uniform(0.0, 3.0);
  }
  const StructuredDD disc(m, xs);
  const Quadrature quad = Quadrature::level_symmetric(4);

  FaceFluxMap map_flux;
  FaceFluxWorkspace ws;
  ws.prepare(m.num_cells() * 6);
  CellFaceIds ids;
  for (const auto& ang : quad.ordinates()) {
    map_flux.clear();
    ws.reset();
    // Natural cell order is fine: both paths see the identical (possibly
    // not-yet-written) upstream state either way.
    for (std::int64_t c = 0; c < m.num_cells(); ++c) {
      disc.face_ids(CellId{c}, ang, ids);
      const CellFaceSlots slots = identity_slots(ids);
      const double psi_map = disc.sweep_cell(CellId{c}, ang, q, map_flux);
      const double psi_dense =
          disc.sweep_cell(CellId{c}, ang, q, FaceFluxView{&ws, &slots});
      ASSERT_EQ(psi_map, psi_dense);
    }
    // Every face the map holds must match the workspace exactly, and
    // vice versa (identity slots: slot == face id).
    for (const auto& [face, value] : map_flux) {
      ASSERT_TRUE(ws.has(static_cast<std::int32_t>(face)));
      ASSERT_EQ(ws.read(static_cast<std::int32_t>(face)), value);
    }
    for (std::int64_t f = 0; f < m.num_cells() * 6; ++f) {
      if (ws.has(static_cast<std::int32_t>(f))) {
        ASSERT_EQ(map_flux.count(f), 1u);
      }
    }
  }
}

TEST(DenseKernel, TetBitwiseMatchesHashMapReference) {
  const mesh::TetMesh m = mesh::make_ball_mesh(6, 3.0);
  const CellXs xs = expand(MaterialTable::ball(), m.materials(),
                           m.num_cells());
  const TetStep disc(m, xs);
  const Quadrature quad = Quadrature::level_symmetric(2);
  const std::vector<double> q(static_cast<std::size_t>(m.num_cells()), 0.7);

  FaceFluxMap map_flux;
  FaceFluxWorkspace ws;
  ws.prepare(m.num_faces());
  CellFaceIds ids;
  for (const auto& ang : quad.ordinates()) {
    const graph::Digraph g = graph::build_global_cell_digraph(m, ang.dir);
    const auto order = g.topological_order();
    ASSERT_TRUE(order.has_value());
    map_flux.clear();
    ws.reset();
    for (const auto v : *order) {
      disc.face_ids(CellId{v}, ang, ids);
      const CellFaceSlots slots = identity_slots(ids);
      const double psi_map = disc.sweep_cell(CellId{v}, ang, q, map_flux);
      const double psi_dense =
          disc.sweep_cell(CellId{v}, ang, q, FaceFluxView{&ws, &slots});
      ASSERT_EQ(psi_map, psi_dense);
    }
    for (const auto& [face, value] : map_flux) {
      ASSERT_TRUE(ws.has(static_cast<std::int32_t>(face)));
      ASSERT_EQ(ws.read(static_cast<std::int32_t>(face)), value);
    }
  }
}

TEST(DenseKernel, GrindLoopIsAllocationFree) {
  const mesh::StructuredMesh m({16, 16, 16}, {1, 1, 1});
  CellXs xs;
  const auto n = static_cast<std::size_t>(m.num_cells());
  xs.sigma_t.assign(n, 0.5);
  xs.sigma_s.assign(n, 0.2);
  xs.source.assign(n, 1.0);
  const StructuredDD disc(m, std::move(xs));
  const Ordinate ang{mesh::normalized({0.5, 0.6, 0.62}), 1.0, 0};
  const std::vector<double> q(n, 0.25);
  const std::vector<CellFaceSlots> slots = build_identity_slots(disc, ang);
  FaceFluxWorkspace ws;
  ws.prepare(m.num_cells() * 6);

  double sink = 0.0;
  for (int pass = 0; pass < 2; ++pass) {  // pass 0 warms everything up
    const std::int64_t a0 = support::allocation_count();
    ws.reset();
    for (std::int64_t c = 0; c < m.num_cells(); ++c)
      sink += disc.sweep_cell(
          CellId{c}, ang, q,
          FaceFluxView{&ws, &slots[static_cast<std::size_t>(c)]});
    const std::int64_t grind_allocs = support::allocation_count() - a0;
    if (pass == 1) {
      EXPECT_EQ(grind_allocs, 0)
          << "dense kernel grind must not allocate in steady state";
    }
  }
  EXPECT_NE(sink, -1.0);
}

}  // namespace
}  // namespace jsweep::sn

namespace jsweep::sweep {
namespace {

/// The pool must recycle workspaces under the real engine: fewer
/// workspaces than programs (the lazy borrow tracks the sweep frontier),
/// heavy reuse, and no growth after the first sweep (steady state).
TEST(FaceFluxPool, RecyclesWorkspacesUnderRealEngine) {
  const mesh::StructuredMesh m({12, 12, 12}, {1, 1, 1});
  sn::CellXs xs;
  const auto n = static_cast<std::size_t>(m.num_cells());
  xs.sigma_t.assign(n, 0.4);
  xs.sigma_s.assign(n, 0.1);
  xs.source.assign(n, 1.0);
  const sn::StructuredDD disc(m, xs);
  const sn::Quadrature quad = sn::Quadrature::level_symmetric(2);
  const std::vector<double> q(n, 0.5);
  const partition::StructuredBlockLayout layout({12, 12, 12}, {6, 6, 6});
  const partition::PatchSet ps(partition::block_partition(layout),
                               layout.num_patches());
  const int num_programs = layout.num_patches() * quad.num_angles();

  comm::Cluster::run(1, [&](comm::Context& ctx) {
    SweepSession session(
        ctx, SweepPlan::build(ctx, m, ps,
                              partition::assign_contiguous(
                                  layout.num_patches(), 1),
                              disc, quad));
    const auto phi1 = session.sweep(q);
    const auto created_after_first = session.flux_pool().created();
    EXPECT_GT(created_after_first, 0);
    EXPECT_LT(created_after_first, num_programs)
        << "lazy borrowing should keep live workspaces below the program "
           "count";
    const auto phi2 = session.sweep(q);
    const auto phi3 = session.sweep(q);
    // Steady state: later sweeps mostly reuse (scheduling may widen the
    // frontier slightly, so allow creations, not growth per program).
    const auto created = session.flux_pool().created();
    EXPECT_LT(created, num_programs);
    EXPECT_GT(session.flux_pool().reuses(),
              session.flux_pool().acquires() / 2)
        << "three sweeps over the same programs should mostly recycle";
    // Exact pool invariant: every acquire either reused or created.
    EXPECT_EQ(session.flux_pool().acquires(),
              session.flux_pool().reuses() + created);
    // Recycling must not perturb results: sweeps of the same source are
    // identical, and match the serial reference bitwise.
    EXPECT_EQ(phi1, phi2);
    EXPECT_EQ(phi1, phi3);
    const auto serial = sn::serial_sweep(disc, quad, q);
    ASSERT_EQ(phi1.size(), serial.size());
    for (std::size_t c = 0; c < serial.size(); ++c)
      ASSERT_EQ(phi1[c], serial[c]) << "cell " << c;
  });
}

/// Same under the BSP engine.
TEST(FaceFluxPool, RecyclesUnderBspEngine) {
  const mesh::StructuredMesh m({8, 8, 8}, {1, 1, 1});
  sn::CellXs xs;
  const auto n = static_cast<std::size_t>(m.num_cells());
  xs.sigma_t.assign(n, 0.6);
  xs.sigma_s.assign(n, 0.2);
  xs.source.assign(n, 1.0);
  const sn::StructuredDD disc(m, xs);
  const sn::Quadrature quad = sn::Quadrature::level_symmetric(2);
  const std::vector<double> q(n, 1.0);
  const partition::StructuredBlockLayout layout({8, 8, 8}, {4, 4, 4});
  const partition::PatchSet ps(partition::block_partition(layout),
                               layout.num_patches());
  const auto owner = partition::assign_contiguous(layout.num_patches(), 1);
  const auto serial = sn::serial_sweep(disc, quad, q);

  comm::Cluster::run(1, [&](comm::Context& ctx) {
    SolveConfig config;
    config.engine = EngineKind::Bsp;
    SweepSession session(ctx, SweepPlan::build(ctx, m, ps, owner, disc, quad),
                         config);
    const auto phi1 = session.sweep(q);
    const auto phi2 = session.sweep(q);
    EXPECT_EQ(phi1, serial);
    EXPECT_EQ(phi2, serial);
    EXPECT_GT(session.flux_pool().reuses(), 0);
  });
}

}  // namespace
}  // namespace jsweep::sweep
