// Plan/session lifecycle tests (ctest label `sweep`). (a) Sessions sharing
// one immutable SweepPlan produce bit-identical fluxes to a session over a
// privately built plan on structured-Kobayashi and twisted-cyclic meshes;
// (b) a plan built once and solved many times performs no task-graph
// construction or face-slot interning after the build (SweepTaskData creation counter + the global
// operator-new gate, as in test_flux_workspace); (c) threads solving
// concurrently against one shared plan match the serial result to 1e-12;
// (d) SweepService-batched solves reproduce standalone source iteration
// bitwise, including on cut meshes; (e) malformed plan inputs throw
// actionable CheckErrors at build time, not mid-solve; (f) the build's
// stage timings are coherent and its task data stays within a per
// cell-angle byte budget; (g) the flat face-slot interner reproduces a
// plain unordered_map's first-touch slot numbering on vacuum, albedo and
// cut meshes, and recovers after a failed task build.
//
// This binary owns the global operator new/delete replacement
// (support/alloc_counter.hpp) — include it from exactly one TU per binary.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "comm/cluster.hpp"
#include "mesh/generators.hpp"
#include "partition/adjacency.hpp"
#include "partition/block_layout.hpp"
#include "partition/graph_partition.hpp"
#include "partition/patch_set.hpp"
#include "sn/serial_sweep.hpp"
#include "sn/source_iteration.hpp"
#include "support/alloc_counter.hpp"
#include "support/check.hpp"
#include "sweep/service.hpp"

namespace jsweep {
namespace {

/// Non-uniform per-steradian source so scheduling bugs cannot cancel.
std::vector<double> test_source(std::int64_t cells) {
  std::vector<double> q(static_cast<std::size_t>(cells));
  for (std::int64_t c = 0; c < cells; ++c)
    q[static_cast<std::size_t>(c)] = 0.3 + 0.01 * static_cast<double>(c % 7);
  return q;
}

/// The Kobayashi structured scenario every test here reuses: mesh, cross
/// sections, kernel, partition and quadrature with matching lifetimes.
/// Defaults: n = 8, S2, 2×2×2 patches, vacuum boundaries.
struct StructuredCase {
  mesh::StructuredMesh m;
  sn::CellXs xs;
  sn::StructuredDD disc;
  sn::Quadrature quad;
  partition::StructuredBlockLayout layout;
  partition::PatchSet ps;
  std::vector<RankId> owner;

  explicit StructuredCase(int n = 8, int sn_order = 2, int patch_edge = 0,
                          sn::BoundarySpec boundary = {})
      : m(mesh::make_kobayashi_mesh(n)),
        xs(expand(sn::MaterialTable::kobayashi(), m.materials(),
                  m.num_cells())),
        disc(m, xs, true, boundary),
        quad(sn::Quadrature::level_symmetric(sn_order)),
        layout(m.dims(), patch_edge > 0
                             ? mesh::Index3{patch_edge, patch_edge,
                                            patch_edge}
                             : mesh::Index3{n / 2, n / 2, n / 2}),
        ps(partition::block_partition(layout), layout.num_patches()),
        owner(partition::assign_contiguous(layout.num_patches(), 1)) {}
};

/// The twisted-column tet scenario: genuinely cyclic per-direction task
/// graphs, so plans carry cycle cuts and sessions carry lagged values.
struct CyclicCase {
  mesh::TetMesh m;
  sn::CellXs xs;
  sn::TetStep disc;
  sn::Quadrature quad;
  partition::CsrGraph cg;
  partition::PatchSet ps;
  std::vector<RankId> owner;

  CyclicCase()
      : m(mesh::make_twisted_column_mesh()),
        xs(expand(sn::MaterialTable::ball(), m.materials(), m.num_cells())),
        disc(m, xs),
        quad(sn::Quadrature::level_symmetric(2)),
        cg(partition::cell_graph(m)),
        ps(partition::partition_graph(cg, 4), 4, &cg),
        owner(partition::assign_contiguous(4, 1)) {}
};

// ---------------------------------------------------------------------------
// (a) Shared-plan sessions are bitwise identical to a private-plan one.
// ---------------------------------------------------------------------------

TEST(PlanSharing, TwoSessionsMatchFreshSolverStructured) {
  const StructuredCase tc;
  const auto q = test_source(tc.m.num_cells());
  constexpr int kSweeps = 3;

  comm::Cluster::run(1, [&](comm::Context& ctx) {
    std::vector<std::vector<double>> reference;
    {
      sweep::SweepSession fresh(
          ctx, sweep::SweepPlan::build(ctx, tc.m, tc.ps, tc.owner, tc.disc,
                                       tc.quad));
      for (int k = 0; k < kSweeps; ++k) reference.push_back(fresh.sweep(q));
    }

    const auto plan = sweep::SweepPlan::build(ctx, tc.m, tc.ps, tc.owner,
                                              tc.disc, tc.quad);
    sweep::SweepSession s1(ctx, plan);
    sweep::SweepSession s2(ctx, plan);
    for (int k = 0; k < kSweeps; ++k) {
      // Interleave so the sessions demonstrably don't share mutable state.
      const auto phi1 = s1.sweep(q);
      const auto phi2 = s2.sweep(q);
      EXPECT_EQ(phi1, reference[static_cast<std::size_t>(k)])
          << "session 1, sweep " << k;
      EXPECT_EQ(phi2, reference[static_cast<std::size_t>(k)])
          << "session 2, sweep " << k;
    }
  });
}

TEST(PlanSharing, TwoSessionsMatchFreshSolverTwistedCyclic) {
  const CyclicCase tc;
  const auto q = test_source(tc.m.num_cells());
  constexpr int kSweeps = 3;  // lag state evolves sweep to sweep

  comm::Cluster::run(1, [&](comm::Context& ctx) {
    sweep::PlanConfig pc;
    pc.cycle_policy = sweep::CyclePolicy::Lag;
    std::vector<std::vector<double>> reference;
    {
      sweep::SweepSession fresh(
          ctx, sweep::SweepPlan::build(ctx, tc.m, tc.ps, tc.owner, tc.disc,
                                       tc.quad, pc));
      for (int k = 0; k < kSweeps; ++k) reference.push_back(fresh.sweep(q));
    }

    const auto plan = sweep::SweepPlan::build(ctx, tc.m, tc.ps, tc.owner,
                                              tc.disc, tc.quad, pc);
    ASSERT_TRUE(plan->has_cycles());
    // Each session copies the plan's zeroed lagged template, so both start
    // from the vacuum iterate and must track the fresh session sweep by
    // sweep even as their (independent) lagged stores evolve.
    sweep::SweepSession s1(ctx, plan);
    sweep::SweepSession s2(ctx, plan);
    for (int k = 0; k < kSweeps; ++k) {
      const auto phi1 = s1.sweep(q);
      const auto phi2 = s2.sweep(q);
      EXPECT_EQ(phi1, reference[static_cast<std::size_t>(k)])
          << "session 1, sweep " << k;
      EXPECT_EQ(phi2, reference[static_cast<std::size_t>(k)])
          << "session 2, sweep " << k;
    }
  });
}

// ---------------------------------------------------------------------------
// (b) Plan reuse: no task-graph / slot memory after the first solve.
// ---------------------------------------------------------------------------

TEST(PlanReuse, HundredSolvesRebuildNothing) {
  const StructuredCase tc;
  const auto q = test_source(tc.m.num_cells());

  comm::Cluster::run(1, [&](comm::Context& ctx) {
    const std::int64_t data_before = sweep::SweepTaskData::total_created();
    const std::int64_t allocs_before = support::allocation_count();
    const auto plan = sweep::SweepPlan::build(ctx, tc.m, tc.ps, tc.owner,
                                              tc.disc, tc.quad);
    const std::int64_t build_allocs =
        support::allocation_count() - allocs_before;
    const std::int64_t data_after_build =
        sweep::SweepTaskData::total_created();
    ASSERT_GT(data_after_build, data_before)
        << "the build must intern the task data";

    sweep::SweepSession session(ctx, plan);
    EXPECT_EQ(sweep::SweepTaskData::total_created(), data_after_build)
        << "session construction must not build task graphs";

    auto phi_first = session.sweep(q);  // warm: pools, buffers, workspaces
    const std::int64_t steady_start = support::allocation_count();
    std::vector<double> phi_last;
    for (int k = 0; k < 100; ++k) phi_last = session.sweep(q);
    const std::int64_t steady_allocs =
        support::allocation_count() - steady_start;

    // The structural invariant: 100 further solves create zero task data —
    // no dependence-graph construction, no face-slot interning.
    EXPECT_EQ(sweep::SweepTaskData::total_created(), data_after_build)
        << "steady-state solves must not rebuild task graphs or re-intern "
           "slots";
    // And the allocation gate: a steady-state solve's residual allocations
    // (engine worker spawn, stream shuffling) must be a small fraction of
    // one plan build. This is what rebuilding-per-solve would forfeit.
    EXPECT_LT(steady_allocs / 100, build_allocs / 10)
        << "per-solve allocations (" << steady_allocs / 100
        << ") should be well below one plan build (" << build_allocs << ")";
    EXPECT_EQ(phi_last, phi_first);
  });
}

// ---------------------------------------------------------------------------
// (c) Concurrent sessions on one shared plan.
// ---------------------------------------------------------------------------

TEST(PlanConcurrency, ThreadsShareOnePlan) {
  const StructuredCase tc;
  const auto q = test_source(tc.m.num_cells());
  const auto serial = sn::serial_sweep(tc.disc, tc.quad, q);

  // Build ONE plan, then solve against it from N threads at once, each
  // thread on its own single-rank cluster (comm::Cluster state is
  // per-instance, so independent clusters coexist). The plan is deeply
  // const after build — any cross-thread flake here is a mutation bug.
  std::shared_ptr<const sweep::SweepPlan> plan;
  comm::Cluster::run(1, [&](comm::Context& ctx) {
    plan = sweep::SweepPlan::build(ctx, tc.m, tc.ps, tc.owner, tc.disc,
                                   tc.quad);
  });
  ASSERT_NE(plan, nullptr);

  constexpr int kThreads = 4;
  constexpr int kSweepsPerThread = 3;
  std::vector<std::vector<double>> results(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      comm::Cluster::run(1, [&](comm::Context& ctx) {
        sweep::SweepSession session(ctx, plan);
        std::vector<double> phi;
        for (int k = 0; k < kSweepsPerThread; ++k) phi = session.sweep(q);
        results[static_cast<std::size_t>(t)] = std::move(phi);
      });
    });
  }
  for (auto& th : threads) th.join();

  for (int t = 0; t < kThreads; ++t) {
    const auto& phi = results[static_cast<std::size_t>(t)];
    ASSERT_EQ(phi.size(), serial.size()) << "thread " << t;
    for (std::size_t c = 0; c < serial.size(); ++c)
      ASSERT_NEAR(phi[c], serial[c], 1e-12)
          << "thread " << t << " cell " << c;
  }
}

// ---------------------------------------------------------------------------
// (d) Service batching reproduces standalone source iteration bitwise.
// ---------------------------------------------------------------------------

TEST(ServiceBatching, BatchedSolvesMatchStandalone) {
  const StructuredCase tc;
  constexpr int kRequests = 5;

  // Request k varies the external source (the classic many-RHS workload —
  // same geometry and materials, different driving terms).
  std::vector<sn::CellXs> request_xs(kRequests, tc.xs);
  for (int k = 0; k < kRequests; ++k)
    for (auto& s : request_xs[static_cast<std::size_t>(k)].source)
      s *= 1.0 + 0.25 * static_cast<double>(k);
  const sn::SourceIterationOptions options{1e-6, 100, false};

  comm::Cluster::run(1, [&](comm::Context& ctx) {
    const auto plan = sweep::SweepPlan::build(ctx, tc.m, tc.ps, tc.owner,
                                              tc.disc, tc.quad);

    // Standalone references: one fresh session per request.
    std::vector<sn::SourceIterationResult> reference;
    for (int k = 0; k < kRequests; ++k) {
      sweep::SweepSession session(ctx, plan);
      reference.push_back(sn::source_iteration(
          request_xs[static_cast<std::size_t>(k)], session.as_operator(),
          options));
      ASSERT_TRUE(reference.back().converged) << "request " << k;
    }

    // The same requests through the service, fused 3 + 2.
    sweep::ServiceConfig sc;
    sc.max_batch = 3;
    sweep::SweepService service(ctx, sc);
    for (int k = 0; k < kRequests; ++k) {
      sweep::SolveRequest request;
      request.plan = plan;
      request.xs = &request_xs[static_cast<std::size_t>(k)];
      request.options = options;
      service.enqueue(request);
    }
    const auto responses = service.drain();

    ASSERT_EQ(responses.size(), static_cast<std::size_t>(kRequests));
    for (int k = 0; k < kRequests; ++k) {
      const auto& got = responses[static_cast<std::size_t>(k)];
      const auto& want = reference[static_cast<std::size_t>(k)];
      EXPECT_EQ(got.result.phi, want.phi) << "request " << k;
      EXPECT_EQ(got.result.iterations, want.iterations) << "request " << k;
      EXPECT_EQ(got.result.error, want.error) << "request " << k;
      EXPECT_TRUE(got.result.converged) << "request " << k;
    }
    EXPECT_EQ(responses[0].lanes_in_batch, 3);
    EXPECT_EQ(responses[4].lanes_in_batch, 2);
    EXPECT_EQ(service.stats().requests, kRequests);
    EXPECT_EQ(service.stats().batches, 2);
    // Batching must amortize: fusing lanes into shared engine runs takes
    // strictly fewer runs than the per-request sweep count.
    EXPECT_LT(service.stats().engine_runs, service.stats().sweeps);
  });
}

TEST(ServiceBatching, BatchedSolvesMatchStandaloneOnCutMesh) {
  const CyclicCase tc;
  constexpr int kRequests = 2;

  std::vector<sn::CellXs> request_xs(kRequests, tc.xs);
  for (auto& s : request_xs[1].source) s *= 1.5;
  const sn::SourceIterationOptions options{1e-6, 200, false};

  comm::Cluster::run(1, [&](comm::Context& ctx) {
    sweep::PlanConfig pc;
    pc.cycle_policy = sweep::CyclePolicy::Lag;
    const auto plan = sweep::SweepPlan::build(ctx, tc.m, tc.ps, tc.owner,
                                              tc.disc, tc.quad, pc);
    ASSERT_TRUE(plan->has_cycles());

    std::vector<sn::SourceIterationResult> reference;
    for (int k = 0; k < kRequests; ++k) {
      sweep::SweepSession session(ctx, plan);  // default max_lag_sweeps = 1
      reference.push_back(sn::source_iteration(
          request_xs[static_cast<std::size_t>(k)], session.as_operator(),
          options));
      ASSERT_TRUE(reference.back().converged) << "request " << k;
    }

    sweep::SweepService service(ctx);  // default max_lag_sweeps = 1
    for (int k = 0; k < kRequests; ++k) {
      sweep::SolveRequest request;
      request.plan = plan;
      request.xs = &request_xs[static_cast<std::size_t>(k)];
      request.options = options;
      service.enqueue(request);
    }
    const auto responses = service.drain();

    // With the default single lag sweep the batched lanes commit exactly
    // the old iterates a standalone session would — bitwise identical.
    ASSERT_EQ(responses.size(), static_cast<std::size_t>(kRequests));
    for (int k = 0; k < kRequests; ++k) {
      const auto& got = responses[static_cast<std::size_t>(k)];
      const auto& want = reference[static_cast<std::size_t>(k)];
      EXPECT_EQ(got.result.phi, want.phi) << "request " << k;
      EXPECT_EQ(got.result.iterations, want.iterations) << "request " << k;
      EXPECT_TRUE(got.result.converged) << "request " << k;
    }
  });
}

// ---------------------------------------------------------------------------
// (e) Plan-invariant validation: malformed inputs throw at build time.
// ---------------------------------------------------------------------------

TEST(PlanValidation, RejectsMalformedInputsUpFront) {
  const StructuredCase tc;

  comm::Cluster::run(1, [&](comm::Context& ctx) {
    {
      sweep::PlanConfig pc;
      pc.cluster_grain = 0;
      EXPECT_THROW(sweep::SweepPlan::build(ctx, tc.m, tc.ps, tc.owner,
                                           tc.disc, tc.quad, pc),
                   CheckError)
          << "cluster_grain = 0 must be rejected";
    }
    {
      std::vector<RankId> short_owner(tc.owner.begin(), tc.owner.end() - 1);
      EXPECT_THROW(sweep::SweepPlan::build(ctx, tc.m, tc.ps,
                                           std::move(short_owner), tc.disc,
                                           tc.quad),
                   CheckError)
          << "owner table shorter than the patch count must be rejected";
    }
    {
      auto bad_owner = tc.owner;
      bad_owner.back() = RankId{ctx.size()};  // one past the last rank
      EXPECT_THROW(sweep::SweepPlan::build(ctx, tc.m, tc.ps,
                                           std::move(bad_owner), tc.disc,
                                           tc.quad),
                   CheckError)
          << "out-of-range owner ranks must be rejected";
    }
    {
      // A malformed service request fails at enqueue, not mid-drain.
      sweep::SweepService service(ctx);
      sweep::SolveRequest request;  // null plan
      EXPECT_THROW(service.enqueue(request), CheckError);
      const auto plan = sweep::SweepPlan::build(ctx, tc.m, tc.ps, tc.owner,
                                                tc.disc, tc.quad);
      request.plan = plan;  // ... but still no cross sections
      EXPECT_THROW(service.enqueue(request), CheckError);
    }
  });
}

TEST(PlanValidation, CellXsValidateIsActionable) {
  sn::CellXs xs;
  xs.sigma_t = {0.5, 0.5};
  xs.sigma_s = {0.1, 0.1};
  xs.source = {1.0, 1.0};
  EXPECT_NO_THROW(xs.validate());

  auto mismatched = xs;
  mismatched.sigma_s.pop_back();
  EXPECT_THROW(mismatched.validate(), CheckError);

  auto negative = xs;
  negative.sigma_t[1] = -0.25;
  EXPECT_THROW(negative.validate(), CheckError);

  auto non_finite = xs;
  non_finite.source[0] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(non_finite.validate(), CheckError);
}

// ---------------------------------------------------------------------------
// (f) Plan-build stage timings and task-data footprint.
// ---------------------------------------------------------------------------

TEST(PlanBuildStats, StagesAreNonNegativeAndWithinBuildTime) {
  const StructuredCase structured;
  const CyclicCase cyclic;
  comm::Cluster::run(1, [&](comm::Context& ctx) {
    sweep::PlanConfig lag;
    lag.cycle_policy = sweep::CyclePolicy::Lag;
    const auto plans = {
        sweep::SweepPlan::build(ctx, structured.m, structured.ps,
                                structured.owner, structured.disc,
                                structured.quad),
        sweep::SweepPlan::build(ctx, cyclic.m, cyclic.ps, cyclic.owner,
                                cyclic.disc, cyclic.quad, lag)};
    for (const auto& plan : plans) {
      const sweep::PlanBuildStats& st = plan->build_stats();
      EXPECT_GE(st.cycle_cut_seconds, 0.0);
      EXPECT_GE(st.patch_graph_seconds, 0.0);
      EXPECT_GE(st.task_graph_seconds, 0.0);
      EXPECT_GE(st.task_data_seconds, 0.0);
      EXPECT_LE(st.stage_seconds(), plan->build_seconds());
      EXPECT_GT(st.task_data_bytes, 0);
    }
  });
}

TEST(PlanBuildStats, TaskDataBytesPerCellAngleGate) {
  // Kobayashi 16³, S4 (24 angles), 8³ patches: 192 tasks of 512 cells.
  // Deterministic: the bytes are vector capacities, not timings. Before
  // the compact task data (graph copy kept, int64 offsets, faces on local
  // edges) this was 214.96 B per cell-angle; after it, 70.72. The bound is
  // the post-change value + 10%.
  const StructuredCase tc(16, 4, 8);
  comm::Cluster::run(1, [&](comm::Context& ctx) {
    const auto plan = sweep::SweepPlan::build(ctx, tc.m, tc.ps, tc.owner,
                                              tc.disc, tc.quad);
    const double cell_angles = static_cast<double>(tc.m.num_cells()) *
                               static_cast<double>(tc.quad.num_angles());
    const double per_cell_angle =
        static_cast<double>(plan->build_stats().task_data_bytes) /
        cell_angles;
    EXPECT_LE(per_cell_angle, 77.8)
        << "task data grew to " << per_cell_angle << " B per cell-angle";
  });
}

// ---------------------------------------------------------------------------
// (g) Face-slot interning against a plain unordered_map reference.
// ---------------------------------------------------------------------------

/// First-touch face → slot numbering with a node-based map: the reference
/// the flat interner must reproduce slot for slot.
struct MapInterner {
  std::unordered_map<std::int64_t, std::int32_t> slot_of;
  std::int32_t intern(std::int64_t face) {
    if (face < 0) return sn::CellFaceSlots::kNone;
    return slot_of.emplace(face, static_cast<std::int32_t>(slot_of.size()))
        .first->second;
  }
};

/// Check one task's dense index against the map reference: slot count,
/// every cell's in/out slots, every remote-in face, and the workspace
/// slots of the lagged seeds and per-vertex lagged writes (cycle-cut faces
/// of `g`; with `albedo`, also the reflecting-boundary faces, which a
/// structured cell names after itself).
template <class Mesh>
void expect_matches_reference(const sweep::SweepTaskData& data,
                              const graph::PatchTaskGraph& g, const Mesh& m,
                              const sn::Discretization& disc,
                              const partition::PatchSet& ps,
                              const sn::Ordinate& ordinate, bool albedo) {
  (void)m;  // only the structured albedo faces need the mesh
  MapInterner ref;
  const auto& cells = ps.cells(data.patch());
  std::vector<std::int32_t> seeds;
  std::vector<std::vector<std::int32_t>> writes(cells.size());
  sn::CellFaceIds ids;
  for (std::size_t v = 0; v < cells.size(); ++v) {
    disc.face_ids(cells[v], ordinate, ids);
    const auto& slots = data.cell_slots(static_cast<std::int32_t>(v));
    for (int k = 0; k < ids.count; ++k) {
      const auto kk = static_cast<std::size_t>(k);
      const std::int64_t in = ids.in[kk];
      const std::int64_t out = ids.out[kk];
      ASSERT_EQ(slots.in[kk], ref.intern(in)) << "vertex " << v;
      ASSERT_EQ(slots.out[kk], ref.intern(out)) << "vertex " << v;
      if constexpr (std::is_same_v<Mesh, mesh::StructuredMesh>) {
        if (albedo && in >= 0 && graph::structured_face_cell(in) == cells[v])
          seeds.push_back(ref.slot_of.at(in));
        if (albedo && !m.neighbor(cells[v], graph::structured_face_dir(out)))
          writes[v].push_back(ref.slot_of.at(out));
      }
    }
  }
  EXPECT_EQ(data.num_flux_slots(),
            static_cast<std::int64_t>(ref.slot_of.size()));
  for (const auto& e : g.remote_in)
    EXPECT_EQ(data.slot_of_remote_in(e.face), ref.slot_of.at(e.face));

  std::vector<std::int64_t> cut_reads;
  for (const auto& e : g.lagged_local) cut_reads.push_back(e.face);
  for (const auto& e : g.lagged_in) cut_reads.push_back(e.face);
  std::sort(cut_reads.begin(), cut_reads.end());
  cut_reads.erase(std::unique(cut_reads.begin(), cut_reads.end()),
                  cut_reads.end());
  for (const auto f : cut_reads) seeds.push_back(ref.slot_of.at(f));
  for (const auto& e : g.lagged_local)
    writes[static_cast<std::size_t>(e.u)].push_back(ref.slot_of.at(e.face));
  for (const auto& e : g.lagged_out)
    writes[static_cast<std::size_t>(e.u)].push_back(ref.slot_of.at(e.face));

  std::vector<std::int32_t> got_seeds;
  for (const auto& s : data.lagged_seed_slots()) got_seeds.push_back(s.ws_slot);
  std::sort(seeds.begin(), seeds.end());
  std::sort(got_seeds.begin(), got_seeds.end());
  EXPECT_EQ(got_seeds, seeds);
  bool any_lagged = !seeds.empty();
  for (std::size_t v = 0; v < cells.size(); ++v) {
    any_lagged = any_lagged || !writes[v].empty();
    std::vector<std::int32_t> got;
    data.for_lagged_writes(static_cast<std::int32_t>(v),
                           [&](const sweep::LaggedSlot& s) {
                             got.push_back(s.ws_slot);
                           });
    std::sort(got.begin(), got.end());
    std::sort(writes[v].begin(), writes[v].end());
    EXPECT_EQ(got, writes[v]) << "lagged writes of vertex " << v;
  }
  EXPECT_EQ(data.has_lagged(), any_lagged);
}

/// Build a plan and check every task of it against the map reference.
template <class Mesh>
void expect_plan_matches_reference(const sweep::SweepPlan& plan,
                                   const Mesh& m, bool albedo) {
  const auto& quad = plan.quadrature();
  std::vector<graph::CycleCut> cuts;
  for (int a = 0; a < quad.num_angles(); ++a)
    cuts.push_back(graph::compute_cycle_cut(m, quad.angle(a).dir));
  ASSERT_FALSE(plan.programs().empty());
  for (const auto& prog : plan.programs()) {
    const sweep::SweepTaskData& data = plan.task_data(prog.data_index);
    const int a = data.angle().value();
    const auto& cut = cuts[static_cast<std::size_t>(a)];
    const graph::PatchTaskGraph g = graph::build_patch_task_graph(
        m, plan.patches(), data.patch(), quad.angle(a).dir, data.angle(),
        cut.empty() ? nullptr : &cut);
    expect_matches_reference(data, g, m, plan.disc(), plan.patches(),
                             quad.angle(a), albedo);
  }
}

TEST(FaceSlotInterning, MatchesMapReferenceStructuredVacuum) {
  const StructuredCase tc(8, 4);
  comm::Cluster::run(1, [&](comm::Context& ctx) {
    const auto plan = sweep::SweepPlan::build(ctx, tc.m, tc.ps, tc.owner,
                                              tc.disc, tc.quad);
    expect_plan_matches_reference(*plan, tc.m, false);
  });
}

TEST(FaceSlotInterning, MatchesMapReferenceStructuredAlbedo) {
  // Albedo 1 on every side: each incoming boundary face is read through
  // the interner (seeded from the mirror angle) and each outgoing one is
  // staged through it.
  const StructuredCase tc(8, 4, 0, sn::BoundarySpec::reflecting_all(1.0));
  comm::Cluster::run(1, [&](comm::Context& ctx) {
    const auto plan = sweep::SweepPlan::build(ctx, tc.m, tc.ps, tc.owner,
                                              tc.disc, tc.quad);
    ASSERT_TRUE(plan->has_lagged());
    expect_plan_matches_reference(*plan, tc.m, true);
  });
}

TEST(FaceSlotInterning, MatchesMapReferenceTwistedCyclic) {
  const CyclicCase tc;
  comm::Cluster::run(1, [&](comm::Context& ctx) {
    sweep::PlanConfig pc;
    pc.cycle_policy = sweep::CyclePolicy::Lag;
    const auto plan = sweep::SweepPlan::build(ctx, tc.m, tc.ps, tc.owner,
                                              tc.disc, tc.quad, pc);
    ASSERT_TRUE(plan->has_cycles());
    expect_plan_matches_reference(*plan, tc.m, false);
  });
}

TEST(FaceSlotInterning, UntouchedFaceThrowsAndScratchRecovers) {
  const StructuredCase tc;
  const sn::Ordinate& ordinate = tc.quad.angle(0);
  const auto task_graph = [&] {
    return graph::build_patch_task_graph(tc.m, tc.ps, PatchId{0},
                                         ordinate.dir, AngleId{0});
  };
  sweep::FaceSlotInterner interner;

  // A remote-in face on the far corner of the mesh: no cell of patch 0
  // touches it, so resolving it must fail with the existing message.
  graph::PatchTaskGraph bad = task_graph();
  const CellId far{tc.m.num_cells() - 1};
  bad.remote_in.push_back(graph::RemoteInEdge{
      tc.ps.patch_of(far), far.value(),
      graph::structured_face_id(far, mesh::FaceDir::XHi), 0});
  try {
    const sweep::SweepTaskData data(std::move(bad),
                                    graph::PriorityStrategy::SLBD, tc.disc,
                                    tc.ps, ordinate, nullptr, nullptr,
                                    &interner);
    ADD_FAILURE() << "resolving an untouched face must throw";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("is not touched by any local cell"),
              std::string::npos)
        << e.what();
  }

  // The failed task left entries in the scratch; the next task's reset()
  // discards them, so the same interner builds the task again, slot for
  // slot like the reference ...
  const graph::PatchTaskGraph g = task_graph();
  const sweep::SweepTaskData good(task_graph(),
                                  graph::PriorityStrategy::SLBD, tc.disc,
                                  tc.ps, ordinate, nullptr, nullptr,
                                  &interner);
  expect_matches_reference(good, g, tc.m, tc.disc, tc.ps, ordinate, false);
  // ... and a whole plan builds afterwards.
  comm::Cluster::run(1, [&](comm::Context& ctx) {
    EXPECT_NO_THROW((void)sweep::SweepPlan::build(ctx, tc.m, tc.ps, tc.owner,
                                                  tc.disc, tc.quad));
  });
}

}  // namespace
}  // namespace jsweep
