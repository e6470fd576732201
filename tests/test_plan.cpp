// Plan/session lifecycle tests (ctest label `sweep`). (a) Sessions sharing
// one immutable SweepPlan produce bit-identical fluxes to a session over a
// privately built plan on structured-Kobayashi and twisted-cyclic meshes;
// (b) a plan built once and solved many times performs no task-graph
// construction or face-slot interning after the build (SweepTaskData creation counter + the global
// operator-new gate, as in test_flux_workspace); (c) threads solving
// concurrently against one shared plan match the serial result to 1e-12;
// (d) SweepService-batched solves reproduce standalone source iteration
// bitwise, including on cut meshes; (e) malformed plan inputs throw
// actionable CheckErrors at build time, not mid-solve.
//
// This binary owns the global operator new/delete replacement
// (support/alloc_counter.hpp) — include it from exactly one TU per binary.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <thread>
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
struct StructuredCase {
  mesh::StructuredMesh m;
  sn::CellXs xs;
  sn::StructuredDD disc;
  sn::Quadrature quad;
  partition::StructuredBlockLayout layout;
  partition::PatchSet ps;
  std::vector<RankId> owner;

  explicit StructuredCase(int n = 8)
      : m(mesh::make_kobayashi_mesh(n)),
        xs(expand(sn::MaterialTable::kobayashi(), m.materials(),
                  m.num_cells())),
        disc(m, xs),
        quad(sn::Quadrature::level_symmetric(2)),
        layout(m.dims(), {n / 2, n / 2, n / 2}),
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

}  // namespace
}  // namespace jsweep
