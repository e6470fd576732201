// Tests for multigroup transport: cascade construction, group coupling
// physics, and equivalence with one-group solves in degenerate cases.

#include <gtest/gtest.h>

#include <limits>

#include "comm/cluster.hpp"
#include "mesh/generators.hpp"
#include "partition/adjacency.hpp"
#include "partition/block_layout.hpp"
#include "partition/patch_set.hpp"
#include "sn/multigroup.hpp"
#include "sn/serial_sweep.hpp"
#include "sweep/session.hpp"

namespace jsweep::sn {
namespace {

TEST(MultigroupXs, CascadeStructure) {
  const mesh::StructuredMesh m = mesh::make_cube_mesh(4, 4.0);
  CellXs one = expand(MaterialTable::pure_absorber(1.0, 2.0), {},
                      m.num_cells());
  const MultigroupXs xs = MultigroupXs::cascade(
      MaterialTable::pure_absorber(1.0, 2.0), {}, m.num_cells(), 3, 0.7);
  EXPECT_EQ(xs.groups(), 3);
  EXPECT_EQ(xs.cells(), m.num_cells());
  // Source only in the fastest group.
  EXPECT_DOUBLE_EQ(xs.source(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(xs.source(1, 0), 0.0);
  // No upscatter in a cascade.
  EXPECT_FALSE(xs.has_upscatter());
  // σt grows with group index.
  EXPECT_GT(xs.sigma_t(2, 0), xs.sigma_t(0, 0));
}

TEST(MultigroupXs, GroupViewExtractsDiagonal) {
  MultigroupXs xs(2, 4);
  for (std::int64_t c = 0; c < 4; ++c) {
    xs.sigma_t(0, c) = 1.0;
    xs.sigma_t(1, c) = 2.0;
    xs.sigma_s(0, 0, c) = 0.3;
    xs.sigma_s(0, 1, c) = 0.2;
    xs.sigma_s(1, 1, c) = 0.4;
    xs.source(0, c) = 5.0;
  }
  const CellXs g0 = xs.group_view(0);
  EXPECT_DOUBLE_EQ(g0.sigma_t[0], 1.0);
  EXPECT_DOUBLE_EQ(g0.sigma_s[0], 0.3);  // within-group only
  EXPECT_DOUBLE_EQ(g0.source[0], 5.0);
  const CellXs g1 = xs.group_view(1);
  EXPECT_DOUBLE_EQ(g1.sigma_s[0], 0.4);
  EXPECT_DOUBLE_EQ(g1.source[0], 0.0);
}

TEST(MultigroupXs, UpscatterDetected) {
  MultigroupXs xs(2, 2);
  EXPECT_FALSE(xs.has_upscatter());
  xs.sigma_s(1, 0, 0) = 0.1;
  EXPECT_TRUE(xs.has_upscatter());
}

struct SmallProblem {
  SmallProblem()
      : mesh(mesh::make_cube_mesh(6, 6.0)),
        quad(Quadrature::level_symmetric(2)) {}

  /// Serial sweep factory for group views of `xs`.
  GroupSweepFactory serial_factory(const MultigroupXs& xs) {
    return [&](int g) -> SweepOperator {
      // One StructuredDD per group (σt differs per group). Keep them
      // alive for the duration of the solve.
      auto disc = std::make_shared<StructuredDD>(mesh, xs.group_view(g));
      return [disc, this](const std::vector<double>& q) {
        return serial_sweep(*disc, quad, q);
      };
    };
  }

  mesh::StructuredMesh mesh;
  Quadrature quad;
};

TEST(Multigroup, OneGroupDegeneratesToSourceIteration) {
  SmallProblem p;
  const MaterialTable table({{1.0, 0.4, 3.0}});
  const CellXs one = expand(table, {}, p.mesh.num_cells());
  MultigroupXs xs(1, p.mesh.num_cells());
  for (std::int64_t c = 0; c < p.mesh.num_cells(); ++c) {
    xs.sigma_t(0, c) = 1.0;
    xs.sigma_s(0, 0, c) = 0.4;
    xs.source(0, c) = 3.0;
  }
  const StructuredDD disc(p.mesh, one);
  const auto reference = source_iteration(
      one,
      [&](const std::vector<double>& q) {
        return serial_sweep(disc, p.quad, q);
      },
      {1e-8, 300, false});

  MultigroupOptions opts;
  opts.inner = {1e-8, 300, false};
  const auto result = solve_multigroup(xs, p.serial_factory(xs), opts);
  ASSERT_TRUE(result.converged);
  ASSERT_EQ(result.phi.size(), 1u);
  for (std::size_t c = 0; c < reference.phi.size(); ++c)
    EXPECT_NEAR(result.phi[0][c], reference.phi[c],
                1e-6 * (1.0 + reference.phi[c]));
}

TEST(Multigroup, DownscatterCascadePopulatesLowerGroups) {
  SmallProblem p;
  const MultigroupXs xs = MultigroupXs::cascade(
      MaterialTable({{0.8, 0.5, 1.0}}), {}, p.mesh.num_cells(), 3, 0.5);
  MultigroupOptions opts;
  opts.inner = {1e-7, 200, false};
  const auto result = solve_multigroup(xs, p.serial_factory(xs), opts);
  ASSERT_TRUE(result.converged);
  // Pure downscatter: one outer pass suffices.
  EXPECT_EQ(result.outer_iterations, 1);
  // Every group carries flux, fed only through the cascade.
  for (int g = 0; g < 3; ++g) {
    double total = 0.0;
    for (const auto phi : result.phi[static_cast<std::size_t>(g)])
      total += phi;
    EXPECT_GT(total, 0.0) << "group " << g;
  }
  // Flux magnitude decreases down the cascade (sources only in group 0
  // and each transfer loses particles to absorption).
  double g0 = 0.0;
  double g2 = 0.0;
  for (std::int64_t c = 0; c < p.mesh.num_cells(); ++c) {
    g0 += result.phi[0][static_cast<std::size_t>(c)];
    g2 += result.phi[2][static_cast<std::size_t>(c)];
  }
  EXPECT_GT(g0, g2);
}

TEST(Multigroup, UpscatterRequiresOuterIterations) {
  SmallProblem p;
  MultigroupXs xs(2, p.mesh.num_cells());
  for (std::int64_t c = 0; c < p.mesh.num_cells(); ++c) {
    xs.sigma_t(0, c) = 1.0;
    xs.sigma_t(1, c) = 1.0;
    xs.sigma_s(0, 0, c) = 0.2;
    xs.sigma_s(0, 1, c) = 0.3;  // down
    xs.sigma_s(1, 1, c) = 0.2;
    xs.sigma_s(1, 0, c) = 0.2;  // up
    xs.source(0, c) = 1.0;
  }
  MultigroupOptions opts;
  opts.inner = {1e-7, 200, false};
  opts.outer_tolerance = 1e-6;
  const auto result = solve_multigroup(xs, p.serial_factory(xs), opts);
  EXPECT_TRUE(result.converged);
  EXPECT_GT(result.outer_iterations, 1);
}

TEST(Multigroup, ParallelSweepOperatorMatchesSerial) {
  // Multigroup through the JSweep engine equals multigroup through serial
  // sweeps.
  SmallProblem p;
  const MultigroupXs xs = MultigroupXs::cascade(
      MaterialTable({{0.9, 0.45, 2.0}}), {}, p.mesh.num_cells(), 2, 0.6);
  MultigroupOptions opts;
  opts.inner = {1e-7, 200, false};
  const auto serial = solve_multigroup(xs, p.serial_factory(xs), opts);

  const partition::StructuredBlockLayout layout(p.mesh.dims(), {3, 3, 3});
  const partition::CsrGraph cg = partition::cell_graph(p.mesh);
  const partition::PatchSet patches(partition::block_partition(layout),
                                    layout.num_patches(), &cg);

  std::vector<std::vector<double>> parallel_phi;
  comm::Cluster::run(2, [&](comm::Context& ctx) {
    // Per-group discretizations and sessions, built once.
    std::vector<std::shared_ptr<StructuredDD>> discs;
    std::vector<std::shared_ptr<sweep::SweepSession>> sessions;
    const auto owner =
        partition::assign_contiguous(patches.num_patches(), ctx.size());
    for (int g = 0; g < xs.groups(); ++g) {
      discs.push_back(
          std::make_shared<StructuredDD>(p.mesh, xs.group_view(g)));
      sessions.push_back(std::make_shared<sweep::SweepSession>(
          ctx, sweep::SweepPlan::build(ctx, p.mesh, patches, owner,
                                       *discs.back(), p.quad)));
    }
    const auto result = solve_multigroup(
        xs,
        [&](int g) -> SweepOperator {
          return sessions[static_cast<std::size_t>(g)]->as_operator();
        },
        opts);
    if (ctx.rank().value() == 0) parallel_phi = result.phi;
  });

  ASSERT_EQ(parallel_phi.size(), serial.phi.size());
  for (std::size_t g = 0; g < parallel_phi.size(); ++g)
    for (std::size_t c = 0; c < parallel_phi[g].size(); ++c)
      ASSERT_NEAR(parallel_phi[g][c], serial.phi[g][c], 1e-10)
          << "group " << g << " cell " << c;
}

// ---------------------------------------------------------------------------
// MultigroupXs validation
// ---------------------------------------------------------------------------

TEST(MultigroupXs, ValidationAcceptsWellFormed) {
  const MultigroupXs xs = MultigroupXs::cascade(
      MaterialTable({{1.0, 0.5, 2.0}}), {}, 8, 3, 0.6);
  EXPECT_NO_THROW(xs.validate());
}

TEST(MultigroupXs, ValidationRejectsNegativeScattering) {
  MultigroupXs xs(2, 4);
  for (std::int64_t c = 0; c < 4; ++c) xs.sigma_t(0, c) = 1.0;
  xs.sigma_s(0, 1, 2) = -0.1;
  EXPECT_THROW(xs.validate(), CheckError);
}

TEST(MultigroupXs, ValidationRejectsNonFinite) {
  MultigroupXs xs(2, 4);
  xs.sigma_t(1, 3) = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(xs.validate(), CheckError);
  MultigroupXs xs2(1, 2);
  xs2.source(0, 0) = std::numeric_limits<double>::infinity();
  EXPECT_THROW(xs2.validate(), CheckError);
}

TEST(MultigroupXs, ValidationRejectsSupercriticalScatteringRow) {
  // Σ_to σ_s[g→to] > σ_t[g]: scattering ratio above one diverges.
  MultigroupXs xs(2, 2);
  for (std::int64_t c = 0; c < 2; ++c) {
    xs.sigma_t(0, c) = 1.0;
    xs.sigma_t(1, c) = 1.0;
    xs.sigma_s(0, 0, c) = 0.7;
    xs.sigma_s(0, 1, c) = 0.5;  // row sum 1.2 > σ_t
  }
  EXPECT_THROW(xs.validate(), CheckError);
}

TEST(MultigroupXs, ValidationAcceptsPureScatteringRow) {
  // Boundary case: Σ_to σ_s[g→to] == σ_t[g] exactly (pure scattering, no
  // absorption) is physical and must validate — including when the row sum
  // accumulates rounding, e.g. 10 × 0.1 vs 1.0. The check allows a small
  // relative slack above σ_t rather than demanding <=.
  MultigroupXs exact(2, 2);
  for (std::int64_t c = 0; c < 2; ++c) {
    exact.sigma_t(0, c) = 1.0;
    exact.sigma_t(1, c) = 1.0;
    exact.sigma_s(0, 0, c) = 0.25;
    exact.sigma_s(0, 1, c) = 0.75;  // row sum == σ_t exactly
    exact.sigma_s(1, 1, c) = 1.0;   // pure within-group scattering
  }
  EXPECT_NO_THROW(exact.validate());

  // 10 × 0.1 = 1.0000000000000002 > 1.0 in binary64: rounding alone must
  // not reject a physically critical (not supercritical) medium.
  MultigroupXs rounded(10, 1);
  for (int g = 0; g < 10; ++g) {
    rounded.sigma_t(g, 0) = 1.0;
    for (int to = 0; to < 10; ++to) rounded.sigma_s(g, to, 0) = 0.1;
  }
  EXPECT_NO_THROW(rounded.validate());

  // A genuinely supercritical row still fails past the tolerance.
  MultigroupXs bad(1, 1);
  bad.sigma_t(0, 0) = 1.0;
  bad.sigma_s(0, 0, 0) = 1.0 + 1e-9;
  EXPECT_THROW(bad.validate(), CheckError);
}

TEST(MultigroupXs, UpscatterMatrixRoundTrips) {
  // σ_s[from→to] storage is asymmetric: every (from, to, cell) entry must
  // round-trip independently, upscatter included.
  MultigroupXs xs(3, 5);
  const auto value = [](int from, int to, std::int64_t c) {
    return 0.01 * (from + 1) + 0.1 * (to + 1) +
           static_cast<double>(c) * 1e-3;
  };
  for (std::int64_t c = 0; c < 5; ++c)
    for (int from = 0; from < 3; ++from)
      for (int to = 0; to < 3; ++to)
        xs.sigma_s(from, to, c) = value(from, to, c);
  for (std::int64_t c = 0; c < 5; ++c)
    for (int from = 0; from < 3; ++from)
      for (int to = 0; to < 3; ++to)
        EXPECT_DOUBLE_EQ(xs.sigma_s(from, to, c), value(from, to, c))
            << from << "→" << to << " cell " << c;
  EXPECT_TRUE(xs.has_upscatter());
}

// ---------------------------------------------------------------------------
// Sweep-pass driver (solve_multigroup_sweeps)
// ---------------------------------------------------------------------------

TEST(MultigroupSweeps, OneGroupBitwiseEqualsSourceIteration) {
  // G = 1 must degenerate to plain source iteration bit-for-bit: same q
  // construction (emission_density), same sweeps, same error metric.
  SmallProblem p;
  const MaterialTable table({{1.0, 0.4, 3.0}});
  const CellXs one = expand(table, {}, p.mesh.num_cells());
  MultigroupXs xs(1, p.mesh.num_cells());
  for (std::int64_t c = 0; c < p.mesh.num_cells(); ++c) {
    xs.sigma_t(0, c) = 1.0;
    xs.sigma_s(0, 0, c) = 0.4;
    xs.source(0, c) = 3.0;
  }
  const StructuredDD disc(p.mesh, one);
  const auto reference = source_iteration(
      one,
      [&](const std::vector<double>& q) {
        return serial_sweep(disc, p.quad, q);
      },
      {1e-8, 300, false});

  MultigroupOptions opts;
  opts.inner = {1e-8, 300, false};
  const auto result = solve_multigroup_sweeps(
      xs, sequential_sweep_pass(xs, p.serial_factory(xs)), opts);
  ASSERT_TRUE(result.converged);
  EXPECT_EQ(result.pass_iterations, reference.iterations);
  EXPECT_EQ(result.outer_iterations, 1);
  ASSERT_EQ(result.phi.size(), 1u);
  for (std::size_t c = 0; c < reference.phi.size(); ++c)
    ASSERT_EQ(result.phi[0][c], reference.phi[c]) << "cell " << c;
}

TEST(MultigroupSweeps, DownscatterConvergesInOneOuter) {
  SmallProblem p;
  const MultigroupXs xs = MultigroupXs::cascade(
      MaterialTable({{0.8, 0.5, 1.0}}), {}, p.mesh.num_cells(), 3, 0.5);
  MultigroupOptions opts;
  opts.inner = {1e-7, 200, false};
  const auto result = solve_multigroup_sweeps(
      xs, sequential_sweep_pass(xs, p.serial_factory(xs)), opts);
  ASSERT_TRUE(result.converged);
  EXPECT_EQ(result.outer_iterations, 1);
  EXPECT_GT(result.pass_iterations, 1);
  // Agrees with the classic converged-inner Gauss-Seidel scheme.
  const auto classic = solve_multigroup(xs, p.serial_factory(xs), opts);
  for (int g = 0; g < 3; ++g)
    for (std::int64_t c = 0; c < p.mesh.num_cells(); ++c)
      ASSERT_NEAR(result.phi[static_cast<std::size_t>(g)]
                            [static_cast<std::size_t>(c)],
                  classic.phi[static_cast<std::size_t>(g)]
                             [static_cast<std::size_t>(c)],
                  1e-5 * (1.0 + classic.phi[static_cast<std::size_t>(g)]
                                           [static_cast<std::size_t>(c)]))
          << "group " << g << " cell " << c;
}

TEST(MultigroupSweeps, UpscatterConvergesAcrossOuters) {
  SmallProblem p;
  MultigroupXs xs(2, p.mesh.num_cells());
  for (std::int64_t c = 0; c < p.mesh.num_cells(); ++c) {
    xs.sigma_t(0, c) = 1.0;
    xs.sigma_t(1, c) = 1.0;
    xs.sigma_s(0, 0, c) = 0.2;
    xs.sigma_s(0, 1, c) = 0.3;  // down
    xs.sigma_s(1, 1, c) = 0.2;
    xs.sigma_s(1, 0, c) = 0.2;  // up
    xs.source(0, c) = 1.0;
  }
  MultigroupOptions opts;
  opts.inner = {1e-8, 200, false};
  opts.outer_tolerance = 1e-7;
  const auto result = solve_multigroup_sweeps(
      xs, sequential_sweep_pass(xs, p.serial_factory(xs)), opts);
  ASSERT_TRUE(result.converged);
  EXPECT_GT(result.outer_iterations, 1);
  const auto classic = solve_multigroup(xs, p.serial_factory(xs), opts);
  for (int g = 0; g < 2; ++g)
    for (std::int64_t c = 0; c < p.mesh.num_cells(); ++c)
      ASSERT_NEAR(result.phi[static_cast<std::size_t>(g)]
                            [static_cast<std::size_t>(c)],
                  classic.phi[static_cast<std::size_t>(g)]
                             [static_cast<std::size_t>(c)],
                  1e-4 * (1.0 + classic.phi[static_cast<std::size_t>(g)]
                                           [static_cast<std::size_t>(c)]))
          << "group " << g << " cell " << c;
}

// ---------------------------------------------------------------------------
// Group-pipelined parallel solver
// ---------------------------------------------------------------------------

struct ParallelProblem {
  ParallelProblem()
      : mesh(mesh::make_cube_mesh(6, 6.0)),
        quad(Quadrature::level_symmetric(2)),
        layout(mesh.dims(), {3, 3, 3}),
        cg(partition::cell_graph(mesh)),
        patches(partition::block_partition(layout), layout.num_patches(),
                &cg) {}

  mesh::StructuredMesh mesh;
  Quadrature quad;
  partition::StructuredBlockLayout layout;
  partition::CsrGraph cg;
  partition::PatchSet patches;
};

/// Run solve_multigroup on a parallel session and return rank 0's φ.
std::vector<std::vector<double>> parallel_multigroup(
    ParallelProblem& p, const MultigroupXs& xs, const MultigroupOptions& opts,
    bool pipelined, sweep::EngineKind engine = sweep::EngineKind::DataDriven,
    int ranks = 2) {
  std::vector<std::vector<double>> phi;
  const StructuredDD disc(p.mesh, xs.group_view(0));
  comm::Cluster::run(ranks, [&](comm::Context& ctx) {
    sweep::PlanConfig plan_config;
    plan_config.multigroup = &xs;
    plan_config.group_pipelining = pipelined;
    sweep::SolveConfig solve_config;
    solve_config.engine = engine;
    const auto owner =
        partition::assign_contiguous(p.patches.num_patches(), ctx.size());
    sweep::SweepSession session(
        ctx,
        sweep::SweepPlan::build(ctx, p.mesh, p.patches, owner, disc, p.quad,
                                plan_config),
        solve_config);
    const auto result = session.solve_multigroup(opts);
    EXPECT_TRUE(result.converged);
    if (ctx.rank().value() == 0) phi = result.phi;
  });
  return phi;
}

TEST(MultigroupPipelined, MatchesSerialSweepsDriver) {
  ParallelProblem p;
  const MultigroupXs xs = MultigroupXs::cascade(
      MaterialTable({{0.9, 0.45, 2.0}}), {}, p.mesh.num_cells(), 3, 0.6);
  MultigroupOptions opts;
  opts.inner = {1e-7, 200, false};

  SmallProblem serial_p;
  const auto serial = solve_multigroup_sweeps(
      xs, sequential_sweep_pass(xs, serial_p.serial_factory(xs)), opts);
  const auto parallel = parallel_multigroup(p, xs, opts, /*pipelined=*/true);

  ASSERT_EQ(parallel.size(), serial.phi.size());
  for (std::size_t g = 0; g < parallel.size(); ++g)
    for (std::size_t c = 0; c < parallel[g].size(); ++c)
      ASSERT_NEAR(parallel[g][c], serial.phi[g][c],
                  1e-12 * (1.0 + serial.phi[g][c]))
          << "group " << g << " cell " << c;
}

TEST(MultigroupPipelined, BitwiseEqualsGroupBarriered) {
  // The pipelined engine run computes the exact iterates of the barriered
  // per-group runs — scheduling freedom must not change a single bit.
  ParallelProblem p;
  const MultigroupXs xs = MultigroupXs::cascade(
      MaterialTable({{0.9, 0.45, 2.0}}), {}, p.mesh.num_cells(), 3, 0.6);
  MultigroupOptions opts;
  opts.inner = {1e-7, 200, false};

  const auto pipelined = parallel_multigroup(p, xs, opts, true);
  const auto barriered = parallel_multigroup(p, xs, opts, false);
  ASSERT_EQ(pipelined.size(), barriered.size());
  for (std::size_t g = 0; g < pipelined.size(); ++g)
    for (std::size_t c = 0; c < pipelined[g].size(); ++c)
      ASSERT_EQ(pipelined[g][c], barriered[g][c])
          << "group " << g << " cell " << c;
}

TEST(MultigroupPipelined, OneGroupBitwiseEqualsSingleGroupSolver) {
  // A G = 1 multigroup build must reproduce the classic single-group
  // parallel solve bit-for-bit (same programs, same engine schedule
  // semantics, same collection order).
  ParallelProblem p;
  const MaterialTable table({{1.0, 0.45, 2.5}});
  const CellXs one = expand(table, {}, p.mesh.num_cells());
  MultigroupXs xs(1, p.mesh.num_cells());
  for (std::int64_t c = 0; c < p.mesh.num_cells(); ++c) {
    xs.sigma_t(0, c) = 1.0;
    xs.sigma_s(0, 0, c) = 0.45;
    xs.source(0, c) = 2.5;
  }
  MultigroupOptions opts;
  opts.inner = {1e-7, 200, false};

  std::vector<double> single;
  const StructuredDD disc(p.mesh, one);
  comm::Cluster::run(2, [&](comm::Context& ctx) {
    const auto owner =
        partition::assign_contiguous(p.patches.num_patches(), ctx.size());
    sweep::SweepSession session(
        ctx, sweep::SweepPlan::build(ctx, p.mesh, p.patches, owner, disc,
                                     p.quad));
    const auto result =
        source_iteration(one, session.as_operator(), {1e-7, 200, false});
    EXPECT_TRUE(result.converged);
    if (ctx.rank().value() == 0) single = result.phi;
  });

  const auto multi = parallel_multigroup(p, xs, opts, /*pipelined=*/true);
  ASSERT_EQ(multi.size(), 1u);
  for (std::size_t c = 0; c < single.size(); ++c)
    ASSERT_EQ(multi[0][c], single[c]) << "cell " << c;
}

TEST(MultigroupPipelined, BspMatchesDataDriven) {
  ParallelProblem p;
  const MultigroupXs xs = MultigroupXs::cascade(
      MaterialTable({{0.8, 0.4, 1.5}}), {}, p.mesh.num_cells(), 2, 0.55);
  MultigroupOptions opts;
  opts.inner = {1e-7, 200, false};

  const auto dd = parallel_multigroup(p, xs, opts, true);
  const auto bsp =
      parallel_multigroup(p, xs, opts, true, sweep::EngineKind::Bsp);
  for (std::size_t g = 0; g < dd.size(); ++g)
    for (std::size_t c = 0; c < dd[g].size(); ++c)
      ASSERT_NEAR(bsp[g][c], dd[g][c], 1e-12 * (1.0 + dd[g][c]))
          << "bsp group " << g << " cell " << c;
}

}  // namespace
}  // namespace jsweep::sn
