// k-eigenvalue + boundary-condition suite (ctest label `eigen`): the
// power iteration (sweep/eigen.hpp) and the reflecting/albedo boundary
// coupling it rides on. Anchors: the analytic infinite-medium eigenvalue
// k∞ = νΣ_f / (Σ_t − Σ_s) to 1e-12 on an all-reflecting box, bitwise
// serial/parallel and cross-engine agreement of k and φ, schedule
// perturbation (scheduler seeds × work stealing) invariance, and plan
// reuse across all outer iterations (zero task-graph rebuilds).

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "comm/cluster.hpp"
#include "mesh/generators.hpp"
#include "partition/adjacency.hpp"
#include "partition/block_layout.hpp"
#include "partition/patch_set.hpp"
#include "sn/boundary.hpp"
#include "sn/fission.hpp"
#include "sn/multigroup.hpp"
#include "sn/serial_sweep.hpp"
#include "support/check.hpp"
#include "sweep/eigen.hpp"

namespace jsweep {
namespace {

constexpr double kTol = 1e-12;

// ---------------------------------------------------------------------------
// FissionXs properties
// ---------------------------------------------------------------------------

TEST(FissionXs, ValidateRejectsFissionFreeInput) {
  sn::FissionXs f(2, 4);
  f.chi(0) = 1.0;  // valid spectrum, but every νΣ_f is zero
  EXPECT_THROW(f.validate(), CheckError);
  f.nu_sigma_f(1, 2) = 0.05;
  EXPECT_NO_THROW(f.validate());
}

TEST(FissionXs, ValidateRejectsBadSpectrumAndEntries) {
  {
    sn::FissionXs f(2, 2);
    f.nu_sigma_f(0, 0) = 0.1;
    f.chi(0) = 0.7;
    f.chi(1) = 0.2;  // sums to 0.9
    EXPECT_THROW(f.validate(), CheckError);
    f.chi(1) = 0.3;
    EXPECT_NO_THROW(f.validate());
  }
  {
    sn::FissionXs f(1, 2);
    f.chi(0) = 1.0;
    f.nu_sigma_f(0, 1) = -0.2;
    EXPECT_THROW(f.validate(), CheckError);
    f.nu_sigma_f(0, 1) = std::nan("");
    EXPECT_THROW(f.validate(), CheckError);
    f.nu_sigma_f(0, 1) = 0.2;
    EXPECT_NO_THROW(f.validate());
  }
  {
    sn::FissionXs f(2, 1);
    f.nu_sigma_f(0, 0) = 0.1;
    f.chi(0) = 2.0;
    f.chi(1) = -1.0;  // sums to 1 but entries are not probabilities
    EXPECT_THROW(f.validate(), CheckError);
  }
}

TEST(FissionXs, ProductionAccumulatesInGroupOrder) {
  sn::FissionXs f(2, 3);
  f.chi(0) = 1.0;
  for (std::int64_t c = 0; c < 3; ++c) {
    f.nu_sigma_f(0, c) = 0.1 * static_cast<double>(c + 1);
    f.nu_sigma_f(1, c) = 0.02 * static_cast<double>(c + 1);
  }
  const std::vector<std::vector<double>> phi{{1.0, 2.0, 3.0},
                                             {10.0, 20.0, 30.0}};
  const auto s = f.production(phi);
  ASSERT_EQ(s.size(), 3u);
  for (std::int64_t c = 0; c < 3; ++c) {
    const auto i = static_cast<std::size_t>(c);
    // The documented order: group 0's term first, then group 1's.
    EXPECT_EQ(s[i], f.nu_sigma_f(0, c) * phi[0][i] +
                        f.nu_sigma_f(1, c) * phi[1][i]);
  }
}

// ---------------------------------------------------------------------------
// Shared fixtures
// ---------------------------------------------------------------------------

/// Non-uniform per-steradian source (same shape the equivalence suite
/// uses) so scheduling bugs cannot cancel by symmetry.
std::vector<double> test_source(std::int64_t cells) {
  std::vector<double> q(static_cast<std::size_t>(cells));
  for (std::int64_t c = 0; c < cells; ++c)
    q[static_cast<std::size_t>(c)] = 0.3 + 0.01 * static_cast<double>(c % 7);
  return q;
}

partition::PatchSet make_patches(const mesh::StructuredMesh& m,
                                 const partition::CsrGraph& cg, int blocks) {
  const partition::StructuredBlockLayout layout(m.dims(),
                                                {blocks, blocks, blocks});
  return partition::PatchSet(partition::block_partition(layout),
                             layout.num_patches(), &cg);
}

/// Uniform single-group fissile medium: Σ_t = 1, Σ_s = 0.5, νΣ_f = 0.3,
/// so k∞ = νΣ_f / (Σ_t − Σ_s) = 0.6 exactly — on an all-reflecting box
/// the flat flux solves the discrete equations exactly, making the
/// analytic k∞ a 1e-12-tight anchor for the whole chain.
struct InfiniteMedium {
  sn::MultigroupXs xs{1, 1};
  sn::FissionXs fission{1, 1};
  explicit InfiniteMedium(std::int64_t cells, double nu_sigma_f = 0.3)
      : xs(1, cells), fission(1, cells) {
    for (std::int64_t c = 0; c < cells; ++c) {
      xs.sigma_t(0, c) = 1.0;
      xs.sigma_s(0, 0, c) = 0.5;
      fission.nu_sigma_f(0, c) = nu_sigma_f;
    }
    fission.chi(0) = 1.0;
  }
};

/// Heterogeneous 2-group fissile box for the cross-engine/seed tests: per
/// -cell σ_t pattern, downscatter 0→1, thermal fission.
struct TwoGroupCore {
  sn::MultigroupXs xs{2, 1};
  sn::FissionXs fission{2, 1};
  explicit TwoGroupCore(std::int64_t cells) : xs(2, cells), fission(2, cells) {
    for (std::int64_t c = 0; c < cells; ++c) {
      const double bump = 0.05 * static_cast<double>(c % 3);
      xs.sigma_t(0, c) = 0.9 + bump;
      xs.sigma_t(1, c) = 1.2 + bump;
      xs.sigma_s(0, 0, c) = 0.3;
      xs.sigma_s(0, 1, c) = 0.3;  // downscatter
      xs.sigma_s(1, 1, c) = 0.5;
      fission.nu_sigma_f(0, c) = 0.05;
      fission.nu_sigma_f(1, c) = 0.4;
    }
    fission.chi(0) = 1.0;  // fast-born spectrum
  }
};

/// Serial-reference pass factory: fresh per-group StructuredSerialSweeper
/// instances each invocation (so each outer iteration restarts from
/// zeroed boundary iterates, matching the parallel driver's fresh
/// sessions), persistent across the passes of one transport solve.
std::function<sn::MultigroupSweepPass()> serial_pass_factory(
    const mesh::StructuredMesh& m, const sn::MultigroupXs& xs,
    const sn::Quadrature& quad, const sn::BoundarySpec& bc) {
  return [&m, &xs, &quad, bc]() {
    return sn::sequential_sweep_pass(xs, [&, bc](int g) -> sn::SweepOperator {
      auto gd = std::make_shared<sn::StructuredDD>(m, xs.group_view(g), true,
                                                   bc);
      auto sweeper =
          std::make_shared<sn::StructuredSerialSweeper>(*gd, quad);
      return [gd, sweeper](const std::vector<double>& q) {
        return sweeper->sweep(q);
      };
    });
  };
}

/// One parallel k-eigenvalue solve on `ranks` ranks; returns rank 0's
/// result. The MultigroupXs is copied per rank (the driver mutates its
/// sources, and thread-backed ranks must not share the writable object).
sweep::EigenResult run_parallel_eigen(
    const mesh::StructuredMesh& m, const sn::MultigroupXs& xs_template,
    const sn::FissionXs& fission, const sn::Quadrature& quad,
    const sn::BoundarySpec& bc, int blocks, int ranks,
    const sweep::EigenOptions& options, sweep::EngineKind kind,
    bool pipelined = true, std::uint64_t scheduler_seed = 0,
    int workers = 2) {
  sweep::EigenResult out;
  const partition::CsrGraph cg = partition::cell_graph(m);
  const partition::PatchSet ps = make_patches(m, cg, blocks);
  comm::Cluster::run(ranks, [&](comm::Context& ctx) {
    sn::MultigroupXs xs = xs_template;  // per-rank writable copy
    const sn::StructuredDD disc(m, xs.group_view(0), true, bc);
    sweep::PlanConfig pc;
    pc.cluster_grain = 8;
    pc.multigroup = &xs;
    pc.group_pipelining = pipelined;
    const auto owner =
        partition::assign_contiguous(ps.num_patches(), ctx.size());
    const auto plan =
        sweep::SweepPlan::build(ctx, m, ps, owner, disc, quad, pc);
    sweep::SolveConfig sc;
    sc.engine = kind;
    sc.scheduler_seed = scheduler_seed;
    sc.num_workers = workers;
    const auto result =
        sweep::solve_k_eigenvalue(ctx, plan, xs, fission, options, sc);
    if (ctx.rank().value() == 0) out = result;
  });
  return out;
}

void expect_bitwise_equal(const sweep::EigenResult& a,
                          const sweep::EigenResult& b, const char* what) {
  ASSERT_EQ(a.outer_iterations, b.outer_iterations) << what;
  ASSERT_EQ(a.k, b.k) << what;
  ASSERT_EQ(a.phi.size(), b.phi.size()) << what;
  for (std::size_t g = 0; g < a.phi.size(); ++g)
    for (std::size_t c = 0; c < a.phi[g].size(); ++c)
      ASSERT_EQ(a.phi[g][c], b.phi[g][c])
          << what << " group " << g << " cell " << c;
}

// ---------------------------------------------------------------------------
// Reflecting boundaries, fixed source: engines vs the serial reference
// ---------------------------------------------------------------------------

TEST(Boundary, ReflectingFixedSourceMatchesSerialReference) {
  const mesh::StructuredMesh m = mesh::make_cube_mesh(5, 5.0);
  sn::CellXs xs;
  const auto n = static_cast<std::size_t>(m.num_cells());
  xs.sigma_t.assign(n, 0.8);
  xs.sigma_s.assign(n, 0.3);
  xs.source.assign(n, 1.0);
  sn::BoundarySpec bc;
  bc.side(mesh::FaceDir::XLo) = 1.0;
  bc.side(mesh::FaceDir::YHi) = 0.5;
  bc.side(mesh::FaceDir::ZLo) = 1.0;
  const sn::StructuredDD disc(m, xs, true, bc);
  const sn::Quadrature quad = sn::Quadrature::level_symmetric(2);
  const auto q = test_source(m.num_cells());

  // Ground truth: three successive sweeps of the stateful serial sweeper
  // (the boundary iterates evolve sweep over sweep).
  sn::StructuredSerialSweeper sweeper(disc, quad);
  std::vector<std::vector<double>> reference;
  for (int k = 0; k < 3; ++k) reference.push_back(sweeper.sweep(q));
  EXPECT_GT(sweeper.last_lag_residual(), 0.0);

  const partition::CsrGraph cg = partition::cell_graph(m);
  const partition::PatchSet ps = make_patches(m, cg, 2);
  for (const auto kind :
       {sweep::EngineKind::DataDriven, sweep::EngineKind::Bsp}) {
    for (const int ranks : {1, 2}) {
      std::vector<std::vector<double>> phis;
      comm::Cluster::run(ranks, [&](comm::Context& ctx) {
        sweep::PlanConfig plan_config;
        plan_config.cluster_grain = 8;
        sweep::SolveConfig solve_config;
        solve_config.engine = kind;
        const auto owner =
            partition::assign_contiguous(ps.num_patches(), ctx.size());
        sweep::SweepSession session(
            ctx,
            sweep::SweepPlan::build(ctx, m, ps, owner, disc, quad,
                                    plan_config),
            solve_config);
        std::vector<std::vector<double>> local;
        for (int k = 0; k < 3; ++k) local.push_back(session.sweep(q));
        if (ctx.rank().value() == 0) phis = std::move(local);
      });
      ASSERT_EQ(phis.size(), reference.size());
      for (std::size_t k = 0; k < reference.size(); ++k)
        for (std::size_t c = 0; c < reference[k].size(); ++c)
          ASSERT_NEAR(phis[k][c], reference[k][c], kTol)
              << "engine " << static_cast<int>(kind) << " ranks " << ranks
              << " sweep " << k << " cell " << c;
    }
  }
}

TEST(Boundary, VacuumSpecDegeneratesToStatelessSweep) {
  // An all-vacuum BoundarySpec must leave the solve bitwise identical to
  // the boundary-free path (the spec is the default — this guards the
  // plumbing against accidental perturbation of the classic case).
  const mesh::StructuredMesh m = mesh::make_cube_mesh(4, 4.0);
  sn::CellXs xs;
  const auto n = static_cast<std::size_t>(m.num_cells());
  xs.sigma_t.assign(n, 0.7);
  xs.sigma_s.assign(n, 0.2);
  xs.source.assign(n, 1.0);
  const sn::StructuredDD disc(m, xs, true, sn::BoundarySpec{});
  const sn::Quadrature quad = sn::Quadrature::level_symmetric(2);
  const auto q = test_source(m.num_cells());
  const auto stateless = sn::serial_sweep(disc, quad, q);
  sn::StructuredSerialSweeper sweeper(disc, quad);
  const auto stateful = sweeper.sweep(q);
  ASSERT_EQ(stateless.size(), stateful.size());
  for (std::size_t c = 0; c < stateless.size(); ++c)
    ASSERT_EQ(stateless[c], stateful[c]) << "cell " << c;
  EXPECT_EQ(sweeper.last_lag_residual(), 0.0);
}

// ---------------------------------------------------------------------------
// k-eigenvalue power iteration
// ---------------------------------------------------------------------------

sweep::EigenOptions tight_options() {
  sweep::EigenOptions options;
  options.max_outer_iterations = 200;
  options.k_tolerance = 1e-13;
  options.fission_tolerance = 1e-11;
  options.multigroup.inner = {1e-13, 2000, false};
  return options;
}

TEST(Eigen, InfiniteMediumMatchesAnalyticKInf) {
  const mesh::StructuredMesh m = mesh::make_cube_mesh(4, 4.0);
  InfiniteMedium medium(m.num_cells());
  const sn::BoundarySpec bc = sn::BoundarySpec::reflecting_all();
  const sn::Quadrature quad = sn::Quadrature::level_symmetric(2);
  const auto result = sweep::solve_k_eigenvalue_serial(
      medium.xs, medium.fission,
      sn::StructuredDD(m, medium.xs.group_view(0), true, bc),
      serial_pass_factory(m, medium.xs, quad, bc), tight_options());
  EXPECT_TRUE(result.converged);
  EXPECT_NEAR(result.k, 0.6, kTol);  // νΣ_f / (Σ_t − Σ_s) = 0.3 / 0.5
  EXPECT_GT(result.outer_iterations, 1);
  // The converged flux is flat (infinite medium): max relative spread
  // across cells collapses to iteration tolerance.
  double lo = result.phi[0][0];
  double hi = result.phi[0][0];
  for (const double v : result.phi[0]) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  EXPECT_NEAR(hi / lo, 1.0, 1e-9);
}

TEST(Eigen, KScalesLinearlyWithNuSigmaF) {
  // Doubling νΣ_f doubles the eigenvalue: k is linear in the production
  // operator. Checked through the full solve, not the formula.
  const mesh::StructuredMesh m = mesh::make_cube_mesh(3, 3.0);
  const sn::BoundarySpec bc = sn::BoundarySpec::reflecting_all();
  const sn::Quadrature quad = sn::Quadrature::level_symmetric(2);
  InfiniteMedium base(m.num_cells(), 0.3);
  InfiniteMedium doubled(m.num_cells(), 0.6);
  const auto k_base = sweep::solve_k_eigenvalue_serial(
      base.xs, base.fission,
      sn::StructuredDD(m, base.xs.group_view(0), true, bc),
      serial_pass_factory(m, base.xs, quad, bc), tight_options());
  const auto k_doubled = sweep::solve_k_eigenvalue_serial(
      doubled.xs, doubled.fission,
      sn::StructuredDD(m, doubled.xs.group_view(0), true, bc),
      serial_pass_factory(m, doubled.xs, quad, bc), tight_options());
  EXPECT_TRUE(k_base.converged);
  EXPECT_TRUE(k_doubled.converged);
  EXPECT_NEAR(k_doubled.k, 2.0 * k_base.k, kTol);
}

TEST(Eigen, ParallelMatchesSerialBitwiseAtWidthOne) {
  // Acceptance anchor: the parallel driver over a W = 1 plan reproduces
  // the serial reference's k bitwise (identical transport iterates,
  // identical power-iteration reductions) — on one rank and on two.
  const mesh::StructuredMesh m = mesh::make_cube_mesh(4, 4.0);
  InfiniteMedium medium(m.num_cells());
  const sn::BoundarySpec bc = sn::BoundarySpec::reflecting_all();
  const sn::Quadrature quad = sn::Quadrature::level_symmetric(2);
  const auto options = tight_options();
  const auto serial = sweep::solve_k_eigenvalue_serial(
      medium.xs, medium.fission,
      sn::StructuredDD(m, medium.xs.group_view(0), true, bc),
      serial_pass_factory(m, medium.xs, quad, bc), options);
  ASSERT_TRUE(serial.converged);

  InfiniteMedium fresh(m.num_cells());  // serial mutated medium.xs.source
  for (const int ranks : {1, 2}) {
    const auto parallel = run_parallel_eigen(
        m, fresh.xs, fresh.fission, quad, bc, 2, ranks, options,
        sweep::EngineKind::DataDriven);
    EXPECT_TRUE(parallel.converged) << ranks << " ranks";
    EXPECT_EQ(parallel.k, serial.k) << ranks << " ranks";
    EXPECT_EQ(parallel.outer_iterations, serial.outer_iterations)
        << ranks << " ranks";
    ASSERT_EQ(parallel.phi.size(), serial.phi.size());
    for (std::size_t c = 0; c < serial.phi[0].size(); ++c)
      EXPECT_EQ(parallel.phi[0][c], serial.phi[0][c])
          << ranks << " ranks, cell " << c;
  }
}

/// Fixed-work eigen options: tolerances at zero run exactly
/// `max_outer_iterations` outers, so every engine configuration performs
/// identical work and the iterates can be compared bitwise without
/// convergence-depth coupling.
sweep::EigenOptions fixed_work_options(int outers) {
  sweep::EigenOptions options;
  options.max_outer_iterations = outers;
  options.k_tolerance = 0.0;
  options.fission_tolerance = 0.0;
  options.multigroup.inner = {1e-6, 40, false};
  return options;
}

TEST(Eigen, CrossEngineKeffBitwise) {
  // Two-group heterogeneous box with mixed albedo sides: the data-driven
  // (pipelined, barriered) and BSP engines, on one and two ranks, must all
  // produce the same k and φ bitwise.
  const mesh::StructuredMesh m = mesh::make_cube_mesh(4, 4.0);
  TwoGroupCore core(m.num_cells());
  sn::BoundarySpec bc;
  bc.side(mesh::FaceDir::XLo) = 1.0;
  bc.side(mesh::FaceDir::YLo) = 1.0;
  bc.side(mesh::FaceDir::ZHi) = 0.5;
  const sn::Quadrature quad = sn::Quadrature::level_symmetric(2);
  const auto options = fixed_work_options(4);

  const auto reference =
      run_parallel_eigen(m, core.xs, core.fission, quad, bc, 2, 1, options,
                         sweep::EngineKind::DataDriven);
  EXPECT_EQ(reference.outer_iterations, 4);
  EXPECT_GT(reference.k, 0.0);

  expect_bitwise_equal(
      reference,
      run_parallel_eigen(m, core.xs, core.fission, quad, bc, 2, 2, options,
                         sweep::EngineKind::DataDriven),
      "data-driven 2 ranks");
  expect_bitwise_equal(
      reference,
      run_parallel_eigen(m, core.xs, core.fission, quad, bc, 2, 2, options,
                         sweep::EngineKind::Bsp),
      "bsp 2 ranks");
  expect_bitwise_equal(
      reference,
      run_parallel_eigen(m, core.xs, core.fission, quad, bc, 2, 2, options,
                         sweep::EngineKind::DataDriven, /*pipelined=*/false),
      "data-driven barriered");

  // And the serial reference agrees bitwise on the same fixed work.
  sn::MultigroupXs xs = core.xs;
  const auto serial = sweep::solve_k_eigenvalue_serial(
      xs, core.fission, sn::StructuredDD(m, xs.group_view(0), true, bc),
      serial_pass_factory(m, xs, quad, bc), options);
  EXPECT_EQ(serial.k, reference.k);
  for (std::size_t g = 0; g < serial.phi.size(); ++g)
    for (std::size_t c = 0; c < serial.phi[g].size(); ++c)
      ASSERT_EQ(serial.phi[g][c], reference.phi[g][c])
          << "serial group " << g << " cell " << c;
}

TEST(Eigen, SchedulePerturbationInvariance) {
  // Eight scheduler seeds × one or three workers: the eigenvalue solve
  // (reflecting boundaries, two groups) is bitwise invariant under every
  // schedule perturbation.
  const mesh::StructuredMesh m = mesh::make_cube_mesh(4, 4.0);
  TwoGroupCore core(m.num_cells());
  sn::BoundarySpec bc;
  bc.side(mesh::FaceDir::XHi) = 1.0;
  bc.side(mesh::FaceDir::ZLo) = 1.0;
  const sn::Quadrature quad = sn::Quadrature::level_symmetric(2);
  const auto options = fixed_work_options(3);

  const auto reference =
      run_parallel_eigen(m, core.xs, core.fission, quad, bc, 2, 1, options,
                         sweep::EngineKind::DataDriven);
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL, 5ULL, 8ULL, 13ULL,
                                   21ULL, 0xdeadbeefULL}) {
    for (const int workers : {1, 3}) {
      SCOPED_TRACE(testing::Message()
                   << "seed " << seed << " workers " << workers);
      expect_bitwise_equal(
          reference,
          run_parallel_eigen(m, core.xs, core.fission, quad, bc, 2, 1,
                             options, sweep::EngineKind::DataDriven,
                             /*pipelined=*/true, seed, workers),
          "perturbed schedule");
    }
  }
}

TEST(Boundary, ReflectingFixedSourceSchedulePerturbationInvariance) {
  // The same eight-seed × worker-count sweep over a fixed-source solve
  // with reflecting boundaries: three successive sweeps, all bitwise equal.
  const mesh::StructuredMesh m = mesh::make_cube_mesh(4, 4.0);
  sn::CellXs xs;
  const auto n = static_cast<std::size_t>(m.num_cells());
  xs.sigma_t.assign(n, 0.8);
  xs.sigma_s.assign(n, 0.3);
  xs.source.assign(n, 1.0);
  sn::BoundarySpec bc;
  bc.side(mesh::FaceDir::XLo) = 1.0;
  bc.side(mesh::FaceDir::YHi) = 1.0;
  const sn::StructuredDD disc(m, xs, true, bc);
  const sn::Quadrature quad = sn::Quadrature::level_symmetric(2);
  const auto q = test_source(m.num_cells());
  const partition::CsrGraph cg = partition::cell_graph(m);
  const partition::PatchSet ps = make_patches(m, cg, 2);

  const auto run = [&](std::uint64_t seed, int workers) {
    std::vector<std::vector<double>> phis;
    comm::Cluster::run(1, [&](comm::Context& ctx) {
      sweep::PlanConfig plan_config;
      plan_config.cluster_grain = 8;
      sweep::SolveConfig solve_config;
      solve_config.scheduler_seed = seed;
      solve_config.num_workers = workers;
      const auto owner = partition::assign_contiguous(ps.num_patches(), 1);
      sweep::SweepSession session(
          ctx,
          sweep::SweepPlan::build(ctx, m, ps, owner, disc, quad, plan_config),
          solve_config);
      for (int k = 0; k < 3; ++k) phis.push_back(session.sweep(q));
    });
    return phis;
  };

  const auto reference = run(0, 2);
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL, 5ULL, 8ULL, 13ULL,
                                   21ULL, 0xfeedfaceULL}) {
    for (const int workers : {1, 3}) {
      const auto phis = run(seed, workers);
      ASSERT_EQ(phis.size(), reference.size());
      for (std::size_t k = 0; k < reference.size(); ++k)
        for (std::size_t c = 0; c < reference[k].size(); ++c)
          ASSERT_EQ(phis[k][c], reference[k][c])
              << "seed " << seed << " workers " << workers << " sweep "
              << k << " cell " << c;
    }
  }
}

TEST(Eigen, PlanIsReusedAcrossAllOuters) {
  // The whole point of the plan/session split applied to eigenvalue
  // outers: one SweepPlan::build, zero task-graph construction during the
  // power iteration (EigenStats::task_data_built counts process-wide
  // SweepTaskData creations inside the solve).
  const mesh::StructuredMesh m = mesh::make_cube_mesh(4, 4.0);
  InfiniteMedium medium(m.num_cells());
  const sn::BoundarySpec bc = sn::BoundarySpec::reflecting_all();
  const sn::Quadrature quad = sn::Quadrature::level_symmetric(2);
  sweep::EigenOptions options = tight_options();
  options.multigroup.inner = {1e-10, 500, false};
  options.k_tolerance = 1e-10;
  options.fission_tolerance = 1e-8;
  const auto result =
      run_parallel_eigen(m, medium.xs, medium.fission, quad, bc, 2, 1,
                         options, sweep::EngineKind::DataDriven);
  EXPECT_TRUE(result.converged);
  EXPECT_GT(result.outer_iterations, 1);
  EXPECT_GT(result.stats.transport_sweeps, result.outer_iterations);
  EXPECT_EQ(result.stats.task_data_built, 0);
  EXPECT_GT(result.stats.solve_seconds, 0.0);
}

}  // namespace
}  // namespace jsweep
