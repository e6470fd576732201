// Cross-engine equivalence suite (ctest label `equivalence`): on a shared
// matrix of scenarios — structured, unstructured, refined, and cyclic
// meshes — the data-driven engine, the BSP engine and the serial
// reference must produce identical scalar fluxes to
// 1e-12, sweep after sweep. The kernels are deterministic and execution
// order along the (cut) DAG changes no operand, so any divergence is a
// scheduling or cycle-handling bug, not roundoff.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "comm/cluster.hpp"
#include "mesh/generators.hpp"
#include "mesh/refine.hpp"
#include "partition/adjacency.hpp"
#include "partition/block_layout.hpp"
#include "partition/graph_partition.hpp"
#include "partition/patch_set.hpp"
#include "sn/boundary.hpp"
#include "sn/multigroup.hpp"
#include "sn/serial_sweep.hpp"
#include "sn/source_iteration.hpp"
#include "support/rng.hpp"
#include "sweep/session.hpp"

namespace jsweep {
namespace {

constexpr double kTol = 1e-12;
constexpr int kSweeps = 3;  ///< successive sweeps compared (lag state evolves)

/// Non-uniform per-steradian source so asymmetric scheduling bugs cannot
/// cancel out.
std::vector<double> test_source(std::int64_t cells) {
  std::vector<double> q(static_cast<std::size_t>(cells));
  for (std::int64_t c = 0; c < cells; ++c)
    q[static_cast<std::size_t>(c)] = 0.3 + 0.01 * static_cast<double>(c % 7);
  return q;
}

/// Run `kSweeps` successive sweeps of one engine configuration and return
/// rank 0's fluxes.
template <class Mesh, class Disc>
std::vector<std::vector<double>> run_engine(
    const Mesh& m, const partition::PatchSet& ps, const Disc& disc,
    const sn::Quadrature& quad, const std::vector<double>& q, int ranks,
    sweep::EngineKind kind, sweep::CyclePolicy policy) {
  std::vector<std::vector<double>> phis;
  comm::Cluster::run(ranks, [&](comm::Context& ctx) {
    sweep::PlanConfig plan_config;
    plan_config.cluster_grain = 8;  // small batches → heavy partial computation
    plan_config.cycle_policy = policy;
    sweep::SolveConfig solve_config;
    solve_config.engine = kind;
    const auto owner =
        partition::assign_contiguous(ps.num_patches(), ctx.size());
    sweep::SweepSession session(
        ctx,
        sweep::SweepPlan::build(ctx, m, ps, owner, disc, quad, plan_config),
        solve_config);
    std::vector<std::vector<double>> local;
    for (int k = 0; k < kSweeps; ++k) local.push_back(session.sweep(q));
    if (ctx.rank().value() == 0) phis = std::move(local);
  });
  return phis;
}

void expect_matches(const std::vector<std::vector<double>>& reference,
                    const std::vector<std::vector<double>>& actual,
                    const char* scenario, const char* engine) {
  ASSERT_EQ(reference.size(), actual.size()) << scenario << "/" << engine;
  for (std::size_t k = 0; k < reference.size(); ++k) {
    ASSERT_EQ(reference[k].size(), actual[k].size())
        << scenario << "/" << engine << " sweep " << k;
    for (std::size_t c = 0; c < reference[k].size(); ++c)
      ASSERT_NEAR(reference[k][c], actual[k][c], kTol)
          << scenario << "/" << engine << " sweep " << k << " cell " << c;
  }
}

/// The full engine matrix against a per-sweep reference.
template <class Mesh, class Disc>
void expect_all_engines_match(
    const char* scenario, const Mesh& m, const partition::PatchSet& ps,
    const Disc& disc, const sn::Quadrature& quad,
    const std::vector<std::vector<double>>& reference,
    sweep::CyclePolicy policy = sweep::CyclePolicy::Error) {
  const auto q = test_source(m.num_cells());
  expect_matches(reference,
                 run_engine(m, ps, disc, quad, q, 2,
                            sweep::EngineKind::DataDriven, policy),
                 scenario, "data-driven");
  expect_matches(reference,
                 run_engine(m, ps, disc, quad, q, 2, sweep::EngineKind::Bsp,
                            policy),
                 scenario, "bsp");
}

/// Serial reference for acyclic scenarios: stateless, so every sweep of a
/// fixed source is identical.
template <class Disc>
std::vector<std::vector<double>> serial_reference(const Disc& disc,
                                                  const sn::Quadrature& quad,
                                                  std::int64_t cells) {
  const auto q = test_source(cells);
  const auto phi = sn::serial_sweep(disc, quad, q);
  return std::vector<std::vector<double>>(static_cast<std::size_t>(kSweeps),
                                          phi);
}

TEST(Equivalence, StructuredUniformCube) {
  const mesh::StructuredMesh m = mesh::make_cube_mesh(6, 6.0);
  sn::CellXs xs;
  const auto n = static_cast<std::size_t>(m.num_cells());
  xs.sigma_t.assign(n, 0.8);
  xs.sigma_s.assign(n, 0.3);
  xs.source.assign(n, 1.0);
  const sn::StructuredDD disc(m, xs);
  const sn::Quadrature quad = sn::Quadrature::level_symmetric(2);
  const partition::StructuredBlockLayout layout(m.dims(), {3, 3, 3});
  const partition::CsrGraph cg = partition::cell_graph(m);
  const partition::PatchSet ps(partition::block_partition(layout),
                               layout.num_patches(), &cg);
  expect_all_engines_match("structured-cube", m, ps, disc, quad,
                           serial_reference(disc, quad, m.num_cells()));
}

TEST(Equivalence, StructuredKobayashi) {
  const mesh::StructuredMesh m = mesh::make_kobayashi_mesh(8);
  const sn::CellXs xs =
      expand(sn::MaterialTable::kobayashi(), m.materials(), m.num_cells());
  const sn::StructuredDD disc(m, xs);
  const sn::Quadrature quad = sn::Quadrature::level_symmetric(4);
  const partition::StructuredBlockLayout layout(m.dims(), {4, 4, 4});
  const partition::CsrGraph cg = partition::cell_graph(m);
  const partition::PatchSet ps(partition::block_partition(layout),
                               layout.num_patches(), &cg);
  expect_all_engines_match("kobayashi", m, ps, disc, quad,
                           serial_reference(disc, quad, m.num_cells()));
}

TEST(Equivalence, UnstructuredBall) {
  const mesh::TetMesh m = mesh::make_ball_mesh(5, 3.0);
  const sn::CellXs xs =
      expand(sn::MaterialTable::ball(), m.materials(), m.num_cells());
  const sn::TetStep disc(m, xs);
  const sn::Quadrature quad = sn::Quadrature::level_symmetric(2);
  const partition::CsrGraph cg = partition::cell_graph(m);
  const auto part = partition::partition_graph(cg, 5);
  const partition::PatchSet ps(part, 5, &cg);
  expect_all_engines_match("ball", m, ps, disc, quad,
                           serial_reference(disc, quad, m.num_cells()));
}

TEST(Equivalence, RefinedKobayashiCornerBox) {
  // The source corner of Kobayashi-8 (coarse cells [0,2)×[0,3)×[0,2))
  // refined 2× per axis and swept as its own decomposed mesh: each fine
  // cell takes the material of its coarse parent.
  const mesh::StructuredMesh coarse = mesh::make_kobayashi_mesh(8);
  mesh::StructuredMesh m({4, 6, 4}, coarse.spacing() / 2.0, coarse.origin());
  std::vector<int> mats(static_cast<std::size_t>(m.num_cells()));
  for (std::int64_t c = 0; c < m.num_cells(); ++c) {
    const mesh::Index3 p = m.index_of(CellId{c});
    mats[static_cast<std::size_t>(c)] =
        coarse.material(coarse.cell_at({p.i / 2, p.j / 2, p.k / 2}));
  }
  m.set_materials(std::move(mats));
  const sn::CellXs xs =
      expand(sn::MaterialTable::kobayashi(), m.materials(), m.num_cells());
  const sn::StructuredDD disc(m, xs);
  const sn::Quadrature quad = sn::Quadrature::level_symmetric(2);
  const mesh::Index3 d = m.dims();
  const partition::StructuredBlockLayout layout(
      d, {std::max(2, d.i / 2), std::max(2, d.j / 2), std::max(2, d.k / 2)});
  const partition::CsrGraph cg = partition::cell_graph(m);
  const partition::PatchSet ps(partition::block_partition(layout),
                               layout.num_patches(), &cg);
  expect_all_engines_match("refined-box", m, ps, disc, quad,
                           serial_reference(disc, quad, m.num_cells()));
}

TEST(Equivalence, RefinedTetMesh) {
  const mesh::TetMesh coarse = mesh::make_ball_mesh(4, 2.0);
  const mesh::TetMesh m = mesh::refine_uniform(coarse);
  const sn::CellXs xs =
      expand(sn::MaterialTable::ball(), m.materials(), m.num_cells());
  const sn::TetStep disc(m, xs);
  const sn::Quadrature quad = sn::Quadrature::level_symmetric(2);
  const partition::CsrGraph cg = partition::cell_graph(m);
  const auto part = partition::partition_graph(cg, 6);
  const partition::PatchSet ps(part, 6, &cg);
  expect_all_engines_match("refined-tet", m, ps, disc, quad,
                           serial_reference(disc, quad, m.num_cells()));
}

/// Cyclic reference: the stateful SerialSweeper computes the same cut and
/// lag semantics as the solver, so its successive sweeps are the ground
/// truth for the evolving lagged state.
std::vector<std::vector<double>> lagged_reference(const sn::TetStep& disc,
                                                  const sn::Quadrature& quad,
                                                  std::int64_t cells) {
  sn::SerialSweeper sweeper(disc, quad);
  EXPECT_GT(sweeper.cycle_stats().edges_cut, 0);
  const auto q = test_source(cells);
  std::vector<std::vector<double>> phis;
  for (int k = 0; k < kSweeps; ++k) phis.push_back(sweeper.sweep(q));
  return phis;
}

TEST(Equivalence, CyclicTwistedColumn) {
  const mesh::TetMesh m = mesh::make_twisted_column_mesh();
  const sn::CellXs xs =
      expand(sn::MaterialTable::ball(), m.materials(), m.num_cells());
  const sn::TetStep disc(m, xs);
  const sn::Quadrature quad = sn::Quadrature::level_symmetric(2);
  const partition::CsrGraph cg = partition::cell_graph(m);
  const auto part = partition::partition_graph(cg, 6);
  const partition::PatchSet ps(part, 6, &cg);
  expect_all_engines_match("twisted", m, ps, disc, quad,
                           lagged_reference(disc, quad, m.num_cells()),
                           sweep::CyclePolicy::Lag);
}

TEST(Equivalence, CyclicSwirledBall) {
  const mesh::TetMesh m = mesh::make_swirled_ball_mesh(5, 3.0);
  const sn::CellXs xs =
      expand(sn::MaterialTable::ball(), m.materials(), m.num_cells());
  const sn::TetStep disc(m, xs);
  const sn::Quadrature quad = sn::Quadrature::level_symmetric(2);
  const partition::CsrGraph cg = partition::cell_graph(m);
  const auto part = partition::partition_graph(cg, 4);
  const partition::PatchSet ps(part, 4, &cg);
  expect_all_engines_match("swirled", m, ps, disc, quad,
                           lagged_reference(disc, quad, m.num_cells()),
                           sweep::CyclePolicy::Lag);
}

TEST(Equivalence, CyclicSourceIterationConverges) {
  // Acceptance: a provably-cyclic mesh that would deadlock the engines
  // pre-cut completes under CyclePolicy::Lag and source iteration
  // converges on both engines to the same answer.
  const mesh::TetMesh m = mesh::make_twisted_column_mesh();
  const sn::CellXs xs =
      expand(sn::MaterialTable::ball(), m.materials(), m.num_cells());
  const sn::TetStep disc(m, xs);
  const sn::Quadrature quad = sn::Quadrature::level_symmetric(2);
  const partition::CsrGraph cg = partition::cell_graph(m);
  const auto part = partition::partition_graph(cg, 6);
  const partition::PatchSet ps(part, 6, &cg);

  std::vector<double> phi_dd;
  std::vector<double> phi_bsp;
  for (const auto kind :
       {sweep::EngineKind::DataDriven, sweep::EngineKind::Bsp}) {
    comm::Cluster::run(2, [&](comm::Context& ctx) {
      sweep::PlanConfig plan_config;
      plan_config.cycle_policy = sweep::CyclePolicy::Lag;
      sweep::SolveConfig solve_config;
      solve_config.engine = kind;
      const auto owner =
          partition::assign_contiguous(ps.num_patches(), ctx.size());
      sweep::SweepSession session(
          ctx,
          sweep::SweepPlan::build(ctx, m, ps, owner, disc, quad, plan_config),
          solve_config);
      const auto result =
          sn::source_iteration(xs, session.as_operator(), {1e-6, 200, false});
      if (ctx.rank().value() == 0) {
        EXPECT_TRUE(result.converged);
        EXPECT_GT(session.stats().cyclic_angles, 0);
        EXPECT_GT(session.stats().cycles.edges_cut, 0);
        (kind == sweep::EngineKind::DataDriven ? phi_dd : phi_bsp) =
            result.phi;
      }
    });
  }
  ASSERT_EQ(phi_dd.size(), phi_bsp.size());
  for (std::size_t c = 0; c < phi_dd.size(); ++c)
    ASSERT_NEAR(phi_dd[c], phi_bsp[c], kTol);
  // And the lag-converged answer agrees with the cycle-aware serial
  // reference run through the same source iteration.
  sn::SerialSweeper sweeper(disc, quad);
  const auto serial = sn::source_iteration(
      xs, [&](const std::vector<double>& q) { return sweeper.sweep(q); },
      {1e-6, 200, false});
  EXPECT_TRUE(serial.converged);
  for (std::size_t c = 0; c < phi_dd.size(); ++c)
    ASSERT_NEAR(phi_dd[c], serial.phi[c], kTol);
}

TEST(Equivalence, InnerLagSweepsTightenTheOperator) {
  // max_lag_sweeps > 1 must reduce the lagged-face residual within one
  // sweep() call and converge source iteration in no more outer
  // iterations than plain lagging.
  const mesh::TetMesh m = mesh::make_twisted_column_mesh();
  const sn::CellXs xs =
      expand(sn::MaterialTable::ball(), m.materials(), m.num_cells());
  const sn::TetStep disc(m, xs);
  const sn::Quadrature quad = sn::Quadrature::level_symmetric(2);
  const partition::CsrGraph cg = partition::cell_graph(m);
  const auto part = partition::partition_graph(cg, 4);
  const partition::PatchSet ps(part, 4, &cg);

  const auto solve = [&](int lag_sweeps, double* residual) {
    int iterations = 0;
    comm::Cluster::run(1, [&](comm::Context& ctx) {
      sweep::PlanConfig plan_config;
      plan_config.cycle_policy = sweep::CyclePolicy::Lag;
      sweep::SolveConfig solve_config;
      solve_config.max_lag_sweeps = lag_sweeps;
      solve_config.lag_tolerance = 1e-13;
      const auto owner = partition::assign_contiguous(ps.num_patches(), 1);
      sweep::SweepSession session(
          ctx,
          sweep::SweepPlan::build(ctx, m, ps, owner, disc, quad, plan_config),
          solve_config);
      const auto result =
          sn::source_iteration(xs, session.as_operator(), {1e-8, 300, false});
      EXPECT_TRUE(result.converged);
      iterations = result.iterations;
      *residual = session.stats().last_lag_residual;
      if (lag_sweeps > 1) {
        EXPECT_GT(session.stats().last_lag_sweeps, 1);
      }
    });
    return iterations;
  };
  double res_plain = 0.0;
  double res_inner = 0.0;
  const int iters_plain = solve(1, &res_plain);
  const int iters_inner = solve(6, &res_inner);
  EXPECT_LE(res_inner, res_plain);
  EXPECT_LE(iters_inner, iters_plain);
}

// ---------------------------------------------------------------------------
// Multigroup (G = 4): the engine matrix must agree with the serial
// sweep-pass reference on a full multigroup solve — data-driven pipelined,
// data-driven group-barriered and BSP pipelined.
// ---------------------------------------------------------------------------

template <class Mesh, class Disc>
std::vector<std::vector<double>> run_multigroup_engine(
    const Mesh& m, const partition::PatchSet& ps, const Disc& disc,
    const sn::Quadrature& quad, const sn::MultigroupXs& xs, int ranks,
    sweep::EngineKind kind, bool pipelined, const sn::MultigroupOptions& opts,
    int set_width = 1) {
  std::vector<std::vector<double>> phi;
  comm::Cluster::run(ranks, [&](comm::Context& ctx) {
    sweep::PlanConfig plan_config;
    plan_config.cluster_grain = 8;  // small batches → heavy partial computation
    plan_config.multigroup = &xs;
    plan_config.group_pipelining = pipelined;
    plan_config.group_set_width = set_width;
    sweep::SolveConfig solve_config;
    solve_config.engine = kind;
    const auto owner =
        partition::assign_contiguous(ps.num_patches(), ctx.size());
    sweep::SweepSession session(
        ctx,
        sweep::SweepPlan::build(ctx, m, ps, owner, disc, quad, plan_config),
        solve_config);
    const auto result = session.solve_multigroup(opts);
    EXPECT_TRUE(result.converged);
    if (ctx.rank().value() == 0) phi = result.phi;
  });
  return phi;
}

template <class Mesh, class Disc, class DiscFactory>
void expect_multigroup_engines_match(const char* scenario, const Mesh& m,
                                     const partition::PatchSet& ps,
                                     const Disc& disc,
                                     const sn::Quadrature& quad,
                                     const sn::MultigroupXs& xs,
                                     const DiscFactory& make_group_disc) {
  // Loose pass tolerance: the point is that every engine configuration
  // reproduces the reference's *iterate sequence* (and therefore its
  // final flux) to 1e-12, not deep physical convergence — and this suite
  // also runs under ASan/UBSan in CI, where passes are expensive.
  sn::MultigroupOptions opts;
  opts.inner = {1e-4, 60, false};

  // Serial sweep-pass reference: per-group serial sweeps behind the same
  // pass algebra the engines implement.
  const auto reference = sn::solve_multigroup_sweeps(
      xs,
      sn::sequential_sweep_pass(
          xs,
          [&](int g) -> sn::SweepOperator {
            auto gd = make_group_disc(xs.group_view(g));
            return [gd, &quad](const std::vector<double>& q) {
              return sn::serial_sweep(*gd, quad, q);
            };
          }),
      opts);
  ASSERT_TRUE(reference.converged) << scenario;

  const auto check = [&](const std::vector<std::vector<double>>& phi,
                         const char* engine) {
    ASSERT_EQ(phi.size(), reference.phi.size()) << scenario << "/" << engine;
    for (std::size_t g = 0; g < phi.size(); ++g)
      for (std::size_t c = 0; c < phi[g].size(); ++c)
        ASSERT_NEAR(phi[g][c], reference.phi[g][c],
                    kTol * (1.0 + reference.phi[g][c]))
            << scenario << "/" << engine << " group " << g << " cell " << c;
  };
  check(run_multigroup_engine(m, ps, disc, quad, xs, 2,
                              sweep::EngineKind::DataDriven, true, opts),
        "data-driven-pipelined");
  check(run_multigroup_engine(m, ps, disc, quad, xs, 2,
                              sweep::EngineKind::DataDriven, false, opts),
        "data-driven-barriered");
  check(run_multigroup_engine(m, ps, disc, quad, xs, 2,
                              sweep::EngineKind::Bsp, true, opts),
        "bsp-pipelined");
}

TEST(Equivalence, MultigroupStructuredKobayashi) {
  const mesh::StructuredMesh m = mesh::make_kobayashi_mesh(8);
  const sn::MultigroupXs xs = sn::MultigroupXs::cascade(
      sn::MaterialTable::kobayashi(), m.materials(), m.num_cells(), 4, 0.6);
  const sn::StructuredDD disc(m, xs.group_view(0));
  const sn::Quadrature quad = sn::Quadrature::level_symmetric(4);
  const partition::StructuredBlockLayout layout(m.dims(), {4, 4, 4});
  const partition::CsrGraph cg = partition::cell_graph(m);
  const partition::PatchSet ps(partition::block_partition(layout),
                               layout.num_patches(), &cg);
  expect_multigroup_engines_match(
      "multigroup-kobayashi", m, ps, disc, quad, xs,
      [&](const sn::CellXs& gxs) {
        return std::make_shared<sn::StructuredDD>(m, gxs);
      });
}

TEST(Equivalence, MultigroupCyclicTwistedPipelinedVsBarriered) {
  // Cyclic mesh + multigroup: both modes must lag each group's cut faces
  // independently (group-strided LaggedFluxStore) and commit once per
  // pass, so their solves stay bitwise-identical. Guards the two
  // regressions this combination has had: shared lagged slots across
  // groups (flux divergence) and non-re-armed pipeline gates (deadlock —
  // covered via max_lag_sweeps > 1 below, fenced by the suite timeout).
  const mesh::TetMesh m = mesh::make_twisted_column_mesh();
  const sn::MultigroupXs mxs = sn::MultigroupXs::cascade(
      sn::MaterialTable::ball(), m.materials(), m.num_cells(), 2, 0.6);
  const sn::TetStep disc(m, mxs.group_view(0));
  const sn::Quadrature quad = sn::Quadrature::level_symmetric(2);
  const partition::CsrGraph cg = partition::cell_graph(m);
  const auto part = partition::partition_graph(cg, 6);
  const partition::PatchSet ps(part, 6, &cg);

  sn::MultigroupOptions opts;
  opts.inner = {1e-5, 60, false};
  const auto run = [&](bool pipelined, int max_lag_sweeps) {
    std::vector<std::vector<double>> phi;
    comm::Cluster::run(2, [&](comm::Context& ctx) {
      sweep::PlanConfig plan_config;
      plan_config.cluster_grain = 8;
      plan_config.cycle_policy = sweep::CyclePolicy::Lag;
      plan_config.multigroup = &mxs;
      plan_config.group_pipelining = pipelined;
      sweep::SolveConfig solve_config;
      solve_config.max_lag_sweeps = max_lag_sweeps;
      const auto owner =
          partition::assign_contiguous(ps.num_patches(), ctx.size());
      sweep::SweepSession session(
          ctx,
          sweep::SweepPlan::build(ctx, m, ps, owner, disc, quad, plan_config),
          solve_config);
      const auto result = session.solve_multigroup(opts);
      EXPECT_TRUE(result.converged);
      EXPECT_GT(session.stats().cyclic_angles, 0);
      if (ctx.rank().value() == 0) phi = result.phi;
    });
    return phi;
  };

  const auto pipelined = run(true, 1);
  const auto barriered = run(false, 1);
  ASSERT_EQ(pipelined.size(), barriered.size());
  for (std::size_t g = 0; g < pipelined.size(); ++g)
    for (std::size_t c = 0; c < pipelined[g].size(); ++c)
      ASSERT_EQ(pipelined[g][c], barriered[g][c])
          << "group " << g << " cell " << c;

  // Inner lag sweeps (pass repeats) must terminate and stay mode-equal.
  const auto pipelined_lag = run(true, 3);
  const auto barriered_lag = run(false, 3);
  for (std::size_t g = 0; g < pipelined_lag.size(); ++g)
    for (std::size_t c = 0; c < pipelined_lag[g].size(); ++c)
      ASSERT_EQ(pipelined_lag[g][c], barriered_lag[g][c])
          << "lag group " << g << " cell " << c;
}

// ---------------------------------------------------------------------------
// Group sets (G = 7): batched engines at W ∈ {1, 2, 4} — W = 4 leaves a
// ragged final set {4, 5, 6}, W = 2 a single-lane set {6} — must reproduce
// the width-aware serial sweep-pass reference to 1e-12 across the matrix:
// data-driven pipelined, group-barriered, BSP pipelined.
// ---------------------------------------------------------------------------

TEST(Equivalence, MultigroupGroupSetWidths) {
  const mesh::StructuredMesh m = mesh::make_kobayashi_mesh(8);
  const sn::MultigroupXs xs = sn::MultigroupXs::cascade(
      sn::MaterialTable::kobayashi(), m.materials(), m.num_cells(), 7, 0.6);
  const sn::StructuredDD disc(m, xs.group_view(0));
  const sn::Quadrature quad = sn::Quadrature::level_symmetric(2);
  const partition::StructuredBlockLayout layout(m.dims(), {4, 4, 4});
  const partition::CsrGraph cg = partition::cell_graph(m);
  const partition::PatchSet ps(partition::block_partition(layout),
                               layout.num_patches(), &cg);

  for (const int width : {1, 2, 4}) {
    SCOPED_TRACE(testing::Message() << "set width " << width);
    sn::MultigroupOptions opts;
    opts.inner = {1e-4, 60, false};
    opts.group_set_width = width;

    // Width-aware serial reference: per-group scalar sweeps behind the
    // same block pass algebra (fresh downscatter only from groups below
    // the set base, within-set coupling lagged one pass).
    const auto reference = sn::solve_multigroup_sweeps(
        xs,
        sn::sequential_sweep_pass(
            xs,
            [&](int g) -> sn::SweepOperator {
              auto gd = std::make_shared<sn::StructuredDD>(m, xs.group_view(g));
              return [gd, &quad](const std::vector<double>& q) {
                return sn::serial_sweep(*gd, quad, q);
              };
            },
            width),
        opts);
    ASSERT_TRUE(reference.converged);

    const auto check = [&](const std::vector<std::vector<double>>& phi,
                           const char* engine) {
      ASSERT_EQ(phi.size(), reference.phi.size()) << engine;
      for (std::size_t g = 0; g < phi.size(); ++g)
        for (std::size_t c = 0; c < phi[g].size(); ++c)
          ASSERT_NEAR(phi[g][c], reference.phi[g][c],
                      kTol * (1.0 + reference.phi[g][c]))
              << engine << " group " << g << " cell " << c;
    };
    check(run_multigroup_engine(m, ps, disc, quad, xs, 2,
                                sweep::EngineKind::DataDriven, true, opts,
                                width),
          "data-driven-pipelined");
    check(run_multigroup_engine(m, ps, disc, quad, xs, 2,
                                sweep::EngineKind::DataDriven, false, opts,
                                width),
          "data-driven-barriered");
    check(run_multigroup_engine(m, ps, disc, quad, xs, 2,
                                sweep::EngineKind::Bsp, true, opts, width),
          "bsp-pipelined");
  }
}

TEST(Equivalence, MultigroupCyclicGroupSetPipelinedVsBarriered) {
  // Cyclic mesh + ragged group set: batched per-set gating must lag each
  // group's cut faces independently (lane l maps to group base + l in the
  // LaggedFluxStore) — pipelined and barriered solves stay equal to the
  // suite tolerance through the evolving lag state.
  const mesh::TetMesh m = mesh::make_twisted_column_mesh();
  const sn::MultigroupXs mxs = sn::MultigroupXs::cascade(
      sn::MaterialTable::ball(), m.materials(), m.num_cells(), 7, 0.6);
  const sn::TetStep disc(m, mxs.group_view(0));
  const sn::Quadrature quad = sn::Quadrature::level_symmetric(2);
  const partition::CsrGraph cg = partition::cell_graph(m);
  const auto part = partition::partition_graph(cg, 6);
  const partition::PatchSet ps(part, 6, &cg);

  sn::MultigroupOptions opts;
  opts.inner = {1e-5, 60, false};
  opts.group_set_width = 4;  // sets {0..3} and the ragged {4, 5, 6}
  const auto run = [&](bool pipelined) {
    std::vector<std::vector<double>> phi;
    comm::Cluster::run(2, [&](comm::Context& ctx) {
      sweep::PlanConfig plan_config;
      plan_config.cluster_grain = 8;
      plan_config.cycle_policy = sweep::CyclePolicy::Lag;
      plan_config.multigroup = &mxs;
      plan_config.group_pipelining = pipelined;
      plan_config.group_set_width = 4;
      const auto owner =
          partition::assign_contiguous(ps.num_patches(), ctx.size());
      sweep::SweepSession session(
          ctx,
          sweep::SweepPlan::build(ctx, m, ps, owner, disc, quad, plan_config));
      const auto result = session.solve_multigroup(opts);
      EXPECT_TRUE(result.converged);
      EXPECT_GT(session.stats().cyclic_angles, 0);
      if (ctx.rank().value() == 0) phi = result.phi;
    });
    return phi;
  };

  const auto pipelined = run(true);
  const auto barriered = run(false);
  ASSERT_EQ(pipelined.size(), barriered.size());
  for (std::size_t g = 0; g < pipelined.size(); ++g)
    for (std::size_t c = 0; c < pipelined[g].size(); ++c)
      ASSERT_NEAR(pipelined[g][c], barriered[g][c],
                  kTol * (1.0 + std::abs(barriered[g][c])))
          << "group " << g << " cell " << c;
}

// ---------------------------------------------------------------------------
// Randomized stress harness: fuzz (mesh family × G × W × boundary
// condition × engine × rank count × scheduler seed) tuples against the
// serial references — every engine run must match its reference to 1e-12,
// and re-running under a different scheduler seed with work stealing
// flipped must be bitwise identical (schedule perturbations change
// nothing). Structured draws exercise the reflecting/albedo boundary
// store; interleaved tet draws exercise the cycle-cut lag path on
// randomly jittered (vacuum) meshes. Deterministic: one fixed Rng seed.
// ---------------------------------------------------------------------------

TEST(Equivalence, RandomizedBoundaryStressHarness) {
  Rng rng(0x1c992023ULL);
  const sn::Quadrature quad = sn::Quadrature::level_symmetric(2);
  constexpr int kDraws = 27;
  for (int draw = 0; draw < kDraws; ++draw) {
    SCOPED_TRACE(testing::Message() << "draw " << draw);

    if (draw % 7 == 6) {
      // Tet draw: randomly jittered ball (vacuum boundaries, possibly
      // cyclic) under CyclePolicy::Lag — the stateful serial sweeper is
      // the reference whether or not the jitter produced cycles.
      const mesh::TetMesh m = mesh::make_jittered_ball_mesh(
          4, 2.5, 0.1 + 0.15 * rng.uniform(), rng());
      const sn::CellXs xs =
          expand(sn::MaterialTable::ball(), m.materials(), m.num_cells());
      const sn::TetStep disc(m, xs);
      const int parts = 3 + static_cast<int>(rng.below(4));
      const partition::CsrGraph cg = partition::cell_graph(m);
      const auto part = partition::partition_graph(cg, parts);
      const partition::PatchSet ps(part, parts, &cg);
      sn::SerialSweeper sweeper(disc, quad);
      const auto q = test_source(m.num_cells());
      std::vector<std::vector<double>> reference;
      for (int k = 0; k < kSweeps; ++k) reference.push_back(sweeper.sweep(q));
      const auto kind = rng.below(2) == 0 ? sweep::EngineKind::DataDriven
                                          : sweep::EngineKind::Bsp;
      const int ranks = 1 + static_cast<int>(rng.below(2));
      expect_matches(reference,
                     run_engine(m, ps, disc, quad, q, ranks, kind,
                                sweep::CyclePolicy::Lag),
                     "stress-tet", "engine");
      continue;
    }

    // Structured draw: random box dims, group count, set width, per-side
    // albedo, engine, pipelining, rank count and scheduler seed.
    const mesh::Index3 dims{3 + static_cast<int>(rng.below(4)),
                            3 + static_cast<int>(rng.below(4)),
                            3 + static_cast<int>(rng.below(4))};
    const mesh::StructuredMesh m(dims, {1.0, 1.0, 1.0});
    const std::int64_t n = m.num_cells();
    const int G = 1 + static_cast<int>(rng.below(4));
    const int W = 1 + static_cast<int>(rng.below(
                          static_cast<std::uint64_t>(std::min(G, 4))));

    // Random downscatter-only cross sections (scattering ratio ≤ 0.9 so
    // the pass loop converges) and a non-uniform source.
    sn::MultigroupXs xs(G, n);
    for (std::int64_t c = 0; c < n; ++c) {
      for (int g = 0; g < G; ++g) {
        const double st = 0.6 + 0.4 * rng.uniform();
        const double ratio = 0.3 + 0.6 * rng.uniform();
        const double within = g + 1 < G ? 0.5 + 0.4 * rng.uniform() : 1.0;
        xs.sigma_t(g, c) = st;
        xs.sigma_s(g, g, c) = ratio * st * within;
        if (g + 1 < G) xs.sigma_s(g, g + 1, c) = ratio * st * (1.0 - within);
        xs.source(g, c) = 0.1 + rng.uniform();
      }
    }
    sn::BoundarySpec bc;
    for (int side = 0; side < 6; ++side) {
      const auto pick = rng.below(4);  // bias: half the sides stay vacuum
      bc.albedo[static_cast<std::size_t>(side)] =
          pick < 2 ? 0.0 : pick == 2 ? 0.5 : 1.0;
    }

    sn::MultigroupOptions opts;
    opts.inner = {1e-4, 40, false};
    opts.group_set_width = W;
    const auto reference = sn::solve_multigroup_sweeps(
        xs,
        sn::sequential_sweep_pass(
            xs,
            [&](int g) -> sn::SweepOperator {
              auto gd = std::make_shared<sn::StructuredDD>(
                  m, xs.group_view(g), true, bc);
              auto sweeper =
                  std::make_shared<sn::StructuredSerialSweeper>(*gd, quad);
              return [gd, sweeper](const std::vector<double>& q) {
                return sweeper->sweep(q);
              };
            },
            W),
        opts);

    const sn::StructuredDD disc(m, xs.group_view(0), true, bc);
    const partition::StructuredBlockLayout layout(
        dims, {1 + static_cast<int>(rng.below(2)),
               1 + static_cast<int>(rng.below(2)),
               1 + static_cast<int>(rng.below(2))});
    const partition::CsrGraph cg = partition::cell_graph(m);
    const partition::PatchSet ps(partition::block_partition(layout),
                                 layout.num_patches(), &cg);
    const auto kind = rng.below(2) == 0 ? sweep::EngineKind::DataDriven
                                        : sweep::EngineKind::Bsp;
    const bool pipelined = rng.below(2) == 0;
    const int ranks = 1 + static_cast<int>(rng.below(2));
    const std::uint64_t seed_a = rng();
    const std::uint64_t seed_b = rng();

    const auto run = [&](std::uint64_t seed, int workers) {
      std::vector<std::vector<double>> phi;
      comm::Cluster::run(ranks, [&](comm::Context& ctx) {
        sweep::PlanConfig plan_config;
        plan_config.cluster_grain = 8;
        plan_config.multigroup = &xs;
        plan_config.group_pipelining = pipelined;
        plan_config.group_set_width = W;
        sweep::SolveConfig solve_config;
        solve_config.engine = kind;
        solve_config.scheduler_seed = seed;
        solve_config.num_workers = workers;
        const auto owner =
            partition::assign_contiguous(ps.num_patches(), ctx.size());
        sweep::SweepSession session(
            ctx,
            sweep::SweepPlan::build(ctx, m, ps, owner, disc, quad,
                                    plan_config),
            solve_config);
        const auto result = session.solve_multigroup(opts);
        if (ctx.rank().value() == 0) phi = result.phi;
      });
      return phi;
    };

    const auto phi = run(seed_a, 1);
    ASSERT_EQ(phi.size(), reference.phi.size());
    for (std::size_t g = 0; g < phi.size(); ++g)
      for (std::size_t c = 0; c < phi[g].size(); ++c)
        ASSERT_NEAR(phi[g][c], reference.phi[g][c],
                    kTol * (1.0 + std::abs(reference.phi[g][c])))
            << "group " << g << " cell " << c;

    // Schedule perturbation: a different scheduler seed on three workers
    // must be bitwise identical.
    const auto phi_perturbed = run(seed_b, 3);
    for (std::size_t g = 0; g < phi.size(); ++g)
      for (std::size_t c = 0; c < phi[g].size(); ++c)
        ASSERT_EQ(phi[g][c], phi_perturbed[g][c])
            << "perturbed group " << g << " cell " << c;
  }
}

TEST(Equivalence, MultigroupUnstructuredBall) {
  const mesh::TetMesh m = mesh::make_ball_mesh(5, 3.0);
  const sn::MultigroupXs xs = sn::MultigroupXs::cascade(
      sn::MaterialTable::ball(), m.materials(), m.num_cells(), 4, 0.6);
  const sn::TetStep disc(m, xs.group_view(0));
  const sn::Quadrature quad = sn::Quadrature::level_symmetric(2);
  const partition::CsrGraph cg = partition::cell_graph(m);
  const auto part = partition::partition_graph(cg, 5);
  const partition::PatchSet ps(part, 5, &cg);
  expect_multigroup_engines_match(
      "multigroup-ball", m, ps, disc, quad, xs,
      [&](const sn::CellXs& gxs) {
        return std::make_shared<sn::TetStep>(m, gxs);
      });
}

}  // namespace
}  // namespace jsweep