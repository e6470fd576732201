// Golden-file regression tests (ctest label `golden`): the `kobayashi` and
// `quickstart` example scenarios are re-solved and compared against
// committed flux snapshots, so solver refactors cannot silently change the
// physics. The snapshots store the scalar-flux mean, peak and a strided
// sample of cells; comparison is relative to 1e-9 (loose enough for
// compiler/FMA variance, far tighter than any physics change).
//
// Regenerating a snapshot after an *intentional* numerics change:
//
//   JSWEEP_UPDATE_GOLDEN=1 ./build/tests/test_golden
//
// then commit the rewritten files under tests/golden/ with a note in the
// PR explaining why the physics moved.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "comm/cluster.hpp"
#include "mesh/generators.hpp"
#include "partition/adjacency.hpp"
#include "partition/block_layout.hpp"
#include "partition/graph_partition.hpp"
#include "partition/patch_set.hpp"
#include "sn/boundary.hpp"
#include "sn/fission.hpp"
#include "sn/multigroup.hpp"
#include "sn/serial_sweep.hpp"
#include "sn/source_iteration.hpp"
#include "sweep/eigen.hpp"
#include "sweep/session.hpp"

#ifndef JSWEEP_GOLDEN_DIR
#error "JSWEEP_GOLDEN_DIR must point at tests/golden"
#endif

namespace jsweep {
namespace {

constexpr double kRelTol = 1e-9;
constexpr double kAbsFloor = 1e-12;

struct Snapshot {
  double mean = 0.0;
  double peak = 0.0;
  std::vector<std::pair<std::int64_t, double>> cells;  ///< strided sample
};

Snapshot snapshot_of(const std::vector<double>& phi, std::int64_t stride) {
  Snapshot s;
  for (const auto v : phi) {
    s.mean += v;
    s.peak = std::max(s.peak, v);
  }
  s.mean /= static_cast<double>(phi.size());
  for (std::size_t c = 0; c < phi.size();
       c += static_cast<std::size_t>(stride))
    s.cells.emplace_back(static_cast<std::int64_t>(c), phi[c]);
  return s;
}

std::string golden_path(const char* name) {
  return std::string(JSWEEP_GOLDEN_DIR) + "/" + name + ".txt";
}

bool update_mode() {
  const char* env = std::getenv("JSWEEP_UPDATE_GOLDEN");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

void write_snapshot(const char* name, const Snapshot& s) {
  const std::string path = golden_path(name);
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr) << "cannot write " << path;
  std::fprintf(f, "# jsweep golden flux snapshot: %s\n", name);
  std::fprintf(f, "mean %.17g\n", s.mean);
  std::fprintf(f, "peak %.17g\n", s.peak);
  for (const auto& [cell, value] : s.cells)
    std::fprintf(f, "cell %lld %.17g\n", static_cast<long long>(cell),
                 value);
  std::fclose(f);
  std::printf("[golden] wrote %s (%zu samples)\n", path.c_str(),
              s.cells.size());
}

Snapshot read_snapshot(const char* name) {
  const std::string path = golden_path(name);
  std::FILE* f = std::fopen(path.c_str(), "r");
  EXPECT_NE(f, nullptr) << "missing golden file " << path
                        << " — run with JSWEEP_UPDATE_GOLDEN=1 to create";
  Snapshot s;
  if (f == nullptr) return s;
  char line[256];
  while (std::fgets(line, sizeof line, f) != nullptr) {
    long long cell = 0;
    double value = 0.0;
    if (std::sscanf(line, "mean %lg", &value) == 1) {
      s.mean = value;
    } else if (std::sscanf(line, "peak %lg", &value) == 1) {
      s.peak = value;
    } else if (std::sscanf(line, "cell %lld %lg", &cell, &value) == 2) {
      s.cells.emplace_back(cell, value);
    }
  }
  std::fclose(f);
  return s;
}

void expect_close(double expected, double actual, const char* what) {
  const double tol = std::max(kAbsFloor, kRelTol * std::abs(expected));
  EXPECT_NEAR(expected, actual, tol) << what;
}

void check_against_golden(const char* name, const std::vector<double>& phi,
                          std::int64_t stride) {
  const Snapshot now = snapshot_of(phi, stride);
  if (update_mode()) {
    write_snapshot(name, now);
    return;
  }
  const Snapshot golden = read_snapshot(name);
  expect_close(golden.mean, now.mean, "flux mean");
  expect_close(golden.peak, now.peak, "flux peak");
  ASSERT_EQ(golden.cells.size(), now.cells.size())
      << name << ": sample count changed — mesh or stride drifted";
  for (std::size_t i = 0; i < golden.cells.size(); ++i) {
    ASSERT_EQ(golden.cells[i].first, now.cells[i].first);
    expect_close(golden.cells[i].second, now.cells[i].second, name);
  }
}

TEST(Golden, KobayashiSerialReference) {
  // The `kobayashi` example's serial reference at n = 8: full physics
  // (void duct + shield materials, S4, DD kernel with fixup), serial sweep
  // so the snapshot is independent of all engine machinery.
  const mesh::StructuredMesh m = mesh::make_kobayashi_mesh(8);
  const sn::CellXs xs =
      expand(sn::MaterialTable::kobayashi(), m.materials(), m.num_cells());
  const sn::StructuredDD disc(m, xs);
  const sn::Quadrature quad = sn::Quadrature::level_symmetric(4);
  const auto result = sn::source_iteration(
      xs,
      [&](const std::vector<double>& q) {
        return sn::serial_sweep(disc, quad, q);
      },
      {1e-6, 100, false});
  ASSERT_TRUE(result.converged);
  check_against_golden("kobayashi_n8_s4_serial", result.phi, /*stride=*/1);
}

TEST(Golden, QuickstartParallelSolve) {
  // The `quickstart` example verbatim: Kobayashi 16³, 4³-cell patches,
  // S4, 4 ranks × 2 workers, grain 32. The parallel solve is bitwise
  // deterministic, so this snapshot also guards the engine path.
  const mesh::StructuredMesh m = mesh::make_kobayashi_mesh(16);
  const partition::StructuredBlockLayout layout(m.dims(), {4, 4, 4});
  const partition::CsrGraph cg = partition::cell_graph(m);
  const partition::PatchSet patches(partition::block_partition(layout),
                                    layout.num_patches(), &cg);
  const sn::CellXs xs =
      expand(sn::MaterialTable::kobayashi(), m.materials(), m.num_cells());
  const sn::StructuredDD disc(m, xs);
  const sn::Quadrature quad = sn::Quadrature::level_symmetric(4);

  sn::SourceIterationResult result;
  comm::Cluster::run(4, [&](comm::Context& ctx) {
    const auto owner =
        partition::assign_contiguous(patches.num_patches(), ctx.size());
    sweep::PlanConfig plan_config;
    plan_config.cluster_grain = 32;
    sweep::SolveConfig solve_config;
    solve_config.num_workers = 2;
    sweep::SweepSession session(
        ctx,
        sweep::SweepPlan::build(ctx, m, patches, owner, disc, quad,
                                plan_config),
        solve_config);
    const auto r =
        sn::source_iteration(xs, session.as_operator(), {1e-6, 100, false});
    if (ctx.rank().value() == 0) result = r;
  });
  ASSERT_TRUE(result.converged);
  check_against_golden("quickstart_n16_s4_parallel", result.phi,
                       /*stride=*/13);
}

TEST(Golden, CyclicTwistedLagSolve) {
  // Snapshot of the cycle-breaking path itself: the twisted column under
  // CyclePolicy::Lag. Guards cut selection, lag semantics and the
  // converged physics in one file.
  const mesh::TetMesh m = mesh::make_twisted_column_mesh();
  const sn::CellXs xs =
      expand(sn::MaterialTable::ball(), m.materials(), m.num_cells());
  const sn::TetStep disc(m, xs);
  const sn::Quadrature quad = sn::Quadrature::level_symmetric(2);
  sn::SerialSweeper sweeper(disc, quad);
  ASSERT_GT(sweeper.cycle_stats().edges_cut, 0);
  const auto result = sn::source_iteration(
      xs, [&](const std::vector<double>& q) { return sweeper.sweep(q); },
      {1e-6, 200, false});
  ASSERT_TRUE(result.converged);
  check_against_golden("twisted_column_s2_lag", result.phi, /*stride=*/3);
}

TEST(Golden, ReflectingBoxKeff) {
  // k-eigenvalue snapshot on the boundary-coupling path: a heterogeneous
  // one-group box with three reflecting sides (an octant-symmetric core),
  // solved by the parallel power iteration on two ranks. Guards the
  // mirror-angle boundary store, the fission-source algebra and the
  // converged eigenvalue in one file.
  const mesh::StructuredMesh m = mesh::make_cube_mesh(6, 6.0);
  const std::int64_t n = m.num_cells();
  sn::FissionXs fission(1, n);
  fission.chi(0) = 1.0;
  sn::MultigroupXs xs_template(1, n);
  for (std::int64_t c = 0; c < n; ++c) {
    // Fissile center column, absorbing rim.
    const bool core = (c % 3) != 0;
    xs_template.sigma_t(0, c) = core ? 1.0 : 1.3;
    xs_template.sigma_s(0, 0, c) = core ? 0.5 : 0.4;
    fission.nu_sigma_f(0, c) = core ? 0.35 : 0.0;
  }
  sn::BoundarySpec bc;
  bc.side(mesh::FaceDir::XLo) = 1.0;
  bc.side(mesh::FaceDir::YLo) = 1.0;
  bc.side(mesh::FaceDir::ZLo) = 1.0;
  const sn::Quadrature quad = sn::Quadrature::level_symmetric(2);
  const partition::StructuredBlockLayout layout(m.dims(), {2, 2, 2});
  const partition::CsrGraph cg = partition::cell_graph(m);
  const partition::PatchSet ps(partition::block_partition(layout),
                               layout.num_patches(), &cg);

  sweep::EigenOptions options;
  options.max_outer_iterations = 500;  // near-critical boxes converge slowly
  options.k_tolerance = 1e-10;
  options.fission_tolerance = 1e-8;
  options.multigroup.inner = {1e-10, 500, false};

  sweep::EigenResult result;
  comm::Cluster::run(2, [&](comm::Context& ctx) {
    sn::MultigroupXs xs = xs_template;  // per-rank writable copy
    const sn::StructuredDD disc(m, xs.group_view(0), true, bc);
    sweep::PlanConfig pc;
    pc.cluster_grain = 16;
    pc.multigroup = &xs;
    const auto owner =
        partition::assign_contiguous(ps.num_patches(), ctx.size());
    const auto plan =
        sweep::SweepPlan::build(ctx, m, ps, owner, disc, quad, pc);
    const auto r = sweep::solve_k_eigenvalue(ctx, plan, xs, fission, options);
    if (ctx.rank().value() == 0) result = r;
  });
  ASSERT_TRUE(result.converged);
  check_against_golden("reflecting_box_keff_k", {result.k}, /*stride=*/1);
  check_against_golden("reflecting_box_keff_phi", result.phi[0],
                       /*stride=*/7);
}

TEST(Golden, ReactorTwoGroupKeff) {
  // The `reactor` example's physics: a two-group tetrahedral reactor core
  // (fissile center, reflector rim, vacuum boundary) solved by the
  // parallel power iteration. Guards the multigroup eigen path on
  // unstructured meshes.
  const mesh::TetMesh m = mesh::make_reactor_mesh(4, 4.0, 6.0);
  const std::int64_t n = m.num_cells();
  sn::MultigroupXs xs_template(2, n);
  sn::FissionXs fission(2, n);
  fission.chi(0) = 1.0;  // fast-born spectrum
  for (std::int64_t c = 0; c < n; ++c) {
    const bool core = m.material(CellId{c}) == mesh::kMatCore;
    xs_template.sigma_t(0, c) = core ? 0.6 : 0.5;
    xs_template.sigma_t(1, c) = core ? 1.0 : 1.2;
    xs_template.sigma_s(0, 0, c) = core ? 0.2 : 0.22;
    xs_template.sigma_s(0, 1, c) = core ? 0.25 : 0.25;  // downscatter
    xs_template.sigma_s(1, 1, c) = core ? 0.6 : 1.1;
    if (core) {
      fission.nu_sigma_f(0, c) = 0.08;
      fission.nu_sigma_f(1, c) = 0.5;
    }
  }
  const sn::Quadrature quad = sn::Quadrature::level_symmetric(2);
  const partition::CsrGraph cg = partition::cell_graph(m);
  const auto part = partition::partition_graph(cg, 4);
  const partition::PatchSet ps(part, 4, &cg);

  sweep::EigenOptions options;
  options.max_outer_iterations = 100;
  options.k_tolerance = 1e-9;
  options.fission_tolerance = 1e-7;
  options.multigroup.inner = {1e-9, 300, false};

  sweep::EigenResult result;
  comm::Cluster::run(2, [&](comm::Context& ctx) {
    sn::MultigroupXs xs = xs_template;  // per-rank writable copy
    const sn::TetStep disc(m, xs.group_view(0));
    sweep::PlanConfig pc;
    pc.cluster_grain = 16;
    pc.multigroup = &xs;
    const auto owner =
        partition::assign_contiguous(ps.num_patches(), ctx.size());
    const auto plan =
        sweep::SweepPlan::build(ctx, m, ps, owner, disc, quad, pc);
    const auto r = sweep::solve_k_eigenvalue(ctx, plan, xs, fission, options);
    if (ctx.rank().value() == 0) result = r;
  });
  ASSERT_TRUE(result.converged);
  check_against_golden("reactor_2g_keff_k", {result.k}, /*stride=*/1);
  check_against_golden("reactor_2g_keff_phi_fast", result.phi[0],
                       /*stride=*/11);
  check_against_golden("reactor_2g_keff_phi_thermal", result.phi[1],
                       /*stride=*/11);
}

}  // namespace
}  // namespace jsweep