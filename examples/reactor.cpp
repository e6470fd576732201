// Reactor-core criticality (the paper's JSNT-U reactor workload, upgraded
// from a fixed-source solve to the real thing): a tetrahedralized cylinder
// with a fissile core and an outer reflector, solved for its k-eigenvalue
// by power iteration. Every outer iteration issues one full two-group
// transport solve against the SAME cached SweepPlan — the mesh, task
// graphs and per-group kernels are built once and reused across all
// outers, which is exactly the repeated-sweep workload the plan/session
// split exists for. Groups run as ONE (patch, angle, group) task system
// per pass (group pipelining).
//
//   build/examples/reactor [n]   (default n = 6)

#include <cstdio>
#include <cstdlib>

#include "comm/cluster.hpp"
#include "mesh/generators.hpp"
#include "partition/adjacency.hpp"
#include "partition/graph_partition.hpp"
#include "partition/patch_set.hpp"
#include "sn/fission.hpp"
#include "sn/multigroup.hpp"
#include "support/table.hpp"
#include "support/timer.hpp"
#include "sweep/eigen.hpp"

int main(int argc, char** argv) {
  using namespace jsweep;
  const int n = argc > 1 ? std::atoi(argv[1]) : 6;
  constexpr int kGroups = 2;

  const mesh::TetMesh m = mesh::make_reactor_mesh(n, 50.0, 100.0);
  std::printf("reactor mesh: %lld tets, %d energy groups, k-eigenvalue\n",
              static_cast<long long>(m.num_cells()), kGroups);

  const int num_patches =
      std::max(2, static_cast<int>(m.num_cells() / 500));
  const partition::CsrGraph cg = partition::cell_graph(m);
  const auto part = partition::partition_graph(cg, num_patches);
  const partition::PatchSet patches(part, num_patches, &cg);

  const sn::Quadrature quad = sn::Quadrature::level_symmetric(4);

  // Two-group reactor physics: a fast group that downscatters into a
  // thermal group, thermal fission in the core, a scattering reflector.
  // Fission neutrons are born fast (χ = (1, 0)).
  const std::int64_t cells = m.num_cells();
  sn::MultigroupXs xs_template(kGroups, cells);
  sn::FissionXs fission(kGroups, cells);
  fission.chi(0) = 1.0;
  for (std::int64_t c = 0; c < cells; ++c) {
    const bool core = m.material(CellId{c}) == mesh::kMatCore;
    xs_template.sigma_t(0, c) = core ? 0.6 : 0.5;
    xs_template.sigma_t(1, c) = core ? 1.0 : 1.2;
    xs_template.sigma_s(0, 0, c) = core ? 0.2 : 0.22;
    xs_template.sigma_s(0, 1, c) = 0.25;  // downscatter
    xs_template.sigma_s(1, 1, c) = core ? 0.6 : 0.9;
    if (core) {
      fission.nu_sigma_f(0, c) = 0.08;
      fission.nu_sigma_f(1, c) = 0.5;
    }
  }

  sweep::EigenOptions options;
  options.max_outer_iterations = 200;
  options.k_tolerance = 1e-6;
  options.fission_tolerance = 1e-4;
  options.multigroup.inner = {1e-6, 100, false};

  comm::Cluster::run(4, [&](comm::Context& ctx) {
    // One plan for the whole run: the task graphs are group- and
    // outer-independent; only the staged fission source changes. Each
    // rank thread gets its own writable copy of the cross sections — the
    // driver rewrites the group sources between outers.
    sn::MultigroupXs xs = xs_template;
    const sn::TetStep disc(m, xs.group_view(0));
    sweep::PlanConfig plan_config;
    plan_config.multigroup = &xs;
    plan_config.group_pipelining = true;
    const auto owner =
        partition::assign_contiguous(patches.num_patches(), ctx.size());
    const auto plan = sweep::SweepPlan::build(ctx, m, patches, owner, disc,
                                              quad, plan_config);
    sweep::SolveConfig solve_config;
    solve_config.num_workers = 2;

    WallTimer timer;
    const sweep::EigenResult result = sweep::solve_k_eigenvalue(
        ctx, plan, xs, fission, options, solve_config);
    const double seconds = timer.seconds();

    if (ctx.rank().value() == 0) {
      std::printf("%s: k-eff = %.7f in %d outer(s) (%lld group sweeps, "
                  "%lld task rebuilds), %.2fs\n",
                  result.converged ? "converged" : "NOT converged", result.k,
                  result.outer_iterations,
                  static_cast<long long>(result.stats.transport_sweeps),
                  static_cast<long long>(result.stats.task_data_built),
                  seconds);
      Table table({"group", "core mean flux", "peak flux"});
      for (int g = 0; g < kGroups; ++g) {
        const auto& phi = result.phi[static_cast<std::size_t>(g)];
        double core_sum = 0.0;
        double peak = 0.0;
        std::int64_t core_cells = 0;
        for (std::int64_t c = 0; c < cells; ++c) {
          peak = std::max(peak, phi[static_cast<std::size_t>(c)]);
          if (m.material(CellId{c}) == mesh::kMatCore) {
            core_sum += phi[static_cast<std::size_t>(c)];
            ++core_cells;
          }
        }
        table.add_row({Table::num(static_cast<std::int64_t>(g)),
                       Table::num(core_sum / core_cells, 5),
                       Table::num(peak, 5)});
      }
      std::printf("%s", table.str().c_str());
    }
  });
  return 0;
}
