// Quickstart: solve a small Sn transport problem with the JSweep
// patch-centric data-driven engine and print a summary.
//
//   build/examples/quickstart
//
// Walks through the full pipeline: mesh → patches → discretization →
// sweep plan (built once) → session → source iteration.

#include <cstdio>

#include "comm/cluster.hpp"
#include "mesh/generators.hpp"
#include "partition/adjacency.hpp"
#include "partition/block_layout.hpp"
#include "partition/patch_set.hpp"
#include "sn/source_iteration.hpp"
#include "sweep/session.hpp"
#include "support/table.hpp"

int main() {
  using namespace jsweep;

  // 1. A 16³ Kobayashi-style mesh (source cube + void duct + shield).
  const mesh::StructuredMesh m = mesh::make_kobayashi_mesh(16);

  // 2. Decompose into 4³-cell patches (JAxMIN style).
  const partition::StructuredBlockLayout layout(m.dims(), {4, 4, 4});
  const partition::CsrGraph cell_graph = partition::cell_graph(m);
  const partition::PatchSet patches(partition::block_partition(layout),
                                    layout.num_patches(), &cell_graph);

  // 3. Physics: one-group cross sections + S4 ordinates + DD kernel.
  const sn::CellXs xs =
      expand(sn::MaterialTable::kobayashi(), m.materials(), m.num_cells());
  const sn::StructuredDD disc(m, xs);
  const sn::Quadrature quad = sn::Quadrature::level_symmetric(4);

  // 4. Run an in-process "cluster" of 4 ranks, each with 2 workers.
  std::printf("JSweep quickstart: %lld cells, %d patches, %d angles\n",
              static_cast<long long>(m.num_cells()), patches.num_patches(),
              quad.num_angles());

  comm::Cluster::run(4, [&](comm::Context& ctx) {
    const auto owner =
        partition::assign_contiguous(patches.num_patches(), ctx.size());

    // Build the immutable plan once (task graphs, face slots, priorities),
    // then solve against it with a lightweight session. Reuse the plan for
    // any number of sessions — rebuild only when the mesh changes.
    const auto plan = sweep::SweepPlan::build(ctx, m, patches, owner, disc,
                                              quad, {});

    sweep::SolveConfig solve_config;
    solve_config.num_workers = 2;
    sweep::SweepSession session(ctx, plan, solve_config);
    const auto result = sn::source_iteration(xs, session.as_operator(),
                                             {1e-6, 100, false});

    if (ctx.rank().value() == 0) {
      std::printf("converged: %s in %d iterations (error %.2e)\n",
                  result.converged ? "yes" : "no", result.iterations,
                  result.error);
      double total = 0.0;
      double peak = 0.0;
      for (const auto phi : result.phi) {
        total += phi;
        peak = std::max(peak, phi);
      }
      std::printf("scalar flux: mean %.4e, peak %.4e\n",
                  total / static_cast<double>(result.phi.size()), peak);
      const auto& st = session.stats().engine;
      std::printf(
          "last sweep: %lld program executions, %lld local + %lld remote "
          "streams, %lld wire messages\n",
          static_cast<long long>(st.executions),
          static_cast<long long>(st.streams_local),
          static_cast<long long>(st.streams_remote),
          static_cast<long long>(st.messages_sent));
    }
  });
  return 0;
}
