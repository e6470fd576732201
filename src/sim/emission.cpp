#include "sim/emission.hpp"

#include <algorithm>
#include <queue>

#include "graph/sweep_dag.hpp"
#include "mesh/generators.hpp"
#include "mesh/structured_mesh.hpp"
#include "partition/block_layout.hpp"
#include "partition/patch_set.hpp"
#include "support/check.hpp"
#include "sweep/sweep_data.hpp"

namespace jsweep::sim {

double TransferCurves::emission_at(int chunk, int total_chunks) const {
  if (chunk < 0) return 0.0;
  const int n = num_chunks();
  const int mapped = std::min(
      n - 1, static_cast<int>((static_cast<std::int64_t>(chunk) + 1) * n /
                                  std::max(1, total_chunks) -
                              1));
  return mapped < 0 ? 0.0 : emission[static_cast<std::size_t>(mapped)];
}

double TransferCurves::consumption_at(int chunk, int total_chunks) const {
  const int n = num_chunks();
  const int mapped =
      std::min(n - 1, static_cast<int>(static_cast<std::int64_t>(chunk) * n /
                                       std::max(1, total_chunks)));
  return consumption[static_cast<std::size_t>(std::max(0, mapped))];
}

int TransferCurves::required_upwind_chunk(int my_chunk, int my_chunks,
                                          int upwind_chunks) const {
  const double need = consumption_at(my_chunk, my_chunks);
  if (need <= 0.0) return -1;
  // Smallest upwind chunk e with emission(e) >= need.
  for (int e = 0; e < upwind_chunks; ++e) {
    if (emission_at(e, upwind_chunks) >= need - 1e-12) return e;
  }
  return upwind_chunks - 1;
}

namespace {

/// Replay the Listing-1 pop order of `data`'s local DAG assuming all
/// remote inputs are available, and accumulate the cumulative emission /
/// consumption fractions per chunk of `grain` vertices.
TransferCurves curves_from_task_data(const sweep::SweepTaskData& data,
                                     int grain) {
  const std::int32_t n = data.num_vertices();
  JSWEEP_CHECK(n > 0 && grain >= 1);

  // Local-only dependency counts (remote inputs assumed present).
  std::vector<std::int32_t> counts(static_cast<std::size_t>(n), 0);
  for (std::int32_t v = 0; v < n; ++v)
    data.for_out_local(v, [&](const sweep::OutLocal& e) {
      ++counts[static_cast<std::size_t>(e.w)];
    });

  // Per-vertex remote edge counts.
  std::vector<std::int32_t> remote_out(static_cast<std::size_t>(n), 0);
  for (std::int32_t v = 0; v < n; ++v)
    data.for_out_remote(v, [&](const sweep::RemoteOut&) {
      ++remote_out[static_cast<std::size_t>(v)];
    });
  // Remote-in edges per vertex: its initial count minus its local
  // in-degree.
  std::vector<std::int32_t> remote_in(static_cast<std::size_t>(n), 0);
  for (std::int32_t v = 0; v < n; ++v)
    remote_in[static_cast<std::size_t>(v)] =
        data.initial_counts()[static_cast<std::size_t>(v)] -
        counts[static_cast<std::size_t>(v)];

  struct Entry {
    double priority;
    std::int32_t v;
    bool operator<(const Entry& o) const {
      if (priority != o.priority) return priority < o.priority;
      return v > o.v;
    }
  };
  std::priority_queue<Entry> ready;
  for (std::int32_t v = 0; v < n; ++v)
    if (counts[static_cast<std::size_t>(v)] == 0)
      ready.push({data.vertex_priority(v), v});

  double total_out = 0;
  double total_in = 0;
  for (std::int32_t v = 0; v < n; ++v) {
    total_out += remote_out[static_cast<std::size_t>(v)];
    total_in += remote_in[static_cast<std::size_t>(v)];
  }
  JSWEEP_CHECK_MSG(total_out > 0 && total_in > 0,
                   "representative patch has no cross-patch edges");

  TransferCurves curves;
  double emitted = 0;
  double consumed = 0;
  std::int32_t popped = 0;
  std::int32_t in_chunk = 0;
  while (!ready.empty()) {
    const auto v = ready.top().v;
    ready.pop();
    ++popped;
    ++in_chunk;
    emitted += remote_out[static_cast<std::size_t>(v)];
    consumed += remote_in[static_cast<std::size_t>(v)];
    data.for_out_local(v, [&](const sweep::OutLocal& e) {
      if (--counts[static_cast<std::size_t>(e.w)] == 0)
        ready.push({data.vertex_priority(e.w), e.w});
    });
    if (in_chunk == grain || ready.empty()) {
      curves.emission.push_back(emitted / total_out);
      curves.consumption.push_back(consumed / total_in);
      in_chunk = 0;
    }
  }
  JSWEEP_CHECK_MSG(popped == n,
                   "representative patch DAG replay incomplete (cycle?)");
  // Consumption must be satisfied *before* a chunk runs: shift by one so
  // consumption[c] is the fraction needed to start chunk c.
  std::vector<double> need(curves.consumption.size());
  for (std::size_t c = 0; c < need.size(); ++c)
    need[c] = curves.consumption[c];
  curves.consumption = std::move(need);
  return curves;
}

}  // namespace

TransferCurves extract_curves_structured(mesh::Index3 patch_dims,
                                         const mesh::Vec3& omega,
                                         graph::PriorityStrategy strategy,
                                         int cluster_grain) {
  const mesh::Index3 dims{3 * patch_dims.i, 3 * patch_dims.j,
                          3 * patch_dims.k};
  const mesh::StructuredMesh m(dims, {1, 1, 1});
  const partition::StructuredBlockLayout layout(dims, patch_dims);
  const partition::PatchSet ps(partition::block_partition(layout),
                               layout.num_patches());
  const PatchId center = layout.patch_at({1, 1, 1});
  const sweep::SweepTaskData data(
      graph::build_patch_task_graph(m, ps, center, omega, AngleId{0}),
      strategy);
  return curves_from_task_data(data, cluster_grain);
}

TransferCurves extract_curves_tet(int block_hexes, const mesh::Vec3& omega,
                                  graph::PriorityStrategy strategy,
                                  int cluster_grain) {
  JSWEEP_CHECK(block_hexes >= 2);
  const int side = 3 * block_hexes;
  const mesh::TetMesh m = mesh::tetrahedralize_lattice(
      {side, side, side}, {1, 1, 1}, {0, 0, 0},
      [](const mesh::Vec3&) { return true; },
      [](const mesh::Vec3&) { return 0; });
  // Tets are generated hex-major (6 per hex), so the block of a tet is the
  // block of its hex.
  const partition::StructuredBlockLayout layout(
      {side, side, side}, {block_hexes, block_hexes, block_hexes});
  std::vector<std::int32_t> cell_patch(
      static_cast<std::size_t>(m.num_cells()));
  for (std::int64_t t = 0; t < m.num_cells(); ++t) {
    const std::int64_t hex = t / 6;
    const int i = static_cast<int>(hex % side);
    const int j = static_cast<int>((hex / side) % side);
    const int k = static_cast<int>(hex / (static_cast<std::int64_t>(side) *
                                          side));
    cell_patch[static_cast<std::size_t>(t)] =
        layout.patch_of({i, j, k}).value();
  }
  const partition::PatchSet ps(std::move(cell_patch), layout.num_patches());
  const PatchId center = layout.patch_at({1, 1, 1});
  const sweep::SweepTaskData data(
      graph::build_patch_task_graph(m, ps, center, omega, AngleId{0}),
      strategy);
  return curves_from_task_data(data, cluster_grain);
}

}  // namespace jsweep::sim
