#include "sim/kba_sim.hpp"

#include <algorithm>
#include <vector>

#include "support/check.hpp"

namespace jsweep::sim {

SimResult simulate_kba(const KbaSimConfig& config,
                       const sn::Quadrature& quad) {
  const CostModel& cm = config.cost;
  const mesh::Index3 d = config.mesh_dims;
  const int px = config.px;
  const int py = config.py;
  JSWEEP_CHECK(px >= 1 && py >= 1 && config.z_block >= 1);
  JSWEEP_CHECK(px <= d.i && py <= d.j);

  const int nblocks = (d.k + config.z_block - 1) / config.z_block;
  const int ranks = px * py;

  SimResult result;
  result.cores = ranks;

  // Owned extents per rank: an even split, the remainder spread one cell
  // at a time across the ranks.
  const auto x_cells = [&](int rx) {
    return static_cast<std::int64_t>(d.i) * (rx + 1) / px -
           static_cast<std::int64_t>(d.i) * rx / px;
  };
  const auto y_cells = [&](int ry) {
    return static_cast<std::int64_t>(d.j) * (ry + 1) / py -
           static_cast<std::int64_t>(d.j) * ry / py;
  };

  std::vector<double> rank_free(static_cast<std::size_t>(ranks), 0.0);
  // done[r] for the current (angle, block): completion time of the stage.
  std::vector<double> done(static_cast<std::size_t>(ranks), 0.0);

  const auto rank_at = [&](int rx, int ry) { return ry * px + rx; };

  for (const auto& ang : quad.ordinates()) {
    const bool xup = ang.dir.x > 0;
    const bool yup = ang.dir.y > 0;
    for (int b = 0; b < nblocks; ++b) {
      const int bz = std::min(config.z_block, d.k - b * config.z_block);
      // Ranks in upwind-to-downwind order so dependencies are final.
      for (int wy = 0; wy < py; ++wy) {
        const int ry = yup ? wy : py - 1 - wy;
        for (int wx = 0; wx < px; ++wx) {
          const int rx = xup ? wx : px - 1 - wx;
          const int r = rank_at(rx, ry);
          double start = rank_free[static_cast<std::size_t>(r)];
          // Upwind x-plane.
          const int rx_up = xup ? rx - 1 : rx + 1;
          if (rx_up >= 0 && rx_up < px) {
            const double bytes =
                static_cast<double>(y_cells(ry)) * bz * 8.0;
            const double arrive = done[static_cast<std::size_t>(
                                      rank_at(rx_up, ry))] +
                                  cm.msg_latency_ns + bytes * cm.byte_ns +
                                  2.0 * bytes * cm.pack_byte_ns;
            start = std::max(start, arrive);
            ++result.messages;
            result.bytes += static_cast<std::int64_t>(bytes);
            result.breakdown.pack += 2.0 * bytes * cm.pack_byte_ns;
          }
          // Upwind y-plane.
          const int ry_up = yup ? ry - 1 : ry + 1;
          if (ry_up >= 0 && ry_up < py) {
            const double bytes =
                static_cast<double>(x_cells(rx)) * bz * 8.0;
            const double arrive = done[static_cast<std::size_t>(
                                      rank_at(rx, ry_up))] +
                                  cm.msg_latency_ns + bytes * cm.byte_ns +
                                  2.0 * bytes * cm.pack_byte_ns;
            start = std::max(start, arrive);
            ++result.messages;
            result.bytes += static_cast<std::int64_t>(bytes);
            result.breakdown.pack += 2.0 * bytes * cm.pack_byte_ns;
          }
          const double cells = static_cast<double>(x_cells(rx)) *
                               static_cast<double>(y_cells(ry)) * bz;
          const double dur =
              cells * cm.t_vertex_ns + cm.t_exec_overhead_ns;
          result.breakdown.kernel += cells * cm.t_vertex_ns;
          result.breakdown.graphop += cm.t_exec_overhead_ns;
          ++result.chunk_executions;
          const double finish = start + dur;
          rank_free[static_cast<std::size_t>(r)] = finish;
          done[static_cast<std::size_t>(r)] = finish;
        }
      }
    }
  }

  const double elapsed_ns =
      *std::max_element(rank_free.begin(), rank_free.end()) +
      config.cost.collective_ns(ranks);
  result.elapsed_seconds = elapsed_ns * 1e-9;
  const double busy_ns = result.breakdown.kernel + result.breakdown.graphop +
                         result.breakdown.pack;
  result.breakdown.kernel *= 1e-9;
  result.breakdown.graphop *= 1e-9;
  result.breakdown.pack *= 1e-9;
  result.breakdown.idle =
      result.elapsed_seconds * result.cores - busy_ns * 1e-9;
  return result;
}

}  // namespace jsweep::sim
