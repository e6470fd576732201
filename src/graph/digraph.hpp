#pragma once

/// \file digraph.hpp
/// Directed graph in CSR form plus the topological utilities the sweep
/// scheduler relies on.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "support/check.hpp"

namespace jsweep::graph {

/// Fill `off` (n + 1 offsets) and `out` with a CSR grouped by source
/// vertex in [0, n). `for_each_edge(emit)` must call `emit(src, entry)`
/// once per edge, in the same order on each call; it is called twice
/// (count, then place), and entries keep that order within each source.
/// `Offset` is the offset width: int64 for Digraph, int32 for per-task
/// sweep data (checked to hold the edge count).
template <class Offset, class Entry, class ForEachEdge>
void build_csr(std::size_t n, ForEachEdge&& for_each_edge,
               std::vector<Offset>& off, std::vector<Entry>& out) {
  off.assign(n + 1, 0);
  std::size_t m = 0;
  for_each_edge([&](auto src, const Entry&) {
    const auto s = static_cast<std::size_t>(src);
    JSWEEP_CHECK_MSG(s < n, "CSR source " << src << " outside [0," << n
                                          << ")");
    ++off[s + 1];
    ++m;
  });
  JSWEEP_CHECK_MSG(
      m <= static_cast<std::size_t>(std::numeric_limits<Offset>::max()),
      "CSR has " << m << " edges, more than its offsets hold");
  for (std::size_t i = 1; i <= n; ++i) off[i] += off[i - 1];
  out.resize(m);
  // Place through off[src] as the cursor (it ends at src's end = src + 1's
  // start), then shift back — no separate cursor array.
  for_each_edge([&](auto src, Entry entry) {
    out[static_cast<std::size_t>(off[static_cast<std::size_t>(src)]++)] =
        std::move(entry);
  });
  for (std::size_t i = n; i > 0; --i) off[i] = off[i - 1];
  off[0] = 0;
}

/// Immutable CSR directed graph over vertices [0, n).
class Digraph {
 public:
  Digraph() = default;  ///< empty graph (no vertices, no edges)

  /// Build from an edge list. Parallel edges are kept (callers that care
  /// deduplicate first); vertex count must cover all endpoints.
  Digraph(std::int32_t num_vertices,
          const std::vector<std::pair<std::int32_t, std::int32_t>>& edges);

  /// Number of vertices.
  [[nodiscard]] std::int32_t num_vertices() const { return n_; }
  /// Number of directed edges (parallel edges counted individually).
  [[nodiscard]] std::int64_t num_edges() const {
    return static_cast<std::int64_t>(targets_.size());
  }

  /// Number of outgoing edges of vertex v.
  [[nodiscard]] std::int64_t out_degree(std::int32_t v) const {
    return offsets_[static_cast<std::size_t>(v) + 1] -
           offsets_[static_cast<std::size_t>(v)];
  }

  /// i-th out-neighbor of v (0 ≤ i < out_degree(v)); cursor-style access
  /// for iterative DFS algorithms that cannot use for_out().
  [[nodiscard]] std::int32_t out_neighbor(std::int32_t v,
                                          std::int64_t i) const {
    return targets_[static_cast<std::size_t>(
        offsets_[static_cast<std::size_t>(v)] + i)];
  }

  /// Invoke `fn(target)` for every out-neighbor of v, in CSR order.
  template <class Fn>
  void for_out(std::int32_t v, Fn&& fn) const {
    for (auto e = offsets_[static_cast<std::size_t>(v)];
         e < offsets_[static_cast<std::size_t>(v) + 1]; ++e)
      fn(targets_[static_cast<std::size_t>(e)]);
  }

  /// In-degree of every vertex.
  [[nodiscard]] std::vector<std::int32_t> in_degrees() const;

  /// Edge-reversed copy.
  [[nodiscard]] Digraph reversed() const;

  /// Kahn topological order; nullopt if the graph has a cycle.
  [[nodiscard]] std::optional<std::vector<std::int32_t>> topological_order()
      const;

  /// Whether the graph has no directed cycle.
  [[nodiscard]] bool is_acyclic() const {
    return topological_order().has_value();
  }

  /// Some cycle as a vertex sequence (v0, v1, ..., v0-reachable), empty if
  /// acyclic. Used for diagnostics when a mesh+direction is unsweepable.
  [[nodiscard]] std::vector<std::int32_t> find_cycle() const;

 private:
  std::int32_t n_ = 0;
  std::vector<std::int64_t> offsets_{0};
  std::vector<std::int32_t> targets_;
};

}  // namespace jsweep::graph
