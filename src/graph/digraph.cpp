#include "graph/digraph.hpp"

#include <algorithm>
#include <deque>

#include "support/check.hpp"

namespace jsweep::graph {

Digraph::Digraph(
    std::int32_t num_vertices,
    const std::vector<std::pair<std::int32_t, std::int32_t>>& edges)
    : n_(num_vertices) {
  JSWEEP_CHECK(num_vertices >= 0);
  build_csr(
      static_cast<std::size_t>(n_),
      [&](auto&& emit) {
        for (const auto& [u, v] : edges) {
          JSWEEP_CHECK_MSG(u >= 0 && u < n_ && v >= 0 && v < n_,
                           "edge (" << u << "," << v << ") outside [0," << n_
                                    << ")");
          emit(u, v);
        }
      },
      offsets_, targets_);
}

std::vector<std::int32_t> Digraph::in_degrees() const {
  std::vector<std::int32_t> deg(static_cast<std::size_t>(n_), 0);
  for (const auto t : targets_) ++deg[static_cast<std::size_t>(t)];
  return deg;
}

Digraph Digraph::reversed() const {
  // Straight from this CSR, no edge-list copy: each vertex's reversed
  // neighbors come out ascending, exactly as building from the (u, v) list.
  Digraph r;
  r.n_ = n_;
  build_csr(
      static_cast<std::size_t>(n_),
      [&](auto&& emit) {
        for (std::int32_t v = 0; v < n_; ++v)
          for_out(v, [&](std::int32_t u) { emit(u, v); });
      },
      r.offsets_, r.targets_);
  return r;
}

std::optional<std::vector<std::int32_t>> Digraph::topological_order() const {
  auto deg = in_degrees();
  std::vector<std::int32_t> order;
  order.reserve(static_cast<std::size_t>(n_));
  std::deque<std::int32_t> ready;
  for (std::int32_t v = 0; v < n_; ++v)
    if (deg[static_cast<std::size_t>(v)] == 0) ready.push_back(v);
  while (!ready.empty()) {
    const auto v = ready.front();
    ready.pop_front();
    order.push_back(v);
    for_out(v, [&](std::int32_t u) {
      if (--deg[static_cast<std::size_t>(u)] == 0) ready.push_back(u);
    });
  }
  if (static_cast<std::int32_t>(order.size()) != n_) return std::nullopt;
  return order;
}

std::vector<std::int32_t> Digraph::find_cycle() const {
  // Iterative DFS with colors; returns the vertex sequence of the first
  // back-edge cycle found.
  enum : char { kWhite = 0, kGray = 1, kBlack = 2 };
  std::vector<char> color(static_cast<std::size_t>(n_), kWhite);
  std::vector<std::int32_t> parent(static_cast<std::size_t>(n_), -1);

  for (std::int32_t root = 0; root < n_; ++root) {
    if (color[static_cast<std::size_t>(root)] != kWhite) continue;
    // Stack holds (vertex, edge cursor).
    std::vector<std::pair<std::int32_t, std::int64_t>> stack{{root, 0}};
    color[static_cast<std::size_t>(root)] = kGray;
    while (!stack.empty()) {
      auto& [v, cursor] = stack.back();
      const auto begin = offsets_[static_cast<std::size_t>(v)];
      const auto end = offsets_[static_cast<std::size_t>(v) + 1];
      if (begin + cursor >= end) {
        color[static_cast<std::size_t>(v)] = kBlack;
        stack.pop_back();
        continue;
      }
      const auto u =
          targets_[static_cast<std::size_t>(begin + cursor)];
      ++cursor;
      if (color[static_cast<std::size_t>(u)] == kWhite) {
        parent[static_cast<std::size_t>(u)] = v;
        color[static_cast<std::size_t>(u)] = kGray;
        stack.emplace_back(u, 0);
      } else if (color[static_cast<std::size_t>(u)] == kGray) {
        // Found a cycle u -> ... -> v -> u.
        std::vector<std::int32_t> cycle{u};
        for (std::int32_t w = v; w != u && w >= 0;
             w = parent[static_cast<std::size_t>(w)])
          cycle.push_back(w);
        std::reverse(cycle.begin(), cycle.end());
        return cycle;
      }
    }
  }
  return {};
}

}  // namespace jsweep::graph
