// Tests for the digraph utilities, sweep-DAG construction and priority
// strategies.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "graph/digraph.hpp"
#include "graph/priority.hpp"
#include "graph/scc.hpp"
#include "graph/sweep_dag.hpp"
#include "mesh/generators.hpp"
#include "partition/adjacency.hpp"
#include "sn/quadrature.hpp"
#include "partition/graph_partition.hpp"
#include "partition/sfc.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace jsweep::graph {
namespace {

using Edge = std::pair<std::int32_t, std::int32_t>;
using mesh::normalized;

TEST(Digraph, DegreesAndIteration) {
  const Digraph g(4, {{0, 1}, {0, 2}, {1, 3}, {2, 3}});
  EXPECT_EQ(g.num_vertices(), 4);
  EXPECT_EQ(g.num_edges(), 4);
  EXPECT_EQ(g.out_degree(0), 2);
  EXPECT_EQ(g.out_degree(3), 0);
  const auto indeg = g.in_degrees();
  EXPECT_EQ(indeg[0], 0);
  EXPECT_EQ(indeg[3], 2);
}

TEST(Digraph, TopologicalOrderValid) {
  const Digraph g(6, {{0, 2}, {1, 2}, {2, 3}, {3, 4}, {3, 5}});
  const auto order = g.topological_order();
  ASSERT_TRUE(order.has_value());
  std::vector<int> position(6);
  for (std::size_t i = 0; i < order->size(); ++i)
    position[static_cast<std::size_t>((*order)[i])] = static_cast<int>(i);
  for (std::int32_t v = 0; v < 6; ++v)
    g.for_out(v, [&](std::int32_t u) {
      EXPECT_LT(position[static_cast<std::size_t>(v)],
                position[static_cast<std::size_t>(u)]);
    });
}

TEST(Digraph, DetectsCycle) {
  const Digraph g(3, {{0, 1}, {1, 2}, {2, 0}});
  EXPECT_FALSE(g.is_acyclic());
  const auto cycle = g.find_cycle();
  ASSERT_GE(cycle.size(), 3u);
  // The returned sequence really is a cycle.
  for (std::size_t i = 0; i < cycle.size(); ++i) {
    const auto v = cycle[i];
    const auto u = cycle[(i + 1) % cycle.size()];
    bool has_edge = false;
    g.for_out(v, [&](std::int32_t w) { has_edge |= (w == u); });
    EXPECT_TRUE(has_edge) << "missing edge " << v << "→" << u;
  }
}

TEST(Digraph, AcyclicHasNoCycle) {
  const Digraph g(4, {{0, 1}, {1, 2}, {0, 3}});
  EXPECT_TRUE(g.is_acyclic());
  EXPECT_TRUE(g.find_cycle().empty());
}

TEST(Digraph, ReversedSwapsDegrees) {
  const Digraph g(3, {{0, 1}, {0, 2}});
  const Digraph r = g.reversed();
  EXPECT_EQ(r.out_degree(0), 0);
  EXPECT_EQ(r.out_degree(1), 1);
  EXPECT_EQ(r.out_degree(2), 1);
}

TEST(Digraph, ReversedKeepsEdgeListOrder) {
  // The direct CSR reversal must equal building from the reversed edge
  // list, neighbor order and parallel edges included.
  const Digraph g(5, {{0, 3}, {4, 3}, {1, 3}, {0, 3}, {2, 0}, {3, 1}});
  std::vector<std::pair<std::int32_t, std::int32_t>> flipped;
  for (std::int32_t v = 0; v < g.num_vertices(); ++v)
    g.for_out(v, [&](std::int32_t u) { flipped.emplace_back(u, v); });
  const Digraph expected(5, flipped);
  const Digraph r = g.reversed();
  ASSERT_EQ(r.num_edges(), expected.num_edges());
  for (std::int32_t v = 0; v < 5; ++v) {
    std::vector<std::int32_t> got;
    std::vector<std::int32_t> want;
    r.for_out(v, [&](std::int32_t u) { got.push_back(u); });
    expected.for_out(v, [&](std::int32_t u) { want.push_back(u); });
    EXPECT_EQ(got, want) << "vertex " << v;
  }
}

TEST(Priority, BfsLevels) {
  //   0 → 1 → 2
  //   3 ──────^
  const Digraph g(4, {{0, 1}, {1, 2}, {3, 2}});
  const auto level = bfs_levels(g);
  EXPECT_EQ(level[0], 0);
  EXPECT_EQ(level[3], 0);
  EXPECT_EQ(level[1], 1);
  EXPECT_EQ(level[2], 2);  // longest distance from a source
}

TEST(Priority, LdcpDepths) {
  const Digraph g(5, {{0, 1}, {1, 2}, {2, 3}, {0, 4}});
  const auto depth = ldcp_depths(g);
  EXPECT_EQ(depth[0], 3);  // 0→1→2→3
  EXPECT_EQ(depth[1], 2);
  EXPECT_EQ(depth[3], 0);
  EXPECT_EQ(depth[4], 0);
}

TEST(Priority, LdcpRequiresAcyclic) {
  const Digraph g(2, {{0, 1}, {1, 0}});
  EXPECT_THROW(ldcp_depths(g), CheckError);
}

TEST(Priority, ForwardDistance) {
  const Digraph g(5, {{0, 1}, {1, 2}, {3, 4}});
  std::vector<char> targets(5, 0);
  targets[2] = 1;
  const auto dist = forward_distance_to(g, targets);
  EXPECT_EQ(dist[2], 0);
  EXPECT_EQ(dist[1], 1);
  EXPECT_EQ(dist[0], 2);
  EXPECT_EQ(dist[3], std::numeric_limits<std::int32_t>::max());
}

TEST(Priority, StrategyNamesRoundTrip) {
  for (const auto s :
       {PriorityStrategy::None, PriorityStrategy::BFS, PriorityStrategy::LDCP,
        PriorityStrategy::SLBD})
    EXPECT_EQ(priority_from_string(to_string(s)), s);
  EXPECT_THROW((void)priority_from_string("bogus"), CheckError);
}

// ---------------------------------------------------------------------------
// Sweep DAG construction
// ---------------------------------------------------------------------------

TEST(SweepDag, StructuredGlobalIsAcyclicAllOctants) {
  const mesh::StructuredMesh m({5, 4, 3}, {1, 1, 1});
  for (const double sx : {1.0, -1.0})
    for (const double sy : {1.0, -1.0})
      for (const double sz : {1.0, -1.0}) {
        const mesh::Vec3 omega =
            normalized({0.48 * sx, 0.62 * sy, 0.62 * sz});
        const Digraph g = build_global_cell_digraph(m, omega);
        EXPECT_TRUE(g.is_acyclic());
        // Interior cell count check: every interior face is one edge.
        EXPECT_EQ(g.num_edges(), 4LL * 4 * 3 + 5 * 3 * 3 + 5 * 4 * 2);
      }
}

TEST(SweepDag, TetBallAcyclicForSampleDirections) {
  const mesh::TetMesh m = mesh::make_ball_mesh(6, 3.0);
  for (const auto& omega :
       {mesh::Vec3{0.57735, 0.57735, 0.57735}, mesh::Vec3{-0.9, 0.3, 0.3},
        mesh::Vec3{0.2, -0.5, 0.84}}) {
    const Digraph g = build_global_cell_digraph(m, normalized(omega));
    EXPECT_TRUE(g.is_acyclic());
  }
}

TEST(SweepDag, PatchTaskGraphCountsConsistent) {
  const mesh::StructuredMesh m({6, 6, 1}, {1, 1, 1});
  const auto part = partition::partition_sfc({6, 6, 1}, 4,
                                             partition::Curve::Morton);
  const partition::CsrGraph cg = partition::cell_graph(m);
  const partition::PatchSet ps(part, 4, &cg);
  const mesh::Vec3 omega = normalized({0.6, 0.8, 0.0});

  std::int64_t local_edges = 0;
  std::int64_t remote_out = 0;
  std::int64_t remote_in = 0;
  for (int p = 0; p < 4; ++p) {
    const auto g =
        build_patch_task_graph(m, ps, PatchId{p}, omega, AngleId{0});
    EXPECT_EQ(g.num_vertices,
              static_cast<std::int32_t>(ps.cells(PatchId{p}).size()));
    local_edges += static_cast<std::int64_t>(g.local_edges.size());
    remote_out += static_cast<std::int64_t>(g.remote_out.size());
    remote_in += static_cast<std::int64_t>(g.remote_in.size());
    // Initial counts equal local in-degree + remote in-degree.
    std::vector<std::int32_t> expect(
        static_cast<std::size_t>(g.num_vertices), 0);
    for (const auto& e : g.local_edges)
      ++expect[static_cast<std::size_t>(e.v)];
    for (const auto& e : g.remote_in) ++expect[static_cast<std::size_t>(e.v)];
    EXPECT_EQ(g.initial_counts, expect);
    // Local sub-DAG must be acyclic (induced subgraph of a DAG).
    EXPECT_TRUE(g.local.is_acyclic());
  }
  // Every remote-out edge is some patch's remote-in edge.
  EXPECT_EQ(remote_out, remote_in);
  // Total directed edges = directed interior faces with Ω·n > 0. With
  // Ωz = 0 on a 2-D-like mesh: x-faces 5*6 + y-faces 6*5 = 60.
  EXPECT_EQ(local_edges + remote_out, 60);
}

TEST(SweepDag, RemoteEdgesMatchAcrossPatches) {
  const mesh::TetMesh m = mesh::make_ball_mesh(6, 3.0);
  const partition::CsrGraph cg = partition::cell_graph(m);
  const auto part = partition::partition_graph(cg, 3);
  const partition::PatchSet ps(part, 3, &cg);
  const mesh::Vec3 omega = normalized({0.3, 0.5, 0.81});

  std::vector<PatchTaskGraph> graphs;
  for (int p = 0; p < 3; ++p)
    graphs.push_back(
        build_patch_task_graph(m, ps, PatchId{p}, omega, AngleId{0}));

  // Collect (src_cell, face, dst_cell) across patches from both views.
  std::set<std::tuple<std::int64_t, std::int64_t, std::int64_t>> outs;
  std::set<std::tuple<std::int64_t, std::int64_t, std::int64_t>> ins;
  for (const auto& g : graphs) {
    const auto& cells = ps.cells(g.patch);
    for (const auto& e : g.remote_out)
      outs.insert({cells[static_cast<std::size_t>(e.u)].value(), e.face,
                   e.dst_cell});
    for (const auto& e : g.remote_in)
      ins.insert({e.src_cell, e.face,
                  cells[static_cast<std::size_t>(e.v)].value()});
  }
  EXPECT_EQ(outs, ins);
}

TEST(SweepDag, PatchDigraphMatchesTaskGraphs) {
  const mesh::StructuredMesh m({8, 8, 2}, {1, 1, 1});
  const auto part =
      partition::partition_sfc({8, 8, 2}, 4, partition::Curve::Hilbert);
  const partition::CsrGraph cg = partition::cell_graph(m);
  const partition::PatchSet ps(part, 4, &cg);
  const mesh::Vec3 omega = normalized({0.5, 0.7, 0.5});

  std::vector<PatchTaskGraph> graphs;
  for (int p = 0; p < 4; ++p)
    graphs.push_back(
        build_patch_task_graph(m, ps, PatchId{p}, omega, AngleId{0}));
  const Digraph from_graphs = build_patch_level_digraph(graphs, 4);
  const Digraph from_mesh =
      build_patch_digraph(inter_patch_faces(m, ps), 4, omega);

  // Same edge sets.
  const auto edges_of = [](const Digraph& g) {
    std::set<Edge> edges;
    for (std::int32_t v = 0; v < g.num_vertices(); ++v)
      g.for_out(v, [&](std::int32_t u) { edges.insert({v, u}); });
    return edges;
  };
  EXPECT_EQ(edges_of(from_graphs), edges_of(from_mesh));
}

/// Edge set of a digraph, for order-insensitive comparisons.
std::set<Edge> edge_set(const Digraph& g) {
  std::set<Edge> edges;
  for (std::int32_t v = 0; v < g.num_vertices(); ++v)
    g.for_out(v, [&](std::int32_t u) { edges.insert({v, u}); });
  return edges;
}

TEST(SweepDag, InterPatchFaceDigraphsMatchTaskGraphsEveryAngle) {
  // One face list per mesh serves every direction: its digraph must equal
  // the one read off that direction's task graphs, for all S4 angles, on
  // a structured block partition and on a graph-partitioned tet mesh whose
  // patch graphs are cyclic.
  const sn::Quadrature quad = sn::Quadrature::level_symmetric(4);
  const auto check = [&](const auto& m, const partition::PatchSet& ps) {
    const std::vector<InterPatchFace> faces = inter_patch_faces(m, ps);
    ASSERT_FALSE(faces.empty());
    for (const auto& ang : quad.ordinates()) {
      std::vector<PatchTaskGraph> graphs;
      for (int p = 0; p < ps.num_patches(); ++p)
        graphs.push_back(
            build_patch_task_graph(m, ps, PatchId{p}, ang.dir, AngleId{0}));
      const Digraph from_faces =
          build_patch_digraph(faces, ps.num_patches(), ang.dir);
      EXPECT_EQ(edge_set(from_faces),
                edge_set(build_patch_level_digraph(graphs, ps.num_patches())));
      // Deduplicated like the task-graph view.
      EXPECT_EQ(from_faces.num_edges(),
                static_cast<std::int64_t>(edge_set(from_faces).size()));
    }
  };
  {
    const mesh::StructuredMesh m({8, 6, 4}, {1, 1, 1});
    const auto part =
        partition::partition_sfc({8, 6, 4}, 5, partition::Curve::Hilbert);
    const partition::CsrGraph cg = partition::cell_graph(m);
    check(m, partition::PatchSet(part, 5, &cg));
  }
  {
    const mesh::TetMesh m = mesh::make_twisted_column_mesh();
    const partition::CsrGraph cg = partition::cell_graph(m);
    check(m, partition::PatchSet(partition::partition_graph(cg, 4), 4, &cg));
  }
}

}  // namespace
}  // namespace jsweep::graph

// --- Deforming meshes and the sweep DAG -------------------------------------

namespace jsweep::graph {
namespace {

TEST(SweepDag, JitteredMeshSweepableOrCycleReported) {
  // A moderately deformed mesh: for each direction either the global DAG
  // is acyclic, or the cycle detector produces a genuine cycle — never a
  // silent wrong answer.
  const mesh::TetMesh m = mesh::make_jittered_ball_mesh(6, 3.0, 0.2, 3);
  const sn::Quadrature quad = sn::Quadrature::level_symmetric(2);
  int acyclic = 0;
  for (const auto& ang : quad.ordinates()) {
    const Digraph g = build_global_cell_digraph(m, ang.dir);
    const auto order = g.topological_order();
    if (order.has_value()) {
      ++acyclic;
    } else {
      const auto cycle = g.find_cycle();
      ASSERT_GE(cycle.size(), 2u);
      for (std::size_t i = 0; i < cycle.size(); ++i) {
        bool has_edge = false;
        g.for_out(cycle[i], [&](std::int32_t w) {
          has_edge |= (w == cycle[(i + 1) % cycle.size()]);
        });
        EXPECT_TRUE(has_edge);
      }
    }
  }
  // Moderate jitter keeps most (usually all) directions sweepable.
  EXPECT_GE(acyclic, quad.num_angles() / 2);
}

// ---------------------------------------------------------------------------
// SCC + cycle breaking
// ---------------------------------------------------------------------------

TEST(Scc, HandPickedComponents) {
  // Two 2-cycles bridged by a DAG edge plus an isolated vertex.
  const Digraph g(5, {{0, 1}, {1, 0}, {1, 2}, {2, 3}, {3, 2}});
  const SccResult scc = strongly_connected_components(g);
  EXPECT_EQ(scc.num_components, 3);
  EXPECT_EQ(scc.component_of[0], scc.component_of[1]);
  EXPECT_EQ(scc.component_of[2], scc.component_of[3]);
  EXPECT_NE(scc.component_of[0], scc.component_of[2]);
  // Reverse-topological ids: {0,1} feeds {2,3}, so its id is larger.
  EXPECT_GT(scc.component_of[0], scc.component_of[2]);
  const Digraph cond = condensation(g, scc);
  EXPECT_EQ(cond.num_vertices(), 3);
  EXPECT_TRUE(cond.is_acyclic());
}

TEST(Scc, BreakCyclesSimpleLoop) {
  const std::vector<Edge> edges{{0, 1}, {1, 2}, {2, 0}, {2, 3}};
  const CycleBreak cb = break_cycles(4, edges);
  EXPECT_EQ(cb.stats.edges_cut, 1);
  EXPECT_EQ(cb.stats.cyclic_components, 1);
  EXPECT_EQ(cb.stats.largest_component, 3);
  // Exactly one of the triangle's edges is cut; the bridge is kept.
  EXPECT_EQ(cb.cut[3], 0);
}

TEST(Scc, AcyclicInputUntouched) {
  const std::vector<Edge> edges{{0, 1}, {0, 2}, {1, 3}, {2, 3}};
  const CycleBreak cb = break_cycles(4, edges);
  EXPECT_EQ(cb.stats.edges_cut, 0);
  EXPECT_EQ(cb.stats.cyclic_components, 0);
  EXPECT_FALSE(cb.stats.any());
}

/// Brute-force SCC via transitive closure (Floyd–Warshall reachability):
/// u, v share a component iff u reaches v and v reaches u.
std::vector<std::int32_t> brute_force_components(
    std::int32_t n, const std::vector<Edge>& edges) {
  std::vector<std::vector<char>> reach(
      static_cast<std::size_t>(n),
      std::vector<char>(static_cast<std::size_t>(n), 0));
  for (std::int32_t v = 0; v < n; ++v)
    reach[static_cast<std::size_t>(v)][static_cast<std::size_t>(v)] = 1;
  for (const auto& [u, v] : edges)
    reach[static_cast<std::size_t>(u)][static_cast<std::size_t>(v)] = 1;
  for (std::int32_t k = 0; k < n; ++k)
    for (std::int32_t i = 0; i < n; ++i)
      for (std::int32_t j = 0; j < n; ++j)
        if (reach[static_cast<std::size_t>(i)][static_cast<std::size_t>(k)] &&
            reach[static_cast<std::size_t>(k)][static_cast<std::size_t>(j)])
          reach[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] = 1;
  std::vector<std::int32_t> comp(static_cast<std::size_t>(n), -1);
  std::int32_t next = 0;
  for (std::int32_t v = 0; v < n; ++v) {
    if (comp[static_cast<std::size_t>(v)] >= 0) continue;
    comp[static_cast<std::size_t>(v)] = next;
    for (std::int32_t u = v + 1; u < n; ++u)
      if (reach[static_cast<std::size_t>(v)][static_cast<std::size_t>(u)] &&
          reach[static_cast<std::size_t>(u)][static_cast<std::size_t>(v)])
        comp[static_cast<std::size_t>(u)] = next;
    ++next;
  }
  return comp;
}

/// Seeded random edge list over n vertices (occasional self-loops and
/// parallel edges included on purpose).
std::vector<Edge> random_edges(Rng& rng, std::int32_t n, double density) {
  std::vector<Edge> edges;
  const auto target = static_cast<std::int64_t>(density * n * n);
  for (std::int64_t e = 0; e < target; ++e)
    edges.emplace_back(
        static_cast<std::int32_t>(rng.below(static_cast<std::uint64_t>(n))),
        static_cast<std::int32_t>(rng.below(static_cast<std::uint64_t>(n))));
  return edges;
}

TEST(SccProperty, MatchesBruteForceOnSmallRandomDigraphs) {
  // Tarjan vs transitive-closure components on ~200 random graphs.
  Rng rng(20260731);
  for (int trial = 0; trial < 200; ++trial) {
    const auto n = static_cast<std::int32_t>(2 + rng.below(9));
    const auto edges = random_edges(rng, n, rng.uniform(0.05, 0.5));
    const SccResult scc = strongly_connected_components(Digraph(n, edges));
    const auto brute = brute_force_components(n, edges);
    ASSERT_EQ(scc.component_of.size(), brute.size());
    // Same partition: component ids agree up to relabeling.
    for (std::int32_t u = 0; u < n; ++u)
      for (std::int32_t v = u + 1; v < n; ++v)
        ASSERT_EQ(scc.component_of[static_cast<std::size_t>(u)] ==
                      scc.component_of[static_cast<std::size_t>(v)],
                  brute[static_cast<std::size_t>(u)] ==
                      brute[static_cast<std::size_t>(v)])
            << "trial " << trial << " vertices " << u << "," << v;
  }
}

TEST(SccProperty, RandomDigraphCycleBreaking) {
  // The cycle-breaking invariants on ~300 random digraphs of mixed size
  // and density:
  //   1. node coverage: every vertex gets exactly one component, sizes sum
  //      to n, and ids stay within [0, num_components);
  //   2. the condensation is acyclic;
  //   3. the kept (non-cut) edges form an acyclic graph;
  //   4. every cut edge lies strictly inside an SCC.
  Rng rng(42424242);
  for (int trial = 0; trial < 300; ++trial) {
    const auto n = static_cast<std::int32_t>(1 + rng.below(60));
    const auto edges = random_edges(rng, n, rng.uniform(0.01, 0.2));
    const Digraph g(n, edges);

    const SccResult scc = strongly_connected_components(g);
    std::int64_t covered = 0;
    for (const auto c : scc.component_of) {
      ASSERT_GE(c, 0);
      ASSERT_LT(c, scc.num_components);
      ++covered;
    }
    ASSERT_EQ(covered, n);
    const auto sizes = scc.component_sizes();
    std::int64_t total = 0;
    for (const auto s : sizes) {
      ASSERT_GE(s, 1);
      total += s;
    }
    ASSERT_EQ(total, n);

    ASSERT_TRUE(condensation(g, scc).is_acyclic()) << "trial " << trial;

    const CycleBreak cb = break_cycles(n, edges);
    std::vector<Edge> kept;
    std::int64_t cut_count = 0;
    for (std::size_t e = 0; e < edges.size(); ++e) {
      if (cb.cut[e]) {
        ++cut_count;
        // Property 4: a cut edge's endpoints are mutually reachable.
        ASSERT_EQ(scc.component_of[static_cast<std::size_t>(edges[e].first)],
                  scc.component_of[static_cast<std::size_t>(edges[e].second)])
            << "trial " << trial << " cut edge " << edges[e].first << "→"
            << edges[e].second << " crosses components";
      } else {
        kept.push_back(edges[e]);
      }
    }
    ASSERT_EQ(cut_count, cb.stats.edges_cut);
    ASSERT_TRUE(Digraph(n, kept).is_acyclic()) << "trial " << trial;
    // Acyclic input ⇔ nothing cut.
    ASSERT_EQ(cb.stats.edges_cut == 0, g.is_acyclic());
  }
}

TEST(SccProperty, LdcpPriorityTolerantOfCycles) {
  // patch_priorities with LDCP must survive a cyclic patch graph (falls
  // back to condensation depths) and still rank strictly-upwind components
  // higher.
  const Digraph g(4, {{0, 1}, {1, 0}, {1, 2}, {2, 3}});
  const auto prio = patch_priorities(PriorityStrategy::LDCP, g);
  EXPECT_GT(prio[0], prio[2]);
  EXPECT_GT(prio[2], prio[3]);
  EXPECT_DOUBLE_EQ(prio[0], prio[1]);  // same component, same depth
}

TEST(SweepDag, CyclicGeneratorsAreActuallyCyclic) {
  // The advertised cyclic meshes must produce cycles under the quadrature
  // the solver tests use — and the cut must make every direction acyclic.
  const sn::Quadrature quad = sn::Quadrature::level_symmetric(2);
  {
    const mesh::TetMesh m = mesh::make_twisted_column_mesh();
    int cyclic = 0;
    for (const auto& ang : quad.ordinates()) {
      const CycleCut cut = compute_cycle_cut(m, ang.dir);
      if (cut.empty()) continue;
      ++cyclic;
      EXPECT_TRUE(
          build_global_cell_digraph(m, ang.dir, &cut).is_acyclic());
      EXPECT_EQ(static_cast<std::int64_t>(cut.lagged_faces.size()),
                cut.stats.edges_cut);
    }
    // The default twisted column is cyclic in every S2 direction.
    EXPECT_EQ(cyclic, quad.num_angles());
  }
  {
    const mesh::TetMesh m = mesh::make_swirled_ball_mesh(6, 3.0);
    int cyclic = 0;
    for (const auto& ang : quad.ordinates()) {
      const CycleCut cut = compute_cycle_cut(m, ang.dir);
      if (cut.empty()) continue;
      ++cyclic;
      EXPECT_TRUE(
          build_global_cell_digraph(m, ang.dir, &cut).is_acyclic());
    }
    EXPECT_GE(cyclic, 2);  // randomized mode: most directions in practice
  }
  {
    // Control: the straight generators stay acyclic everywhere.
    const mesh::TetMesh m = mesh::make_ball_mesh(5, 3.0);
    for (const auto& ang : quad.ordinates())
      EXPECT_TRUE(compute_cycle_cut(m, ang.dir).empty());
  }
}

TEST(SweepDag, CutTaskGraphsExcludeLaggedDependencies) {
  // Building patch task graphs against a cut: lagged edges disappear from
  // counts/local digraph, land in the lagged lists, and the union of
  // normal + lagged edges equals the uncut graph's edges.
  const mesh::TetMesh m = mesh::make_twisted_column_mesh();
  const partition::CsrGraph cg = partition::cell_graph(m);
  const auto part = partition::partition_graph(cg, 4);
  const partition::PatchSet ps(part, 4, &cg);
  const sn::Quadrature quad = sn::Quadrature::level_symmetric(2);
  const mesh::Vec3 omega = quad.angle(0).dir;
  const CycleCut cut = compute_cycle_cut(m, omega);
  ASSERT_FALSE(cut.empty());

  std::int64_t lagged_seen = 0;
  for (int p = 0; p < 4; ++p) {
    const PatchTaskGraph uncut =
        build_patch_task_graph(m, ps, PatchId{p}, omega, AngleId{0});
    const PatchTaskGraph with_cut =
        build_patch_task_graph(m, ps, PatchId{p}, omega, AngleId{0}, &cut);
    EXPECT_EQ(uncut.local_edges.size(), with_cut.local_edges.size() +
                                            with_cut.lagged_local.size());
    EXPECT_EQ(uncut.remote_in.size(),
              with_cut.remote_in.size() + with_cut.lagged_in.size());
    EXPECT_EQ(uncut.remote_out.size(),
              with_cut.remote_out.size() + with_cut.lagged_out.size());
    EXPECT_TRUE(with_cut.local.is_acyclic());
    lagged_seen += static_cast<std::int64_t>(with_cut.lagged_local.size());
    for (const auto& e : with_cut.lagged_local)
      EXPECT_TRUE(cut.contains(e.face));
    for (const auto& e : with_cut.lagged_in)
      EXPECT_TRUE(cut.contains(e.face));
    // Counts must reflect only the kept dependencies.
    std::vector<std::int32_t> expect_counts(
        static_cast<std::size_t>(with_cut.num_vertices), 0);
    for (const auto& e : with_cut.local_edges)
      ++expect_counts[static_cast<std::size_t>(e.v)];
    for (const auto& e : with_cut.remote_in)
      ++expect_counts[static_cast<std::size_t>(e.v)];
    EXPECT_EQ(with_cut.initial_counts, expect_counts);
    // Cross-patch lagged edges show up once as lagged_out (upwind side)
    // and once as lagged_in (downwind side).
    lagged_seen += static_cast<std::int64_t>(with_cut.lagged_out.size());
  }
  // Every cut face appears somewhere: as a lagged local edge (once) or as
  // a lagged_out (the matching lagged_in is the same face).
  EXPECT_EQ(lagged_seen, cut.stats.edges_cut);
}

}  // namespace
}  // namespace jsweep::graph
