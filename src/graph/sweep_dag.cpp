#include "graph/sweep_dag.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "support/check.hpp"

namespace jsweep::graph {

namespace {

/// Finalize shared parts: build the CSR local digraph and initial counts.
void finalize(PatchTaskGraph& g) {
  std::vector<std::pair<std::int32_t, std::int32_t>> edges;
  edges.reserve(g.local_edges.size());
  for (const auto& e : g.local_edges) edges.emplace_back(e.u, e.v);
  g.local = Digraph(g.num_vertices, edges);

  g.initial_counts.assign(static_cast<std::size_t>(g.num_vertices), 0);
  for (const auto& e : g.local_edges)
    ++g.initial_counts[static_cast<std::size_t>(e.v)];
  for (const auto& e : g.remote_in)
    ++g.initial_counts[static_cast<std::size_t>(e.v)];
}

/// Enumerate every downwind cell-to-cell dependence of the mesh for one
/// direction as fn(upwind_cell, downwind_cell, face). Single source of
/// truth for the grazing test and face convention shared by the global
/// digraph builder and the cycle analyzer.
template <class Fn>
void for_each_downwind_edge(const mesh::TetMesh& m, const mesh::Vec3& omega,
                            Fn&& fn) {
  for (std::int64_t c = 0; c < m.num_cells(); ++c) {
    for (const auto f : m.cell_faces(CellId{c})) {
      const mesh::Vec3 area = m.outward_area(f, CellId{c});
      if (dot(area, omega) <= kGrazingTol * norm(area)) continue;
      const CellId nb = m.across(f, CellId{c});
      if (!nb.valid()) continue;
      fn(static_cast<std::int32_t>(c), static_cast<std::int32_t>(nb.value()),
         f);
    }
  }
}

}  // namespace

PatchTaskGraph build_patch_task_graph(const mesh::StructuredMesh& m,
                                      const partition::PatchSet& ps,
                                      PatchId patch, const mesh::Vec3& omega,
                                      AngleId angle, const CycleCut* cut) {
  PatchTaskGraph g;
  g.patch = patch;
  g.angle = angle;
  const auto& cells = ps.cells(patch);
  g.num_vertices = static_cast<std::int32_t>(cells.size());
  const auto lagged = [&](std::int64_t face) {
    return cut != nullptr && cut->contains(face);
  };
  // The μ tests depend on the direction only: split the six faces into
  // outflow and inflow directions once (ascending FaceDir, the order the
  // per-cell loops below visit them in).
  std::array<mesh::FaceDir, 6> out_dirs{};
  std::array<mesh::FaceDir, 6> in_dirs{};
  int num_out = 0;
  int num_in = 0;
  for (int d = 0; d < 6; ++d) {
    const double mu =
        dot(mesh::kFaceNormals[static_cast<std::size_t>(d)], omega);
    if (mu > kGrazingTol)
      out_dirs[static_cast<std::size_t>(num_out++)] =
          static_cast<mesh::FaceDir>(d);
    if (mu < -kGrazingTol)
      in_dirs[static_cast<std::size_t>(num_in++)] =
          static_cast<mesh::FaceDir>(d);
  }
  g.local_edges.reserve(static_cast<std::size_t>(num_out) * cells.size());

  for (std::int32_t li = 0; li < g.num_vertices; ++li) {
    const CellId c = cells[static_cast<std::size_t>(li)];
    const mesh::Index3 at = m.index_of(c);
    // Outgoing faces of c.
    for (int k = 0; k < num_out; ++k) {
      const mesh::FaceDir dir = out_dirs[static_cast<std::size_t>(k)];
      const auto nb = m.neighbor(at, dir);
      if (!nb) continue;  // domain boundary
      const std::int64_t face = structured_face_id(c, dir);
      const PatchId nb_patch = ps.patch_of(*nb);
      if (nb_patch == patch) {
        (lagged(face) ? g.lagged_local : g.local_edges)
            .push_back({li, ps.local_index(*nb), face});
      } else {
        (lagged(face) ? g.lagged_out : g.remote_out)
            .push_back({li, face, nb_patch, nb->value()});
      }
    }
    // Incoming remote edges: upwind neighbors in other patches.
    for (int k = 0; k < num_in; ++k) {
      const mesh::FaceDir dir = in_dirs[static_cast<std::size_t>(k)];
      const auto nb = m.neighbor(at, dir);
      if (!nb) continue;
      const PatchId nb_patch = ps.patch_of(*nb);
      if (nb_patch == patch) continue;  // covered as a local edge of nb
      // The face, named from the upwind cell nb's outgoing direction.
      const std::int64_t face = structured_face_id(*nb, mesh::opposite(dir));
      (lagged(face) ? g.lagged_in : g.remote_in)
          .push_back({nb_patch, nb->value(), face, li});
    }
  }
  finalize(g);
  return g;
}

PatchTaskGraph build_patch_task_graph(const mesh::TetMesh& m,
                                      const partition::PatchSet& ps,
                                      PatchId patch, const mesh::Vec3& omega,
                                      AngleId angle, const CycleCut* cut) {
  PatchTaskGraph g;
  g.patch = patch;
  g.angle = angle;
  const auto& cells = ps.cells(patch);
  g.num_vertices = static_cast<std::int32_t>(cells.size());
  const auto lagged = [&](std::int64_t face) {
    return cut != nullptr && cut->contains(face);
  };

  for (std::int32_t li = 0; li < g.num_vertices; ++li) {
    const CellId c = cells[static_cast<std::size_t>(li)];
    // One pass over the cell's faces: each is an outflow face, an inflow
    // face or grazing. Out- and in-edges land in separate lists, so each
    // list keeps the face order of a dedicated pass.
    for (const auto f : m.cell_faces(c)) {
      const mesh::Vec3 area = m.outward_area(f, c);
      const double an = norm(area);
      const double flux = dot(area, omega);
      const bool outflow = flux > kGrazingTol * an;
      if (!outflow && flux >= -kGrazingTol * an) continue;  // grazing
      const CellId nb = m.across(f, c);
      if (!nb.valid()) continue;  // domain boundary
      const PatchId nb_patch = ps.patch_of(nb);
      if (outflow) {
        if (nb_patch == patch) {
          (lagged(f) ? g.lagged_local : g.local_edges)
              .push_back({li, ps.local_index(nb), f});
        } else {
          (lagged(f) ? g.lagged_out : g.remote_out)
              .push_back({li, f, nb_patch, nb.value()});
        }
      } else if (nb_patch != patch) {
        (lagged(f) ? g.lagged_in : g.remote_in)
            .push_back({nb_patch, nb.value(), f, li});
      }
    }
  }
  finalize(g);
  return g;
}

CycleCut compute_cycle_cut(const mesh::TetMesh& m, const mesh::Vec3& omega) {
  JSWEEP_CHECK_MSG(m.num_cells() < (1LL << 31),
                   "cycle analysis limited to 2^31 cells");
  // Whole-mesh edge list with the carrying face kept alongside, so cut
  // edges map straight back to face ids.
  std::vector<std::pair<std::int32_t, std::int32_t>> edges;
  std::vector<std::int64_t> edge_face;
  for_each_downwind_edge(
      m, omega, [&](std::int32_t u, std::int32_t v, std::int64_t f) {
        edges.emplace_back(u, v);
        edge_face.push_back(f);
      });
  CycleCut cut;
  // Cheap acyclicity test first: the common case pays one Kahn pass and no
  // SCC machinery.
  if (Digraph(static_cast<std::int32_t>(m.num_cells()), edges).is_acyclic())
    return cut;
  const CycleBreak broken =
      break_cycles(static_cast<std::int32_t>(m.num_cells()), edges);
  cut.stats = broken.stats;
  for (std::size_t e = 0; e < edges.size(); ++e)
    if (broken.cut[e]) cut.lagged_faces.insert(edge_face[e]);
  return cut;
}

CycleCut compute_cycle_cut(const mesh::StructuredMesh& m,
                           const mesh::Vec3& omega) {
  // An orthogonal structured grid orders totally along each axis sign, so
  // no direction can induce a cycle — nothing to analyze.
  (void)m;
  (void)omega;
  return {};
}

Digraph build_patch_level_digraph(const std::vector<PatchTaskGraph>& graphs,
                                  int num_patches) {
  std::vector<std::pair<std::int32_t, std::int32_t>> edges;
  for (const auto& g : graphs) {
    for (const auto& e : g.remote_out) {
      edges.emplace_back(g.patch.value(), e.dst_patch.value());
    }
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  return Digraph(num_patches, edges);
}

std::vector<InterPatchFace> inter_patch_faces(const mesh::StructuredMesh& m,
                                              const partition::PatchSet& ps) {
  // Visit each face once, from its low-side cell (the +x/+y/+z faces), and
  // keep one entry per (from, to, axis): every face of such a triple gives
  // the same μ test, so the list stays as small as the patch adjacency.
  std::vector<InterPatchFace> faces;
  std::vector<std::array<std::int32_t, 3>> seen;
  for (std::int64_t c = 0; c < m.num_cells(); ++c) {
    const PatchId pc = ps.patch_of(CellId{c});
    const mesh::Index3 at = m.index_of(CellId{c});
    for (int axis = 0; axis < 3; ++axis) {
      const auto dir = static_cast<mesh::FaceDir>(2 * axis + 1);
      const auto nb = m.neighbor(at, dir);
      if (!nb) continue;
      const PatchId pn = ps.patch_of(*nb);
      if (pn != pc) seen.push_back({pc.value(), pn.value(), 2 * axis + 1});
    }
  }
  std::sort(seen.begin(), seen.end());
  seen.erase(std::unique(seen.begin(), seen.end()), seen.end());
  faces.reserve(seen.size());
  for (const auto& [from, to, d] : seen)
    faces.push_back(
        {from, to, mesh::kFaceNormals[static_cast<std::size_t>(d)]});
  return faces;
}

std::vector<InterPatchFace> inter_patch_faces(const mesh::TetMesh& m,
                                              const partition::PatchSet& ps) {
  std::vector<InterPatchFace> faces;
  for (std::int64_t f = 0; f < m.num_faces(); ++f) {
    const mesh::TetFace& face = m.face(f);
    if (face.is_boundary()) continue;
    const PatchId po = ps.patch_of(CellId{face.owner});
    const PatchId pn = ps.patch_of(CellId{face.neighbor});
    if (po != pn) faces.push_back({po.value(), pn.value(), face.area_vec});
  }
  return faces;
}

Digraph build_patch_digraph(const std::vector<InterPatchFace>& faces,
                            int num_patches, const mesh::Vec3& omega) {
  // The same test as the cell graphs, from either side of the face: the
  // neighbor's outward area is the exact negation of the owner's, so
  // `flux < -tol·|a|` is the neighbor's outflow test.
  std::vector<std::pair<std::int32_t, std::int32_t>> edges;
  for (const auto& f : faces) {
    const double tol = kGrazingTol * norm(f.area);
    const double flux = dot(f.area, omega);
    if (flux > tol) edges.emplace_back(f.from, f.to);
    if (flux < -tol) edges.emplace_back(f.to, f.from);
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  return Digraph(num_patches, edges);
}

Digraph build_global_cell_digraph(const mesh::StructuredMesh& m,
                                  const mesh::Vec3& omega,
                                  const CycleCut* cut) {
  JSWEEP_CHECK_MSG(m.num_cells() < (1LL << 31),
                   "global digraph limited to 2^31 cells");
  std::vector<std::pair<std::int32_t, std::int32_t>> edges;
  for (std::int64_t c = 0; c < m.num_cells(); ++c) {
    for (int d = 0; d < 6; ++d) {
      const double mu =
          dot(mesh::kFaceNormals[static_cast<std::size_t>(d)], omega);
      if (mu <= kGrazingTol) continue;
      const auto nb = m.neighbor(CellId{c}, static_cast<mesh::FaceDir>(d));
      if (!nb) continue;
      if (cut != nullptr &&
          cut->contains(structured_face_id(CellId{c},
                                           static_cast<mesh::FaceDir>(d))))
        continue;
      edges.emplace_back(static_cast<std::int32_t>(c),
                         static_cast<std::int32_t>(nb->value()));
    }
  }
  return Digraph(static_cast<std::int32_t>(m.num_cells()), edges);
}

Digraph build_global_cell_digraph(const mesh::TetMesh& m,
                                  const mesh::Vec3& omega,
                                  const CycleCut* cut) {
  JSWEEP_CHECK_MSG(m.num_cells() < (1LL << 31),
                   "global digraph limited to 2^31 cells");
  std::vector<std::pair<std::int32_t, std::int32_t>> edges;
  for_each_downwind_edge(
      m, omega, [&](std::int32_t u, std::int32_t v, std::int64_t f) {
        if (cut != nullptr && cut->contains(f)) return;
        edges.emplace_back(u, v);
      });
  return Digraph(static_cast<std::int32_t>(m.num_cells()), edges);
}

}  // namespace jsweep::graph
