#pragma once

/// \file sweep_dag.hpp
/// Sweep dependency graphs: for a patch p and sweeping direction Ω, the
/// induced subgraph G_{p,t} of the paper (Sec. V-A) — vertices are the
/// patch's local cells, edges point from upwind to downwind cells, and
/// cross-patch dependencies are recorded as remote-in / remote-out edge
/// lists that the runtime turns into streams.

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "graph/digraph.hpp"
#include "graph/scc.hpp"
#include "mesh/structured_mesh.hpp"
#include "mesh/tet_mesh.hpp"
#include "partition/patch_set.hpp"
#include "support/ids.hpp"

namespace jsweep::graph {

/// Dependency edge inside a patch: local vertex u feeds local vertex v
/// through mesh face `face`.
struct LocalEdge {
  std::int32_t u;     ///< upwind local vertex
  std::int32_t v;     ///< downwind local vertex
  std::int64_t face;  ///< mesh face carrying the flux
};

/// Dependency entering the patch: remote cell `src_cell` (owned by
/// `src_patch`) feeds local vertex v through `face`.
struct RemoteInEdge {
  PatchId src_patch;      ///< patch owning the upwind cell
  std::int64_t src_cell;  ///< global id of the upwind cell
  std::int64_t face;      ///< mesh face carrying the flux
  std::int32_t v;         ///< downwind local vertex
};

/// Dependency leaving the patch: local vertex u feeds remote cell
/// `dst_cell` (owned by `dst_patch`) through `face`.
struct RemoteOutEdge {
  std::int32_t u;         ///< upwind local vertex
  std::int64_t face;      ///< mesh face carrying the flux
  PatchId dst_patch;      ///< patch owning the downwind cell
  std::int64_t dst_cell;  ///< global id of the downwind cell
};

/// Face id encoding for structured meshes, where faces have no global
/// table: face = cell*6 + dir, with `cell` the cell on the *low* side of
/// the face... — we instead encode from the upwind cell's perspective:
/// face = upwind_cell*6 + outgoing FaceDir. Helpers below decode.
[[nodiscard]] inline std::int64_t structured_face_id(CellId upwind,
                                                     mesh::FaceDir out_dir) {
  return upwind.value() * 6 + static_cast<int>(out_dir);
}
/// The upwind cell encoded in a structured face id.
[[nodiscard]] inline CellId structured_face_cell(std::int64_t face) {
  return CellId{face / 6};
}
/// The outgoing face direction encoded in a structured face id.
[[nodiscard]] inline mesh::FaceDir structured_face_dir(std::int64_t face) {
  return static_cast<mesh::FaceDir>(face % 6);
}

/// The full dependency structure of one (patch, angle) task.
///
/// Lagged edges: when the task graph was built against a CycleCut, edges
/// whose face lies in the cut are recorded in the `lagged_*` lists instead
/// of the dependency lists above — they never count toward `initial_counts`
/// and never carry streams. Their face flux is read from the previous
/// sweep's value (old iterate) and the freshly computed value is staged for
/// the next sweep, which makes the remaining graph acyclic while keeping
/// results independent of execution order.
struct PatchTaskGraph {
  PatchId patch;                  ///< the patch this graph describes
  AngleId angle;                  ///< the sweep direction's angle id
  std::int32_t num_vertices = 0;  ///< = patch's local cell count
  Digraph local;                  ///< intra-patch dependencies
  std::vector<LocalEdge> local_edges;    ///< intra-patch edges with faces
  std::vector<RemoteInEdge> remote_in;   ///< dependencies entering the patch
  std::vector<RemoteOutEdge> remote_out; ///< dependencies leaving the patch
  /// Initial dependency count per local vertex (local + remote upwind).
  std::vector<std::int32_t> initial_counts;
  /// Cut (lagged) edges, excluded from the dependency structure above.
  std::vector<LocalEdge> lagged_local;
  std::vector<RemoteInEdge> lagged_in;   ///< lagged edges entering the patch
  std::vector<RemoteOutEdge> lagged_out; ///< lagged edges leaving the patch

  /// Work units this task retires (one per local cell).
  [[nodiscard]] std::int64_t total_work() const { return num_vertices; }
  /// Whether any edge of this task was cut (lagged).
  [[nodiscard]] bool has_lagged() const {
    return !lagged_local.empty() || !lagged_in.empty() ||
           !lagged_out.empty();
  }
};

/// The feedback edges of one sweep direction, identified by the face that
/// carries the flux (faces are globally unique per direction: a face moves
/// flux one way only). Computed identically on every rank from the global
/// cell digraph, so all ranks agree on what is lagged.
struct CycleCut {
  std::unordered_set<std::int64_t> lagged_faces;  ///< faces with lagged flux
  CycleStats stats;                               ///< SCC / cut diagnostics

  /// Whether the direction needed no cutting.
  [[nodiscard]] bool empty() const { return lagged_faces.empty(); }
  /// Whether `face` is a cut (lagged) face.
  [[nodiscard]] bool contains(std::int64_t face) const {
    return lagged_faces.count(face) != 0;
  }
};

/// Detect and break cycles of the whole-mesh sweep digraph for direction
/// `omega`. Returns the faces of a deterministic feedback-edge set (empty
/// when the direction is acyclic) plus SCC diagnostics. The structured
/// overload is a free no-op: an orthogonal grid's sweep graph is acyclic
/// for every direction.
CycleCut compute_cycle_cut(const mesh::TetMesh& m, const mesh::Vec3& omega);
/// \copydoc compute_cycle_cut(const mesh::TetMesh&, const mesh::Vec3&)
CycleCut compute_cycle_cut(const mesh::StructuredMesh& m,
                           const mesh::Vec3& omega);

/// Tolerance for grazing faces: |Ω·n̂| below this treats the face as
/// carrying no flux (no dependency either way).
inline constexpr double kGrazingTol = 1e-12;

/// Build G_{p,t} for a structured mesh. A non-null `cut` diverts cut faces
/// into the lagged edge lists.
PatchTaskGraph build_patch_task_graph(const mesh::StructuredMesh& m,
                                      const partition::PatchSet& ps,
                                      PatchId patch, const mesh::Vec3& omega,
                                      AngleId angle,
                                      const CycleCut* cut = nullptr);

/// Build G_{p,t} for a tetrahedral mesh.
PatchTaskGraph build_patch_task_graph(const mesh::TetMesh& m,
                                      const partition::PatchSet& ps,
                                      PatchId patch, const mesh::Vec3& omega,
                                      AngleId angle,
                                      const CycleCut* cut = nullptr);

/// Patch-level digraph for one direction: vertex = patch, edge p→q iff any
/// cell of p feeds any cell of q. Input is the per-patch task graphs of
/// that direction (indexed by patch id). Used by patch-priority strategies.
Digraph build_patch_level_digraph(const std::vector<PatchTaskGraph>& graphs,
                                  int num_patches);

/// A mesh face between cells of two different patches, as the patch-level
/// digraphs see it: `area` is the face's area vector pointing out of the
/// cell in patch `from` (a unit normal on structured meshes).
struct InterPatchFace {
  std::int32_t from;  ///< patch of the cell `area` points out of
  std::int32_t to;    ///< patch of the cell across the face
  mesh::Vec3 area;    ///< area vector, outward from `from`'s cell
};

/// Every inter-patch face of a partitioned structured mesh, listed once per
/// (from, to, axis): all faces of such a triple share one normal, so the
/// list is as small as the patch adjacency. Direction-independent: a plan
/// computes it once and builds every direction's patch digraph from it.
std::vector<InterPatchFace> inter_patch_faces(const mesh::StructuredMesh& m,
                                              const partition::PatchSet& ps);
/// Tet-mesh overload of \ref inter_patch_faces: one entry per interior
/// face whose two cells lie in different patches (area outward from the
/// face owner).
std::vector<InterPatchFace> inter_patch_faces(const mesh::TetMesh& m,
                                              const partition::PatchSet& ps);

/// Patch-level digraph for direction `omega` from a precomputed
/// inter-patch face list: edge p→q iff some face carries flux from p to q
/// (same grazing test as the cell graphs). Edges are deduplicated.
Digraph build_patch_digraph(const std::vector<InterPatchFace>& faces,
                            int num_patches, const mesh::Vec3& omega);

/// Whole-mesh sweep digraph over (cell) vertices for one direction —
/// O(cells) memory; used by tests and the serial reference solver to
/// validate acyclicity and ordering. A non-null `cut` omits the cut faces'
/// edges (the graph is then acyclic by construction).
Digraph build_global_cell_digraph(const mesh::StructuredMesh& m,
                                  const mesh::Vec3& omega,
                                  const CycleCut* cut = nullptr);
/// Tet-mesh overload of \ref build_global_cell_digraph: same contract,
/// with edges induced by the tet face normals.
Digraph build_global_cell_digraph(const mesh::TetMesh& m,
                                  const mesh::Vec3& omega,
                                  const CycleCut* cut = nullptr);

}  // namespace jsweep::graph
