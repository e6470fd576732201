#pragma once

/// \file sweep_data.hpp
/// Immutable per-(patch, angle) sweep data shared by every engine and every
/// source iteration: the dependency graph in per-vertex CSR form (remote
/// edges with their face ids), vertex priorities, and the *dense face-flux
/// index* — every face this task can touch (upwind in, interior, downwind
/// out, lagged) resolved to a compact workspace slot so the kernels and the
/// stream paths never hash at run time. The slots are interned at build
/// time by a flat FaceSlotInterner. Building this once and reusing it
/// across iterations mirrors the paper's constant-mesh assumption
/// (Sec. V-E).

#include <memory>
#include <utility>
#include <vector>

#include "graph/priority.hpp"
#include "graph/sweep_dag.hpp"
#include "partition/patch_set.hpp"
#include "sn/discretization.hpp"
#include "sn/face_flux.hpp"
#include "sn/quadrature.hpp"
#include "support/ids.hpp"
#include "sweep/lagged_flux.hpp"

namespace jsweep::sweep {

/// Task tag of a sweep program along the (angle, group) axes, group-major:
/// tag = group · num_angles + angle. A single-group sweep's tag is the
/// plain angle id, so every pre-multigroup key, trace and route stays
/// unchanged; a G-group solve runs G·A programs per patch, one per
/// (angle, group).
[[nodiscard]] inline TaskTag sweep_task_tag(AngleId a, GroupId g,
                                            int num_angles) {
  return TaskTag{g.value() * num_angles + a.value()};
}
[[nodiscard]] inline AngleId sweep_task_angle(TaskTag t, int num_angles) {
  return AngleId{t.value() % num_angles};
}
[[nodiscard]] inline GroupId sweep_task_group(TaskTag t, int num_angles) {
  return GroupId{t.value() / num_angles};
}

/// Request-lane tag namespace for the sweep service: lane l of a plan with
/// G built groups and A angles owns tags [l·G·A, (l+1)·G·A), i.e. one full
/// (angle, group) tag block per concurrently batched solve request. Face
/// streams copy the source program's tag, so every stream a lane emits
/// stays inside that lane's namespace without any per-item routing work —
/// lane 0 is the plain (offset-free) solver namespace.
[[nodiscard]] inline TaskTag lane_task_tag(TaskTag base, int lane,
                                           int tags_per_lane) {
  return TaskTag{lane * tags_per_lane + base.value()};
}
/// Inverse of lane_task_tag: which request lane a tag belongs to.
[[nodiscard]] inline int lane_of_task(TaskTag t, int tags_per_lane) {
  return t.value() / tags_per_lane;
}

/// A local downwind edge of one vertex.
struct OutLocal {
  std::int32_t w;  ///< downwind local vertex
};

/// A remote downwind edge, fully resolved for the hot path: the carrying
/// face's workspace slot and the destination patch's dense index into the
/// per-destination out-item buffers.
struct RemoteOut {
  std::int64_t dst_cell;  ///< destination cell (global id)
  std::int64_t face;      ///< mesh face id carrying the flux
  std::int32_t slot;      ///< workspace slot of `face`
  std::int32_t dst;       ///< destination index (see destination())
};

/// A lagged face (cycle-cut or boundary-coupled) as the programs see it:
/// workspace slot paired with its LaggedFluxStore slot. `scale` multiplies
/// the stored old-iterate value on every seed/restore — 1.0 for cycle cuts
/// (bitwise-neutral) and the side's albedo for reflecting-boundary reads.
struct LaggedSlot {
  std::int32_t ws_slot;     ///< dense FaceFluxWorkspace slot of the face
  std::int32_t store_slot;  ///< LaggedFluxStore slot (group-strided)
  double scale = 1.0;       ///< seed multiplier (albedo; 1.0 = neutral)
};

/// A reflecting/albedo boundary face this task *reads*: angle m's incoming
/// value at the face is `scale ×` the mirror angle's previous-sweep outflow,
/// seeded from the mirror angle's store slot before any vertex computes.
struct BoundaryRead {
  std::int64_t face;        ///< global boundary face id (incoming side)
  std::int32_t store_slot;  ///< mirror angle's LaggedFluxStore slot
  double scale;             ///< the side's albedo
};

/// A reflecting/albedo boundary face vertex `v` *writes*: its freshly
/// computed outflow is staged into this angle's own store slot for the next
/// sweep's mirror-angle seed.
struct BoundaryWrite {
  std::int32_t v;           ///< local writer vertex
  std::int64_t face;        ///< global boundary face id (outgoing side)
  std::int32_t store_slot;  ///< this angle's LaggedFluxStore slot
};

/// Reflecting/albedo boundary coupling of one (patch, angle) task, store
/// slots pre-resolved by the plan build (sweep/plan.cpp). The coupling is
/// always lagged one sweep — it adds no graph edges, so schedules and
/// bitwise determinism are untouched; seeds/stages ride the exact
/// LaggedFluxStore protocol cycle cuts use.
struct BoundaryCoupling {
  std::vector<BoundaryRead> reads;    ///< incoming faces to seed
  std::vector<BoundaryWrite> writes;  ///< outgoing faces to stage
  /// True when the coupling carries no faces (all-vacuum patch boundary).
  [[nodiscard]] bool empty() const { return reads.empty() && writes.empty(); }
};

/// Build-time scratch for the dense face-flux index: a flat
/// open-addressing map from global face id to workspace slot that hands
/// out slots in first-touch order. It allocates no per-entry nodes: one
/// bucket array, grown to the largest task of a plan build and reused by
/// every task of that build. A plan build owns one interner, so ranks
/// building concurrently in threads never share one. The table is sized
/// by the task (the faces its cells touch), never by the global mesh.
class FaceSlotInterner {
 public:
  /// Start an empty map sized for about `expected_faces` entries. Every
  /// task calls this before its first intern(), so whatever an earlier
  /// task left behind — also one whose build threw — is discarded here.
  void reset(std::int64_t expected_faces);
  /// Slot of `face`, assigning the next free slot on first touch.
  std::int32_t intern(std::int64_t face);
  /// Slot of an interned face, or sn::CellFaceSlots::kNone.
  [[nodiscard]] std::int32_t find(std::int64_t face) const;
  /// Faces interned since the last reset() (= slots handed out).
  [[nodiscard]] std::int32_t size() const { return size_; }

 private:
  struct Bucket {
    std::int64_t face;
    std::int32_t slot;
    std::uint32_t epoch;  ///< live iff == epoch_
  };
  [[nodiscard]] std::size_t home(std::int64_t face) const {
    // Fibonacci hashing: the top bits of face · 2^64/φ.
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(face) * 0x9E3779B97F4A7C15ULL) >> shift_);
  }
  void grow();

  std::vector<Bucket> buckets_;
  std::size_t mask_ = 0;
  int shift_ = 64;
  std::uint32_t epoch_ = 0;
  std::int32_t size_ = 0;
};

/// Immutable per-(patch, angle) sweep structure (see \ref sweep_data.hpp):
/// the dependency graph in CSR form plus the dense face-flux index. Shared
/// read-only by every group's program of that (patch, angle) and by every
/// engine — built once, reused across all iterations. The PatchTaskGraph
/// it is built from is consumed: only the CSR, the initial dependency
/// counts, the priorities and the resolved slots are kept.
class SweepTaskData {
 public:
  /// `disc`, `ps` and `lagged` must outlive the task data; `lagged` may be
  /// null iff the graph has no lagged edges and `boundary` is null/empty.
  /// `boundary` (optional, copied) adds the task's reflecting/albedo
  /// boundary faces to the lagged seed/stage lists. `interner` (optional)
  /// is the build's reusable interning scratch; null uses a private one.
  SweepTaskData(graph::PatchTaskGraph g,
                graph::PriorityStrategy vertex_strategy,
                const sn::Discretization& disc,
                const partition::PatchSet& ps, const sn::Ordinate& ordinate,
                const LaggedFluxStore* lagged = nullptr,
                const BoundaryCoupling* boundary = nullptr,
                FaceSlotInterner* interner = nullptr);

  /// Graph-only form for consumers that replay the DAG without sweeping
  /// (e.g. the simulator's transfer-curve extraction): no dense face index
  /// is built, so the task cannot back a sweep program.
  SweepTaskData(graph::PatchTaskGraph g,
                graph::PriorityStrategy vertex_strategy);

  /// Patch this task sweeps.
  [[nodiscard]] PatchId patch() const { return patch_; }
  /// Sweep direction (ordinate id) of this task.
  [[nodiscard]] AngleId angle() const { return angle_; }
  /// Local vertices (= cells of the patch).
  [[nodiscard]] std::int32_t num_vertices() const { return num_vertices_; }

  /// Local downwind edges of vertex v.
  template <class Fn>
  void for_out_local(std::int32_t v, Fn&& fn) const {
    for (auto e = out_off_[static_cast<std::size_t>(v)];
         e < out_off_[static_cast<std::size_t>(v) + 1]; ++e)
      fn(out_[static_cast<std::size_t>(e)]);
  }

  /// Remote downwind edges of vertex v (slot-resolved).
  template <class Fn>
  void for_out_remote(std::int32_t v, Fn&& fn) const {
    for (auto e = rout_off_[static_cast<std::size_t>(v)];
         e < rout_off_[static_cast<std::size_t>(v) + 1]; ++e)
      fn(rout_[static_cast<std::size_t>(e)]);
  }

  /// Per-vertex initial dependency counts (local upwind + remote-in).
  [[nodiscard]] const std::vector<std::int32_t>& initial_counts() const {
    return initial_counts_;
  }
  /// Scheduling priority of vertex v within this program.
  [[nodiscard]] double vertex_priority(std::int32_t v) const {
    return vprio_[static_cast<std::size_t>(v)];
  }
  /// Total remote downwind edges (= max stream items per sweep).
  [[nodiscard]] std::int64_t num_remote_out() const {
    return static_cast<std::int64_t>(rout_.size());
  }

  // --- Dense face-flux index --------------------------------------------
  /// Workspace size this task needs (every touchable face has one slot).
  [[nodiscard]] std::int64_t num_flux_slots() const { return num_slots_; }
  /// Precomputed slots of the faces vertex v's cell touches.
  [[nodiscard]] const sn::CellFaceSlots& cell_slots(std::int32_t v) const {
    return cell_slots_[static_cast<std::size_t>(v)];
  }
  /// Slot of an incoming remote face (stream input path; binary search
  /// over the sorted remote-in face list — no hashing).
  [[nodiscard]] std::int32_t slot_of_remote_in(std::int64_t face) const;

  // --- Stream destinations ----------------------------------------------
  /// Distinct downwind patches, ascending by id; RemoteOut::dst indexes
  /// this list.
  [[nodiscard]] std::int32_t num_destinations() const {
    return static_cast<std::int32_t>(dst_patches_.size());
  }
  /// Destination patch at index d (ascending patch id).
  [[nodiscard]] PatchId destination(std::int32_t d) const {
    return dst_patches_[static_cast<std::size_t>(d)];
  }
  /// Upper bound of items ever buffered for destination d in one sweep
  /// (= its remote-edge count): the reserve() size that makes per-batch
  /// buffering allocation-free after the first sweep.
  [[nodiscard]] std::int64_t destination_capacity(std::int32_t d) const {
    return dst_capacity_[static_cast<std::size_t>(d)];
  }

  // --- Lagged (cycle-cut / boundary-coupled) structure ------------------
  /// True when this task carries lagged faces — cycle-cut edges in the
  /// graph or reflecting/albedo boundary faces — so programs must seed and
  /// stage against the LaggedFluxStore.
  [[nodiscard]] bool has_lagged() const { return any_lagged_; }
  /// Faces whose old-iterate value must be seeded into the workspace
  /// before any vertex computes (read side of every lagged edge this patch
  /// sees), resolved to (workspace, store) slot pairs.
  [[nodiscard]] const std::vector<LaggedSlot>& lagged_seed_slots() const {
    return lagged_seed_;
  }
  /// Lagged faces *written* by vertex v (the upwind side of a cut edge):
  /// their freshly computed flux must be staged for the next sweep and the
  /// old value restored, so downstream reads stay order-independent.
  template <class Fn>
  void for_lagged_writes(std::int32_t v, Fn&& fn) const {
    if (lag_off_.empty()) return;  // no lagged writes: CSR not kept
    for (auto e = lag_off_[static_cast<std::size_t>(v)];
         e < lag_off_[static_cast<std::size_t>(v) + 1]; ++e)
      fn(lag_slots_[static_cast<std::size_t>(e)]);
  }

  /// Heap bytes this task data holds (vector capacities plus the object).
  [[nodiscard]] std::int64_t memory_bytes() const;

  /// Process-wide count of SweepTaskData instances ever constructed. Task
  /// graphs and the dense face-slot interning are built only here, so this
  /// counter staying flat across solves proves a shared SweepPlan is being
  /// reused rather than rebuilt (plan-reuse allocation-gate tests).
  [[nodiscard]] static std::int64_t total_created();

 private:
  SweepTaskData(graph::PatchTaskGraph g,
                graph::PriorityStrategy vertex_strategy,
                const sn::Discretization* disc,
                const partition::PatchSet* ps, const sn::Ordinate* ordinate,
                const LaggedFluxStore* lagged,
                const BoundaryCoupling* boundary,
                FaceSlotInterner* interner);

  PatchId patch_;
  AngleId angle_;
  std::int32_t num_vertices_ = 0;
  std::vector<std::int32_t> initial_counts_;
  std::vector<std::int32_t> out_off_;
  std::vector<OutLocal> out_;
  std::vector<std::int32_t> rout_off_;
  std::vector<RemoteOut> rout_;
  std::vector<double> vprio_;

  std::int64_t num_slots_ = 0;
  std::vector<sn::CellFaceSlots> cell_slots_;
  std::vector<std::pair<std::int64_t, std::int32_t>> remote_in_slots_;
  std::vector<PatchId> dst_patches_;
  std::vector<std::int64_t> dst_capacity_;

  std::vector<LaggedSlot> lagged_seed_;
  std::vector<std::int32_t> lag_off_;  ///< empty when no vertex writes one
  std::vector<LaggedSlot> lag_slots_;
  bool any_lagged_ = false;
};

}  // namespace jsweep::sweep
