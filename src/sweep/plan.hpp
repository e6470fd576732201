#pragma once

/// \file plan.hpp
/// The immutable half of the two-phase solver lifecycle.
///
/// A **SweepPlan** is everything about a sweep that depends only on
/// (mesh, partition, quadrature, plan knobs) and on nothing a solve
/// request brings along: the per-(patch, angle) dependency graphs with
/// their interned dense face-flux slots (SweepTaskData), the SCC cycle
/// cuts and the lagged-slot layout, the per-group kernels, and the
/// two-level LDCP scheduling priorities. Build it once with
/// SweepPlan::build(); it is deeply const afterwards and safely shareable
/// (std::shared_ptr<const SweepPlan>) between any number of SweepSessions,
/// including sessions on different threads — the provably-reusable
/// precomputation the paper's constant-mesh assumption (Sec. V-E) and the
/// Adams et al. optimal-sweeps argument both rest on.
///
/// Everything a request varies — sources, cross sections, workspaces,
/// engines, lagged *values* — lives in SweepSession (session.hpp).

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "comm/cluster.hpp"
#include "graph/priority.hpp"
#include "sn/multigroup.hpp"
#include "sweep/sweep_data.hpp"

namespace jsweep::sweep {

/// What to do when a sweep direction's dependence graph has cycles
/// (non-convex / twisted / perturbed unstructured meshes).
enum class CyclePolicy {
  /// Trust the mesh: skip detection entirely (the pre-cycle-aware
  /// behavior — a genuinely cyclic mesh then hangs the engines).
  Assume,
  /// Detect at build time and throw with SCC diagnostics instead of
  /// deadlocking at run time. The default.
  Error,
  /// Detect, cut a minimal feedback-edge set per direction and run the
  /// acyclic remainder; cut faces read the previous sweep's flux (lagged /
  /// old-iterate inputs) and converge over (source) iterations.
  Lag,
};

/// Human-readable name of a cycle policy ("assume" | "error" | "lag").
[[nodiscard]] std::string to_string(CyclePolicy p);
/// Inverse of to_string(CyclePolicy); throws CheckError on unknown names.
[[nodiscard]] CyclePolicy cycle_policy_from_string(const std::string& name);

/// Calibrated scheduling knobs a plan carries for the sessions executing
/// it — the auto-tuner's output (sweep/autotune.hpp). Sessions resolve
/// their SolveConfig's "auto" (-1) knobs against this; explicit SolveConfig
/// values and the JSWEEP_* environment overrides still win.
struct PlanTuning {
  /// Group-set width the tuner selected (informational once the plan is
  /// built — the width is structural and fixed at build time).
  int group_set_width = 1;
  bool work_stealing = true;  ///< steal between engine workers
  int steal_spin_rounds = 64;  ///< spin budget before a worker blocks
};

/// The structure-determining knobs of a plan — everything that shapes the
/// immutable task system. Execution-time knobs (engine choice, workers,
/// lag iteration control, tracing) live in SolveConfig (session.hpp).
struct PlanConfig {
  int cluster_grain = 64;  ///< max vertices per compute() batch (Sec. V-C)
  /// Orders a rank's programs (angle-major combined priority, Sec. V-D).
  graph::PriorityStrategy patch_priority = graph::PriorityStrategy::SLBD;
  /// Orders ready vertices within one program.
  graph::PriorityStrategy vertex_priority = graph::PriorityStrategy::SLBD;
  /// false = serialize all angles of a patch (the pre-JSweep model).
  bool patch_angle_parallelism = true;
  /// Cyclic-dependence handling (see CyclePolicy).
  CyclePolicy cycle_policy = CyclePolicy::Error;
  /// Multigroup plan: group-wise cross sections (must outlive the plan).
  /// Non-null builds the group-aware task system; sessions then solve via
  /// solve_multigroup() (or sweep_group() when `group_pipelining` is off).
  /// Null = the classic single-group plan.
  const sn::MultigroupXs* multigroup = nullptr;
  /// true (default): one engine run per multigroup pass sweeps all groups,
  /// (patch, angle, group) programs pipelined via activation streams.
  /// false: one engine run per group per pass with a global barrier
  /// between groups — the pipelining-ablation baseline. Both modes compute
  /// bitwise-identical fluxes.
  bool group_pipelining = true;
  /// Group-set width W (Adams-style groupset aggregation): pipelined
  /// multigroup plans build one program per (patch, angle, SET) where set
  /// s covers groups [s*W, min((s+1)*W, G)), cutting program count and
  /// activation traffic by W and batching the kernel inner loop across the
  /// set's groups (SIMD lanes). The scheme's in-scatter bound follows W in
  /// every mode (see sn::MultigroupOptions::group_set_width); W == 1 is
  /// the classic per-group system, bitwise unchanged. Requires multigroup;
  /// 1 <= W <= sn::kMaxGroupSetWidth.
  int group_set_width = 1;
  /// Calibrated scheduling knobs (normally the auto-tuner's pick,
  /// sweep/autotune.hpp) that sessions resolve their "auto" SolveConfig
  /// knobs against. Scheduling-only — does not shape the task system, but
  /// rides on the plan so every session of a tuned plan inherits the
  /// calibration. nullopt = untuned (engine defaults apply).
  std::optional<PlanTuning> tuning;
};

/// Where one SweepPlan::build spent its time, stage by stage, and what its
/// task data holds afterwards. The stages are disjoint and all lie inside
/// SweepPlan::build_seconds(); the remainder is bookkeeping (owner scan,
/// per-group kernels, lagged-slot registration, the program table).
struct PlanBuildStats {
  /// Per-direction cycle detection and feedback-edge cuts.
  double cycle_cut_seconds = 0.0;
  /// Inter-patch face list (once), per-direction patch digraphs and patch
  /// priorities.
  double patch_graph_seconds = 0.0;
  /// Per-(patch, angle) task graphs and reflecting-boundary coupling.
  double task_graph_seconds = 0.0;
  /// SweepTaskData construction: CSR, face-slot interning, vertex
  /// priorities.
  double task_data_seconds = 0.0;
  /// Heap bytes held by the plan's task data after the build.
  std::int64_t task_data_bytes = 0;

  /// Sum of the four stage timings.
  [[nodiscard]] double stage_seconds() const {
    return cycle_cut_seconds + patch_graph_seconds + task_graph_seconds +
           task_data_seconds;
  }
};

/// One engine-registrable program of the plan: index of its (shared,
/// group-independent) SweepTaskData, its group set, and its static
/// scheduling priority.
struct PlanProgram {
  std::size_t data_index = 0;  ///< into SweepPlan task data
  /// Group *set* this program sweeps for group-pipelined plans (set s =
  /// groups [s*W, min((s+1)*W, G))); always GroupId{0} otherwise.
  GroupId group{0};
  double priority = 0.0;       ///< combined (task, patch) priority
};

/// The immutable, shareable sweep plan (see \ref plan.hpp). All accessors
/// are const and thread-safe; `ps`, `disc`, `quad` (and `config.multigroup`
/// when set) must outlive the plan, which in turn must outlive every
/// session created from it (sessions hold the shared_ptr).
class SweepPlan {
 public:
  /// Build a structured-mesh plan on this rank. Collective in spirit —
  /// every rank must build the identical plan ( `patch_owner[p]` identical
  /// on all ranks); validation failures throw CheckError up front.
  [[nodiscard]] static std::shared_ptr<const SweepPlan> build(
      comm::Context& ctx, const mesh::StructuredMesh& m,
      const partition::PatchSet& ps, std::vector<RankId> patch_owner,
      const sn::StructuredDD& disc, const sn::Quadrature& quad,
      PlanConfig config = {});

  /// Unstructured-mesh plan.
  [[nodiscard]] static std::shared_ptr<const SweepPlan> build(
      comm::Context& ctx, const mesh::TetMesh& m,
      const partition::PatchSet& ps, std::vector<RankId> patch_owner,
      const sn::TetStep& disc, const sn::Quadrature& quad,
      PlanConfig config = {});

  SweepPlan(const SweepPlan&) = delete;             ///< non-copyable
  SweepPlan& operator=(const SweepPlan&) = delete;  ///< non-copyable
  ~SweepPlan();  ///< plain release; sessions keep the plan alive

  /// The knobs this plan was built with.
  [[nodiscard]] const PlanConfig& config() const { return config_; }
  /// Cell ↔ patch maps the plan was built over.
  [[nodiscard]] const partition::PatchSet& patches() const { return *ps_; }
  /// Owner rank of every patch (the engine route table).
  [[nodiscard]] const std::vector<RankId>& patch_owner() const {
    return owner_;
  }
  /// Ordinate set of the plan.
  [[nodiscard]] const sn::Quadrature& quadrature() const { return *quad_; }
  /// The base (single-group) sweep kernel the plan was built against.
  [[nodiscard]] const sn::Discretization& disc() const { return *disc_; }
  /// Ordinates per group.
  [[nodiscard]] int num_angles() const { return quad_->num_angles(); }
  /// Energy groups of the solve (1 for single-group plans).
  [[nodiscard]] int num_groups() const {
    return config_.multigroup != nullptr ? config_.multigroup->groups() : 1;
  }
  /// Program sets per (patch, angle): num_group_sets() when the plan is
  /// group-pipelined, 1 otherwise (single-group task system).
  [[nodiscard]] int groups_built() const { return groups_built_; }
  /// Group-set width W the plan was built with (1 unless configured).
  [[nodiscard]] int group_set_width() const {
    return config_.group_set_width;
  }
  /// Group sets of the solve: ceil(num_groups() / W). The final set is
  /// ragged when W does not divide G.
  [[nodiscard]] int num_group_sets() const {
    return (num_groups() + config_.group_set_width - 1) /
           config_.group_set_width;
  }
  /// Group g's kernel (σ_t varies by group); empty for single-group plans.
  [[nodiscard]] const sn::Discretization* group_disc(int g) const {
    return group_discs_[static_cast<std::size_t>(g)].get();
  }
  /// Task tags one session occupies: groups_built() · num_angles(). A
  /// service lane's tag offset is lane · tags_per_request().
  [[nodiscard]] int tags_per_request() const {
    return groups_built_ * quad_->num_angles();
  }

  /// Patches owned by the building rank, ascending.
  [[nodiscard]] const std::vector<PatchId>& local_patches() const {
    return local_patches_;
  }
  /// Engine-registrable programs of this rank (angle-major fixed order —
  /// the deterministic φ collection order).
  [[nodiscard]] const std::vector<PlanProgram>& programs() const {
    return programs_;
  }
  /// Structural task data of program slot `data_index`.
  [[nodiscard]] const SweepTaskData& task_data(std::size_t i) const {
    return *task_data_[i];
  }

  /// True when any direction needed a cycle cut.
  [[nodiscard]] bool has_cycles() const { return cyclic_angles_ > 0; }
  /// True when sessions carry lagged old-iterate values — cycle cuts or
  /// reflecting/albedo boundary faces — and must commit their store after
  /// every engine run.
  [[nodiscard]] bool has_lagged() const { return !lagged_template_.empty(); }
  /// Slot-layout template of the lagged (cycle-cut and boundary-coupled)
  /// face store: slots registered, values zero. Sessions copy it so every
  /// request starts from the vacuum initial iterate with the identical
  /// slot layout the task data was interned against.
  [[nodiscard]] const LaggedFluxStore& lagged_template() const {
    return lagged_template_;
  }
  /// Accumulated SCC diagnostics over all cut directions.
  [[nodiscard]] const graph::CycleStats& cycle_stats() const {
    return cycle_stats_;
  }
  /// Directions that needed a cut.
  [[nodiscard]] int cyclic_angles() const { return cyclic_angles_; }

  /// Wall time of the build (graphs, cuts, interning, priorities).
  [[nodiscard]] double build_seconds() const { return build_seconds_; }
  /// Per-stage split of build_seconds() and the task data's footprint.
  [[nodiscard]] const PlanBuildStats& build_stats() const {
    return build_stats_;
  }
  /// Rank the plan was built on (sessions must execute on the same rank).
  [[nodiscard]] RankId built_rank() const { return built_rank_; }
  /// Cluster size the plan was built for.
  [[nodiscard]] int built_size() const { return built_size_; }

 private:
  SweepPlan() = default;

  // Shared build core, parameterized over the mesh type via builder
  // lambdas.
  static std::shared_ptr<const SweepPlan> build_impl(
      comm::Context& ctx, std::int64_t mesh_cells,
      const partition::PatchSet& ps, std::vector<RankId> patch_owner,
      const sn::Discretization& disc, const sn::Quadrature& quad,
      PlanConfig config,
      const std::function<std::unique_ptr<sn::Discretization>(
          const sn::CellXs&)>& disc_builder,
      const std::function<graph::PatchTaskGraph(
          PatchId, const mesh::Vec3&, AngleId, const graph::CycleCut*)>&
          task_builder,
      const std::function<std::vector<graph::InterPatchFace>()>&
          patch_faces_builder,
      const std::function<graph::CycleCut(const mesh::Vec3&)>& cut_builder,
      const std::function<void(LaggedFluxStore&)>& boundary_registrar,
      const std::function<BoundaryCoupling(PatchId, AngleId,
                                           const LaggedFluxStore&)>&
          boundary_builder);

  PlanConfig config_;
  const partition::PatchSet* ps_ = nullptr;
  const sn::Quadrature* quad_ = nullptr;
  const sn::Discretization* disc_ = nullptr;
  std::vector<RankId> owner_;
  std::vector<PatchId> local_patches_;

  /// Per-group kernels (empty unless multigroup; index = group).
  std::vector<std::unique_ptr<sn::Discretization>> group_discs_;
  int groups_built_ = 1;

  LaggedFluxStore lagged_template_;
  std::vector<std::unique_ptr<SweepTaskData>> task_data_;
  std::vector<PlanProgram> programs_;

  graph::CycleStats cycle_stats_;
  int cyclic_angles_ = 0;
  double build_seconds_ = 0.0;
  PlanBuildStats build_stats_;
  RankId built_rank_{0};
  int built_size_ = 1;
};

}  // namespace jsweep::sweep
