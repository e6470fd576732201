#pragma once

/// \file group_pipeline.hpp
/// Rank-local coordination of group-pipelined multigroup sweeps — the
/// runtime that turns one engine run into a full multigroup sweep *pass*
/// over (patch, angle, group-set) programs.
///
/// ## Why pipelining works
///
/// In the sweep-pass formulation (sn/multigroup.hpp), group g's source
/// needs the pass's fresh flux of earlier groups — but in-scatter is
/// *cell-local*: q_g(c) depends only on φ_{g'}(c) of the same cell. So the
/// moment patch p has finished a group set (all angles retired), the next
/// set's sources on p are fully determined and p's next-set programs may
/// start, regardless of how far other patches have progressed. Consecutive
/// sets' sweeps overlap instead of being barrier-separated — the same
/// idle-hiding argument the data-driven engine makes for patch-angle
/// parallelism, applied along the energy axis.
///
/// ## Group sets
///
/// At set width W (PlanConfig::group_set_width), set s covers the groups
/// [s·W, min((s+1)·W, G)) — the final set is ragged when W ∤ G. One
/// program sweeps all of a set's groups at once (sn::Discretization::
/// sweep_cell_set, SIMD across the lanes), so gating, activation streams
/// and the counters here are all per (patch, SET): program count and
/// activation traffic drop by W. Within a set the groups cannot see each
/// other's fresh flux; that downscatter is lagged one pass by the solve
/// (sn::MultigroupOptions::group_set_width) and the fresh Gauss-Seidel
/// bound drops from g to set_base(g). W == 1 degenerates bitwise to the
/// per-group pipeline.
///
/// ## Protocol
///
/// Programs carry their set id; sets > 0 are registered inactive and
/// *gated*: they buffer incoming face streams but compute nothing until an
/// empty-payload **activation stream** arrives. When a program retires its
/// last vertex it calls on_program_complete(); the last angle of (p, s)
///   1. accumulates patch p's per-group scalar fluxes φ_g for each lane g
///      of the set (ascending angle order — deterministic),
///   2. forms set s+1's sources on p's cells: for each target group t of
///      set s+1, q_t(c) = q_base-part(c) + Σ_{g' < (s+1)·W, ascending}
///      inscatter_term(g'→t) — bitwise-identical to the width-aware
///      serial reference pass,
///   3. emits one activation stream per (p, angle, s+1) program.
/// Thread safety: the per-(patch, set) remaining-angle counters are
/// atomics (BSP runs sibling programs concurrently); the acq_rel
/// fetch_sub makes every sibling's φ writes visible to the last
/// completer, and the engines' stream delivery orders the q writes before
/// any activated reader runs. Each cell is written by exactly one patch,
/// so no two gate completions ever race on a q or φ entry.
///
/// One pass = begin_pass(q_base) → one engine run → collect per-group φ
/// (each rank contributes its local patches; the solver allreduces).
///
/// ## Source-tail overlap
///
/// The last completer of (p, s) additionally precomputes the NEXT pass's
/// base source for the set's own groups on p's cells — emission density
/// plus the lagged within-set downscatter, both functions of the φ it just
/// accumulated — into next_pass_q(). That is exactly the serial per-group
/// formation solve_multigroup_sweeps performs between passes
/// (sn::MultigroupOptions::q_base_provider), moved onto workers that would
/// otherwise idle while the sweep's tail drains.
/// Bitwise-identical by construction: each rank's local pre-allreduce φ
/// equals the global φ on its own cells (every other rank contributes
/// exactly 0.0 and the allreduce folds in rank order), the per-cell
/// accumulation order (emission, then `from` ascending) matches the serial
/// loop, and only locally-owned cells of next_pass_q() are ever consumed.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/stream.hpp"
#include "partition/patch_set.hpp"
#include "sn/discretization.hpp"
#include "sn/multigroup.hpp"
#include "support/ids.hpp"

namespace jsweep::metrics {
class Counter;
class Gauge;
class Histogram;
class Registry;
}  // namespace jsweep::metrics

namespace jsweep::sweep {

/// Rank-local multigroup gate/source coordinator (see
/// \ref group_pipeline.hpp for the why and the protocol).
class GroupPipeline {
 public:
  /// `xs`, `ps` and the discretizations must outlive the pipeline.
  /// `group_discs[g]` is the kernel for group g (σ_t differs per group).
  /// `set_width` is the group-set width W (1 = per-group pipeline).
  /// `lane_tag_offset` shifts the activation streams' task tags into a
  /// session's request-lane namespace (lane_task_tag in sweep_data.hpp);
  /// 0 (the default) is the plain solver namespace.
  GroupPipeline(const sn::MultigroupXs& xs, const partition::PatchSet& ps,
                int num_angles,
                std::vector<const sn::Discretization*> group_discs,
                int set_width = 1, int lane_tag_offset = 0);

  /// Energy groups coordinated by this pipeline.
  [[nodiscard]] int num_groups() const { return xs_.groups(); }
  /// Group-set width W.
  [[nodiscard]] int set_width() const { return set_width_; }
  /// Group sets: ceil(G / W). The tag/gate namespace is per set.
  [[nodiscard]] int num_sets() const { return num_sets_; }
  /// First group of set s.
  [[nodiscard]] int set_base(GroupId s) const {
    return s.value() * set_width_;
  }
  /// Lanes of set s: W except possibly the ragged final set.
  [[nodiscard]] int set_width_of(GroupId s) const {
    return std::min(set_width_, xs_.groups() - set_base(s));
  }
  /// Ordinates per group set (the per-(patch, set) gate width).
  [[nodiscard]] int num_angles() const { return num_angles_; }
  /// Group g's per-cell sweep kernel (σ_t varies by group). Batched
  /// programs use the set's base group as the geometry carrier and pass
  /// the strided σ_t explicitly.
  [[nodiscard]] const sn::Discretization* group_disc(GroupId g) const {
    return discs_[static_cast<std::size_t>(g.value())];
  }
  /// Set s's per-steradian sources for the current pass, lane-strided
  /// `[c * set_width_of(s) + lane]` (at W == 1 this is exactly the scalar
  /// per-group source). Valid for a program once it is active (set 0
  /// after begin_pass; higher sets after their activation stream).
  [[nodiscard]] const std::vector<double>& q_set(GroupId s) const {
    return q_sets_[static_cast<std::size_t>(s.value())];
  }
  /// Set s's σ_t, lane-strided like q_set() (built once at construction).
  [[nodiscard]] const std::vector<double>& sigma_t_set(GroupId s) const {
    return sigma_t_sets_[static_cast<std::size_t>(s.value())];
  }

  /// Build-time: declare this rank's local patches (once, sized in one
  /// shot) and then each of their programs' φ arrays (lane-strided
  /// `[v * set_width_of(s) + lane]` over the patch's cells).
  void register_patches(const std::vector<PatchId>& patches);
  void register_program(PatchId p, AngleId a, GroupId set,
                        const std::vector<double>* phi_local);

  /// Reset for one multigroup sweep pass: pack the per-group base sources
  /// into the lane-strided per-set layout, zero the per-group flux
  /// accumulators and re-arm the gate counters.
  void begin_pass(const std::vector<std::vector<double>>& q_base);

  /// Called by a (patch, angle, set) program that retired its last
  /// vertex, from worker context. The patch's last angle performs the gate
  /// work above and appends the next set's activation streams to
  /// `pending` (empty payload, dst = (p, sweep_task_tag(a, s+1))).
  void on_program_complete(PatchId p, GroupId set, const ProgramKey& src,
                           std::vector<core::Stream>& pending);

  /// Group g's scalar-flux accumulation after a pass: this rank's local
  /// patches are filled, all other cells are zero (allreduce to assemble).
  [[nodiscard]] const std::vector<double>& phi_group(GroupId g) const {
    return phi_groups_[static_cast<std::size_t>(g.value())];
  }

  /// Group g's precomputed next-pass base source (emission + lagged
  /// within-set downscatter; see the file doc). Valid on this rank's local
  /// cells after a pass ran; all other cells are zero and must not be
  /// consumed.
  [[nodiscard]] const std::vector<double>& next_pass_q(GroupId g) const {
    return next_q_[static_cast<std::size_t>(g.value())];
  }

  /// Observability (optional): publish live `jsweep_pipeline_*` metrics —
  /// pass counts, activation-stream counts, the emit→gate-open latency
  /// histogram and per-set first-open / pipeline-fill times — into
  /// `registry`, labelled by `rank` and the set width. Call once before
  /// the first begin_pass(); null (the default) disables and every hook
  /// below degrades to one pointer check.
  void set_metrics(metrics::Registry* registry, int rank);

  /// Called by a gated program (worker context) when its activation stream
  /// arrives: records the earliest gate-open time of (p, set). num_angles
  /// sibling programs report concurrently; a CAS-min keeps the first.
  /// No-op without set_metrics().
  void note_gate_opened(PatchId p, GroupId set);

  /// End of one pass (call after the engine run): folds the recorded
  /// emit/open timestamps into the activation-latency histogram and the
  /// per-set first-open and fill gauges. No-op without set_metrics().
  void finish_pass_metrics();

 private:
  [[nodiscard]] std::size_t local_index(PatchId p) const;
  [[nodiscard]] std::size_t phi_slot(std::size_t patch_idx, int s,
                                     int a) const {
    return (patch_idx * static_cast<std::size_t>(num_sets_) +
            static_cast<std::size_t>(s)) *
               static_cast<std::size_t>(num_angles_) +
           static_cast<std::size_t>(a);
  }

  const sn::MultigroupXs& xs_;
  const partition::PatchSet& ps_;
  int num_angles_;
  std::vector<const sn::Discretization*> discs_;
  int set_width_ = 1;        ///< lanes per set (W)
  int num_sets_ = 1;         ///< ceil(G / W)
  int lane_tag_offset_ = 0;  ///< request-lane shift of activation tags

  std::vector<PatchId> local_patches_;
  std::vector<std::int32_t> local_of_patch_;  ///< patch id → index or -1
  /// remaining_[patch_idx * num_sets + s]: angle programs of (p, s) still
  /// running.
  std::unique_ptr<std::atomic<std::int32_t>[]> remaining_;
  /// phi_ptrs_[phi_slot(patch_idx, s, a)]: that program's φ array.
  std::vector<const std::vector<double>*> phi_ptrs_;

  /// Per set, lane-strided [c * W_s + lane], global cell count.
  std::vector<std::vector<double>> q_sets_;
  /// Per set, lane-strided σ_t (immutable after construction).
  std::vector<std::vector<double>> sigma_t_sets_;
  /// Per group, global size (the assembled per-group fluxes).
  std::vector<std::vector<double>> phi_groups_;
  /// Per group, global size: next-pass base sources precomputed at gate
  /// completions (source-tail overlap).
  std::vector<std::vector<double>> next_q_;

  // Live metrics (all null/empty without set_metrics()).
  metrics::Registry* metrics_ = nullptr;
  metrics::Counter* metric_passes_ = nullptr;
  metrics::Counter* metric_activations_ = nullptr;
  metrics::Histogram* metric_activation_latency_ = nullptr;
  metrics::Gauge* metric_fill_ = nullptr;
  std::vector<metrics::Gauge*> metric_group_open_;  ///< one per set >= 1
  double pass_start_seconds_ = 0.0;
  /// emit_seconds_[patch_idx * num_sets + s]: when (p, s)'s activation
  /// streams were emitted. Single writer: the completer of (p, s-1) runs
  /// alone.
  std::vector<double> emit_seconds_;
  /// first_open_[patch_idx * num_sets + s]: earliest gate-open among
  /// (p, s)'s angle programs (CAS-min; siblings open concurrently on
  /// workers).
  std::unique_ptr<std::atomic<double>[]> first_open_;
};

}  // namespace jsweep::sweep
