#pragma once

/// \file serial_sweep.hpp
/// Serial reference sweeps: single-threaded, topologically ordered
/// traversals used as ground truth by the test suite and as the inner
/// operator of the serial solver examples. The parallel engines must
/// reproduce these results bit-for-bit (the kernels are deterministic and
/// execution order along the DAG does not change any operand).

#include <unordered_map>
#include <vector>

#include "graph/scc.hpp"
#include "graph/sweep_dag.hpp"
#include "sn/discretization.hpp"
#include "sn/face_flux.hpp"
#include "sn/quadrature.hpp"

namespace jsweep::sn {

/// One full sweep over all angles on a structured mesh (octant-ordered
/// nested loops — no explicit graph needed). Returns the scalar flux
/// φ = Σ_m w_m ψ_m.
std::vector<double> serial_sweep(const StructuredDD& disc,
                                 const Quadrature& quad,
                                 const std::vector<double>& q_per_ster);

/// One full sweep over all angles on a tetrahedral mesh (explicit
/// topological order per angle). Throws if any direction induces a cyclic
/// dependency.
std::vector<double> serial_sweep(const TetStep& disc, const Quadrature& quad,
                                 const std::vector<double>& q_per_ster);

/// Boundary-aware serial reference sweeper for structured meshes. The
/// stateless serial_sweep() overload above covers the vacuum-only case;
/// this class additionally carries the reflecting/albedo boundary
/// iterates of a non-vacuum BoundarySpec from sweep to sweep: angle m's
/// incoming value at a boundary face is `albedo ×` the *previous* sweep's
/// outgoing flux of the mirror angle at the same face, committed once per
/// sweep — exactly the lagged store protocol the parallel plan uses
/// (sweep/plan.cpp), so sweep() reproduces the engines' scalar flux
/// bit-for-bit, sweep after sweep. With an all-vacuum spec it degenerates
/// to the stateless sweep (identical results, no state).
class StructuredSerialSweeper {
 public:
  /// Precomputes dense slots, the per-axis mirror table and the boundary
  /// read/write lists; `disc` and `quad` must outlive the sweeper.
  StructuredSerialSweeper(const StructuredDD& disc, const Quadrature& quad);

  /// One full sweep over all angles (octant-ordered loops, ascending
  /// angle); stages every boundary outflow and commits the iterates at
  /// the end. Returns φ = Σ_m w_m ψ_m.
  std::vector<double> sweep(const std::vector<double>& q_per_ster);

  /// Max |change| over boundary faces at the last commit (0 when vacuum).
  [[nodiscard]] double last_lag_residual() const { return residual_; }

 private:
  /// A boundary face this angle reads: seeded before the cell loop.
  struct BoundaryRead {
    std::int64_t face;  ///< global face id (== workspace slot)
    int mirror_angle;   ///< angle whose stored outflow seeds the read
    double albedo;      ///< the side's reflection coefficient
  };

  struct AngleState {
    std::vector<CellFaceSlots> slots;      ///< identity-resolved per cell
    std::vector<BoundaryRead> reads;       ///< faces to seed
    std::vector<std::int64_t> writes;      ///< outflow faces to stage
    std::unordered_map<std::int64_t, double> prev;  ///< committed iterates
  };

  const StructuredDD& disc_;
  const Quadrature& quad_;
  std::vector<AngleState> angles_;
  FaceFluxWorkspace flux_;  ///< whole-mesh workspace (reset per angle)
  double residual_ = 0.0;
};

/// Cycle-aware serial reference sweeper for tetrahedral meshes. Stateful:
/// it computes the same per-direction feedback-edge cut as the parallel
/// solver (graph::compute_cycle_cut), sweeps the acyclic remainder in
/// topological order, and carries the cut faces' fluxes from sweep to
/// sweep as lagged (old-iterate) inputs. Because the cut and the lag
/// semantics are identical to a SweepSession over a CyclePolicy::Lag plan
/// with max_lag_sweeps = 1, sweep() reproduces the parallel engines' scalar
/// flux bit-for-bit, sweep after sweep — the ground truth of the
/// cross-engine equivalence suite on cyclic meshes.
class SerialSweeper {
 public:
  /// Computes each direction's cycle cut up front; `disc` and `quad` must
  /// outlive the sweeper.
  SerialSweeper(const TetStep& disc, const Quadrature& quad);

  /// One full sweep over all angles; commits the lagged iterates at the
  /// end, so successive calls converge toward the cycle-resolved solution.
  std::vector<double> sweep(const std::vector<double>& q_per_ster);

  /// Cut diagnostics accumulated over all angles (zero ⇒ mesh acyclic).
  [[nodiscard]] const graph::CycleStats& cycle_stats() const {
    return stats_;
  }
  [[nodiscard]] int cyclic_angles() const { return cyclic_angles_; }
  /// Max |change| over lagged faces at the last commit.
  [[nodiscard]] double last_lag_residual() const { return residual_; }

 private:
  struct AngleState {
    graph::CycleCut cut;
    std::vector<std::int32_t> order;  ///< topo order of the cut graph
    /// Identity-resolved dense slots per cell (slot == mesh face id) —
    /// the same dense layout the parallel programs sweep against.
    std::vector<CellFaceSlots> slots;
    std::unordered_map<std::int64_t, double> prev;  ///< lagged iterates
    std::unordered_map<std::int64_t, double> next;
  };

  const TetStep& disc_;
  const Quadrature& quad_;
  std::vector<AngleState> angles_;
  /// Dense face-flux workspace over the whole mesh (reset per angle).
  FaceFluxWorkspace flux_;
  graph::CycleStats stats_;
  int cyclic_angles_ = 0;
  double residual_ = 0.0;
};

}  // namespace jsweep::sn
