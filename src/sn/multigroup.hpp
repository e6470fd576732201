#pragma once

/// \file multigroup.hpp
/// Multigroup Sn transport: G energy groups coupled through a scattering
/// matrix. The paper's JSNT-U evaluation runs S4 with 4 energy groups
/// (Sec. VI-B). Two outer schemes live here:
///
///   - solve_multigroup(): the classic Gauss-Seidel loop over groups with a
///     *converged* within-group source iteration per group. Simple, but the
///     groups are strictly sequential — nothing can overlap.
///   - solve_multigroup_sweeps(): the sweep-pass formulation used by the
///     parallel solver. Each pass applies ONE transport sweep per group, in
///     ascending group order; within-pass downscatter in-scatter is
///     Gauss-Seidel fresh (group g reads the pass's own φ of groups < g),
///     within-group scattering is lagged one pass, and upscatter sources
///     are frozen at the enclosing outer iteration. Because group g+1's
///     source is a *cell-local* function of group g's flux, the per-group
///     sweeps of one pass can be pipelined per patch — exactly what
///     sweep::SweepSession's group-aware engines do. Pure downscatter needs
///     one outer (the pass loop alone converges); upscatter wraps the pass
///     loop in an outer Gauss-Seidel that refreshes the frozen sources.
///
/// Both schemes converge to the same fixed point; the sweep-pass scheme
/// degenerates bitwise to plain source_iteration() when G == 1.
///
/// Each group's sweep reuses the same patch task graphs and engine: only
/// cross sections and sources change.

#include <functional>
#include <numbers>
#include <vector>

#include "sn/source_iteration.hpp"
#include "sn/xs.hpp"

namespace jsweep::sn {

/// Group-wise material data: for each group g, total cross section and
/// external source per cell, plus the scattering matrix σ_s[g'→g] per
/// cell (flattened [cell * G * G + from * G + to]).
class MultigroupXs {
 public:
  /// Zero-initialized table for `groups` × `cells` (both ≥ 1).
  MultigroupXs(int groups, std::int64_t cells);

  /// Energy groups G.
  [[nodiscard]] int groups() const { return groups_; }
  /// Mesh cells covered.
  [[nodiscard]] std::int64_t cells() const { return cells_; }

  /// Total cross section of group g in cell c (mutable).
  double& sigma_t(int g, std::int64_t c) {
    return sigma_t_[index(g, c)];
  }
  /// Total cross section of group g in cell c.
  [[nodiscard]] double sigma_t(int g, std::int64_t c) const {
    return sigma_t_[index(g, c)];
  }
  /// External volumetric source of group g in cell c (mutable).
  double& source(int g, std::int64_t c) { return source_[index(g, c)]; }
  /// External volumetric source of group g in cell c.
  [[nodiscard]] double source(int g, std::int64_t c) const {
    return source_[index(g, c)];
  }
  /// σ_s[from → to] in cell c (mutable).
  double& sigma_s(int from, int to, std::int64_t c) {
    return sigma_s_[smatrix_index(from, to, c)];
  }
  /// σ_s[from → to] in cell c.
  [[nodiscard]] double sigma_s(int from, int to, std::int64_t c) const {
    return sigma_s_[smatrix_index(from, to, c)];
  }

  /// One-group view of group g with within-group scattering only — the
  /// cross sections the inner (within-group) iteration needs.
  [[nodiscard]] CellXs group_view(int g) const;

  /// True if any σ_s[from→to] with from > to is nonzero (upscatter), in
  /// which case converge_upscatter iterations are needed.
  [[nodiscard]] bool has_upscatter() const;

  /// Reject malformed data before a solve: every σ_t, σ_s and source entry
  /// must be finite and non-negative, and each group's total outgoing
  /// scattering Σ_to σ_s[g→to] must not exceed σ_t[g] (a scattering ratio
  /// above one makes source iteration divergent). Throws CheckError with
  /// the offending (group, cell) on violation.
  void validate() const;

  /// Build a G-group table from a one-group material map with a simple
  /// downscatter cascade: group g keeps `within` of its scattering within
  /// group and sends the rest to group g+1. A standard synthetic spectrum
  /// for testing and benchmarks.
  static MultigroupXs cascade(const MaterialTable& table,
                              const std::vector<int>& materials,
                              std::int64_t cells, int groups,
                              double within = 0.6);

 private:
  [[nodiscard]] std::size_t index(int g, std::int64_t c) const {
    return static_cast<std::size_t>(c) * groups_ +
           static_cast<std::size_t>(g);
  }
  [[nodiscard]] std::size_t smatrix_index(int from, int to,
                                          std::int64_t c) const {
    return (static_cast<std::size_t>(c) * groups_ +
            static_cast<std::size_t>(from)) *
               groups_ +
           static_cast<std::size_t>(to);
  }

  int groups_;
  std::int64_t cells_;
  std::vector<double> sigma_t_;
  std::vector<double> source_;
  std::vector<double> sigma_s_;
};

/// Per-group sweep operator factory: returns the sweep operator to use for
/// group g (they may share one solver or use per-group discretizations).
using GroupSweepFactory = std::function<SweepOperator(int group)>;

/// Iteration control of both multigroup outer schemes.
struct MultigroupOptions {
  SourceIterationOptions inner;      ///< within-group / pass-loop control
  int max_outer_iterations = 20;     ///< Gauss-Seidel passes over groups
  double outer_tolerance = 1e-5;     ///< relative L∞ over all groups
  /// Group-set width W of the sweep-pass scheme: groups are batched into
  /// contiguous sets [s*W, min((s+1)*W, G)) that sweep together.
  /// Downscatter from *earlier sets* stays Gauss-Seidel fresh within a
  /// pass; downscatter *within a set* is lagged one pass (Jacobi) so the
  /// set's groups are independent and can run in SIMD lanes. W == 1 is the
  /// classic per-group scheme, bitwise unchanged. Both fixed points agree;
  /// the pass loop absorbs the within-set lag.
  int group_set_width = 1;
  /// Optional source-tail-overlap hook of solve_multigroup_sweeps: when
  /// set and the call returns true for group g, the callee has filled `q`
  /// with group g's emission density AND its lagged within-set downscatter
  /// — the serial formation of both is skipped (the frozen upscatter part
  /// is still added by the solver). A parallel pass implementation uses
  /// this to precompute next-pass sources on otherwise-idle workers while
  /// the current sweep's tail drains; the supplied values must be
  /// bitwise-identical to the serial formation on every cell the pass
  /// reads. Returning false falls back to the serial formation (e.g. on
  /// the first pass, when no precomputed source exists yet).
  std::function<bool(int group, std::vector<double>& q)> q_base_provider;
};

/// First group of the set containing group g at set width `width`.
[[nodiscard]] constexpr int group_set_base(int g, int width) {
  return (g / width) * width;
}

/// Result of a multigroup solve (either outer scheme).
struct MultigroupResult {
  /// phi[g] is group g's scalar flux.
  std::vector<std::vector<double>> phi;
  int outer_iterations = 0;  ///< outer Gauss-Seidel iterations executed
  /// Multigroup sweep passes executed (solve_multigroup_sweeps only):
  /// total across all outers; each pass sweeps every group once.
  int pass_iterations = 0;
  double error = 0.0;      ///< final convergence metric (relative L∞)
  bool converged = false;  ///< true when the final error beat tolerance
  std::int64_t total_sweeps = 0;  ///< transport sweeps applied in total
};

/// Solve the multigroup system by Gauss-Seidel over groups: for each group
/// in order, build its source from the latest fluxes of all other groups
/// and run within-group source iteration. Pure downscatter converges in
/// one outer pass; upscatter iterates to `outer_tolerance`.
MultigroupResult solve_multigroup(const MultigroupXs& xs,
                                  const GroupSweepFactory& sweeps,
                                  const MultigroupOptions& options = {});

// ---------------------------------------------------------------------------
// Sweep-pass formulation (the parallel solver's outer scheme)
// ---------------------------------------------------------------------------

inline constexpr double kInvFourPi = 1.0 / (4.0 * std::numbers::pi);

/// One fresh (Gauss-Seidel) in-scatter contribution: group `from`'s new
/// flux φ scattering into group `to` at cell c, per steradian. ONE shared
/// expression so the serial reference pass, the barriered per-group pass
/// and the pipelined engines accumulate bitwise-identically — every caller
/// must apply it as `q[c] += inscatter_term(...)` with `from` ascending.
[[nodiscard]] inline double inscatter_term(const MultigroupXs& xs, int from,
                                           int to, std::int64_t c,
                                           double phi) {
  return xs.sigma_s(from, to, c) * phi * kInvFourPi;
}

/// One multigroup sweep pass. On entry `q_base[g]` holds the per-steradian
/// source of group g *without* the fresh downscatter part from earlier
/// sets: external source, within-group scattering of the previous pass's
/// φ, the previous pass's *within-set* downscatter (groups in
/// [set_base(g), g) at the scheme's set width — empty at W == 1), and
/// (when upscatter exists) the frozen upscatter in-scatter of the
/// enclosing outer. The pass must, for g ascending, form
/// q_g = q_base[g] + Σ_{g' < set_base(g)} inscatter_term(g'→g, φ_new[g'])
/// and overwrite `phi[g]` with one transport sweep of group g against q_g.
/// The incoming contents of `phi` must not be read (all lagged terms are
/// already inside q_base).
using MultigroupSweepPass =
    std::function<void(const std::vector<std::vector<double>>& q_base,
                       std::vector<std::vector<double>>& phi)>;

/// The sequential reference pass: per-group sweep operators applied in
/// ascending group order with fresh in-scatter accumulated via
/// inscatter_term. Serial sweeps make this the ground truth the parallel
/// (pipelined or barriered) passes must reproduce; solver-backed operators
/// make it the group-barriered parallel baseline of the pipelining
/// ablation.
[[nodiscard]] MultigroupSweepPass sequential_sweep_pass(
    const MultigroupXs& xs, const GroupSweepFactory& sweeps);

/// Width-aware variant: the fresh in-scatter bound drops from g to
/// set_base(g), matching a solve whose options carry the same
/// `group_set_width`. The 2-argument overload is this at width 1.
[[nodiscard]] MultigroupSweepPass sequential_sweep_pass(
    const MultigroupXs& xs, const GroupSweepFactory& sweeps,
    int group_set_width);

/// Solve the multigroup system by iterating sweep passes: each inner
/// iteration runs `pass` once (one sweep per group) and converges the
/// joint downscatter + within-group system; with upscatter an outer
/// Gauss-Seidel refreshes the frozen upscatter sources between inner
/// sequences. Pure downscatter finishes in outer_iterations == 1. For
/// G == 1 the iterates are bitwise-identical to source_iteration() with
/// the same inner options. With options.group_set_width == W > 1 the
/// q_base built here additionally carries the lagged within-set
/// downscatter, and `pass` must use the set-relative fresh bound (see
/// MultigroupSweepPass).
MultigroupResult solve_multigroup_sweeps(const MultigroupXs& xs,
                                         const MultigroupSweepPass& pass,
                                         const MultigroupOptions& options = {});

}  // namespace jsweep::sn
