#pragma once

/// \file source_iteration.hpp
/// Source iteration: the outer loop of an Sn solve. Each iteration
/// recomputes the isotropic emission density from the previous scalar flux
/// and applies one full transport sweep; convergence is the relative L∞
/// change of the scalar flux. The sweep itself is pluggable — serial
/// reference, JSweep data-driven engine or BSP engine all fit behind the
/// same operator signature.

#include <functional>
#include <vector>

#include "sn/xs.hpp"

namespace jsweep::sn {

/// φ = sweep(q_per_ster): one transport sweep over all angles given the
/// per-steradian total source (scattering + external) in every cell.
using SweepOperator =
    std::function<std::vector<double>(const std::vector<double>&)>;

/// Convergence control of the outer source iteration.
struct SourceIterationOptions {
  double tolerance = 1e-5;   ///< stop when relative L∞ change drops below
  int max_iterations = 200;  ///< hard iteration cap
  bool verbose = false;      ///< log per-iteration errors
};

/// Outcome of a source-iteration solve.
struct SourceIterationResult {
  std::vector<double> phi;  ///< converged (or last-iterate) scalar flux
  int iterations = 0;       ///< sweeps applied
  double error = 0.0;       ///< last relative L∞ change
  bool converged = false;   ///< true when error beat tolerance
};

/// Run source iteration with cross sections `xs` (per cell) and the given
/// sweep operator.
SourceIterationResult source_iteration(const CellXs& xs,
                                       const SweepOperator& sweep,
                                       const SourceIterationOptions& options = {});

/// The per-steradian emission density q = (σ_s φ + Q) / 4π.
std::vector<double> emission_density(const CellXs& xs,
                                     const std::vector<double>& phi);

/// Relative L∞ difference max|a-b| / max|a|.
double relative_linf(const std::vector<double>& a,
                     const std::vector<double>& b);

}  // namespace jsweep::sn
