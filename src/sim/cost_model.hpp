#pragma once

/// \file cost_model.hpp
/// Machine/cost model for the discrete-event performance simulator.
///
/// The paper's evaluation ran on Tianhe-II (2×12-core Xeon E5-2692v2 per
/// node, TH-Express-II at 40 GB/s); this repository substitutes a simulator
/// whose scheduler runs the same patch/priority/clustering logic as the
/// real runtime and charges the costs below. Compute-side constants can be
/// calibrated against this host's real kernels (see calibrate()); network
/// constants follow the published TH-Express-II characteristics.

#include <cstdint>

namespace jsweep::sim {

struct CostModel {
  // --- per-vertex compute -------------------------------------------------
  /// Sweep kernel time per (cell, angle) vertex.
  double t_vertex_ns = 60.0;
  /// Scheduling/graph bookkeeping per vertex in DAG mode (counter updates,
  /// ready-queue operations — the paper's "graph-op").
  double t_graphop_ns = 25.0;
  /// Graph bookkeeping per vertex when replaying on the coarsened graph
  /// (per-cluster, amortized — Sec. V-E).
  double t_graphop_coarse_ns = 4.0;
  /// Fixed cost per patch-program execution (task dispatch).
  double t_exec_overhead_ns = 1500.0;

  // --- communication -------------------------------------------------------
  /// Point-to-point message latency (TH-Express-II class network).
  double msg_latency_ns = 2000.0;
  /// Per-byte wire time (40 GB/s ≈ 0.025 ns/byte).
  double byte_ns = 0.025;
  /// Pack/unpack cost per byte on the master thread.
  double pack_byte_ns = 0.15;
  /// Master routing service per message (lookup + dispatch on the
  /// dedicated master core, Sec. IV-B).
  double route_msg_ns = 300.0;
  /// Master service for a locally-delivered stream.
  double local_route_ns = 120.0;

  // --- collectives ----------------------------------------------------------
  /// Barrier/allreduce cost, charged log2(P) times the message latency.
  [[nodiscard]] double collective_ns(int processes) const {
    double levels = 0;
    for (int p = 1; p < processes; p *= 2) ++levels;
    return 2.0 * levels * msg_latency_ns;
  }

  /// Preset for JSNT-U-class unstructured transport: the paper's absolute
  /// ball/reactor runtimes (~100 s per solve at 24 cores for 482k tets,
  /// S4, 4 groups) imply a per-(cell, angle) kernel in the microsecond
  /// range — multigroup upwind FEM physics, ~50x this repository's
  /// one-group step kernel. Unstructured benches use this preset so the
  /// compute/communication balance matches the paper's machine.
  [[nodiscard]] static CostModel jsnt_u() {
    CostModel cm;
    cm.t_vertex_ns = 3000.0;
    cm.t_graphop_ns = 40.0;
    return cm;
  }

  /// Preset for JSNT-S-class structured transport: back-solved the same
  /// way from the paper's Kobayashi-400 runtime (~143 s at 768 cores,
  /// multiple source iterations) — a ~0.5 µs per-(cell, angle) kernel,
  /// i.e. TORT-class physics rather than this repository's bare
  /// diamond-difference update.
  [[nodiscard]] static CostModel jsnt_s() {
    CostModel cm;
    cm.t_vertex_ns = 500.0;
    return cm;
  }
};

/// Measure t_vertex on this host by timing the real diamond-difference
/// kernel over a block of cells; returns ns/vertex. Used by benches that
/// want host-calibrated absolute numbers (shapes do not depend on it).
double calibrate_vertex_ns();

}  // namespace jsweep::sim
