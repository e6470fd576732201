#pragma once

/// \file bench_common.hpp
/// Shared plumbing for the figure/table reproduction benches. Every bench
/// prints (a) what the paper reported and (b) what this reproduction
/// measures, in the same units, so EXPERIMENTS.md can be regenerated by
/// running the binaries.
///
/// Scale note: simulator benches run the paper's core counts; problem
/// sizes (angle counts, cell counts) default to tractable values on a
/// laptop-class host and say so in their output. Shapes — who wins, where
/// curves bend — are the reproduction target, not absolute seconds.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "metrics/metrics.hpp"
#include "sim/data_driven_sim.hpp"
#include "sn/quadrature.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"
#include "sweep/session.hpp"

namespace jsweep::bench {

// ---------------------------------------------------------------------------
// Machine-readable output. Every bench binary accepts
//
//   --json [<path>]
//
// and, when given, writes a BENCH_<name>.json artifact next to the human
// tables: one object per binary with a `samples` array of measurements
// (wall time, thread/core count, problem size, free-form numeric params)
// plus the git sha the binary was built from. CI and EXPERIMENTS.md
// tooling consume these; the tables stay for humans.

/// One measurement. `wall_seconds` is the metric the bench reports: real
/// elapsed seconds for host-scale runs, simulated seconds for simulator
/// runs (tagged with a "simulated" param by convention).
struct Sample {
  std::string name;                ///< e.g. "fig12a/cores_768"
  double wall_seconds = 0.0;       ///< measured (or simulated) wall time
  int threads = 0;                 ///< cores simulated / host threads used
  std::int64_t problem_size = 0;   ///< cells x angles (or cells if angles n/a)
  std::vector<std::pair<std::string, double>> params{};  ///< extra knobs
};

/// Collects samples and writes BENCH_<name>.json at destruction when the
/// binary was invoked with --json. Construct exactly one per main().
class JsonReport {
 public:
  JsonReport(int argc, char** argv, std::string bench_name)
      : bench_name_(std::move(bench_name)) {
    for (int i = 1; i < argc; ++i) {
      // Fresh-string construction sidesteps gcc 12's -Wrestrict false
      // positive on basic_string::operator=(const char*).
      if (std::strcmp(argv[i], "--json") == 0) {
        if (i + 1 < argc && argv[i + 1][0] != '\0' &&
            argv[i + 1][0] != '-') {
          path_ = std::string(argv[i + 1]);
        } else {
          path_ = std::string(".");  // bare/empty/flag-like -> default dir
        }
      } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
        // An empty value (e.g. --json=$OUTDIR with OUTDIR unset) means the
        // default directory, not silently-disabled output.
        path_ = argv[i][7] != '\0' ? std::string(argv[i] + 7)
                                   : std::string(".");
      }
    }
    if (!path_.empty() && !ends_with(path_, ".json")) {
      // Treat the argument as a directory to drop the artifact into.
      if (path_.back() != '/') path_ += '/';
      path_ += "BENCH_" + bench_name_ + ".json";
    }
    if (!path_.empty()) {
      // Fail fast with a non-zero exit if the artifact can't be written
      // (missing directory, read-only path) rather than discovering it in
      // the destructor after minutes of measurement, where the process
      // exit code can no longer reflect it. Append mode so the probe
      // doesn't clobber a previous good artifact if this run aborts.
      std::FILE* probe = std::fopen(path_.c_str(), "a");
      if (probe == nullptr) {
        std::fprintf(stderr, "bench: cannot open %s for writing\n",
                     path_.c_str());
        std::exit(1);
      }
      std::fclose(probe);
    }
    active_ = this;
  }

  ~JsonReport() {
    if (active_ == this) active_ = nullptr;
    if (path_.empty()) return;
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench: cannot open %s for writing\n",
                   path_.c_str());
      return;
    }
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n", bench_name_.c_str());
    std::fprintf(f, "  \"git_sha\": \"%s\",\n", git_sha());
    std::fprintf(f, "  \"host_threads\": %u,\n",
                 std::thread::hardware_concurrency());
    std::fprintf(f, "  \"samples\": [");
    for (std::size_t i = 0; i < samples_.size(); ++i) {
      const Sample& s = samples_[i];
      std::fprintf(f, "%s\n    {\"name\": \"%s\", \"wall_seconds\": %s, ",
                   i == 0 ? "" : ",", escape(s.name).c_str(),
                   num(s.wall_seconds).c_str());
      std::fprintf(f, "\"threads\": %d, \"problem_size\": %lld", s.threads,
                   static_cast<long long>(s.problem_size));
      for (const auto& [key, value] : s.params)
        std::fprintf(f, ", \"%s\": %s", escape(key).c_str(),
                     num(value).c_str());
      std::fprintf(f, "}");
    }
    std::fprintf(f, "\n  ]\n}\n");
    std::fclose(f);
    std::printf("\nwrote %s (%zu samples)\n", path_.c_str(),
                samples_.size());
  }

  JsonReport(const JsonReport&) = delete;
  JsonReport& operator=(const JsonReport&) = delete;

  void record(Sample s) {
    if (!path_.empty()) samples_.push_back(std::move(s));
  }

  [[nodiscard]] bool enabled() const { return !path_.empty(); }

  /// The report owned by the running binary's main(), if any.
  static JsonReport* active() { return active_; }

  static const char* git_sha() {
#ifdef JSWEEP_GIT_SHA
    return JSWEEP_GIT_SHA;
#else
    return "unknown";
#endif
  }

 private:
  static bool ends_with(const std::string& s, const std::string& suffix) {
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
  }

  /// JSON has no inf/nan literals; map non-finite values to null.
  static std::string num(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return buf;
  }

  static std::string escape(const std::string& in) {
    std::string out;
    out.reserve(in.size());
    for (const char c : in) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out;
  }

  std::string bench_name_;
  std::string path_;
  std::vector<Sample> samples_;
  static inline JsonReport* active_ = nullptr;
};

/// Record a sample on the active report (no-op without --json).
inline void record(Sample s) {
  if (JsonReport* r = JsonReport::active()) r->record(std::move(s));
}

/// Embed the data-driven engine's counters in a sample so BENCH_<name>.json
/// captures the runtime breakdown (executions, stream traffic, master
/// routing and worker busy/idle time), not just wall seconds.
inline void append_engine_stats(Sample& s, const core::EngineStats& es) {
  s.params.emplace_back("executions", static_cast<double>(es.executions));
  s.params.emplace_back("streams_local",
                        static_cast<double>(es.streams_local));
  s.params.emplace_back("streams_remote",
                        static_cast<double>(es.streams_remote));
  s.params.emplace_back("stream_bytes",
                        static_cast<double>(es.stream_bytes));
  s.params.emplace_back("messages_sent",
                        static_cast<double>(es.messages_sent));
  s.params.emplace_back("master_route_s", es.master_route_seconds);
  s.params.emplace_back("worker_busy_s", es.worker_busy_seconds);
  s.params.emplace_back("worker_idle_s", es.worker_idle_seconds);
  s.params.emplace_back("engine_elapsed_s", es.elapsed_seconds);
  s.params.emplace_back("idle_fraction", es.idle_fraction());
  s.params.emplace_back("steal_attempts",
                        static_cast<double>(es.steal_attempts));
  s.params.emplace_back("steals", static_cast<double>(es.steals));
  s.params.emplace_back(
      "steal_hit_rate",
      es.steal_attempts > 0
          ? static_cast<double>(es.steals) /
                static_cast<double>(es.steal_attempts)
          : 0.0);
}

/// Embed a live metrics snapshot in a sample: one numeric param per
/// series, keyed `name{k=v,...}` (labels in canonical key order, no label
/// braces for label-free series). Histogram series flatten to the summary
/// stats the gates consume — `name_count{...}`, `name_sum{...}`,
/// `name_max{...}`; bucket detail stays in the registry's own exposition
/// (metrics/export.hpp).
inline void append_metrics(Sample& s, const metrics::Registry& registry) {
  const auto suffix_of = [](const metrics::Labels& labels) {
    std::string out;
    if (labels.empty()) return out;
    out += '{';
    for (std::size_t i = 0; i < labels.size(); ++i) {
      if (i > 0) out += ',';
      out += labels[i].first;
      out += '=';
      out += labels[i].second;
    }
    out += '}';
    return out;
  };
  const auto key_of = [](const std::string& name, const char* stat,
                         const std::string& suffix) {
    std::string key = name;
    key += stat;
    key += suffix;
    return key;
  };
  for (const auto& fam : registry.snapshot()) {
    for (const auto& series : fam.series) {
      const std::string suffix = suffix_of(series.labels);
      switch (fam.kind) {
        case metrics::Kind::kCounter:
          s.params.emplace_back(key_of(fam.name, "", suffix),
                                static_cast<double>(series.counter_value));
          break;
        case metrics::Kind::kGauge:
          s.params.emplace_back(key_of(fam.name, "", suffix),
                                series.gauge_value);
          break;
        case metrics::Kind::kHistogram:
          s.params.emplace_back(
              key_of(fam.name, "_count", suffix),
              static_cast<double>(series.histogram.count));
          s.params.emplace_back(key_of(fam.name, "_sum", suffix),
                                series.histogram.sum);
          s.params.emplace_back(key_of(fam.name, "_max", suffix),
                                series.histogram.max);
          break;
      }
    }
  }
}

/// Embed a simulated run's per-phase breakdown (total core-seconds per
/// category plus traffic counters) in a sample.
inline void append_sim_breakdown(Sample& s, const sim::SimResult& r) {
  s.params.emplace_back("kernel_total_s", r.breakdown.kernel);
  s.params.emplace_back("graphop_total_s", r.breakdown.graphop);
  s.params.emplace_back("pack_total_s", r.breakdown.pack);
  s.params.emplace_back("route_total_s", r.breakdown.route);
  s.params.emplace_back("idle_total_s", r.breakdown.idle);
  const double core_s = r.breakdown.kernel + r.breakdown.graphop +
                        r.breakdown.pack + r.breakdown.route +
                        r.breakdown.idle;
  s.params.emplace_back("idle_fraction",
                        core_s > 0.0 ? r.breakdown.idle / core_s : 0.0);
  s.params.emplace_back("messages", static_cast<double>(r.messages));
  s.params.emplace_back("bytes", static_cast<double>(r.bytes));
  s.params.emplace_back("chunk_executions",
                        static_cast<double>(r.chunk_executions));
}

/// Embed the solver's cycle-breaking diagnostics in a sample so the cost
/// of sweeping cyclic meshes (feedback edges lagged, extra engine runs,
/// lag residual) is measurable from BENCH_<name>.json.
inline void append_cycle_stats(Sample& s, const sweep::SolveStats& st) {
  s.params.emplace_back("cyclic_angles",
                        static_cast<double>(st.cyclic_angles));
  s.params.emplace_back("cyclic_sccs",
                        static_cast<double>(st.cycles.cyclic_components));
  s.params.emplace_back("largest_scc",
                        static_cast<double>(st.cycles.largest_component));
  s.params.emplace_back("edges_lagged",
                        static_cast<double>(st.cycles.edges_cut));
  s.params.emplace_back("lag_sweeps",
                        static_cast<double>(st.last_lag_sweeps));
  s.params.emplace_back("lag_residual", st.last_lag_residual);
}

inline void print_header(const std::string& id, const std::string& title,
                         const std::string& setup) {
  std::printf("\n=== %s — %s ===\n%s\n\n", id.c_str(), title.c_str(),
              setup.c_str());
}

/// Paper cores → simulator processes (the paper binds one MPI process per
/// 12-core processor, one core reserved for the master: Sec. IV-A).
inline constexpr int kCoresPerProcess = 12;

inline sim::SimConfig sim_config_for_cores(int cores) {
  sim::SimConfig cfg;
  cfg.processes = std::max(1, cores / kCoresPerProcess);
  cfg.workers_per_process = kCoresPerProcess - 1;
  return cfg;
}

/// One strong-scaling row: measured time plus speedup/efficiency
/// normalized to the first (base) row.
struct ScalingRow {
  int cores;
  double seconds;
};

inline void print_scaling(Table& table, const std::vector<ScalingRow>& rows,
                          const char* label,
                          std::int64_t problem_size = 0) {
  for (const auto& row : rows) {
    const double sp = rows.front().seconds / row.seconds;
    const double eff =
        parallel_efficiency(rows.front().seconds, rows.front().cores,
                            row.seconds, row.cores);
    table.add_row({label, Table::num(static_cast<std::int64_t>(row.cores)),
                   Table::num(row.seconds, 3), Table::num(sp, 2),
                   Table::num(eff * 100.0, 1)});
    record({std::string(label) + "/cores_" + std::to_string(row.cores),
            row.seconds, row.cores, problem_size,
            {{"simulated", 1.0}, {"speedup", sp}, {"efficiency", eff}}});
  }
}

}  // namespace jsweep::bench
