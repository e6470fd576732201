#pragma once

// The benchmark's own span recorder. A span is (name, start, end, parent,
// trace): the benchmark opens one around each public call it makes into the
// library, and every span of one solve (or one set-up) shares a trace id.
// Spans stay in memory until the run ends, then go to a JSON file. A null
// recorder turns every span into a no-op, which is how timed runs keep
// tracing off.

#include <chrono>
#include <cstdio>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  int id = 0;
  int parent = -1;  ///< -1 = root of its trace
  int trace = 0;
  double start = 0.0;  ///< seconds since the recorder was made
  double end = 0.0;
};

class SpanRecorder {
 public:
  /// A fresh trace id for one solve or one set-up.
  int new_trace() {
    const std::lock_guard<std::mutex> lock(mutex_);
    return next_trace_++;
  }

  /// Open a span; returns its id for close() and for children's `parent`.
  int open(std::string name, int trace, int parent) {
    const double t = now();
    const std::lock_guard<std::mutex> lock(mutex_);
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({std::move(name), id, parent, trace, t, t});
    return id;
  }

  void close(int id) {
    const double t = now();
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(id)].end = t;
  }

  /// Durations of every span called `name`, in opening order.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<double> out;
    for (const Span& s : spans_)
      if (s.name == name) out.push_back(s.end - s.start);
    return out;
  }

  /// Self time of each span name, averaged over the traces that contain
  /// it. A span's self time is its duration minus its children's; the
  /// benchmark opens children one after another on the parent's thread,
  /// so they never overlap and their durations simply add.
  [[nodiscard]] std::map<std::string, double> self_seconds_per_trace() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<double> self(spans_.size());
    for (const Span& s : spans_)
      self[static_cast<std::size_t>(s.id)] += s.end - s.start;
    for (const Span& s : spans_)
      if (s.parent >= 0)
        self[static_cast<std::size_t>(s.parent)] -= s.end - s.start;
    std::map<std::string, double> total;
    std::map<std::string, std::set<int>> traces;
    for (const Span& s : spans_) {
      total[s.name] += self[static_cast<std::size_t>(s.id)];
      traces[s.name].insert(s.trace);
    }
    for (auto& [name, seconds] : total)
      seconds /= static_cast<double>(traces[name].size());
    return total;
  }

  /// Write every span as one JSON array; false if the file cannot be
  /// written.
  [[nodiscard]] bool write_json(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::lock_guard<std::mutex> lock(mutex_);
    std::fprintf(f, "[\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "  {\"name\": \"%s\", \"id\": %d, \"parent\": %d, "
                   "\"trace\": %d, \"start_s\": %.9f, \"end_s\": %.9f}%s\n",
                   s.name.c_str(), s.id, s.parent, s.trace, s.start, s.end,
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    return std::fclose(f) == 0;
  }

 private:
  [[nodiscard]] double now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         epoch_)
        .count();
  }

  const std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  ///< index == span id
  int next_trace_ = 0;
};

/// RAII span; does nothing when the recorder is null.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const char* name, int trace, int parent = -1)
      : rec_(rec), id_(rec != nullptr ? rec->open(name, trace, parent) : -1) {}
  ~ScopedSpan() {
    if (rec_ != nullptr) rec_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] int id() const { return id_; }

 private:
  SpanRecorder* rec_;
  int id_;
};

}  // namespace perfbench
