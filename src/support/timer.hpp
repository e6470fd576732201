#pragma once

/// \file timer.hpp
/// Wall-clock timing utilities for the runtime and the benchmark harness.

#include <chrono>
#include <cstdint>

namespace jsweep {

/// Monotonic wall-clock stopwatch.
class WallTimer {
 public:
  using clock = std::chrono::steady_clock;

  WallTimer() : start_(clock::now()) {}
  /// A stopwatch that started at `start`.
  explicit WallTimer(clock::time_point start) : start_(start) {}

  /// Restart the stopwatch.
  void reset() { start_ = clock::now(); }

  /// Seconds elapsed since construction or the last reset().
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

  /// Nanoseconds elapsed, for fine-grained accounting.
  [[nodiscard]] std::int64_t nanoseconds() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() -
                                                                start_)
        .count();
  }

 private:
  clock::time_point start_;
};

/// Accumulates wall time across many start/stop intervals; used by the
/// runtime's per-category breakdown (kernel / graph-op / pack / comm / idle).
class IntervalAccumulator {
 public:
  void start() { mark_ = WallTimer::clock::now(); }

  void stop() {
    total_ns_ += std::chrono::duration_cast<std::chrono::nanoseconds>(
                     WallTimer::clock::now() - mark_)
                     .count();
    ++count_;
  }

  [[nodiscard]] double seconds() const {
    return static_cast<double>(total_ns_) * 1e-9;
  }
  [[nodiscard]] std::int64_t count() const { return count_; }

  void add_seconds(double s) {
    total_ns_ += static_cast<std::int64_t>(s * 1e9);
    ++count_;
  }

  void reset() {
    total_ns_ = 0;
    count_ = 0;
  }

 private:
  WallTimer::clock::time_point mark_{};
  std::int64_t total_ns_ = 0;
  std::int64_t count_ = 0;
};

/// RAII guard that charges the enclosed scope to an IntervalAccumulator.
class ScopedInterval {
 public:
  explicit ScopedInterval(IntervalAccumulator& acc) : acc_(acc) {
    acc_.start();
  }
  ~ScopedInterval() { acc_.stop(); }

  ScopedInterval(const ScopedInterval&) = delete;
  ScopedInterval& operator=(const ScopedInterval&) = delete;

 private:
  IntervalAccumulator& acc_;
};

}  // namespace jsweep
