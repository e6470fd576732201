#pragma once

/// \file thread_pool.hpp
/// Minimal fork-join pool used by the BSP engine's compute phase and the
/// plan build's lanes. (The data-driven engine has its own long-lived
/// master/worker threads and does not use this.)

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace jsweep::core {

/// Minimal fork-join worker pool (see \ref thread_pool.hpp).
class ThreadPool {
 public:
  /// `threads` workers; 0 means run everything inline on the caller.
  explicit ThreadPool(int threads);
  ~ThreadPool();  ///< joins all workers

  ThreadPool(const ThreadPool&) = delete;             ///< non-copyable
  ThreadPool& operator=(const ThreadPool&) = delete;  ///< non-copyable

  /// Worker thread count (0 = inline execution).
  [[nodiscard]] int size() const { return static_cast<int>(workers_.size()); }

  /// Loop body that also receives the lane running it.
  using LaneFn = std::function<void(std::int64_t, int)>;

  /// Run fn(i) for i in [0, n), striped across the pool; blocks until all
  /// started iterations complete. The first exception from fn stops the
  /// hand-out of further indices and is rethrown to the caller.
  void parallel_for(std::int64_t n, const std::function<void(std::int64_t)>& fn);
  /// As above, calling fn(i, lane): `lane` in [0, size()] names the thread
  /// running the call (0 = the caller), so per-lane scratch needs no lock.
  void parallel_for(std::int64_t n, const LaneFn& fn);

 private:
  struct Batch;
  void worker_loop(int lane);

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  Batch* batch_ = nullptr;        // current batch, guarded by mutex_
  std::uint64_t generation_ = 0;  // batches started, guarded by mutex_
  bool stop_ = false;
};

}  // namespace jsweep::core
