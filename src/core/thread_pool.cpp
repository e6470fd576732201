#include "core/thread_pool.hpp"

#include <atomic>
#include <exception>

#include "support/check.hpp"

namespace jsweep::core {

struct ThreadPool::Batch {
  std::int64_t n = 0;
  const LaneFn* fn = nullptr;
  std::atomic<std::int64_t> next{0};
  std::atomic<int> running{0};
  std::exception_ptr error;
  std::mutex error_mutex;

  /// Claim and run indices on `lane` until none is left. The first throw
  /// is kept and exhausts the index space, so no thread — the caller
  /// included — starts another call after it.
  void run(int lane) {
    for (;;) {
      const auto i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        (*fn)(i, lane);
      } catch (...) {
        next.store(n, std::memory_order_relaxed);
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!error) error = std::current_exception();
      }
    }
  }
};

ThreadPool::ThreadPool(int threads) {
  JSWEEP_CHECK(threads >= 0);
  workers_.reserve(static_cast<std::size_t>(threads));
  for (int i = 0; i < threads; ++i)
    workers_.emplace_back([this, i] { worker_loop(i + 1); });
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop(int lane) {
  std::uint64_t joined = 0;  // generation of the last batch this lane ran
  for (;;) {
    Batch* batch = nullptr;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      // Join each batch once: a lane that ran out of indices sleeps until
      // the next batch instead of re-joining this one while the caller
      // finishes its last call.
      work_cv_.wait(lock, [&] {
        return stop_ || (batch_ != nullptr && generation_ != joined);
      });
      if (stop_) return;
      batch = batch_;
      joined = generation_;
      batch->running.fetch_add(1, std::memory_order_relaxed);
    }
    batch->run(lane);
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      batch->running.fetch_sub(1, std::memory_order_acq_rel);
      done_cv_.notify_all();
    }
  }
}

void ThreadPool::parallel_for(std::int64_t n,
                              const std::function<void(std::int64_t)>& fn) {
  parallel_for(n, LaneFn([&fn](std::int64_t i, int) { fn(i); }));
}

void ThreadPool::parallel_for(std::int64_t n, const LaneFn& fn) {
  JSWEEP_CHECK(n >= 0);
  if (n == 0) return;
  if (workers_.empty()) {
    for (std::int64_t i = 0; i < n; ++i) fn(i, 0);
    return;
  }
  Batch batch;
  batch.n = n;
  batch.fn = &fn;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    batch_ = &batch;
    ++generation_;
  }
  work_cv_.notify_all();

  // The caller works too, as lane 0 — no idle spin while the pool churns.
  batch.run(0);

  // Wait for stragglers still inside fn.
  {
    std::unique_lock<std::mutex> lock(mutex_);
    batch_ = nullptr;  // prevent new workers from joining this batch
    done_cv_.wait(lock, [&] {
      return batch.running.load(std::memory_order_acquire) == 0;
    });
  }
  if (batch.error) std::rethrow_exception(batch.error);
}

}  // namespace jsweep::core
