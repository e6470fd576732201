#include "core/engine.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <climits>
#include <condition_variable>
#include <cstdlib>
#include <thread>

#include "metrics/metrics.hpp"
#include "support/check.hpp"
#include "support/log.hpp"
#include "trace/trace.hpp"

namespace jsweep::core {

namespace {

/// Idle waits shorter than this are not worth a trace event.
constexpr std::int64_t kMinTracedIdleNs = 1000;

/// Timed-block quantum for stealing workers: long enough to keep the cv
/// cheap, short enough that a worker re-scans for stealable work soon even
/// if it missed a notify aimed at another worker.
constexpr auto kStealBlockQuantum = std::chrono::microseconds(100);

/// splitmix64 finalizer: a cheap, well-mixed hash for the seeded
/// scheduling tie-breaks (enqueue-target rotation, steal-victim order).
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Environment override for an integer-valued engine knob in [lo, hi];
/// returns `fallback` when the variable is unset or empty. Anything other
/// than a whole decimal integer in range (no trailing characters) throws
/// a CheckError naming the variable, instead of silently reading as 0.
int env_int(const char* name, int fallback, long lo, long hi) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  errno = 0;
  char* end = nullptr;
  const long parsed = std::strtol(v, &end, 10);
  JSWEEP_CHECK_MSG(end != v && *end == '\0' && errno != ERANGE &&
                       parsed >= lo && parsed <= hi,
                   "environment variable " << name << "='" << v
                                           << "' must be an integer in ["
                                           << lo << ", " << hi << "]");
  return static_cast<int>(parsed);
}

}  // namespace

struct Engine::ProgramState {
  std::unique_ptr<PatchProgram> program;
  double priority = 0.0;
  bool initially_active = true;
  /// Disabled programs sit out whole runs: no workload contribution, no
  /// startup queueing, and any stream delivered to one is an error.
  bool enabled = true;
  bool initialized = false;
  /// Idle = not queued or running (the paper's "inactive"); Active covers
  /// both queued and running — a program has at most one outstanding
  /// execution at a time.
  enum class St { Idle, Active } state = St::Idle;
  std::mutex inbox_mutex;
  std::vector<Stream> inbox;
  /// The executing worker swaps `inbox` with this spare under the lock and
  /// drains it outside; both keep their capacity, so steady-state input
  /// hand-off allocates nothing.
  std::vector<Stream> arrived;
  /// Streams of the last execution, filled by the worker and drained by
  /// the master when it processes the completion (the program cannot run
  /// again before that), reused run after run.
  std::vector<Stream> outputs;
};

struct Engine::Completion {
  ProgramState* ps = nullptr;
  bool halted = true;
  std::int64_t retired = 0;
};

struct Engine::Worker {
  explicit Worker(int id_in) : id(id_in) {}

  struct Entry {
    double priority;
    std::uint64_t seq;
    ProgramState* ps;
    /// Max-heap by priority; FIFO (by sequence) among equals.
    bool operator<(const Entry& o) const {
      if (priority != o.priority) return priority < o.priority;
      return seq > o.seq;
    }
  };

  /// Max-heap of entries (std::push_heap/pop_heap on Entry::operator<,
  /// the std::priority_queue discipline) kept as a plain vector so it can
  /// be cleared without giving back its capacity.
  [[nodiscard]] const Entry& top() const { return queue.front(); }
  void push(const Entry& e) {
    queue.push_back(e);
    std::push_heap(queue.begin(), queue.end());
  }
  void pop() {
    std::pop_heap(queue.begin(), queue.end());
    queue.pop_back();
  }

  /// Per-run reset: the object (and its queue capacity) outlives runs.
  void reset(std::uint64_t seed) {
    queue.clear();
    load.store(0, std::memory_order_relaxed);
    stop.store(false, std::memory_order_relaxed);
    busy_seconds = 0.0;
    idle_seconds = 0.0;
    rng = seed;
    steal_attempts = 0;
    steals = 0;
  }

  int id;
  std::mutex mutex;
  std::condition_variable cv;
  std::vector<Entry> queue;
  std::atomic<std::int64_t> load{0};
  std::atomic<bool> stop{false};
  std::thread thread;
  double busy_seconds = 0.0;
  double idle_seconds = 0.0;
  /// Seeded victim-rotation state (advanced per steal scan): every run
  /// with the same scheduler seed visits victims in the same order.
  std::uint64_t rng = 0;
  std::int64_t steal_attempts = 0;
  std::int64_t steals = 0;
};

Engine::Engine(comm::Context& ctx, EngineConfig config)
    : ctx_(ctx), config_(config) {
  JSWEEP_CHECK_MSG(config_.num_workers >= 1,
                   "engine needs at least one worker thread");
  // Runtime knobs get the final say, so CI and operators can force a
  // scheduling mode without touching call sites.
  config_.work_stealing =
      env_int("JSWEEP_WORK_STEALING", config_.work_stealing ? 1 : 0, 0, 1) !=
      0;
  config_.steal_spin_rounds = std::max(
      0,
      env_int("JSWEEP_STEAL_SPIN", config_.steal_spin_rounds, 0, INT_MAX));
  remote_staging_.resize(static_cast<std::size_t>(ctx_.size()));
  if (metrics::Registry* reg = config_.metrics; reg != nullptr) {
    const metrics::Labels rank{{"rank", std::to_string(ctx_.rank().value())}};
    metric_executions_ = &reg->counter("jsweep_engine_executions_total",
                                       "patch-program executions", rank);
    metric_streams_local_ =
        &reg->counter("jsweep_engine_streams_total",
                      "streams routed, by delivery path",
                      {{"rank", std::to_string(ctx_.rank().value())},
                       {"path", "local"}});
    metric_streams_remote_ =
        &reg->counter("jsweep_engine_streams_total",
                      "streams routed, by delivery path",
                      {{"rank", std::to_string(ctx_.rank().value())},
                       {"path", "remote"}});
    metric_stream_bytes_ = &reg->counter(
        "jsweep_engine_stream_bytes_total",
        "payload bytes of streams shipped across ranks", rank);
    metric_messages_ = &reg->counter("jsweep_engine_messages_total",
                                     "wire messages (batched streams)", rank);
    metric_runs_ =
        &reg->counter("jsweep_engine_runs_total", "engine run() calls", rank);
    metric_queue_depth_ =
        &reg->gauge("jsweep_engine_queue_depth",
                    "patch-programs queued or running on workers", rank);
    metric_worker_busy_ = &reg->gauge(
        "jsweep_engine_worker_busy_seconds",
        "cumulative worker busy seconds (execution + bookkeeping)", rank);
    metric_worker_idle_ =
        &reg->gauge("jsweep_engine_worker_idle_seconds",
                    "cumulative worker seconds blocked with no work", rank);
    metric_master_idle_ =
        &reg->gauge("jsweep_engine_master_idle_seconds",
                    "cumulative master seconds blocked waiting for messages",
                    rank);
    metric_pool_hit_ratio_ =
        &reg->gauge("jsweep_engine_buffer_pool_hit_ratio",
                    "fraction of stream-buffer acquires served from the "
                    "free list (lifetime)",
                    rank);
    metric_steal_hits_ =
        &reg->counter("jsweep_engine_steals_total",
                      "idle-worker steal scans, by result",
                      {{"rank", std::to_string(ctx_.rank().value())},
                       {"result", "hit"}});
    metric_steal_misses_ =
        &reg->counter("jsweep_engine_steals_total",
                      "idle-worker steal scans, by result",
                      {{"rank", std::to_string(ctx_.rank().value())},
                       {"result", "miss"}});
    metric_steal_latency_ = &reg->histogram(
        "jsweep_engine_steal_latency_seconds",
        "latency of one steal scan (peek every queue, take the best)",
        metrics::Registry::exponential_buckets(1e-7, 4.0, 10), rank);
    metric_idle_fraction_ =
        &reg->gauge("jsweep_engine_idle_fraction",
                    "worker idle seconds / (elapsed x workers), last run",
                    rank);
  }
}

Engine::~Engine() = default;

void Engine::add_program(std::unique_ptr<PatchProgram> program,
                         double priority, bool initially_active) {
  JSWEEP_CHECK(program != nullptr);
  const ProgramKey key = program->key();
  auto ps = std::make_unique<ProgramState>();
  ps->program = std::move(program);
  ps->priority = priority;
  ps->initially_active = initially_active;
  const auto [it, inserted] = programs_.emplace(key, std::move(ps));
  JSWEEP_CHECK_MSG(inserted, "duplicate patch-program " << key);
}

void Engine::set_routes(std::vector<RankId> patch_owner) {
  patch_owner_ = std::move(patch_owner);
}

void Engine::set_program_enabled(const ProgramKey& key, bool enabled) {
  const auto it = programs_.find(key);
  JSWEEP_CHECK_MSG(it != programs_.end(),
                   "set_program_enabled: no program " << key << " on rank "
                                                      << ctx_.rank());
  it->second->enabled = enabled;
}

Engine::ProgramState* Engine::take_local(Worker& w) {
  ProgramState* ps = w.top().ps;
  w.pop();
  queued_total_.fetch_sub(1, std::memory_order_acq_rel);
  return ps;
}

Engine::ProgramState* Engine::try_steal(Worker& w) {
  ++w.steal_attempts;
  WallTimer scan_timer;
  const std::size_t n = workers_.size();
  // Seeded victim rotation: advance the worker's private LCG and start
  // the scan at a pseudo-random (but run-reproducible) offset, so thieves
  // spread over victims without contending on one queue.
  w.rng = w.rng * 6364136223846793005ULL + 1442695040888963407ULL;
  const std::size_t start = static_cast<std::size_t>((w.rng >> 33) % n);
  // Pass 1: peek every queue a try_lock can reach (own queue included —
  // it may have been fed during the spin) and remember the globally best
  // entry: highest priority, earliest sequence among equals.
  std::size_t best = n;
  double best_priority = 0.0;
  std::uint64_t best_seq = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t v = (start + i) % n;
    Worker& victim = *workers_[v];
    if (!victim.mutex.try_lock()) continue;
    if (!victim.queue.empty()) {
      const Worker::Entry& top = victim.top();
      if (best == n || top.priority > best_priority ||
          (top.priority == best_priority && top.seq < best_seq)) {
        best = v;
        best_priority = top.priority;
        best_seq = top.seq;
      }
    }
    victim.mutex.unlock();
  }
  // Pass 2: re-lock the winner and take its (possibly changed) top. The
  // victim may have drained in between; that is a miss, not an error.
  ProgramState* ps = nullptr;
  bool stolen = false;
  if (best < n) {
    Worker& victim = *workers_[best];
    const std::lock_guard<std::mutex> lock(victim.mutex);
    if (!victim.queue.empty()) {
      ps = take_local(victim);
      if (&victim != &w) {
        // The entry's load unit moves with it; the thief's own
        // end-of-execution decrement then balances the books.
        victim.load.fetch_sub(1, std::memory_order_relaxed);
        w.load.fetch_add(1, std::memory_order_relaxed);
        ++w.steals;
        stolen = true;
      }
    }
  }
  if (metric_steal_latency_ != nullptr)
    metric_steal_latency_->observe(scan_timer.seconds(), w.id);
  if (stolen) {
    if (metric_steal_hits_ != nullptr) metric_steal_hits_->inc(1, w.id);
  } else if (ps == nullptr) {
    if (metric_steal_misses_ != nullptr) metric_steal_misses_->inc(1, w.id);
  }
  return ps;
}

Engine::ProgramState* Engine::acquire_work(Worker& w) {
  const bool stealing = config_.work_stealing && workers_.size() > 1;
  for (;;) {
    if (stealing) {
      // Bounded spin: scan for stealable work while any queue is
      // non-empty, up to the configured round budget, then block.
      for (int round = 0; round < config_.steal_spin_rounds; ++round) {
        if (w.stop.load(std::memory_order_relaxed)) break;
        if (queued_total_.load(std::memory_order_acquire) > 0) {
          if (ProgramState* ps = try_steal(w)) return ps;
        }
        std::this_thread::yield();
      }
    }
    std::unique_lock<std::mutex> lock(w.mutex);
    if (!w.queue.empty()) return take_local(w);
    if (w.stop.load(std::memory_order_relaxed)) return nullptr;
    if (stealing) {
      // Timed block: a notify targeted at another worker (or a missed
      // spin window) must not strand this one while work exists, so wake
      // periodically and re-run the steal scan.
      w.cv.wait_for(lock, kStealBlockQuantum);
    } else {
      w.cv.wait(lock, [&] {
        return w.stop.load(std::memory_order_relaxed) || !w.queue.empty();
      });
    }
    if (!w.queue.empty()) return take_local(w);
    if (w.stop.load(std::memory_order_relaxed)) return nullptr;
  }
}

void Engine::worker_loop(Worker& w) {
  trace::Recorder* const rec = config_.recorder;
  trace::Track* const tr =
      rec != nullptr ? &rec->track(ctx_.rank().value(), w.id) : nullptr;
  // Every instant of the loop's lifetime lands in exactly one of the two
  // buckets — idle while hunting for work (steal scans, bounded spins and
  // blocked waits all count as idle), busy otherwise (execution plus
  // queue/completion bookkeeping) — so that
  // busy + idle ≈ elapsed × num_workers holds for EngineStats.
  WallTimer timer;
  for (;;) {
    ProgramState* ps = nullptr;
    {
      const std::lock_guard<std::mutex> lock(w.mutex);
      if (!w.queue.empty()) ps = take_local(w);
    }
    if (ps == nullptr) {
      const double busy_delta = timer.seconds();
      w.busy_seconds += busy_delta;
      if (metric_worker_busy_ != nullptr) metric_worker_busy_->add(busy_delta);
      timer.reset();
      const std::int64_t idle_t0 = tr != nullptr ? rec->now_ns() : 0;
      ps = acquire_work(w);
      const double idle_delta = timer.seconds();
      w.idle_seconds += idle_delta;
      if (metric_worker_idle_ != nullptr) metric_worker_idle_->add(idle_delta);
      timer.reset();
      if (tr != nullptr) {
        const std::int64_t idle_t1 = rec->now_ns();
        if (idle_t1 - idle_t0 >= kMinTracedIdleNs)
          tr->record(
              trace::make_span(trace::EventKind::Idle, idle_t0, idle_t1));
      }
      if (ps == nullptr) return;
    }
    if (metric_queue_depth_ != nullptr) metric_queue_depth_->add(-1.0);
    const std::int64_t exec_t0 = tr != nullptr ? rec->now_ns() : 0;
    try {
      Completion c = execute(*ps);
      if (tr != nullptr) {
        auto e =
            trace::make_span(trace::EventKind::Exec, exec_t0, rec->now_ns());
        e.src = ps->program->key();
        e.bytes = c.retired;
        tr->record(e);
      }
      {
        const std::lock_guard<std::mutex> lock(completion_mutex_);
        completions_.push_back(c);
      }
      completions_pending_.fetch_add(1, std::memory_order_release);
    } catch (...) {
      const std::lock_guard<std::mutex> lock(error_mutex_);
      if (!worker_error_) worker_error_ = std::current_exception();
    }
    w.load.fetch_sub(1, std::memory_order_relaxed);
  }
}

Engine::Completion Engine::execute(ProgramState& ps) {
  PatchProgram& prog = *ps.program;
  if (!ps.initialized) {
    prog.init();
    ps.initialized = true;
  }
  {
    const std::lock_guard<std::mutex> lock(ps.inbox_mutex);
    ps.arrived.swap(ps.inbox);
  }
  for (auto& s : ps.arrived) {
    prog.input(s);
    // Payload consumed; recycle the buffer for a future encode.
    buffer_pool_.release(std::move(s.data));
  }
  ps.arrived.clear();

  const std::int64_t before = prog.remaining_work();
  prog.compute();
  const std::int64_t after = prog.remaining_work();

  Completion c;
  c.ps = &ps;
  c.retired = before - after;
  while (auto out = prog.output()) ps.outputs.push_back(std::move(*out));
  // Stamp the producer's LDCP priority onto every output: receiving
  // masters (remote or local) route higher-priority streams first.
  for (auto& s : ps.outputs) s.priority = ps.priority;
  c.halted = prog.vote_to_halt();
  return c;
}

void Engine::enqueue(ProgramState& ps) {
  // Dynamic owner assignment: route the program to the lightest worker
  // (Sec. IV-B). Ties break on a seeded rotation of the scan start — a
  // splitmix64 hash of (scheduler seed, enqueue sequence) — rather than
  // first-wins, so repeated runs with the same seed make the same choices
  // and trace comparisons line up.
  const std::size_t n = workers_.size();
  const std::size_t start = static_cast<std::size_t>(
      mix64(config_.scheduler_seed ^ enqueue_seq_) % n);
  Worker* lightest = workers_[start].get();
  std::int64_t lightest_load = lightest->load.load(std::memory_order_relaxed);
  for (std::size_t i = 1; i < n; ++i) {
    Worker& cand = *workers_[(start + i) % n];
    const std::int64_t cand_load = cand.load.load(std::memory_order_relaxed);
    if (cand_load < lightest_load) {
      lightest = &cand;
      lightest_load = cand_load;
    }
  }
  lightest->load.fetch_add(1, std::memory_order_relaxed);
  if (metric_queue_depth_ != nullptr) metric_queue_depth_->add(1.0);
  {
    const std::lock_guard<std::mutex> lock(lightest->mutex);
    lightest->push(Worker::Entry{ps.priority, enqueue_seq_++, &ps});
    queued_total_.fetch_add(1, std::memory_order_release);
  }
  lightest->cv.notify_one();
}

void Engine::deliver_local(Stream stream) {
  const auto it = programs_.find(stream.dst);
  JSWEEP_CHECK_MSG(it != programs_.end(),
                   "stream routed to " << stream.dst
                                       << " but no such program on rank "
                                       << ctx_.rank());
  ProgramState& ps = *it->second;
  JSWEEP_CHECK_MSG(ps.enabled, "stream from " << stream.src << " targets "
                                              << stream.dst
                                              << ", which is disabled");
  if (trace_master_ != nullptr) {
    auto e = trace::make_instant(trace::EventKind::StreamRecv,
                                 config_.recorder->now_ns());
    e.src = stream.src;
    e.dst = stream.dst;
    e.bytes = static_cast<std::int64_t>(stream.data.size());
    trace_master_->record(e);
  }
  {
    const std::lock_guard<std::mutex> lock(ps.inbox_mutex);
    ps.inbox.push_back(std::move(stream));
  }
  if (ps.state == ProgramState::St::Idle) {
    ps.state = ProgramState::St::Active;
    ++active_programs_;
    enqueue(ps);
  }
}

void Engine::route_outputs(std::vector<Stream>& outputs) {
  for (auto& s : outputs) {
    JSWEEP_CHECK_MSG(
        s.dst.patch.valid() &&
            static_cast<std::size_t>(s.dst.patch.value()) <
                patch_owner_.size(),
        "stream targets unknown patch " << s.dst.patch);
    const RankId dest =
        patch_owner_[static_cast<std::size_t>(s.dst.patch.value())];
    if (trace_master_ != nullptr) {
      auto e = trace::make_instant(trace::EventKind::StreamSend,
                                   config_.recorder->now_ns());
      e.src = s.src;
      e.dst = s.dst;
      e.bytes = static_cast<std::int64_t>(s.data.size());
      trace_master_->record(e);
    }
    if (dest == ctx_.rank()) {
      ++stats_.streams_local;
      if (metric_streams_local_ != nullptr) metric_streams_local_->inc();
      deliver_local(std::move(s));
    } else {
      ++stats_.streams_remote;
      stats_.stream_bytes += static_cast<std::int64_t>(s.data.size());
      if (metric_streams_remote_ != nullptr) {
        metric_streams_remote_->inc();
        metric_stream_bytes_->inc(static_cast<std::int64_t>(s.data.size()));
      }
      remote_staging_[static_cast<std::size_t>(dest.value())].push_back(
          std::move(s));
    }
  }
  outputs.clear();  // keeps the capacity for the program's next execution
}

void Engine::flush_remote() {
  for (int r = 0; r < ctx_.size(); ++r) {
    auto& staged = remote_staging_[static_cast<std::size_t>(r)];
    if (staged.empty()) continue;
    const std::int64_t pack_t0 =
        trace_master_ != nullptr ? config_.recorder->now_ns() : 0;
    // The message inherits the most urgent stream batched into it, so the
    // whole batch drains ahead of shallower traffic at the receiver.
    double priority = staged.front().priority;
    for (const auto& s : staged) priority = std::max(priority, s.priority);
    comm::Bytes payload = pack_streams(staged);
    const auto payload_bytes = static_cast<std::int64_t>(payload.size());
    ctx_.send(RankId{r}, comm::kTagStream, std::move(payload), priority);
    if (trace_master_ != nullptr) {
      auto e = trace::make_span(trace::EventKind::Pack, pack_t0,
                                config_.recorder->now_ns());
      e.bytes = payload_bytes;
      trace_master_->record(e);
    }
    ++stats_.messages_sent;
    if (metric_messages_ != nullptr) metric_messages_->inc();
    // The streams' payloads were copied onto the wire; recycle them.
    for (auto& s : staged) buffer_pool_.release(std::move(s.data));
    staged.clear();
  }
}

void Engine::process_message(const comm::Message& msg,
                             comm::SafraDetector* detector) {
  switch (msg.tag) {
    case comm::kTagStream: {
      if (detector != nullptr) detector->note_basic_recv();
      // Within the batch, deliver deepest-critical-path streams first:
      // their target programs get queued (and stolen) ahead of the rest.
      auto streams = unpack_streams(msg.payload);
      std::stable_sort(streams.begin(), streams.end(),
                       [](const Stream& a, const Stream& b) {
                         return a.priority > b.priority;
                       });
      for (auto& s : streams) deliver_local(std::move(s));
      break;
    }
    case comm::kTagToken:
      JSWEEP_CHECK(detector != nullptr);
      detector->on_token(msg);
      break;
    case comm::kTagTerminate:
      JSWEEP_CHECK(detector != nullptr);
      detector->on_terminate();
      break;
    default:
      JSWEEP_CHECK_MSG(false, "unexpected message tag " << msg.tag);
  }
}

bool Engine::locally_idle() const {
  if (active_programs_ != 0) return false;
  if (completions_pending_.load(std::memory_order_acquire) != 0) return false;
  for (const auto& staged : remote_staging_)
    if (!staged.empty()) return false;
  return ctx_.pending_messages() == 0;
}

void Engine::run() {
  JSWEEP_CHECK_MSG(!patch_owner_.empty(), "set_routes() before run()");
  stats_ = EngineStats{};
  if (metric_runs_ != nullptr) metric_runs_->inc();
  WallTimer total_timer;
  IntervalAccumulator route_time;
  trace_master_ = config_.recorder != nullptr
                      ? &config_.recorder->track(ctx_.rank().value(),
                                                 trace::kMasterTrack)
                      : nullptr;

  // Reset per-run program state; init() re-runs on first execution, which
  // is exactly Listing 1's per-sweep re-initialization.
  worker_error_ = nullptr;
  local_remaining_ = 0;
  active_programs_ = 0;
  for (auto& [key, ps] : programs_) {
    ps->initialized = false;
    ps->state = ProgramState::St::Idle;
    ps->inbox.clear();
    ps->arrived.clear();  // left over only by a run that threw mid-input
    ps->outputs.clear();
    if (ps->enabled) local_remaining_ += ps->program->total_work();
  }
  completions_.clear();
  completion_batch_.clear();
  completions_pending_.store(0, std::memory_order_relaxed);

  // Launch workers. The Worker objects persist across runs (their queues
  // keep their capacity); each run resets them and hands each a private,
  // seed-derived rotation state so steal-victim orders are reproducible
  // run to run.
  if (workers_.empty())
    for (int i = 0; i < config_.num_workers; ++i)
      workers_.push_back(std::make_unique<Worker>(i));
  queued_total_.store(0, std::memory_order_relaxed);
  for (std::size_t i = 0; i < workers_.size(); ++i)
    workers_[i]->reset(
        mix64(config_.scheduler_seed ^ (static_cast<std::uint64_t>(i) + 1)));
  for (auto& w : workers_)
    w->thread = std::thread([this, &w = *w] { worker_loop(w); });

  // Queue the initially-active programs, highest priority first so worker
  // queues start in priority order.
  initial_.clear();
  for (auto& [key, ps] : programs_)
    if (ps->enabled && ps->initially_active) initial_.push_back(ps.get());
  std::sort(initial_.begin(), initial_.end(),
            [](const ProgramState* a, const ProgramState* b) {
              if (a->priority != b->priority) return a->priority > b->priority;
              return a->program->key() < b->program->key();
            });
  for (auto* ps : initial_) {
    ps->state = ProgramState::St::Active;
    ++active_programs_;
    enqueue(*ps);
  }

  std::optional<comm::SafraDetector> detector;
  if (config_.termination == TerminationMode::Safra) detector.emplace(ctx_);
  comm::SafraDetector* det = detector ? &*detector : nullptr;

  // Whatever happens in the master loop, workers must be stopped and
  // joined before leaving (a joinable std::thread destructor terminates).
  const auto stop_workers = [this] {
    for (auto& w : workers_) {
      {
        const std::lock_guard<std::mutex> lock(w->mutex);
        w->stop.store(true, std::memory_order_relaxed);
      }
      w->cv.notify_all();
    }
    for (auto& w : workers_) {
      if (w->thread.joinable()) w->thread.join();
      stats_.worker_busy_seconds += w->busy_seconds;
      stats_.worker_idle_seconds += w->idle_seconds;
      stats_.steal_attempts += w->steal_attempts;
      stats_.steals += w->steals;
    }
  };

  try {
    master_loop(det, route_time);
  } catch (...) {
    stop_workers();
    throw;
  }
  stop_workers();

  stats_.master_route_seconds = route_time.seconds();
  stats_.elapsed_seconds = total_timer.seconds();
  if (metric_idle_fraction_ != nullptr)
    metric_idle_fraction_->set(stats_.idle_fraction());
  if (metric_pool_hit_ratio_ != nullptr) {
    const auto acquires = buffer_pool_.acquires();
    metric_pool_hit_ratio_->set(
        acquires > 0 ? static_cast<double>(buffer_pool_.reuses()) /
                           static_cast<double>(acquires)
                     : 0.0);
  }
  JSWEEP_CHECK_MSG(local_remaining_ == 0 || det != nullptr,
                   "engine terminated with " << local_remaining_
                                             << " work units outstanding");
}

void Engine::master_loop(comm::SafraDetector* det,
                         IntervalAccumulator& route_time) {
  trace::Recorder* const rec = config_.recorder;
  trace::Track* const mt = trace_master_;
  // Consecutive empty polls coalesce into one master idle span, closed at
  // the timestamp where the next iteration's work began (iter_t0) so idle
  // never overlaps the Route/Pack/Collective spans recorded after it.
  std::int64_t idle_t0 = -1;
  std::int64_t iter_t0 = 0;
  for (;;) {
    bool progress = false;
    if (mt != nullptr) iter_t0 = rec->now_ns();

    // 0. Worker failures abort the run.
    {
      const std::lock_guard<std::mutex> lock(error_mutex_);
      if (worker_error_) std::rethrow_exception(worker_error_);
    }

    // 1. Incoming messages.
    while (auto msg = ctx_.try_recv()) {
      route_time.start();
      const std::int64_t route_t0 = mt != nullptr ? rec->now_ns() : 0;
      process_message(*msg, det);
      if (mt != nullptr)
        mt->record(trace::make_span(trace::EventKind::Route, route_t0,
                                    rec->now_ns()));
      route_time.stop();
      progress = true;
    }

    // 2. Worker completions.
    if (completions_pending_.load(std::memory_order_acquire) > 0) {
      // Ping-pong: the workers' vector and the master's batch trade
      // places, each keeping its capacity.
      std::vector<Completion>& batch = completion_batch_;
      {
        const std::lock_guard<std::mutex> lock(completion_mutex_);
        batch.swap(completions_);
      }
      completions_pending_.fetch_sub(
          static_cast<std::int64_t>(batch.size()), std::memory_order_release);
      if (metric_executions_ != nullptr)
        metric_executions_->inc(static_cast<std::int64_t>(batch.size()));
      route_time.start();
      const std::int64_t route_t0 = mt != nullptr ? rec->now_ns() : 0;
      for (auto& c : batch) {
        ++stats_.executions;
        local_remaining_ -= c.retired;
        ProgramState& ps = *c.ps;
        if (det != nullptr && !ps.outputs.empty()) det->on_active();
        route_outputs(ps.outputs);
        bool inbox_nonempty;
        {
          const std::lock_guard<std::mutex> lock(ps.inbox_mutex);
          inbox_nonempty = !ps.inbox.empty();
        }
        if (!c.halted || inbox_nonempty) {
          enqueue(ps);  // still Active
        } else {
          ps.state = ProgramState::St::Idle;
          --active_programs_;
        }
      }
      batch.clear();
      if (mt != nullptr)
        mt->record(trace::make_span(trace::EventKind::Route, route_t0,
                                    rec->now_ns()));
      route_time.stop();
      progress = true;
    }

    // 3. Ship staged remote streams.
    route_time.start();
    if (det != nullptr) {
      // Safra counts wire messages, not streams.
      const std::int64_t before = stats_.messages_sent;
      flush_remote();
      for (std::int64_t i = before; i < stats_.messages_sent; ++i)
        det->note_basic_send();
    } else {
      flush_remote();
    }
    route_time.stop();

    // Close a pending master idle span once progress resumes.
    if (mt != nullptr && idle_t0 >= 0 && progress) {
      mt->record(
          trace::make_span(trace::EventKind::Idle, idle_t0, iter_t0));
      idle_t0 = -1;
    }

    // 4. Termination.
    if (config_.termination == TerminationMode::KnownWorkload) {
      if (local_remaining_ == 0 && active_programs_ == 0 &&
          completions_pending_.load(std::memory_order_acquire) == 0) {
        // Workload-commitment fast path (Sec. III-B): every rank joins one
        // collective when its committed workload is fully retired.
        const std::int64_t coll_t0 = mt != nullptr ? rec->now_ns() : 0;
        ctx_.allreduce_sum(std::int64_t{0});
        if (mt != nullptr)
          mt->record(trace::make_span(trace::EventKind::Collective, coll_t0,
                                      rec->now_ns()));
        break;
      }
    } else {
      if (det->terminated()) break;
      if (!progress && locally_idle()) {
        det->on_idle();
        if (det->terminated()) break;
      }
    }

    if (!progress) {
      if (mt != nullptr && idle_t0 < 0) idle_t0 = rec->now_ns();
      // Master idle is accounted per blocked wait (always on, unlike the
      // coalesced trace spans): the polling overhead between waits is
      // negligible next to the 50 µs wait quantum.
      WallTimer wait_timer;
      ctx_.wait_message(std::chrono::microseconds(50));
      const double waited = wait_timer.seconds();
      stats_.master_idle_seconds += waited;
      if (metric_master_idle_ != nullptr) metric_master_idle_->add(waited);
    }
  }
  if (mt != nullptr && idle_t0 >= 0)
    mt->record(trace::make_span(trace::EventKind::Idle, idle_t0, iter_t0));
}

}  // namespace jsweep::core
