#pragma once

/// \file engine.hpp
/// The patch-centric data-driven runtime (Sec. IV of the paper).
///
/// One Engine instance runs per rank (process). The rank's thread acts as
/// the *master*: it routes streams (local delivery or remote send via the
/// comm substrate), schedules patch-programs onto *worker* threads, tracks
/// progress and detects global termination. Workers execute patch-programs
/// following Alg. 1 (init → input* → compute → output* → vote_to_halt) and
/// hand the results back to the master.
///
/// Scheduling is priority-driven: every program carries a static priority
/// (for Sn sweeps, combined_priority(angle, patch) from graph/priority.hpp)
/// and each worker pops its highest-priority queued program. When a stream
/// targets an inactive program, the master assigns the program to the
/// lightest-loaded worker (dynamic owner assignment, Sec. IV-B; ties break
/// on a seeded rotation so repeated runs make the same choices).
///
/// Workers steal, at every worker count: instead of blocking the moment
/// its own queue drains, an idle worker scans every queue in a seeded
/// victim order, takes the highest-priority entry, and only falls back to
/// a timed block after a fixed number of empty scan rounds. Stealing moves
/// *scheduling* only — program execution stays bitwise-identical because
/// flux algebra never depends on which worker ran a program, or when.

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "comm/cluster.hpp"
#include "comm/termination.hpp"
#include "core/buffer_pool.hpp"
#include "core/patch_program.hpp"
#include "support/timer.hpp"

namespace jsweep::trace {
class Recorder;
class Track;
}  // namespace jsweep::trace

namespace jsweep::metrics {
class Counter;
class Gauge;
class Histogram;
class Registry;
}  // namespace jsweep::metrics

namespace jsweep::core {

/// How a run decides that all ranks are globally done.
enum class TerminationMode {
  /// Workload known in advance (Sn sweeps): one collective when every
  /// rank's remaining-work counter hits zero.
  KnownWorkload,
  /// General negotiation: Safra's token algorithm (particle tracing etc.).
  Safra,
};

/// Construction-time knobs of one Engine instance.
struct EngineConfig {
  int num_workers = 2;  ///< worker threads executing patch-programs
  /// Global-termination detection scheme (see TerminationMode).
  TerminationMode termination = TerminationMode::KnownWorkload;
  /// When non-null, the engine records execution/stream/route/idle events
  /// into this recorder (trace/trace.hpp). Null (the default) disables
  /// tracing: the hot path then pays one pointer check per would-be event.
  trace::Recorder* recorder = nullptr;
  /// When non-null, the engine publishes live `jsweep_engine_*` counters
  /// and gauges (executions, stream traffic, queue depth, busy/idle
  /// seconds, pool hit rate) into this registry, labelled by rank
  /// (metrics/metrics.hpp). Null (the default) disables metrics at one
  /// pointer check per update site, mirroring the recorder.
  metrics::Registry* metrics = nullptr;
  /// Seed for the deterministic scheduling tie-breaks (enqueue-target
  /// rotation and per-worker steal-victim order). Same seed, same inputs
  /// -> same decisions, so traces line up across runs.
  std::uint64_t scheduler_seed = 0;
};

/// Counters and timings of the most recent Engine::run().
struct EngineStats {
  double elapsed_seconds = 0.0;      ///< wall time of the run
  std::int64_t executions = 0;       ///< patch-program executions
  std::int64_t streams_local = 0;    ///< streams delivered within the rank
  std::int64_t streams_remote = 0;   ///< streams sent across ranks
  std::int64_t stream_bytes = 0;     ///< payload bytes of remote streams
  std::int64_t messages_sent = 0;    ///< wire messages (batched streams)
  double master_route_seconds = 0.0; ///< master time spent routing/packing
  double master_idle_seconds = 0.0;  ///< master time blocked waiting
  double worker_busy_seconds = 0.0;  ///< summed across workers
  double worker_idle_seconds = 0.0;  ///< summed across workers
  std::int64_t steal_attempts = 0;   ///< idle-worker steal scans
  std::int64_t steals = 0;           ///< scans that took another's entry

  /// Fraction of total worker time spent idle (waiting, spinning or
  /// scanning for work): worker_idle / (elapsed x workers).
  [[nodiscard]] double idle_fraction() const {
    const double total = worker_busy_seconds + worker_idle_seconds;
    return total > 0.0 ? worker_idle_seconds / total : 0.0;
  }
};

/// The per-rank data-driven runtime (see \ref engine.hpp): routes streams,
/// schedules patch-programs onto worker threads and detects termination.
class Engine {
 public:
  /// `ctx` must outlive the engine; `config` is fixed for its lifetime.
  Engine(comm::Context& ctx, EngineConfig config);
  ~Engine();  ///< joins nothing; workers stop at the end of each run()

  Engine(const Engine&) = delete;             ///< non-copyable
  Engine& operator=(const Engine&) = delete;  ///< non-copyable

  /// Register a patch-program owned by this rank. `priority` orders
  /// scheduling (higher first). Initially-active programs are queued at
  /// startup; inactive ones wait for their first stream.
  void add_program(std::unique_ptr<PatchProgram> program, double priority,
                   bool initially_active);

  /// Route table: owner rank of every patch (same on all ranks).
  void set_routes(std::vector<RankId> patch_owner);

  /// Enable or disable a registered program for subsequent run() calls.
  /// Disabled programs contribute nothing to the known-workload commitment
  /// and are never queued; delivering a stream to one is an error (the
  /// route tables and tag namespaces must keep disabled subsets closed).
  /// All programs start enabled. The sweep service uses this to run only
  /// the request lanes of the current batch over one shared task system.
  void set_program_enabled(const ProgramKey& key, bool enabled);

  /// Run to global termination. Collective: every rank must call run()
  /// once per logical iteration. Re-entrant across calls: every enabled
  /// program is reset and re-initialized, so one engine serves any number
  /// of sweeps (and interleaved request batches) back to back.
  void run();

  /// Counters and timings of the most recent run().
  [[nodiscard]] const EngineStats& stats() const { return stats_; }

  /// Number of registered local programs.
  [[nodiscard]] std::size_t num_programs() const { return programs_.size(); }

  /// Recycling pool for stream payload buffers: programs draw encode
  /// buffers here; the engine returns every payload once it is consumed
  /// (applied locally or packed onto the wire).
  [[nodiscard]] BufferPool& buffer_pool() { return buffer_pool_; }

 private:
  struct ProgramState;
  struct Worker;
  struct Completion;

  void worker_loop(Worker& w, WallTimer::clock::time_point launch);
  void master_loop(comm::SafraDetector* det, IntervalAccumulator& route_time);
  Completion execute(ProgramState& ps);
  ProgramState* take_local(Worker& w);  ///< pop own top (w.mutex held)
  ProgramState* acquire_work(Worker& w);
  ProgramState* try_steal(Worker& w);
  void deliver_local(Stream stream);
  void enqueue(ProgramState& ps);
  /// Route (and clear) one execution's outputs.
  void route_outputs(std::vector<Stream>& outputs);
  void flush_remote();
  void process_message(const comm::Message& msg,
                       comm::SafraDetector* detector);
  [[nodiscard]] bool locally_idle() const;

  comm::Context& ctx_;
  EngineConfig config_;
  EngineStats stats_;
  BufferPool buffer_pool_;
  trace::Track* trace_master_ = nullptr;  ///< this rank's master track

  // Live instruments, created once at construction when config_.metrics is
  // set (all null otherwise — the hot path checks one pointer).
  metrics::Counter* metric_executions_ = nullptr;
  metrics::Counter* metric_streams_local_ = nullptr;
  metrics::Counter* metric_streams_remote_ = nullptr;
  metrics::Counter* metric_stream_bytes_ = nullptr;
  metrics::Counter* metric_messages_ = nullptr;
  metrics::Counter* metric_runs_ = nullptr;
  metrics::Gauge* metric_queue_depth_ = nullptr;
  metrics::Gauge* metric_worker_busy_ = nullptr;
  metrics::Gauge* metric_worker_idle_ = nullptr;
  metrics::Gauge* metric_master_idle_ = nullptr;
  metrics::Gauge* metric_pool_hit_ratio_ = nullptr;
  metrics::Counter* metric_steal_hits_ = nullptr;
  metrics::Counter* metric_steal_misses_ = nullptr;
  metrics::Histogram* metric_steal_latency_ = nullptr;
  metrics::Gauge* metric_idle_fraction_ = nullptr;

  std::unordered_map<ProgramKey, std::unique_ptr<ProgramState>> programs_;
  std::vector<RankId> patch_owner_;
  /// Created by the first run() and reused by every later one (threads
  /// are started and joined per run; the objects and queues persist).
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<ProgramState*> initial_;  ///< run() scratch, reused

  // Master-side completion queue (workers push, master drains by swapping
  // in `completion_batch_`, its ping-pong partner).
  std::mutex completion_mutex_;
  std::vector<Completion> completions_;
  std::vector<Completion> completion_batch_;
  std::atomic<std::int64_t> completions_pending_{0};

  // First exception thrown inside a worker; rethrown by the master.
  std::mutex error_mutex_;
  std::exception_ptr worker_error_;

  // Remote streams staged per destination rank, flushed as one message.
  std::vector<std::vector<Stream>> remote_staging_;

  std::int64_t local_remaining_ = 0;
  std::int64_t active_programs_ = 0;  ///< programs Queued or Running
  std::uint64_t enqueue_seq_ = 0;

  /// Entries sitting in any worker queue (not yet popped). Idle workers
  /// spin on this before blocking: > 0 means a steal scan can succeed.
  std::atomic<std::int64_t> queued_total_{0};
};

}  // namespace jsweep::core
