// Tests for the data-driven engine, the BSP engine and the thread pool,
// using small synthetic patch-programs (no physics).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <map>
#include <mutex>
#include <optional>
#include <string>

#include "comm/cluster.hpp"
#include "core/bsp_engine.hpp"
#include "core/engine.hpp"
#include "core/thread_pool.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "support/timer.hpp"

namespace jsweep::core {
namespace {

comm::Bytes encode_vertices(const std::vector<std::int32_t>& vs) {
  comm::ByteWriter w;
  w.write_vector(vs);
  return w.take();
}

std::vector<std::int32_t> decode_vertices(const comm::Bytes& b) {
  comm::ByteReader r(b);
  return r.read_vector<std::int32_t>();
}

/// Generic data-driven test program: a miniature sweep over an abstract
/// local DAG with remote edges. Records executed vertices into a shared
/// (mutex-guarded) global log for assertions.
class TestDagProgram final : public PatchProgram {
 public:
  struct Vertex {
    std::int32_t initial_count = 0;
    std::vector<std::int32_t> local_out;
    /// (dst patch, dst vertex); task tag carries over.
    std::vector<std::pair<std::int32_t, std::int32_t>> remote_out;
  };

  struct Log {
    std::mutex mutex;
    std::vector<std::pair<ProgramKey, std::int32_t>> executed;
  };

  TestDagProgram(PatchId p, TaskTag t, std::vector<Vertex> vertices,
                 Log* log = nullptr, int grain = 1 << 30)
      : PatchProgram(p, t),
        vertices_(std::move(vertices)),
        log_(log),
        grain_(grain) {}

  void init() override {
    counts_.clear();
    ready_.clear();
    for (std::size_t v = 0; v < vertices_.size(); ++v) {
      counts_.push_back(vertices_[v].initial_count);
      if (vertices_[v].initial_count == 0)
        ready_.push_back(static_cast<std::int32_t>(v));
    }
    done_ = 0;
    pending_.clear();
    out_buffer_.clear();
  }

  void input(const Stream& s) override {
    for (const auto v : decode_vertices(s.data)) {
      JSWEEP_CHECK(counts_[static_cast<std::size_t>(v)] > 0);
      if (--counts_[static_cast<std::size_t>(v)] == 0) ready_.push_back(v);
    }
  }

  void compute() override {
    int in_batch = 0;
    while (!ready_.empty() && in_batch < grain_) {
      const auto v = ready_.back();
      ready_.pop_back();
      ++in_batch;
      ++done_;
      if (log_ != nullptr) {
        const std::lock_guard<std::mutex> lock(log_->mutex);
        log_->executed.emplace_back(key(), v);
      }
      for (const auto w : vertices_[static_cast<std::size_t>(v)].local_out)
        if (--counts_[static_cast<std::size_t>(w)] == 0) ready_.push_back(w);
      for (const auto& [dst_patch, dst_vertex] :
           vertices_[static_cast<std::size_t>(v)].remote_out)
        out_buffer_[dst_patch].push_back(dst_vertex);
    }
    for (auto& [dst, vs] : out_buffer_) {
      if (vs.empty()) continue;
      Stream s;
      s.src = key();
      s.dst = {PatchId{dst}, key().task};
      s.data = encode_vertices(vs);
      vs.clear();
      pending_.push_back(std::move(s));
    }
  }

  std::optional<Stream> output() override {
    if (pending_.empty()) return std::nullopt;
    Stream s = std::move(pending_.back());
    pending_.pop_back();
    return s;
  }

  bool vote_to_halt() override { return ready_.empty(); }

  [[nodiscard]] std::int64_t remaining_work() const override {
    return static_cast<std::int64_t>(vertices_.size()) - done_;
  }
  [[nodiscard]] std::int64_t total_work() const override {
    return static_cast<std::int64_t>(vertices_.size());
  }

 private:
  std::vector<Vertex> vertices_;
  Log* log_;
  int grain_;
  std::vector<std::int32_t> counts_;
  std::vector<std::int32_t> ready_;
  std::map<std::int32_t, std::vector<std::int32_t>> out_buffer_;
  std::vector<Stream> pending_;
  std::int64_t done_ = 0;
};

TEST(ThreadPool, ParallelForCoversIndexSpace) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for(100, [&](std::int64_t i) {
    hits[static_cast<std::size_t>(i)].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, InlineWhenZeroThreads) {
  ThreadPool pool(0);
  std::int64_t sum = 0;  // safe: inline execution
  pool.parallel_for(10, [&](std::int64_t i) { sum += i; });
  EXPECT_EQ(sum, 45);
}

TEST(ThreadPool, PropagatesException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(50,
                                 [&](std::int64_t i) {
                                   if (i == 17)
                                     throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, ReusableAcrossBatches) {
  ThreadPool pool(2);
  for (int round = 0; round < 10; ++round) {
    std::atomic<std::int64_t> sum{0};
    pool.parallel_for(100, [&](std::int64_t i) { sum.fetch_add(i); });
    EXPECT_EQ(sum.load(), 4950);
  }
}

/// Chain across patches: patch i vertex 0 feeds patch i+1 vertex 0.
/// Each rank owns a contiguous slice of patches.
void run_chain(int ranks, int workers, int patches) {
  comm::Cluster::run(ranks, [&](comm::Context& ctx) {
    Engine engine(ctx, {workers, TerminationMode::KnownWorkload});
    std::vector<RankId> owner(static_cast<std::size_t>(patches));
    for (int p = 0; p < patches; ++p)
      owner[static_cast<std::size_t>(p)] =
          RankId{static_cast<int>(static_cast<std::int64_t>(p) * ranks /
                                  patches)};
    for (int p = 0; p < patches; ++p) {
      if (owner[static_cast<std::size_t>(p)] != ctx.rank()) continue;
      TestDagProgram::Vertex v;
      v.initial_count = (p == 0) ? 0 : 1;
      if (p + 1 < patches) v.remote_out.emplace_back(p + 1, 0);
      engine.add_program(std::make_unique<TestDagProgram>(
                             PatchId{p}, TaskTag{0},
                             std::vector<TestDagProgram::Vertex>{v}),
                         /*priority=*/0.0, /*initially_active=*/true);
    }
    engine.set_routes(owner);
    engine.run();
    EXPECT_GT(engine.stats().executions, 0);
  });
}

TEST(Engine, ChainSingleRank) { run_chain(1, 2, 10); }
TEST(Engine, ChainMultiRank) { run_chain(4, 2, 23); }
TEST(Engine, ChainManyWorkers) { run_chain(2, 6, 40); }

/// Sets an environment variable for one scope, then restores the previous
/// value (or its absence), so a CI-level override survives the test.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) old_ = old;
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (old_)
      ::setenv(name_, old_->c_str(), 1);
    else
      ::unsetenv(name_);
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
  std::optional<std::string> old_;
};

TEST(Engine, MalformedEnvironmentOverridesAreRejected) {
  const auto expect_rejected = [](const char* name, const char* value) {
    const ScopedEnv env(name, value);
    comm::Cluster::run(1, [&](comm::Context& ctx) {
      try {
        const Engine engine(ctx, {2, TerminationMode::KnownWorkload});
        ADD_FAILURE() << name << "=" << value << " was accepted";
      } catch (const CheckError& e) {
        EXPECT_NE(std::string(e.what()).find(name), std::string::npos)
            << "message must name the variable: " << e.what();
      }
    });
  };
  expect_rejected("JSWEEP_WORK_STEALING", "yes");
  expect_rejected("JSWEEP_WORK_STEALING", "2");
  expect_rejected("JSWEEP_WORK_STEALING", "1x");
  expect_rejected("JSWEEP_STEAL_SPIN", "abc");
  expect_rejected("JSWEEP_STEAL_SPIN", "-1");
  expect_rejected("JSWEEP_STEAL_SPIN", "99999999999999999999");
}

TEST(Engine, WellFormedEnvironmentOverridesApply) {
  const ScopedEnv spin("JSWEEP_STEAL_SPIN", "8");
  const ScopedEnv stealing("JSWEEP_WORK_STEALING", "0");
  comm::Cluster::run(1, [](comm::Context& ctx) {
    // The override beats EngineConfig::work_stealing = true: no worker
    // ever scans for stealable work.
    Engine engine(ctx, {2, TerminationMode::KnownWorkload});
    constexpr int kPatches = 8;
    for (int p = 0; p < kPatches; ++p) {
      TestDagProgram::Vertex v;
      v.initial_count = p == 0 ? 0 : 1;
      if (p + 1 < kPatches) v.remote_out.emplace_back(p + 1, 0);
      engine.add_program(std::make_unique<TestDagProgram>(
                             PatchId{p}, TaskTag{0},
                             std::vector<TestDagProgram::Vertex>{v}),
                         0.0, /*initially_active=*/p == 0);
    }
    engine.set_routes(std::vector<RankId>(kPatches, RankId{0}));
    for (int run = 0; run < 3; ++run) {  // workers persist across runs
      engine.run();
      EXPECT_EQ(engine.stats().executions, kPatches);
      EXPECT_EQ(engine.stats().steal_attempts, 0);
    }
  });
}

TEST(Engine, ZigZagPartialComputationNoDeadlock) {
  // Fig. 4 of the paper: interleaved dependencies between two patches force
  // each patch-program to execute multiple times.
  //   A0 → B0 → A1 → B1 → A2 → B2
  comm::Cluster::run(2, [](comm::Context& ctx) {
    Engine engine(ctx, {2, TerminationMode::KnownWorkload});
    TestDagProgram::Log log;
    const std::vector<RankId> owner{RankId{0}, RankId{1}};
    if (ctx.rank().value() == 0) {
      std::vector<TestDagProgram::Vertex> a(3);
      a[0].initial_count = 0;
      a[0].remote_out.emplace_back(1, 0);  // A0 → B0
      a[1].initial_count = 1;              // needs B0
      a[1].remote_out.emplace_back(1, 1);  // A1 → B1
      a[2].initial_count = 1;              // needs B1
      a[2].remote_out.emplace_back(1, 2);  // A2 → B2
      engine.add_program(
          std::make_unique<TestDagProgram>(PatchId{0}, TaskTag{0}, a, &log),
          0.0, true);
    } else {
      std::vector<TestDagProgram::Vertex> b(3);
      b[0].initial_count = 1;              // needs A0
      b[0].remote_out.emplace_back(0, 1);  // B0 → A1
      b[1].initial_count = 1;
      b[1].remote_out.emplace_back(0, 2);  // B1 → A2
      b[2].initial_count = 1;
      engine.add_program(
          std::make_unique<TestDagProgram>(PatchId{1}, TaskTag{0}, b, &log),
          0.0, true);
    }
    engine.set_routes(owner);
    engine.run();
    // Each rank executed its program at least 3 times (once per vertex
    // becoming ready) — partial computation in action.
    EXPECT_GE(engine.stats().executions, 3);
  });
}

TEST(Engine, MultipleTasksPerPatch) {
  // Two independent tasks on the same patch run under distinct keys.
  comm::Cluster::run(1, [](comm::Context& ctx) {
    Engine engine(ctx, {2, TerminationMode::KnownWorkload});
    TestDagProgram::Log log;
    for (int t = 0; t < 4; ++t) {
      std::vector<TestDagProgram::Vertex> vs(2);
      vs[0].initial_count = 0;
      vs[0].local_out.push_back(1);
      vs[1].initial_count = 1;
      engine.add_program(std::make_unique<TestDagProgram>(
                             PatchId{0}, TaskTag{t}, vs, &log),
                         -t, true);
    }
    engine.set_routes({RankId{0}});
    engine.run();
    EXPECT_EQ(log.executed.size(), 8u);
  });
}

TEST(Engine, DuplicateProgramRejected) {
  comm::Cluster::run(1, [](comm::Context& ctx) {
    Engine engine(ctx, {1, TerminationMode::KnownWorkload});
    auto make = [] {
      return std::make_unique<TestDagProgram>(
          PatchId{0}, TaskTag{0},
          std::vector<TestDagProgram::Vertex>{{0, {}, {}}});
    };
    engine.add_program(make(), 0.0, true);
    EXPECT_THROW(engine.add_program(make(), 0.0, true), CheckError);
  });
}

TEST(Engine, MisroutedStreamThrows) {
  // A stream to a patch that no rank's engine knows must fail loudly.
  EXPECT_THROW(
      comm::Cluster::run(1,
                   [](comm::Context& ctx) {
                     Engine engine(ctx, {1, TerminationMode::KnownWorkload});
                     std::vector<TestDagProgram::Vertex> vs(1);
                     vs[0].initial_count = 0;
                     vs[0].remote_out.emplace_back(7, 0);  // no patch 7
                     engine.add_program(
                         std::make_unique<TestDagProgram>(PatchId{0},
                                                          TaskTag{0}, vs),
                         0.0, true);
                     // Route patch 7 to ourselves but never register it.
                     engine.set_routes(std::vector<RankId>(8, RankId{0}));
                     engine.run();
                   }),
      CheckError);
}

TEST(Engine, PriorityOrdersSingleWorker) {
  // One worker: strictly higher-priority source programs must execute
  // before lower-priority ones queued at the same time.
  comm::Cluster::run(1, [](comm::Context& ctx) {
    Engine engine(ctx, {1, TerminationMode::KnownWorkload});
    TestDagProgram::Log log;
    for (int p = 0; p < 6; ++p) {
      std::vector<TestDagProgram::Vertex> vs(1);
      vs[0].initial_count = 0;
      engine.add_program(std::make_unique<TestDagProgram>(
                             PatchId{p}, TaskTag{0}, vs, &log),
                         /*priority=*/static_cast<double>(p), true);
    }
    engine.set_routes(std::vector<RankId>(6, RankId{0}));
    engine.run();
    ASSERT_EQ(log.executed.size(), 6u);
    for (std::size_t i = 0; i < 6; ++i)
      EXPECT_EQ(log.executed[i].first.patch, PatchId{5 - static_cast<int>(i)});
  });
}

TEST(Engine, KnownWorkloadStatsAreCoherent) {
  comm::Cluster::run(2, [](comm::Context& ctx) {
    Engine engine(ctx, {2, TerminationMode::KnownWorkload});
    const std::vector<RankId> owner{RankId{0}, RankId{1}};
    const int me = ctx.rank().value();
    std::vector<TestDagProgram::Vertex> vs(4);
    for (int v = 0; v < 4; ++v) {
      vs[static_cast<std::size_t>(v)].initial_count = (me == 0) ? 0 : 1;
      if (me == 0)
        vs[static_cast<std::size_t>(v)].remote_out.emplace_back(1, v);
    }
    engine.add_program(
        std::make_unique<TestDagProgram>(PatchId{me}, TaskTag{0}, vs), 0.0,
        true);
    engine.set_routes(owner);
    engine.run();
    if (me == 0) {
      EXPECT_GE(engine.stats().streams_remote, 1);
      EXPECT_GE(engine.stats().messages_sent, 1);
      EXPECT_GT(engine.stats().stream_bytes, 0);
    }
    EXPECT_GT(engine.stats().elapsed_seconds, 0.0);
  });
}

/// Chain link that burns measurable wall time: waits for one stream
/// (patch 0 starts immediately), spins `spin_seconds`, then feeds the next
/// patch. Forces a serial schedule so one of two workers must sit idle.
class SpinRelayProgram final : public PatchProgram {
 public:
  SpinRelayProgram(PatchId p, bool wait_for_stream, std::int32_t dest,
                   double spin_seconds)
      : PatchProgram(p, TaskTag{0}),
        wait_for_stream_(wait_for_stream),
        dest_(dest),
        spin_seconds_(spin_seconds) {}

  void init() override {
    armed_ = !wait_for_stream_;
    fired_ = false;
    out_.clear();
  }
  void input(const Stream&) override { armed_ = true; }
  void compute() override {
    if (fired_ || !armed_) return;
    fired_ = true;
    WallTimer t;
    while (t.seconds() < spin_seconds_) {
    }
    if (dest_ >= 0)
      out_.push_back(
          Stream{key(), {PatchId{dest_}, TaskTag{0}}, comm::Bytes(8)});
  }
  std::optional<Stream> output() override {
    if (out_.empty()) return std::nullopt;
    Stream s = std::move(out_.back());
    out_.pop_back();
    return s;
  }
  bool vote_to_halt() override { return true; }
  [[nodiscard]] std::int64_t remaining_work() const override {
    return fired_ ? 0 : 1;
  }
  [[nodiscard]] std::int64_t total_work() const override { return 1; }

 private:
  bool wait_for_stream_;
  std::int32_t dest_;
  double spin_seconds_;
  bool armed_ = false;
  bool fired_ = false;
  std::vector<Stream> out_;
};

TEST(Engine, BusyIdleAccountingCoversElapsed) {
  // Regression test for EngineStats time accounting: every instant of a
  // worker's loop lifetime is charged to busy or idle, so
  // busy + idle ≈ elapsed × num_workers — the only unaccounted windows
  // are thread spawn/join. The serial chain keeps one of the two workers
  // idle, so missing idle accounting would show up as a large deficit.
  comm::Cluster::run(1, [](comm::Context& ctx) {
    constexpr int kWorkers = 2;
    constexpr int kPatches = 5;
    constexpr double kSpin = 15e-3;
    Engine engine(ctx, {kWorkers, TerminationMode::KnownWorkload});
    for (int p = 0; p < kPatches; ++p)
      engine.add_program(
          std::make_unique<SpinRelayProgram>(
              PatchId{p}, /*wait_for_stream=*/p != 0,
              /*dest=*/p + 1 < kPatches ? p + 1 : -1, kSpin),
          /*priority=*/0.0, /*initially_active=*/true);
    engine.set_routes(std::vector<RankId>(kPatches, RankId{0}));
    engine.run();

    const EngineStats& s = engine.stats();
    const double accounted = s.worker_busy_seconds + s.worker_idle_seconds;
    const double expected = s.elapsed_seconds * kWorkers;
    EXPECT_GE(s.elapsed_seconds, kPatches * kSpin);
    EXPECT_GT(s.worker_busy_seconds, 0.0);
    // The chain serializes ~all compute, so the second worker's wait time
    // must be accounted as idle.
    EXPECT_GT(s.worker_idle_seconds, 0.3 * s.elapsed_seconds);
    EXPECT_NEAR(accounted, expected, 0.15 * expected + 0.02);
  });
}

TEST(Engine, StealStormEveryProgramExecutesOnce) {
  // N-worker steal storm: hundreds of tiny independent programs land in
  // the workers' queues in one burst, drain unevenly, and idle workers
  // steal from the loaded ones. The correctness bar does not depend on
  // who ran what: every program's single vertex executes exactly once,
  // the run terminates, and the stats stay coherent.
  comm::Cluster::run(1, [](comm::Context& ctx) {
    constexpr int kWorkers = 4;
    constexpr int kPrograms = 256;
    EngineConfig cfg{kWorkers, TerminationMode::KnownWorkload};
    cfg.steal_spin_rounds = 128;
    cfg.scheduler_seed = 7;
    Engine engine(ctx, cfg);
    TestDagProgram::Log log;
    for (int p = 0; p < kPrograms; ++p) {
      std::vector<TestDagProgram::Vertex> vs(1);
      vs[0].initial_count = 0;
      engine.add_program(std::make_unique<TestDagProgram>(
                             PatchId{p}, TaskTag{0}, vs, &log),
                         /*priority=*/static_cast<double>(p % 7),
                         /*initially_active=*/true);
    }
    engine.set_routes(std::vector<RankId>(kPrograms, RankId{0}));
    engine.run();

    ASSERT_EQ(log.executed.size(), static_cast<std::size_t>(kPrograms));
    std::vector<int> seen(kPrograms, 0);
    for (const auto& [key, v] : log.executed) {
      EXPECT_EQ(v, 0);
      ++seen[static_cast<std::size_t>(key.patch.value())];
    }
    for (int p = 0; p < kPrograms; ++p)
      EXPECT_EQ(seen[static_cast<std::size_t>(p)], 1) << "patch " << p;

    const EngineStats& s = engine.stats();
    EXPECT_EQ(s.executions, kPrograms);
    EXPECT_LE(s.steals, s.steal_attempts);
    EXPECT_GE(s.steal_attempts, 0);
    // Every instant of worker lifetime is charged busy or idle — steal
    // scans and bounded spins land in the idle bucket, never busy.
    const double accounted = s.worker_busy_seconds + s.worker_idle_seconds;
    EXPECT_NEAR(accounted, s.elapsed_seconds * kWorkers,
                0.15 * s.elapsed_seconds * kWorkers + 0.02);
  });
}

TEST(Engine, SetProgramEnabledGatesExecution) {
  // Disabled programs are never queued and contribute nothing to the
  // known-workload commitment; re-enabling restores them on the next run.
  comm::Cluster::run(1, [](comm::Context& ctx) {
    constexpr int kPrograms = 6;
    Engine engine(ctx, {2, TerminationMode::KnownWorkload});
    TestDagProgram::Log log;
    for (int p = 0; p < kPrograms; ++p) {
      std::vector<TestDagProgram::Vertex> vs(1);
      vs[0].initial_count = 0;
      engine.add_program(std::make_unique<TestDagProgram>(
                             PatchId{p}, TaskTag{0}, vs, &log),
                         0.0, true);
    }
    engine.set_routes(std::vector<RankId>(kPrograms, RankId{0}));
    for (int p = 1; p < kPrograms; p += 2)
      engine.set_program_enabled(ProgramKey{PatchId{p}, TaskTag{0}}, false);
    engine.run();
    {
      const std::lock_guard<std::mutex> lock(log.mutex);
      ASSERT_EQ(log.executed.size(), 3u);
      for (const auto& [key, v] : log.executed)
        EXPECT_EQ(key.patch.value() % 2, 0);
      log.executed.clear();
    }
    // Re-enable the odd half: run() re-inits and executes all six.
    for (int p = 1; p < kPrograms; p += 2)
      engine.set_program_enabled(ProgramKey{PatchId{p}, TaskTag{0}}, true);
    engine.run();
    EXPECT_EQ(log.executed.size(), static_cast<std::size_t>(kPrograms));
  });
}

TEST(Engine, ParallelChainsStreamDeliveryRacesSteals) {
  // Many chains advance concurrently under 4 workers with stealing on, so
  // master-side stream delivery (re-queueing a program that just received
  // input) races worker-side steal scans taking entries from the same
  // queues. Every chain vertex must fire exactly once, whichever worker
  // ends up running it.
  comm::Cluster::run(1, [](comm::Context& ctx) {
    constexpr int kWorkers = 4;
    constexpr int kChains = 12;
    constexpr int kLen = 9;
    constexpr int kPatches = kChains * kLen;
    EngineConfig cfg{kWorkers, TerminationMode::KnownWorkload};
    cfg.steal_spin_rounds = 256;
    cfg.scheduler_seed = 42;
    Engine engine(ctx, cfg);
    TestDagProgram::Log log;
    for (int c = 0; c < kChains; ++c)
      for (int i = 0; i < kLen; ++i) {
        const int p = c * kLen + i;
        TestDagProgram::Vertex v;
        v.initial_count = (i == 0) ? 0 : 1;
        if (i + 1 < kLen) v.remote_out.emplace_back(p + 1, 0);
        engine.add_program(
            std::make_unique<TestDagProgram>(
                PatchId{p}, TaskTag{0},
                std::vector<TestDagProgram::Vertex>{v}, &log),
            /*priority=*/static_cast<double>(kLen - i),
            /*initially_active=*/true);
      }
    engine.set_routes(std::vector<RankId>(kPatches, RankId{0}));
    engine.run();

    ASSERT_EQ(log.executed.size(), static_cast<std::size_t>(kPatches));
    std::vector<int> seen(kPatches, 0);
    for (const auto& [key, v] : log.executed)
      ++seen[static_cast<std::size_t>(key.patch.value())];
    for (int p = 0; p < kPatches; ++p)
      EXPECT_EQ(seen[static_cast<std::size_t>(p)], 1) << "patch " << p;
    const EngineStats& s = engine.stats();
    EXPECT_LE(s.steals, s.steal_attempts);
    EXPECT_GE(s.executions, kPatches);
  });
}

TEST(Engine, RunTwiceReinitializes) {
  // The same engine can run multiple sweeps; init() re-runs each time.
  comm::Cluster::run(1, [](comm::Context& ctx) {
    Engine engine(ctx, {2, TerminationMode::KnownWorkload});
    std::vector<TestDagProgram::Vertex> vs(3);
    vs[0] = {0, {1}, {}};
    vs[1] = {1, {2}, {}};
    vs[2] = {1, {}, {}};
    engine.add_program(
        std::make_unique<TestDagProgram>(PatchId{0}, TaskTag{0}, vs), 0.0,
        true);
    engine.set_routes({RankId{0}});
    engine.run();
    engine.run();  // must terminate again, not hang
    SUCCEED();
  });
}

/// Random-walk token program for Safra-mode termination: workload unknown.
class WanderProgram final : public PatchProgram {
 public:
  WanderProgram(PatchId p, int npatches, std::atomic<std::int64_t>* hops)
      : PatchProgram(p, TaskTag{0}),
        npatches_(npatches),
        hops_(hops),
        rng_(77 + static_cast<std::uint64_t>(p.value())) {}

  void init() override {
    if (key().patch.value() == 0) pending_hops_ = 12;  // seed one walker
  }
  void input(const Stream& s) override {
    comm::ByteReader r(s.data);
    pending_hops_ += r.read<std::int32_t>();
  }
  void compute() override {
    while (pending_hops_ > 0) {
      hops_->fetch_add(1, std::memory_order_relaxed);
      const std::int32_t remaining = --pending_hops_;
      if (remaining > 0) {
        // Forward the remaining hops to a random other patch.
        const auto dst = static_cast<std::int32_t>(
            rng_.below(static_cast<std::uint64_t>(npatches_)));
        comm::ByteWriter w;
        w.write(remaining);
        out_.push_back(Stream{key(), {PatchId{dst}, TaskTag{0}}, w.take()});
        pending_hops_ = 0;
      }
    }
  }
  std::optional<Stream> output() override {
    if (out_.empty()) return std::nullopt;
    Stream s = std::move(out_.back());
    out_.pop_back();
    return s;
  }
  bool vote_to_halt() override { return pending_hops_ == 0; }
  [[nodiscard]] std::int64_t remaining_work() const override { return 0; }

 private:
  int npatches_;
  std::atomic<std::int64_t>* hops_;
  Rng rng_;
  std::int32_t pending_hops_ = 0;
  std::vector<Stream> out_;
};

TEST(Engine, SafraModeTerminatesUnknownWorkload) {
  std::atomic<std::int64_t> hops{0};
  constexpr int kPatches = 6;
  comm::Cluster::run(3, [&](comm::Context& ctx) {
    Engine engine(ctx, {2, TerminationMode::Safra});
    std::vector<RankId> owner(kPatches);
    for (int p = 0; p < kPatches; ++p)
      owner[static_cast<std::size_t>(p)] = RankId{p % 3};
    for (int p = 0; p < kPatches; ++p)
      if (owner[static_cast<std::size_t>(p)] == ctx.rank())
        engine.add_program(
            std::make_unique<WanderProgram>(PatchId{p}, kPatches, &hops), 0.0,
            true);
    engine.set_routes(owner);
    engine.run();
  });
  EXPECT_EQ(hops.load(), 12);
}

// ---------------------------------------------------------------------------
// BSP engine
// ---------------------------------------------------------------------------

TEST(BspEngine, ChainTakesManySupersteps) {
  static constexpr int kPatches = 12;
  comm::Cluster::run(2, [](comm::Context& ctx) {
    BspEngine engine(ctx, {2});
    std::vector<RankId> owner(kPatches);
    for (int p = 0; p < kPatches; ++p)
      owner[static_cast<std::size_t>(p)] = RankId{p % 2};
    for (int p = 0; p < kPatches; ++p) {
      if (owner[static_cast<std::size_t>(p)] != ctx.rank()) continue;
      TestDagProgram::Vertex v;
      v.initial_count = (p == 0) ? 0 : 1;
      if (p + 1 < kPatches) v.remote_out.emplace_back(p + 1, 0);
      engine.add_program(std::make_unique<TestDagProgram>(
          PatchId{p}, TaskTag{0},
          std::vector<TestDagProgram::Vertex>{v}));
    }
    engine.set_routes(owner);
    engine.run();
    // A K-long dependency chain needs at least K supersteps under BSP —
    // the cost the data-driven engine avoids.
    EXPECT_GE(engine.stats().supersteps, kPatches);
  });
}

TEST(BspEngine, LocalStreamsWaitForSuperstepBoundary) {
  // Within one superstep a local dependency must NOT resolve (BSP
  // semantics): a 2-vertex chain inside one rank still takes 2 supersteps.
  comm::Cluster::run(1, [](comm::Context& ctx) {
    BspEngine engine(ctx, {1});
    TestDagProgram::Vertex v0;
    v0.initial_count = 0;
    v0.remote_out.emplace_back(1, 0);  // cross-patch but same rank
    TestDagProgram::Vertex v1;
    v1.initial_count = 1;
    engine.add_program(std::make_unique<TestDagProgram>(
        PatchId{0}, TaskTag{0}, std::vector<TestDagProgram::Vertex>{v0}));
    engine.add_program(std::make_unique<TestDagProgram>(
        PatchId{1}, TaskTag{0}, std::vector<TestDagProgram::Vertex>{v1}));
    engine.set_routes({RankId{0}, RankId{0}});
    engine.run();
    EXPECT_GE(engine.stats().supersteps, 2);
    EXPECT_EQ(engine.stats().streams_local, 1);
  });
}

}  // namespace
}  // namespace jsweep::core
