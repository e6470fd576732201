// Unit tests for the live-metrics subsystem (src/metrics): registry
// semantics, concurrency, exposition goldens, the zero-allocation hot-path
// contract, and the trace ↔ metrics cross-check on a real solve.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "comm/cluster.hpp"
#include "mesh/generators.hpp"
#include "metrics/export.hpp"
#include "metrics/metrics.hpp"
#include "metrics/trace_bridge.hpp"
#include "partition/adjacency.hpp"
#include "partition/block_layout.hpp"
#include "partition/patch_set.hpp"
#include "support/alloc_counter.hpp"
#include "support/check.hpp"
#include "sweep/session.hpp"
#include "trace/critical_path.hpp"
#include "trace/trace.hpp"

namespace jsweep::metrics {
namespace {

// --- Snapshot lookup helpers (labels are canonical = key-sorted) --------

Labels canonical(Labels labels) {
  std::sort(labels.begin(), labels.end());
  return labels;
}

const SeriesSnapshot* find_series(const std::vector<FamilySnapshot>& snap,
                                  const std::string& name, Labels labels) {
  labels = canonical(std::move(labels));
  for (const FamilySnapshot& fam : snap)
    if (fam.name == name)
      for (const SeriesSnapshot& s : fam.series)
        if (s.labels == labels) return &s;
  return nullptr;
}

std::int64_t counter_value(const std::vector<FamilySnapshot>& snap,
                           const std::string& name, Labels labels) {
  const SeriesSnapshot* s = find_series(snap, name, std::move(labels));
  EXPECT_NE(s, nullptr) << name;
  return s != nullptr ? s->counter_value : 0;
}

double gauge_value(const std::vector<FamilySnapshot>& snap,
                   const std::string& name, Labels labels) {
  const SeriesSnapshot* s = find_series(snap, name, std::move(labels));
  EXPECT_NE(s, nullptr) << name;
  return s != nullptr ? s->gauge_value : 0.0;
}

// --- Instruments --------------------------------------------------------

TEST(Counter, ConcurrentIncrementsSumExactly) {
  Registry reg;
  Counter& c = reg.counter("test_ops_total", "ops");
  constexpr int kThreads = 8;
  constexpr std::int64_t kPerThread = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&c, t] {
      for (std::int64_t i = 0; i < kPerThread; ++i) c.inc(1, t);
    });
  for (auto& th : threads) th.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
  c.inc(42);
  EXPECT_EQ(c.value(), kThreads * kPerThread + 42);
}

TEST(Gauge, ConcurrentAddsAndSet) {
  Registry reg;
  Gauge& g = reg.gauge("test_depth", "depth");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&g] {
      for (int i = 0; i < kPerThread; ++i) g.add(1.0);
    });
  for (auto& th : threads) th.join();
  EXPECT_DOUBLE_EQ(g.value(), kThreads * kPerThread);
  g.set(-3.5);
  EXPECT_DOUBLE_EQ(g.value(), -3.5);
}

TEST(Histogram, BucketBoundariesFollowLeSemantics) {
  Registry reg;
  Histogram& h =
      reg.histogram("test_latency_seconds", "latency", {1.0, 2.0, 4.0});
  // v <= bound lands in that bucket: the boundary value itself is INSIDE.
  for (const double v : {0.5, 1.0, 1.5, 2.0, 4.0, 5.0}) h.observe(v);
  const std::vector<std::int64_t> counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 4u);  // 3 bounds + the implicit +Inf bucket
  EXPECT_EQ(counts[0], 2);       // 0.5, 1.0
  EXPECT_EQ(counts[1], 2);       // 1.5, 2.0
  EXPECT_EQ(counts[2], 1);       // 4.0
  EXPECT_EQ(counts[3], 1);       // 5.0 overflows
  EXPECT_EQ(h.count(), 6);
  EXPECT_DOUBLE_EQ(h.sum(), 14.0);
  EXPECT_DOUBLE_EQ(h.max(), 5.0);
}

TEST(Histogram, ConcurrentObservationsSumExactly) {
  Registry reg;
  Histogram& h = reg.histogram("test_conc_seconds", "latency", {10.0});
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) h.observe(1.0, t);
    });
  for (auto& th : threads) th.join();
  EXPECT_EQ(h.count(), kThreads * kPerThread);
  EXPECT_DOUBLE_EQ(h.sum(), kThreads * kPerThread);
  EXPECT_EQ(h.bucket_counts()[0], kThreads * kPerThread);
  EXPECT_EQ(h.bucket_counts()[1], 0);
}

TEST(Histogram, EmptyBoundsAndInvalidBounds) {
  Registry reg;
  Histogram& h = reg.histogram("test_unbounded", "x", {});
  h.observe(123.0);
  ASSERT_EQ(h.bucket_counts().size(), 1u);  // only +Inf
  EXPECT_EQ(h.bucket_counts()[0], 1);
  EXPECT_THROW(reg.histogram("test_bad", "x", {2.0, 1.0}), CheckError);
  EXPECT_THROW(reg.histogram("test_dup", "x", {1.0, 1.0}), CheckError);
}

// --- Registry contracts -------------------------------------------------

TEST(Registry, SameNameAndLabelsYieldSameInstrument) {
  Registry reg;
  Counter& a = reg.counter("x_total", "x", {{"rank", "0"}, {"path", "a"}});
  // Label order is identity-insensitive (canonicalized by key sort).
  Counter& b = reg.counter("x_total", "x", {{"path", "a"}, {"rank", "0"}});
  EXPECT_EQ(&a, &b);
  Counter& other = reg.counter("x_total", "x", {{"rank", "1"}, {"path", "a"}});
  EXPECT_NE(&a, &other);
  a.inc(7);
  EXPECT_EQ(b.value(), 7);
}

TEST(Registry, KindAndBoundsMismatchesThrow) {
  Registry reg;
  reg.counter("a_total", "a");
  EXPECT_THROW(reg.gauge("a_total", "a"), CheckError);
  EXPECT_THROW(reg.histogram("a_total", "a", {1.0}), CheckError);
  reg.histogram("h_seconds", "h", {1.0, 2.0});
  // All series of one histogram family share one bound set.
  EXPECT_THROW(reg.histogram("h_seconds", "h", {1.0, 3.0}, {{"rank", "1"}}),
               CheckError);
  EXPECT_NO_THROW(reg.histogram("h_seconds", "h", {1.0, 2.0}, {{"rank", "1"}}));
}

TEST(Registry, NameValidation) {
  Registry reg;
  EXPECT_THROW(reg.counter("", "x"), CheckError);
  EXPECT_THROW(reg.counter("1bad", "x"), CheckError);
  EXPECT_THROW(reg.counter("has space", "x"), CheckError);
  EXPECT_THROW(reg.counter("has-dash", "x"), CheckError);
  EXPECT_NO_THROW(reg.counter("_ok_Total_9", "x"));
}

TEST(Registry, ExponentialBuckets) {
  const std::vector<double> b = Registry::exponential_buckets(1e-3, 10.0, 4);
  ASSERT_EQ(b.size(), 4u);
  EXPECT_DOUBLE_EQ(b[0], 1e-3);
  EXPECT_DOUBLE_EQ(b[1], 1e-2);
  EXPECT_DOUBLE_EQ(b[2], 1e-1);
  EXPECT_DOUBLE_EQ(b[3], 1.0);
  EXPECT_THROW(Registry::exponential_buckets(0.0, 2.0, 3), CheckError);
  EXPECT_THROW(Registry::exponential_buckets(1.0, 1.0, 3), CheckError);
  EXPECT_THROW(Registry::exponential_buckets(1.0, 2.0, 0), CheckError);
}

TEST(Registry, ExponentialBucketsRejectDegenerateArguments) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  // Negative start/factor and sub-one factors would produce non-monotone
  // bounds; non-finite values would poison every bucket downstream.
  EXPECT_THROW(Registry::exponential_buckets(-1.0, 2.0, 3), CheckError);
  EXPECT_THROW(Registry::exponential_buckets(1.0, 0.5, 3), CheckError);
  EXPECT_THROW(Registry::exponential_buckets(1.0, -2.0, 3), CheckError);
  EXPECT_THROW(Registry::exponential_buckets(kInf, 2.0, 3), CheckError);
  EXPECT_THROW(Registry::exponential_buckets(kNan, 2.0, 3), CheckError);
  EXPECT_THROW(Registry::exponential_buckets(1.0, kInf, 3), CheckError);
  EXPECT_THROW(Registry::exponential_buckets(1.0, kNan, 3), CheckError);
  // The smallest valid request still works.
  const std::vector<double> one = Registry::exponential_buckets(2.0, 3.0, 1);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_DOUBLE_EQ(one[0], 2.0);
}

// --- Exposition goldens -------------------------------------------------

/// One fixed registry shared by both golden checks.
void fill_golden(Registry& reg) {
  reg.counter("demo_ops_total", "operations", {{"rank", "0"}}).inc(3);
  reg.counter("demo_ops_total", "operations", {{"rank", "1"}}).inc(5);
  reg.gauge("demo_depth", "queue \"depth\"").set(2.5);
  Histogram& h = reg.histogram("demo_seconds", "latency", {0.5, 1.0});
  h.observe(0.25);
  h.observe(0.75);
  h.observe(2.0);
}

TEST(Exposition, PrometheusGolden) {
  Registry reg;
  fill_golden(reg);
  const std::string expected =
      "# HELP demo_ops_total operations\n"
      "# TYPE demo_ops_total counter\n"
      "demo_ops_total{rank=\"0\"} 3\n"
      "demo_ops_total{rank=\"1\"} 5\n"
      "# HELP demo_depth queue \\\"depth\\\"\n"
      "# TYPE demo_depth gauge\n"
      "demo_depth 2.5\n"
      "# HELP demo_seconds latency\n"
      "# TYPE demo_seconds histogram\n"
      "demo_seconds_bucket{le=\"0.5\"} 1\n"
      "demo_seconds_bucket{le=\"1\"} 2\n"
      "demo_seconds_bucket{le=\"+Inf\"} 3\n"
      "demo_seconds_sum 3\n"
      "demo_seconds_count 3\n";
  EXPECT_EQ(to_prometheus(reg), expected);
}

TEST(Exposition, JsonGolden) {
  Registry reg;
  fill_golden(reg);
  const std::string expected = R"({
  "schema": "jsweep-metrics-v1",
  "metrics": [
    {"name": "demo_ops_total", "kind": "counter", "help": "operations", "series": [
      {"labels": {"rank": "0"}, "value": 3},
      {"labels": {"rank": "1"}, "value": 5}
    ]},
    {"name": "demo_depth", "kind": "gauge", "help": "queue \"depth\"", "series": [
      {"labels": {}, "value": 2.5}
    ]},
    {"name": "demo_seconds", "kind": "histogram", "help": "latency", "series": [
      {"labels": {}, "count": 3, "sum": 3, "max": 2, "buckets": [{"le": 0.5, "count": 1}, {"le": 1, "count": 2}, {"le": null, "count": 3}]}
    ]}
  ]
}
)";
  EXPECT_EQ(to_json(reg), expected);
}

TEST(Exposition, WriteSnapshotPicksFormatByExtension) {
  Registry reg;
  fill_golden(reg);
  const std::string dir = ::testing::TempDir();
  write_snapshot(reg, dir + "/metrics.json");
  write_snapshot(reg, dir + "/metrics.prom");
  const auto slurp = [](const std::string& path) {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr) << path;
    std::string out;
    char buf[4096];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
    std::fclose(f);
    return out;
  };
  EXPECT_EQ(slurp(dir + "/metrics.json"), to_json(reg));
  EXPECT_EQ(slurp(dir + "/metrics.prom"), to_prometheus(reg));
  EXPECT_THROW(write_snapshot(reg, "/nonexistent-dir/x.json"), CheckError);

  // Extension matching is case-insensitive (a `.JSON` dump from a shell
  // script must not silently come out in the other format).
  write_snapshot(reg, dir + "/upper.JSON");
  write_snapshot(reg, dir + "/mixed.Prom");
  EXPECT_EQ(slurp(dir + "/upper.JSON"), to_json(reg));
  EXPECT_EQ(slurp(dir + "/mixed.Prom"), to_prometheus(reg));

  // Unknown or missing extensions refuse loudly instead of guessing.
  EXPECT_THROW(write_snapshot(reg, dir + "/metrics.txt"), CheckError);
  EXPECT_THROW(write_snapshot(reg, dir + "/metrics"), CheckError);
  // A dot in a parent directory is not an extension of the file.
  EXPECT_THROW(write_snapshot(reg, dir + "/v1.2/metrics"), CheckError);
}

// --- Hot-path allocation gate -------------------------------------------

TEST(HotPath, CounterAndHistogramUpdatesAllocateNothing) {
  Registry reg;
  Counter& c = reg.counter("hot_total", "hot");
  Gauge& g = reg.gauge("hot_depth", "hot");
  Histogram& h = reg.histogram(
      "hot_seconds", "hot", Registry::exponential_buckets(1e-6, 4.0, 12));
  // Warm up, then gate: the update path must be allocation-free (the
  // engine calls it from every worker on every task).
  c.inc();
  g.add(1.0);
  h.observe(1e-4);
  const std::int64_t before = support::allocation_count();
  for (int i = 0; i < 10000; ++i) {
    c.inc(1, i);
    g.add(0.5);
    g.set(1.0);
    h.observe(1e-5 * i, i);
  }
  EXPECT_EQ(support::allocation_count() - before, 0);
}

// --- Trace bridge -------------------------------------------------------

TEST(TraceBridge, FoldsPerRankBreakdowns) {
  trace::ProfileReport report;
  trace::RankBreakdown r0;
  r0.rank = 0;
  r0.executions = 17;
  r0.busy_seconds = 1.5;
  r0.idle_seconds = 0.5;
  trace::RankBreakdown r1;
  r1.rank = 1;
  r1.executions = 19;
  r1.busy_seconds = 1.25;
  report.ranks = {r0, r1};

  Registry reg;
  fold_profile(report, reg);
  const auto snap = reg.snapshot();
  EXPECT_DOUBLE_EQ(
      gauge_value(snap, "jsweep_trace_executions", {{"rank", "0"}}), 17.0);
  EXPECT_DOUBLE_EQ(
      gauge_value(snap, "jsweep_trace_executions", {{"rank", "1"}}), 19.0);
  EXPECT_DOUBLE_EQ(
      gauge_value(snap, "jsweep_trace_busy_seconds", {{"rank", "0"}}), 1.5);
  EXPECT_DOUBLE_EQ(
      gauge_value(snap, "jsweep_trace_idle_seconds", {{"rank", "0"}}), 0.5);
  // Re-folding overwrites (set, not add).
  fold_profile(report, reg);
  EXPECT_DOUBLE_EQ(
      gauge_value(reg.snapshot(), "jsweep_trace_executions", {{"rank", "0"}}),
      17.0);
}

// --- Live metrics on a real solve: trace ↔ metrics cross-check ----------

TEST(CrossCheck, LiveMetricsAgreeWithStatsAndTraceAnalysis) {
  const mesh::StructuredMesh mesh = mesh::make_kobayashi_mesh(8);
  const partition::StructuredBlockLayout layout({8, 8, 8}, {2, 2, 2});
  const partition::CsrGraph graph = partition::cell_graph(mesh);
  const partition::PatchSet patches(partition::block_partition(layout),
                                    layout.num_patches(), &graph);
  const sn::CellXs xs = sn::expand(sn::MaterialTable::kobayashi(),
                                   mesh.materials(), mesh.num_cells());
  const sn::StructuredDD disc(mesh, xs);
  const sn::Quadrature quad = sn::Quadrature::level_symmetric(2);
  const std::vector<double> q(static_cast<std::size_t>(mesh.num_cells()),
                              0.25);

  trace::Recorder recorder;
  Registry registry;  // one registry for the whole in-process cluster
  constexpr int kRanks = 2;
  std::vector<sweep::SolveStats> stats(kRanks);
  comm::Cluster::run(kRanks, [&](comm::Context& ctx) {
    const auto owner =
        partition::assign_contiguous(patches.num_patches(), ctx.size());
    sweep::SolveConfig config;
    config.trace.recorder = &recorder;
    config.metrics.registry = &registry;
    sweep::SweepSession session(
        ctx, sweep::SweepPlan::build(ctx, mesh, patches, owner, disc, quad),
        config);
    for (int i = 0; i < 3; ++i) session.sweep(q);
    stats[static_cast<std::size_t>(ctx.rank().value())] = session.stats();
  });

  fold_profile(trace::analyze(recorder), registry);
  const auto snap = registry.snapshot();
  const trace::ProfileReport report = trace::analyze(recorder);
  ASSERT_EQ(report.ranks.size(), static_cast<std::size_t>(kRanks));

  for (const trace::RankBreakdown& rb : report.ranks) {
    const Labels rank{{"rank", std::to_string(rb.rank)}};
    const auto& st = stats[static_cast<std::size_t>(rb.rank)];

    // Live executions vs post-mortem trace reconstruction: the recorder
    // logs one Exec span per execution and the counter increments once per
    // completion, so the accumulated totals agree exactly. (Per-run
    // executions are scheduling-dependent — a program runs once per input
    // burst — so the LAST run's stats only bound the accumulated counter.)
    const std::int64_t live_execs =
        counter_value(snap, "jsweep_engine_executions_total", rank);
    EXPECT_EQ(live_execs, rb.executions);
    EXPECT_GE(live_execs, st.engine.executions);
    EXPECT_EQ(counter_value(snap, "jsweep_engine_runs_total", rank), 3);

    // Busy seconds: the live gauge accumulates the same worker timers the
    // trace spans reconstruct — agree within a loose scheduling tolerance.
    const double live_busy =
        gauge_value(snap, "jsweep_engine_worker_busy_seconds", rank);
    const double trace_busy =
        gauge_value(snap, "jsweep_trace_busy_seconds", rank);
    EXPECT_NEAR(live_busy, trace_busy, 0.05 + 0.5 * trace_busy);

    // The routed-stream counters accumulate across runs; the last run's
    // stats bound them from below.
    EXPECT_GE(counter_value(snap, "jsweep_engine_streams_total",
                            {{"rank", std::to_string(rb.rank)},
                             {"path", "local"}}),
              st.engine.streams_local);
    EXPECT_GE(counter_value(snap, "jsweep_engine_streams_total",
                            {{"rank", std::to_string(rb.rank)},
                             {"path", "remote"}}),
              st.engine.streams_remote);

    // The master-idle stat is new EngineStats surface: live gauge and
    // stats field come from the same accumulation.
    const double live_master_idle =
        gauge_value(snap, "jsweep_engine_master_idle_seconds", rank);
    EXPECT_GE(live_master_idle, st.engine.master_idle_seconds);

    // Session-level instruments.
    EXPECT_EQ(counter_value(snap, "jsweep_session_sweeps_total",
                            {{"rank", std::to_string(rb.rank)},
                             {"lane", "0"}}),
              3);
  }
}

// --- Pipeline metrics on a real multigroup solve ------------------------

TEST(PipelineMetrics, ActivationLatencyAndFillPublished) {
  const mesh::StructuredMesh mesh = mesh::make_kobayashi_mesh(8);
  const partition::StructuredBlockLayout layout({8, 8, 8}, {4, 4, 4});
  const partition::CsrGraph graph = partition::cell_graph(mesh);
  const partition::PatchSet patches(partition::block_partition(layout),
                                    layout.num_patches(), &graph);
  const sn::MaterialTable table = sn::MaterialTable::kobayashi();
  const sn::CellXs xs =
      sn::expand(table, mesh.materials(), mesh.num_cells());
  const sn::StructuredDD disc(mesh, xs);
  const sn::Quadrature quad = sn::Quadrature::level_symmetric(2);
  constexpr int kGroups = 3;
  const sn::MultigroupXs mxs =
      sn::MultigroupXs::cascade(table, mesh.materials(), mesh.num_cells(),
                                kGroups);

  Registry registry;
  comm::Cluster::run(2, [&](comm::Context& ctx) {
    const auto owner =
        partition::assign_contiguous(patches.num_patches(), ctx.size());
    sweep::PlanConfig plan_config;
    plan_config.multigroup = &mxs;
    plan_config.group_pipelining = true;
    sweep::SolveConfig solve_config;
    solve_config.metrics.registry = &registry;
    sweep::SweepSession session(
        ctx,
        sweep::SweepPlan::build(ctx, mesh, patches, owner, disc, quad,
                                plan_config),
        solve_config);
    sn::MultigroupOptions mg;
    mg.inner = {1e-5, 50, false};
    session.solve_multigroup(mg);
  });

  const auto snap = registry.snapshot();
  for (int rank = 0; rank < 2; ++rank) {
    // Pipeline families carry the group-set width (1 here: per-group).
    const Labels labels{{"rank", std::to_string(rank)}, {"set_width", "1"}};
    const std::int64_t passes =
        counter_value(snap, "jsweep_pipeline_passes_total", labels);
    EXPECT_GE(passes, 1);
    // Each pass activates every local (patch, group>0) program once.
    EXPECT_GT(counter_value(snap, "jsweep_pipeline_activations_total", labels),
              0);
    // The activation-latency histogram saw one sample per (patch, gated
    // group) per pass, all non-negative.
    const SeriesSnapshot* lat = find_series(
        snap, "jsweep_pipeline_activation_latency_seconds", labels);
    ASSERT_NE(lat, nullptr);
    EXPECT_GT(lat->histogram.count, 0);
    EXPECT_GE(lat->histogram.sum, 0.0);
    // Fill time: every gated group opened at some non-negative pass time.
    EXPECT_GE(gauge_value(snap, "jsweep_pipeline_fill_seconds", labels), 0.0);
    for (int g = 1; g < kGroups; ++g) {
      const SeriesSnapshot* open = find_series(
          snap, "jsweep_pipeline_group_first_open_seconds",
          {{"rank", std::to_string(rank)},
           {"set_width", "1"},
           {"group", std::to_string(g)}});
      ASSERT_NE(open, nullptr) << "group " << g;
      EXPECT_GE(open->gauge_value, 0.0);
    }
  }
}

}  // namespace
}  // namespace jsweep::metrics
