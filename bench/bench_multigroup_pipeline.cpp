// Group-pipelining ablation on the REAL threaded runtime: a full G-group
// multigroup solve with the sweep-pass outer scheme, run two ways over the
// identical (patch, angle, group) workload —
//
//   pipelined:  one engine run per pass sweeps all groups; group g+1's
//               programs are injected per patch the moment group g's
//               scattering source is ready there (activation streams);
//   barriered:  one engine run per group per pass, with a global barrier
//               (and collective) between consecutive groups.
//
// Both compute bitwise-identical fluxes (asserted), so the wall-clock gap
// is pure scheduling: pipelining hides each group's pipeline fill/drain
// behind the previous group's tail — the same idle-hiding argument the
// data-driven engine makes for patch-angle parallelism, applied along the
// energy axis. A simulator sample extends the comparison to paper-scale
// core counts.

#include "bench_common.hpp"

#include <algorithm>

#include "comm/cluster.hpp"
#include "mesh/generators.hpp"
#include "metrics/metrics.hpp"
#include "partition/adjacency.hpp"
#include "partition/block_layout.hpp"
#include "partition/patch_set.hpp"
#include "sim/patch_topology.hpp"
#include "sn/multigroup.hpp"
#include "support/timer.hpp"
#include "sweep/session.hpp"

using namespace jsweep;

namespace {

constexpr int kRanks = 4;
constexpr int kGroups = 4;

struct Fixture {
  explicit Fixture(int n)
      : mesh(mesh::make_kobayashi_mesh(n)),
        layout(mesh.dims(), {n / 4, n / 4, n / 4}),
        graph(partition::cell_graph(mesh)),
        patches(partition::block_partition(layout), layout.num_patches(),
                &graph),
        mxs(sn::MultigroupXs::cascade(sn::MaterialTable::kobayashi(),
                                      mesh.materials(), mesh.num_cells(),
                                      kGroups)),
        disc(mesh, mxs.group_view(0)),
        quad(sn::Quadrature::level_symmetric(4)) {}

  mesh::StructuredMesh mesh;
  partition::StructuredBlockLayout layout;
  partition::CsrGraph graph;
  partition::PatchSet patches;
  sn::MultigroupXs mxs;
  sn::StructuredDD disc;
  sn::Quadrature quad;
};

struct Timed {
  double seconds = 0.0;
  int passes = 0;
  std::vector<std::vector<double>> phi;
  // Live pipeline metrics (pipelined runs only): last-pass fill time (max
  // over ranks) and the cross-rank activation-latency histogram summary.
  double fill_seconds = 0.0;
  std::int64_t activations = 0;
  double activation_mean_seconds = 0.0;
  double activation_max_seconds = 0.0;
  // Scheduler health, folded over all ranks' engine series: worker
  // busy/idle seconds and the steal-scan hit/miss counters.
  double busy_seconds = 0.0;
  double idle_seconds = 0.0;
  std::int64_t steal_hits = 0;
  std::int64_t steal_misses = 0;

  [[nodiscard]] double idle_fraction() const {
    const double total = busy_seconds + idle_seconds;
    return total > 0.0 ? idle_seconds / total : 0.0;
  }
  [[nodiscard]] double steal_hit_rate() const {
    const auto attempts = steal_hits + steal_misses;
    return attempts > 0
               ? static_cast<double>(steal_hits) /
                     static_cast<double>(attempts)
               : 0.0;
  }
};

/// Fold the registry's pipeline families into `t` (max fill over ranks,
/// activation histogram totals across ranks) plus the engine's scheduler
/// series (busy/idle seconds summed over ranks, steal hit/miss totals).
void extract_registry_metrics(const metrics::Registry& registry, Timed& t) {
  double latency_sum = 0.0;
  for (const auto& fam : registry.snapshot()) {
    if (fam.name == "jsweep_pipeline_fill_seconds") {
      for (const auto& s : fam.series)
        t.fill_seconds = std::max(t.fill_seconds, s.gauge_value);
    } else if (fam.name == "jsweep_pipeline_activation_latency_seconds") {
      for (const auto& s : fam.series) {
        t.activations += s.histogram.count;
        latency_sum += s.histogram.sum;
        t.activation_max_seconds =
            std::max(t.activation_max_seconds, s.histogram.max);
      }
    } else if (fam.name == "jsweep_engine_worker_busy_seconds") {
      for (const auto& s : fam.series) t.busy_seconds += s.gauge_value;
    } else if (fam.name == "jsweep_engine_worker_idle_seconds") {
      for (const auto& s : fam.series) t.idle_seconds += s.gauge_value;
    } else if (fam.name == "jsweep_engine_steals_total") {
      for (const auto& s : fam.series) {
        const bool hit =
            std::find(s.labels.begin(), s.labels.end(),
                      std::make_pair(std::string("result"),
                                     std::string("hit"))) != s.labels.end();
        (hit ? t.steal_hits : t.steal_misses) += s.counter_value;
      }
    }
  }
  if (t.activations > 0)
    t.activation_mean_seconds =
        latency_sum / static_cast<double>(t.activations);
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Timed solve(const Fixture& f, bool pipelined, int workers) {
  Timed t;
  // One registry per solve: every rank of the in-process cluster publishes
  // into it (rank-labelled series), and the pipelined sample attaches the
  // fill/activation-latency numbers it collects.
  metrics::Registry registry;
  comm::Cluster::run(kRanks, [&](comm::Context& ctx) {
    sweep::PlanConfig plan_config;
    plan_config.multigroup = &f.mxs;
    plan_config.group_pipelining = pipelined;
    sweep::SolveConfig solve_config;
    solve_config.num_workers = workers;
    // Both modes carry the registry so its (<= 2%) cost cancels out of the
    // pipelined-vs-barriered speedup; only pipelined runs publish the
    // pipeline fill/activation families.
    solve_config.metrics.registry = &registry;
    const auto owner =
        partition::assign_contiguous(f.patches.num_patches(), ctx.size());
    const auto plan =
        sweep::SweepPlan::build(ctx, f.mesh, f.patches, owner, f.disc,
                                f.quad, plan_config);
    sweep::SweepSession session(ctx, plan, solve_config);
    sn::MultigroupOptions mg;
    mg.inner.tolerance = 1e-5;
    mg.inner.max_iterations = 100;
    WallTimer timer;
    const auto result = session.solve_multigroup(mg);
    if (ctx.rank().value() == 0) {
      t.seconds = timer.seconds();
      t.passes = result.pass_iterations;
      t.phi = result.phi;
    }
  });
  extract_registry_metrics(registry, t);
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonReport report(argc, argv, "multigroup_pipeline");
  bench::print_header(
      "multigroup-pipeline",
      "Group-pipelined vs group-barriered multigroup sweeps",
      "paper context: JSNT-U runs S4 with 4 energy groups (Sec. VI-B); "
      "data-driven execution lets consecutive groups' sweeps overlap");
  std::printf(
      "note: the real-runtime rows need parallel hardware to show the\n"
      "scheduling win (a saturated/single-core host serializes both modes);\n"
      "the simulator rows below show the shape at paper-scale core counts.\n"
      "Either way the two modes must agree bitwise (hard gate).\n\n");

  Table table({"n", "workers", "barriered(s)", "pipelined(s)",
               "speedup(med)", "idle frac", "steal hit%"});
  for (const int n : {16, 24}) {
    const Fixture f(n);
    for (const int workers : {2, 4}) {
      // Alternating barriered/pipelined pairs: interleaving cancels slow
      // host drift (thermal, noisy neighbours) out of the ratio, and the
      // median of the per-pair speedups is what the CI gate consumes.
      const int pairs = workers == 4 ? 5 : 1;
      std::vector<double> barriered_s;
      std::vector<double> pipelined_s;
      std::vector<double> speedups;
      Timed barriered;
      Timed pipelined;
      for (int rep = 0; rep < pairs; ++rep) {
        barriered = solve(f, false, workers);
        pipelined = solve(f, true, workers);
        // Identical physics regardless of scheduling: hard gate per pair.
        for (std::size_t g = 0; g < pipelined.phi.size(); ++g)
          for (std::size_t c = 0; c < pipelined.phi[g].size(); ++c)
            if (pipelined.phi[g][c] != barriered.phi[g][c]) {
              std::fprintf(stderr,
                           "FAIL: pipelined/barriered flux mismatch at "
                           "group %zu cell %zu\n",
                           g, c);
              return 1;
            }
        barriered_s.push_back(barriered.seconds);
        pipelined_s.push_back(pipelined.seconds);
        speedups.push_back(barriered.seconds / pipelined.seconds);
      }
      const double speedup_median = median(speedups);
      table.add_row({Table::num(static_cast<std::int64_t>(n)),
                     Table::num(static_cast<std::int64_t>(workers)),
                     Table::num(median(barriered_s), 3),
                     Table::num(median(pipelined_s), 3),
                     Table::num(speedup_median, 2),
                     Table::num(pipelined.idle_fraction(), 3),
                     Table::num(100.0 * pipelined.steal_hit_rate(), 1)});
      std::printf(
          "  n=%d workers=%d pipelined: last-pass fill %.3gs, %lld "
          "activations, latency mean %.3gs max %.3gs, steals %lld/%lld\n",
          n, workers, pipelined.fill_seconds,
          static_cast<long long>(pipelined.activations),
          pipelined.activation_mean_seconds,
          pipelined.activation_max_seconds,
          static_cast<long long>(pipelined.steal_hits),
          static_cast<long long>(pipelined.steal_hits +
                                 pipelined.steal_misses));
      for (const bool piped : {false, true}) {
        const Timed& t = piped ? pipelined : barriered;
        bench::Sample s;
        s.name = std::string("real/n_") + std::to_string(n) + "/workers_" +
                 std::to_string(workers) +
                 (piped ? "/pipelined" : "/barriered");
        s.wall_seconds = median(piped ? pipelined_s : barriered_s);
        s.threads = kRanks * workers;
        s.problem_size = f.mesh.num_cells() * f.quad.num_angles() * kGroups;
        s.params = {{"groups", kGroups},
                    {"pipelined", piped ? 1.0 : 0.0},
                    {"passes", static_cast<double>(t.passes)},
                    {"pairs", static_cast<double>(pairs)},
                    {"idle_fraction", t.idle_fraction()},
                    {"steals", static_cast<double>(t.steal_hits)},
                    {"steal_hit_rate", t.steal_hit_rate()}};
        if (piped) {
          // Live pipeline metrics: how long the last pass took to open all
          // groups (fill) and the per-activation gate-open -> program-emit
          // latency distribution across the whole solve; plus the median
          // barriered/pipelined ratio the CI perf gate checks.
          s.params.emplace_back("speedup_median", speedup_median);
          s.params.emplace_back("pipeline_fill_s", t.fill_seconds);
          s.params.emplace_back("activations",
                                static_cast<double>(t.activations));
          s.params.emplace_back("activation_latency_mean_s",
                                t.activation_mean_seconds);
          s.params.emplace_back("activation_latency_max_s",
                                t.activation_max_seconds);
        }
        bench::record(std::move(s));
      }
    }
  }
  std::printf("%s\n", table.str().c_str());

  // Simulator extension: the same ablation at paper-scale core counts
  // (one multigroup sweep pass; virtual time).
  Table sim_table(
      {"procs", "barriered(sim s)", "pipelined(sim s)", "speedup"});
  for (const int procs : {8, 64}) {
    const sim::PatchTopology topo =
        sim::PatchTopology::structured({160, 160, 160}, {20, 20, 20});
    const sn::Quadrature quad = sn::Quadrature::level_symmetric(4);
    sim::SimConfig cfg;
    cfg.processes = procs;
    cfg.groups = kGroups;
    cfg.group_pipelining = false;
    const sim::SimResult barriered =
        sim::DataDrivenSim(topo, quad, cfg).run();
    cfg.group_pipelining = true;
    const sim::SimResult pipelined =
        sim::DataDrivenSim(topo, quad, cfg).run();
    sim_table.add_row(
        {Table::num(static_cast<std::int64_t>(procs)),
         Table::num(barriered.elapsed_seconds, 3),
         Table::num(pipelined.elapsed_seconds, 3),
         Table::num(barriered.elapsed_seconds / pipelined.elapsed_seconds,
                    2)});
    for (const bool piped : {false, true}) {
      const sim::SimResult& r = piped ? pipelined : barriered;
      bench::Sample s;
      s.name = std::string("sim/procs_") + std::to_string(procs) +
               (piped ? "/pipelined" : "/barriered");
      s.wall_seconds = r.elapsed_seconds;
      s.threads = r.cores;
      s.problem_size = static_cast<std::int64_t>(160) * 160 * 160 *
                       quad.num_angles() * kGroups;
      s.params = {{"groups", kGroups},
                  {"pipelined", piped ? 1.0 : 0.0},
                  {"simulated", 1.0}};
      bench::append_sim_breakdown(s, r);
      bench::record(std::move(s));
    }
  }
  std::printf("%s\n", sim_table.str().c_str());
  return 0;
}
