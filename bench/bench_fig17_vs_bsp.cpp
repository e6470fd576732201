// Fig. 17 — JSweep vs the BSP-based JAxMIN baselines.
//
// Paper setup & results:
//   (a) vs JASMIN SnSweep (data-driven-in-BSP Sweep3D), Kobayashi-400,
//       288..4,608 cores: JSweep constantly faster.
//   (b) vs JAUMIN JSNT-U, ball mesh, 384..6,144 cores: JSweep constantly
//       faster, advantage growing slightly with cores.
//
// Both engines execute the identical chunk workload in the simulator; the
// BSP engine pays a barrier + collective per superstep and only overlaps
// within a superstep — exactly the "previous JAxMIN" execution model. At
// host scale, the real Engine-vs-BspEngine comparison lives in
// bench_ablation_real.

#include "bench_common.hpp"

#include <algorithm>

using namespace jsweep;

namespace {

/// Scan a few cluster-grain candidates around the fixed default on the
/// simulator and keep the fastest. The grain is
/// the knob that trades pipelining granularity (small grain = streams
/// flow early, little idle) against per-chunk overhead, and the best
/// point shifts with the core count — exactly what a static default
/// misses at the high end of Fig. 17's range.
sim::SimResult tune_grain(const sim::PatchTopology& topo,
                          const sn::Quadrature& quad, sim::SimConfig cfg,
                          int base_grain, int* best_grain) {
  std::vector<int> grains;
  for (const int g : {base_grain / 4, base_grain / 2, base_grain,
                      base_grain * 2, base_grain * 4})
    if (g >= 1 && std::find(grains.begin(), grains.end(), g) == grains.end())
      grains.push_back(g);
  sim::SimResult best;
  best.elapsed_seconds = -1.0;
  for (const int g : grains) {
    cfg.cluster_grain = g;
    const sim::SimResult r = sim::DataDrivenSim(topo, quad, cfg).run();
    if (best.elapsed_seconds < 0.0 ||
        r.elapsed_seconds < best.elapsed_seconds) {
      best = r;
      *best_grain = g;
    }
  }
  return best;
}

void compare(const char* name, const sim::PatchTopology& topo,
             const sn::Quadrature& quad, const std::vector<int>& cores,
             bool tet, int grain, const char* paper_note) {
  const std::int64_t size = topo.total_cells() * quad.num_angles();
  char setup[256];
  std::snprintf(setup, sizeof(setup),
                "%d patches, %d angles, grain %d\npaper: %s",
                topo.num_patches(), quad.num_angles(), grain, paper_note);
  bench::print_header(name, "JSweep vs BSP baseline (simulated)", setup);

  Table table({"cores", "BSP time(s)", "JSweep time(s)", "JSweep/BSP",
               "idle frac", "tuned(s)", "tuned grain", "tuned idle"});
  for (const int c : cores) {
    sim::SimConfig dd = bench::sim_config_for_cores(c);
    dd.tet_mesh = tet;
    dd.cluster_grain = grain;
    dd.cost = tet ? sim::CostModel::jsnt_u() : sim::CostModel::jsnt_s();
    sim::SimConfig bsp = dd;
    bsp.engine = sim::SimEngine::Bsp;
    const sim::SimResult r_dd = sim::DataDrivenSim(topo, quad, dd).run();
    const sim::SimResult r_bsp = sim::DataDrivenSim(topo, quad, bsp).run();
    int tuned_grain = grain;
    const sim::SimResult r_tuned =
        tune_grain(topo, quad, dd, grain, &tuned_grain);
    const double t_dd = r_dd.elapsed_seconds;
    const double t_bsp = r_bsp.elapsed_seconds;
    const auto idle_frac = [](const sim::SimResult& r) {
      const double total = r.breakdown.kernel + r.breakdown.graphop +
                           r.breakdown.pack + r.breakdown.route +
                           r.breakdown.idle;
      return total > 0.0 ? r.breakdown.idle / total : 0.0;
    };
    table.add_row({Table::num(static_cast<std::int64_t>(c)),
                   Table::num(t_bsp, 3), Table::num(t_dd, 3),
                   Table::num(t_dd / t_bsp, 3),
                   Table::num(idle_frac(r_dd), 3),
                   Table::num(r_tuned.elapsed_seconds, 3),
                   Table::num(static_cast<std::int64_t>(tuned_grain)),
                   Table::num(idle_frac(r_tuned), 3)});
    bench::Sample s_dd{std::string(name) + "/jsweep/cores_" +
                           std::to_string(c),
                       t_dd, c, size, {{"simulated", 1.0}}};
    bench::append_sim_breakdown(s_dd, r_dd);
    bench::record(std::move(s_dd));
    bench::Sample s_bsp{std::string(name) + "/bsp/cores_" +
                            std::to_string(c),
                        t_bsp, c, size,
                        {{"simulated", 1.0}, {"vs_bsp_ratio", t_dd / t_bsp}}};
    bench::append_sim_breakdown(s_bsp, r_bsp);
    bench::record(std::move(s_bsp));
    bench::Sample s_tuned{
        std::string(name) + "/jsweep_tuned/cores_" + std::to_string(c),
        r_tuned.elapsed_seconds,
        c,
        size,
        {{"simulated", 1.0},
         {"tuned_grain", static_cast<double>(tuned_grain)},
         {"vs_fixed_ratio", r_tuned.elapsed_seconds / t_dd}}};
    bench::append_sim_breakdown(s_tuned, r_tuned);
    bench::record(std::move(s_tuned));
  }
  std::printf("%s", table.str().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonReport report(argc, argv, "fig17_vs_bsp");
  {
    const sim::PatchTopology topo =
        sim::PatchTopology::structured({400, 400, 400}, {20, 20, 20});
    const sn::Quadrature quad = sn::Quadrature::product(4, 12);
    compare("Fig 17a", topo, quad, {288, 576, 1152, 2304, 4608},
            /*tet=*/false, 1000,
            "JSweep time constantly below JASMIN's at every core count");
  }
  {
    // ~482k cells / 500 per patch ≈ 965 patches → 12 blocks across.
    const sim::PatchTopology topo =
        sim::PatchTopology::lattice_ball(12, 500, 40);
    const sn::Quadrature quad = sn::Quadrature::level_symmetric(4);
    compare("Fig 17b", topo, quad, {384, 768, 1536, 3072, 6144},
            /*tet=*/true, 64,
            "JSweep below JAUMIN everywhere; gap grows slightly with cores");
  }
  return 0;
}
