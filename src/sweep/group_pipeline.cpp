#include "sweep/group_pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "metrics/metrics.hpp"
#include "support/check.hpp"
#include "sweep/sweep_data.hpp"

namespace jsweep::sweep {

GroupPipeline::GroupPipeline(
    const sn::MultigroupXs& xs, const partition::PatchSet& ps,
    int num_angles, std::vector<const sn::Discretization*> group_discs,
    int set_width, int lane_tag_offset)
    : xs_(xs),
      ps_(ps),
      num_angles_(num_angles),
      discs_(std::move(group_discs)),
      set_width_(set_width),
      lane_tag_offset_(lane_tag_offset) {
  JSWEEP_CHECK(num_angles_ >= 1);
  JSWEEP_CHECK(lane_tag_offset_ >= 0);
  JSWEEP_CHECK_MSG(
      set_width_ >= 1 && set_width_ <= sn::kMaxGroupSetWidth,
      "group-set width " << set_width_ << " outside [1, "
                         << sn::kMaxGroupSetWidth << "]");
  JSWEEP_CHECK_MSG(static_cast<int>(discs_.size()) == xs_.groups(),
                   "need one discretization per group");
  JSWEEP_CHECK_MSG(xs_.cells() == ps_.num_cells(),
                   "multigroup table covers "
                       << xs_.cells() << " cells, mesh has "
                       << ps_.num_cells());
  num_sets_ = (xs_.groups() + set_width_ - 1) / set_width_;
  q_sets_.assign(static_cast<std::size_t>(num_sets_), std::vector<double>());
  sigma_t_sets_.assign(static_cast<std::size_t>(num_sets_),
                       std::vector<double>());
  for (int s = 0; s < num_sets_; ++s) {
    const int base = s * set_width_;
    const int ws = set_width_of(GroupId{s});
    auto& st = sigma_t_sets_[static_cast<std::size_t>(s)];
    st.assign(static_cast<std::size_t>(ps_.num_cells()) *
                  static_cast<std::size_t>(ws),
              0.0);
    for (std::int64_t c = 0; c < ps_.num_cells(); ++c)
      for (int l = 0; l < ws; ++l)
        st[static_cast<std::size_t>(c) * static_cast<std::size_t>(ws) +
           static_cast<std::size_t>(l)] = xs_.sigma_t(base + l, c);
  }
  phi_groups_.assign(
      static_cast<std::size_t>(xs_.groups()),
      std::vector<double>(static_cast<std::size_t>(ps_.num_cells()), 0.0));
  next_q_.assign(
      static_cast<std::size_t>(xs_.groups()),
      std::vector<double>(static_cast<std::size_t>(ps_.num_cells()), 0.0));
}

std::size_t GroupPipeline::local_index(PatchId p) const {
  const std::int32_t idx = local_of_patch_[static_cast<std::size_t>(p.value())];
  JSWEEP_CHECK_MSG(idx >= 0, "patch " << p << " not registered");
  return static_cast<std::size_t>(idx);
}

void GroupPipeline::register_patches(const std::vector<PatchId>& patches) {
  JSWEEP_CHECK_MSG(local_patches_.empty(), "patches already registered");
  local_patches_ = patches;
  local_of_patch_.assign(static_cast<std::size_t>(ps_.num_patches()), -1);
  for (std::size_t i = 0; i < local_patches_.size(); ++i) {
    const PatchId p = local_patches_[i];
    JSWEEP_CHECK(local_of_patch_[static_cast<std::size_t>(p.value())] < 0);
    local_of_patch_[static_cast<std::size_t>(p.value())] =
        static_cast<std::int32_t>(i);
  }
  const std::size_t slots =
      local_patches_.size() * static_cast<std::size_t>(num_sets_);
  remaining_ = std::make_unique<std::atomic<std::int32_t>[]>(slots);
  phi_ptrs_.assign(slots * static_cast<std::size_t>(num_angles_), nullptr);
}

void GroupPipeline::register_program(PatchId p, AngleId a, GroupId set,
                                     const std::vector<double>* phi_local) {
  JSWEEP_CHECK(phi_local != nullptr);
  const std::size_t slot =
      phi_slot(local_index(p), set.value(), a.value());
  phi_ptrs_[slot] = phi_local;
}

void GroupPipeline::begin_pass(
    const std::vector<std::vector<double>>& q_base) {
  JSWEEP_CHECK_MSG(static_cast<int>(q_base.size()) == xs_.groups(),
                   "q_base must hold one source per group");
  const std::int64_t n = ps_.num_cells();
  for (int g = 0; g < xs_.groups(); ++g)
    JSWEEP_CHECK(static_cast<std::int64_t>(
                     q_base[static_cast<std::size_t>(g)].size()) == n);
  // Pack the per-group base sources into the lane-strided per-set layout
  // (at W == 1 this is the plain per-group copy).
  for (int s = 0; s < num_sets_; ++s) {
    const int base = s * set_width_;
    const int ws = set_width_of(GroupId{s});
    auto& q = q_sets_[static_cast<std::size_t>(s)];
    q.assign(static_cast<std::size_t>(n) * static_cast<std::size_t>(ws), 0.0);
    for (int l = 0; l < ws; ++l) {
      const auto& src = q_base[static_cast<std::size_t>(base + l)];
      for (std::int64_t c = 0; c < n; ++c)
        q[static_cast<std::size_t>(c) * static_cast<std::size_t>(ws) +
          static_cast<std::size_t>(l)] = src[static_cast<std::size_t>(c)];
    }
  }
  for (auto& phi : phi_groups_) std::fill(phi.begin(), phi.end(), 0.0);
  const std::size_t slots =
      local_patches_.size() * static_cast<std::size_t>(num_sets_);
  for (std::size_t i = 0; i < slots; ++i)
    remaining_[i].store(num_angles_, std::memory_order_relaxed);

  if (metrics_ != nullptr) {
    metric_passes_->inc();
    pass_start_seconds_ = metrics_->now_seconds();
    emit_seconds_.assign(slots, 0.0);
    if (first_open_ == nullptr)
      first_open_ = std::make_unique<std::atomic<double>[]>(slots);
    for (std::size_t i = 0; i < slots; ++i)
      first_open_[i].store(std::numeric_limits<double>::infinity(),
                           std::memory_order_relaxed);
  }
}

void GroupPipeline::on_program_complete(PatchId p, GroupId set,
                                        const ProgramKey& src,
                                        std::vector<core::Stream>& pending) {
  const std::size_t idx = local_index(p);
  const std::size_t slot =
      idx * static_cast<std::size_t>(num_sets_) +
      static_cast<std::size_t>(set.value());
  // acq_rel: siblings' φ writes happen-before the last completer's reads.
  if (remaining_[slot].fetch_sub(1, std::memory_order_acq_rel) != 1) return;

  const auto& cells = ps_.cells(p);
  const int sv = set.value();
  const int base = sv * set_width_;
  const int ws = set_width_of(set);

  // 1. Patch p's per-group scalar fluxes for the set's lanes, ascending
  //    angle order (per group, the same per-cell accumulation order as the
  //    serial Σ_a w_a ψ_a).
  for (int a = 0; a < num_angles_; ++a) {
    const std::vector<double>* phi_local = phi_ptrs_[phi_slot(idx, sv, a)];
    JSWEEP_CHECK_MSG(phi_local != nullptr,
                     "program (" << p << ", angle " << a << ", set " << sv
                                 << ") never registered");
    for (std::size_t v = 0; v < cells.size(); ++v) {
      const auto c = static_cast<std::size_t>(cells[v].value());
      for (int l = 0; l < ws; ++l)
        phi_groups_[static_cast<std::size_t>(base + l)][c] +=
            (*phi_local)[v * static_cast<std::size_t>(ws) +
                         static_cast<std::size_t>(l)];
    }
  }
  // 1b. Source-tail overlap: the NEXT pass's base source for this set's
  //     own groups on p's cells — emission density plus the lagged
  //     within-set downscatter, both functions of the φ accumulated above.
  //     Assignment-then-accumulate per cell keeps lag-loop repeats
  //     idempotent (the last engine run's φ — the committed one — wins).
  //     The per-cell order (emission, then `from` ascending) matches the
  //     serial formation in solve_multigroup_sweeps bitwise.
  for (int l = 0; l < ws; ++l) {
    const int g = base + l;
    auto& nq = next_q_[static_cast<std::size_t>(g)];
    const auto& phi_g = phi_groups_[static_cast<std::size_t>(g)];
    for (std::size_t v = 0; v < cells.size(); ++v) {
      const std::int64_t c = cells[v].value();
      const auto ci = static_cast<std::size_t>(c);
      nq[ci] = (xs_.sigma_s(g, g, c) * phi_g[ci] + xs_.source(g, c)) *
               sn::kInvFourPi;
      for (int from = base; from < g; ++from)
        nq[ci] += sn::inscatter_term(
            xs_, from, g, c,
            phi_groups_[static_cast<std::size_t>(from)][ci]);
    }
  }
  if (sv + 1 >= num_sets_) return;

  // 2. Set s+1's sources on p: base part (packed at begin_pass) + fresh
  //    in-scatter of every group below the next set's base, ascending —
  //    one shared expression (inscatter_term) keeps this bitwise-identical
  //    to the width-aware sequential_sweep_pass.
  const int next_base = (sv + 1) * set_width_;
  const int next_ws = set_width_of(GroupId{sv + 1});
  auto& q = q_sets_[static_cast<std::size_t>(sv + 1)];
  for (int t = 0; t < next_ws; ++t) {
    const int to = next_base + t;
    for (int from = 0; from < next_base; ++from) {
      const auto& phi_from = phi_groups_[static_cast<std::size_t>(from)];
      for (std::size_t v = 0; v < cells.size(); ++v) {
        const std::int64_t c = cells[v].value();
        q[static_cast<std::size_t>(c) * static_cast<std::size_t>(next_ws) +
          static_cast<std::size_t>(t)] += sn::inscatter_term(
            xs_, from, to, c, phi_from[static_cast<std::size_t>(c)]);
      }
    }
  }

  // 3. Inject set s+1 on this patch: one empty-payload activation stream
  //    per angle program.
  for (int a = 0; a < num_angles_; ++a) {
    core::Stream s;
    s.src = src;
    s.dst = ProgramKey{
        p, TaskTag{sweep_task_tag(AngleId{a}, GroupId{sv + 1}, num_angles_)
                       .value() +
                   lane_tag_offset_}};
    pending.push_back(std::move(s));
  }
  if (metrics_ != nullptr) {
    // slot indexes (p, sv); its successor (p, sv + 1) is the gated target.
    emit_seconds_[slot + 1] = metrics_->now_seconds();
    metric_activations_->inc(num_angles_);
  }
}

void GroupPipeline::set_metrics(metrics::Registry* registry, int rank) {
  metrics_ = registry;
  if (registry == nullptr) return;
  const metrics::Labels by_rank{{"rank", std::to_string(rank)},
                                {"set_width", std::to_string(set_width_)}};
  metric_passes_ = &registry->counter("jsweep_pipeline_passes_total",
                                      "multigroup sweep passes", by_rank);
  metric_activations_ =
      &registry->counter("jsweep_pipeline_activations_total",
                         "activation streams emitted to gated group sets",
                         by_rank);
  metric_activation_latency_ = &registry->histogram(
      "jsweep_pipeline_activation_latency_seconds",
      "latency from activation emit to the patch-set gate opening",
      metrics::Registry::exponential_buckets(1e-6, 4.0, 12), by_rank);
  metric_fill_ = &registry->gauge(
      "jsweep_pipeline_fill_seconds",
      "pass time until every group set's first gate opened", by_rank);
  metric_group_open_.clear();
  for (int s = 1; s < num_sets_; ++s) {
    metrics::Labels labels = by_rank;
    // Sets are labelled by their base group so dashboards keep a stable
    // meaning across widths (set s starts at group s*W).
    labels.emplace_back("group", std::to_string(s * set_width_));
    metric_group_open_.push_back(&registry->gauge(
        "jsweep_pipeline_group_first_open_seconds",
        "pass time at which the group set's first gate opened", labels));
  }
}

void GroupPipeline::note_gate_opened(PatchId p, GroupId set) {
  if (metrics_ == nullptr) return;
  const std::size_t slot =
      local_index(p) * static_cast<std::size_t>(num_sets_) +
      static_cast<std::size_t>(set.value());
  const double now = metrics_->now_seconds();
  double cur = first_open_[slot].load(std::memory_order_relaxed);
  while (now < cur && !first_open_[slot].compare_exchange_weak(
                          cur, now, std::memory_order_relaxed)) {
  }
}

void GroupPipeline::finish_pass_metrics() {
  if (metrics_ == nullptr || first_open_ == nullptr) return;
  double fill = 0.0;
  for (int s = 1; s < num_sets_; ++s) {
    double set_first = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < local_patches_.size(); ++i) {
      const std::size_t slot = i * static_cast<std::size_t>(num_sets_) +
                               static_cast<std::size_t>(s);
      const double open = first_open_[slot].load(std::memory_order_relaxed);
      const double emit = emit_seconds_[slot];
      if (std::isfinite(open) && emit > 0.0 && open >= emit)
        metric_activation_latency_->observe(open - emit);
      set_first = std::min(set_first, open);
    }
    if (std::isfinite(set_first)) {
      const double rel = set_first - pass_start_seconds_;
      metric_group_open_[static_cast<std::size_t>(s - 1)]->set(rel);
      fill = std::max(fill, rel);
    }
  }
  metric_fill_->set(fill);
}

}  // namespace jsweep::sweep
