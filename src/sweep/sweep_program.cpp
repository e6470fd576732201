#include "sweep/sweep_program.hpp"

#include <utility>

#include "support/check.hpp"
#include "sweep/group_pipeline.hpp"

namespace jsweep::sweep {

static_assert(sn::kMaxGroupSetWidth == kMaxRecordLanes);

namespace {

/// At init, seed every lagged read face with the previous sweep's iterate
/// so cut dependencies never wait. `group` is the base energy group and
/// `width` the group-set width: lane l seeds workspace index
/// `ws_slot * width + l` from group `group + l`'s store stride (width 1 is
/// the classic scalar layout, bit-for-bit).
void seed_lagged_faces(const SweepTaskData& data, const LaggedFluxStore* store,
                       GroupId group, sn::FaceFluxWorkspace& flux,
                       int width) {
  if (!data.has_lagged()) return;
  JSWEEP_CHECK_MSG(store != nullptr,
                   "task graph has lagged edges but no LaggedFluxStore");
  // The scale is 1.0 for cycle-cut faces (1.0 · x is bitwise x) and the
  // side's albedo for reflecting-boundary reads.
  for (const auto& s : data.lagged_seed_slots())
    for (int l = 0; l < width; ++l)
      flux.write(s.ws_slot * width + l,
                 s.scale *
                     store->prev_by_slot(s.store_slot, group.value() + l));
}

/// After computing vertex v, stage each lagged face it wrote for the next
/// sweep and restore the old iterate, so any later reader sees the value
/// the cut promised regardless of execution order. Same (group, width)
/// striding contract as seed_lagged_faces().
void stage_lagged_writes(const SweepTaskData& data, LaggedFluxStore* store,
                         GroupId group, std::int32_t v,
                         sn::FaceFluxWorkspace& flux, int width) {
  data.for_lagged_writes(v, [&](const LaggedSlot& s) {
    for (int l = 0; l < width; ++l) {
      const std::int32_t ws = s.ws_slot * width + l;
      JSWEEP_ASSERT(flux.has(ws));
      store->stage_by_slot(s.store_slot, group.value() + l, flux.read(ws));
      flux.write(ws, store->prev_by_slot(s.store_slot, group.value() + l));
    }
  });
}

}  // namespace

void WorkspaceLease::reset_for_run(const SweepShared& shared) {
  // The privately owned fallback workspace must never enter the pool.
  if (flux_ != nullptr && flux_ != &owned_ && shared.flux_pool != nullptr)
    shared.flux_pool->release(flux_);  // stale borrow from an aborted run
  flux_ = nullptr;
}

sn::FaceFluxWorkspace& WorkspaceLease::ensure(const SweepShared& shared,
                                              const SweepTaskData& data,
                                              GroupId group, int width) {
  if (flux_ != nullptr) return *flux_;
  // Borrow a workspace sized for this task's face-slot count (times the
  // set width — the lanes of one face sit adjacent); reset is an O(1)
  // epoch bump, so reuse across sweeps and programs costs nothing.
  const std::int64_t slots = data.num_flux_slots() * width;
  if (shared.flux_pool != nullptr) {
    flux_ = shared.flux_pool->acquire(slots);
  } else {
    owned_.prepare(slots);
    flux_ = &owned_;
  }
  // Cycle-cut faces read the previous sweep's flux instead of waiting.
  seed_lagged_faces(data, shared.lagged, group, *flux_, width);
  return *flux_;
}

void WorkspaceLease::release_if(bool done, const SweepShared& shared) {
  if (!done || shared.flux_pool == nullptr || flux_ == nullptr ||
      flux_ == &owned_)
    return;
  shared.flux_pool->release(flux_);
  flux_ = nullptr;
}

SweepPatchProgram::SweepPatchProgram(const SweepTaskData& data,
                                     const SweepShared& shared,
                                     SweepProgramOptions options)
    : core::PatchProgram(
          data.patch(),
          TaskTag{sweep_task_tag(data.angle(), options.group,
                                 shared.quad->num_angles())
                      .value() +
                  options.lane_tag_offset}),
      data_(data),
      shared_(shared),
      options_(options) {
  JSWEEP_CHECK(options_.cluster_grain >= 1);
  JSWEEP_CHECK(options_.group.value() >= 0);
  JSWEEP_CHECK(options_.lane_tag_offset >= 0);
  JSWEEP_CHECK_MSG(options_.group.value() == 0 || shared_.pipeline != nullptr,
                   "group > 0 programs need a GroupPipeline");
  if (shared_.pipeline != nullptr) {
    JSWEEP_CHECK(options_.group.value() < shared_.pipeline->num_sets());
    set_width_ = shared_.pipeline->set_width_of(options_.group);
    group_base_ = shared_.pipeline->set_base(options_.group);
  }
}

void SweepPatchProgram::mark_ready(std::int32_t v) {
  ready_.push(ReadyEntry{data_.vertex_priority(v), v});
}

void SweepPatchProgram::init() {
  counts_ = data_.initial_counts();
  // Drain instead of reassigning: the heap keeps its capacity, so steady
  // sweeps allocate nothing here (it is empty unless a run was aborted).
  while (!ready_.empty()) ready_.pop();
  for (std::int32_t v = 0; v < data_.num_vertices(); ++v)
    if (counts_[static_cast<std::size_t>(v)] == 0) mark_ready(v);
  // The workspace itself is borrowed lazily (WorkspaceLease::ensure) on
  // the first input or compute that touches flux.
  lease_.reset_for_run(shared_);
  // Drops the payloads an aborted run left staged; steady sweeps find them
  // moved out and allocate nothing.
  out_payloads_.assign(static_cast<std::size_t>(data_.num_destinations()),
                       comm::Bytes{});
  pending_.clear();
  pending_.reserve(static_cast<std::size_t>(data_.num_destinations()));
  phi_.assign(static_cast<std::size_t>(data_.num_vertices()) *
                  static_cast<std::size_t>(set_width_),
              0.0);
  computed_ = 0;
  gate_open_ =
      shared_.pipeline == nullptr || options_.group == GroupId{0};
  completion_reported_ = false;
}

void SweepPatchProgram::input(const core::Stream& s) {
  JSWEEP_CHECK_MSG(s.dst == key(), "stream for " << s.dst << " delivered to "
                                                 << key());
  JSWEEP_CHECK_MSG(computed_ < data_.num_vertices(),
                   "stream delivered to " << key()
                                          << " after it retired all work");
  if (s.data.empty()) {  // group-activation marker: sources are ready
    gate_open_ = true;
    if (shared_.pipeline != nullptr)
      shared_.pipeline->note_gate_opened(data_.patch(), options_.group);
    return;
  }
  sn::FaceFluxWorkspace& flux =
      lease_.ensure(shared_, data_, lag_group(), set_width_);
  // One record carries the set's lane fluxes for a face: one dependency
  // decrement per face delivery, whatever the width.
  for_each_record(s.data, set_width_, [&](std::int64_t face,
                                          const double* lanes) {
    const RemoteIn& in = data_.remote_in(face);
    for (int l = 0; l < set_width_; ++l)
      flux.write(in.slot * set_width_ + l, lanes[l]);
    auto& count = counts_[static_cast<std::size_t>(in.v)];
    JSWEEP_CHECK_MSG(count > 0,
                     "dependency underflow at vertex " << in.v << " of "
                                                       << key());
    if (--count == 0) mark_ready(in.v);
  });
}

void SweepPatchProgram::compute() {
  // Gated (group > 0) programs buffer inputs but compute nothing until the
  // pipeline injects this group on this patch.
  if (!gate_open_) return;

  // Optional per-patch serialization (patch-angle parallelism ablation).
  std::unique_lock<std::mutex> serialize_lock;
  if (options_.patch_serializer != nullptr)
    serialize_lock = std::unique_lock<std::mutex>(*options_.patch_serializer);

  const sn::Ordinate& ang = shared_.quad->angle(data_.angle().value());
  // Group-aware solves resolve kernel and source per set; single-group
  // solves use the solver-installed pair directly.
  const sn::Discretization* disc = shared_.disc;
  const std::vector<double>* q_ptr = shared_.q_per_ster;
  const double* sigma_t_lanes = nullptr;
  if (shared_.pipeline != nullptr) {
    // The base group's kernel carries the geometry; the batched kernel
    // takes the set's strided σ_t explicitly.
    disc = shared_.pipeline->group_disc(GroupId{group_base_});
    q_ptr = &shared_.pipeline->q_set(options_.group);
    sigma_t_lanes = shared_.pipeline->sigma_t_set(options_.group).data();
  }
  const std::vector<double>& q = *q_ptr;
  const auto& cells = shared_.patches->cells(data_.patch());

  int in_batch = 0;
  while (!ready_.empty() && in_batch < options_.cluster_grain) {
    sn::FaceFluxWorkspace& flux =
        lease_.ensure(shared_, data_, lag_group(), set_width_);
    const std::int32_t v = ready_.top().v;
    ready_.pop();
    ++in_batch;

    // The set kernel runs at 0.48x the scalar rate at W = 1 (bench_micro
    // grind_set), so one lane takes the scalar kernel.
    const CellId cell = cells[static_cast<std::size_t>(v)];
    double psi[sn::kMaxGroupSetWidth];
    if (set_width_ == 1) {
      psi[0] = disc->sweep_cell(
          cell, ang, q, sn::FaceFluxView{&flux, &data_.cell_slots(v)});
    } else {
      disc->sweep_cell_set(
          cell, ang, set_width_, q.data(), sigma_t_lanes,
          sn::FaceFluxSetView{&flux, &data_.cell_slots(v), set_width_}, psi);
    }
    for (int l = 0; l < set_width_; ++l)
      phi_[static_cast<std::size_t>(v) * static_cast<std::size_t>(set_width_) +
           static_cast<std::size_t>(l)] = ang.weight * psi[l];
    ++computed_;

    // Downwind updates: local vertices may become ready (possibly within
    // this same batch — Listing 1's inner enqueue); remote edges stage
    // one record each into their destination patch's payload.
    data_.for_out_local(v, [&](const OutLocal& e) {
      if (--counts_[static_cast<std::size_t>(e.w)] == 0) mark_ready(e.w);
    });
    data_.for_out_remote(v,
                         [&](const RemoteOut& e) { stage_record(e, flux); });
    // Lagged (cycle-cut) faces: stage the fresh value for the next sweep,
    // then restore the old iterate so any later reader — regardless of
    // scheduling order — sees the same value the cut promised it.
    stage_lagged_writes(data_, shared_.lagged, lag_group(), v, flux,
                        set_width_);
  }

  flush_out_streams();
  // All vertices retired: the workspace has served its purpose — return it
  // so a not-yet-finished program can reuse the allocation.
  const bool done = computed_ == data_.num_vertices();
  lease_.release_if(done, shared_);
  // Multigroup: tell the pipeline this (patch, angle, group) retired; the
  // patch's last angle accumulates φ, forms group g+1's source and appends
  // its activation streams to pending_.
  if (done && !completion_reported_ && shared_.pipeline != nullptr) {
    completion_reported_ = true;
    shared_.pipeline->on_program_complete(data_.patch(), options_.group,
                                          key(), pending_);
  }
}

void SweepPatchProgram::stage_record(const RemoteOut& e,
                                     const sn::FaceFluxWorkspace& flux) {
  comm::Bytes& out = out_payloads_[static_cast<std::size_t>(e.dst)];
  if (out.empty()) {  // the batch's first record for this destination
    if (shared_.stream_buffers != nullptr)
      out = shared_.stream_buffers->acquire();
    begin_records(
        out, static_cast<std::size_t>(data_.destination_capacity(e.dst)),
        set_width_);
  }
  double lanes[sn::kMaxGroupSetWidth];
  for (int l = 0; l < set_width_; ++l) {
    const std::int32_t ws = e.slot * set_width_ + l;
    JSWEEP_ASSERT(flux.has(ws));
    lanes[l] = flux.read(ws);
  }
  append_record(out, e.face, lanes, set_width_);
}

void SweepPatchProgram::flush_out_streams() {
  // Ascending destination patch id: the deterministic emission order.
  for (std::int32_t d = 0; d < data_.num_destinations(); ++d) {
    comm::Bytes& out = out_payloads_[static_cast<std::size_t>(d)];
    if (out.empty()) continue;
    end_records(out, set_width_);
    core::Stream s;
    s.src = key();
    s.dst = ProgramKey{data_.destination(d), key().task};
    s.data = std::exchange(out, comm::Bytes{});
    pending_.push_back(std::move(s));
  }
}

std::optional<core::Stream> SweepPatchProgram::output() {
  if (pending_.empty()) return std::nullopt;
  core::Stream s = std::move(pending_.back());
  pending_.pop_back();
  return s;
}

bool SweepPatchProgram::vote_to_halt() {
  return !gate_open_ || ready_.empty();
}

}  // namespace jsweep::sweep
