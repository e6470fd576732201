#include "sweep/sweep_data.hpp"

#include <algorithm>
#include <atomic>
#include <bit>

#include "support/check.hpp"

namespace jsweep::sweep {

namespace {
/// See SweepTaskData::total_created(): instances ever built, process-wide.
std::atomic<std::int64_t> g_task_data_created{0};

template <class T>
std::int64_t capacity_bytes(const std::vector<T>& v) {
  return static_cast<std::int64_t>(v.capacity() * sizeof(T));
}
}  // namespace

// --- FaceSlotInterner ------------------------------------------------------

void FaceSlotInterner::reset(std::int64_t expected_faces) {
  size_ = 0;
  // Bump the epoch: every bucket of the previous task is dead at once.
  if (++epoch_ == 0) {
    for (auto& b : buckets_) b.epoch = 0;
    epoch_ = 1;
  }
  // Load factor <= 1/2 for the expected count; grow() covers the rest.
  std::size_t want = 16;
  while (want < 2 * static_cast<std::size_t>(std::max<std::int64_t>(
                        expected_faces, 0)))
    want *= 2;
  if (buckets_.size() < want) buckets_.assign(want, Bucket{0, 0, 0});
  mask_ = buckets_.size() - 1;
  shift_ = 64 - std::countr_zero(buckets_.size());
}

void FaceSlotInterner::grow() {
  std::vector<Bucket> old(buckets_.size() * 2, Bucket{0, 0, 0});
  old.swap(buckets_);
  mask_ = buckets_.size() - 1;
  shift_ = 64 - std::countr_zero(buckets_.size());
  for (const auto& b : old) {
    if (b.epoch != epoch_) continue;
    std::size_t i = home(b.face);
    while (buckets_[i].epoch == epoch_) i = (i + 1) & mask_;
    buckets_[i] = b;
  }
}

std::int32_t FaceSlotInterner::intern(std::int64_t face) {
  JSWEEP_ASSERT(!buckets_.empty());  // reset() before the first intern()
  for (;;) {
    std::size_t i = home(face);
    while (buckets_[i].epoch == epoch_) {
      if (buckets_[i].face == face) return buckets_[i].slot;
      i = (i + 1) & mask_;
    }
    if (2 * (static_cast<std::size_t>(size_) + 1) <= buckets_.size()) {
      buckets_[i] = Bucket{face, size_, epoch_};
      return size_++;
    }
    grow();  // keep the load factor <= 1/2, then probe again
  }
}

std::int32_t FaceSlotInterner::find(std::int64_t face) const {
  if (buckets_.empty()) return sn::CellFaceSlots::kNone;  // never reset
  for (std::size_t i = home(face); buckets_[i].epoch == epoch_;
       i = (i + 1) & mask_)
    if (buckets_[i].face == face) return buckets_[i].slot;
  return sn::CellFaceSlots::kNone;
}

// --- SweepTaskData ---------------------------------------------------------

std::int64_t SweepTaskData::total_created() {
  return g_task_data_created.load(std::memory_order_relaxed);
}

SweepTaskData::SweepTaskData(graph::PatchTaskGraph g,
                             graph::PriorityStrategy vertex_strategy)
    : SweepTaskData(std::move(g), vertex_strategy, nullptr, nullptr, nullptr,
                    nullptr, nullptr, nullptr) {}

SweepTaskData::SweepTaskData(graph::PatchTaskGraph g,
                             graph::PriorityStrategy vertex_strategy,
                             const sn::Discretization& disc,
                             const partition::PatchSet& ps,
                             const sn::Ordinate& ordinate,
                             const LaggedFluxStore* lagged,
                             const BoundaryCoupling* boundary,
                             FaceSlotInterner* interner)
    : SweepTaskData(std::move(g), vertex_strategy, &disc, &ps, &ordinate,
                    lagged, boundary, interner) {}

SweepTaskData::SweepTaskData(graph::PatchTaskGraph g,
                             graph::PriorityStrategy vertex_strategy,
                             const sn::Discretization* disc,
                             const partition::PatchSet* ps,
                             const sn::Ordinate* ordinate,
                             const LaggedFluxStore* lagged,
                             const BoundaryCoupling* boundary,
                             FaceSlotInterner* interner)
    : patch_(g.patch), angle_(g.angle), num_vertices_(g.num_vertices) {
  g_task_data_created.fetch_add(1, std::memory_order_relaxed);
  const auto n = static_cast<std::size_t>(num_vertices_);
  const bool dense = disc != nullptr;
  const bool has_boundary = boundary != nullptr && !boundary->empty();
  any_lagged_ = g.has_lagged() || has_boundary;
  JSWEEP_CHECK_MSG(!any_lagged_ || (lagged != nullptr && dense),
                   "task graph has lagged edges but no LaggedFluxStore");

  // Local out-edges, CSR by source vertex (the face is not kept: local
  // flux flows through the workspace slots in cell_slots()).
  graph::build_csr(
      n,
      [&](auto&& emit) {
        for (const auto& e : g.local_edges) emit(e.u, OutLocal{e.v});
      },
      out_off_, out_);

  // Dense face-flux index: intern every face the kernel can touch for any
  // local cell (upwind reads — including lagged and remote-in faces —,
  // interior faces, downwind writes including domain-boundary outflow), in
  // first-touch order. Interning happens HERE, once at build time; the
  // run-time paths below all carry resolved slots.
  FaceSlotInterner private_slots;
  FaceSlotInterner& slots = interner != nullptr ? *interner : private_slots;
  if (dense) {
    slots.reset(4 * static_cast<std::int64_t>(n));
    cell_slots_.resize(n);
    const auto& cells = ps->cells(patch_);
    JSWEEP_CHECK_MSG(cells.size() == n,
                     "patch cell list does not match task vertex count");
    const auto intern = [&](std::int64_t face) -> std::int32_t {
      return face < 0 ? sn::CellFaceSlots::kNone : slots.intern(face);
    };
    sn::CellFaceIds ids;
    for (std::size_t v = 0; v < n; ++v) {
      disc->face_ids(cells[v], *ordinate, ids);
      for (int k = 0; k < ids.count; ++k) {
        const auto kk = static_cast<std::size_t>(k);
        cell_slots_[v].in[kk] = intern(ids.in[kk]);
        cell_slots_[v].out[kk] = intern(ids.out[kk]);
      }
    }
    num_slots_ = slots.size();
  }
  const auto resolve = [&](std::int64_t face) -> std::int32_t {
    if (!dense) return sn::CellFaceSlots::kNone;
    const std::int32_t slot = slots.find(face);
    JSWEEP_CHECK_MSG(slot != sn::CellFaceSlots::kNone,
                     "face " << face << " of patch " << patch_
                             << " is not touched by any local cell");
    return slot;
  };

  // Remote-in faces: sorted (face → slot) table for the stream input path.
  if (dense) {
    remote_in_slots_.reserve(g.remote_in.size());
    for (const auto& e : g.remote_in)
      remote_in_slots_.emplace_back(e.face, resolve(e.face));
    std::sort(remote_in_slots_.begin(), remote_in_slots_.end());
    remote_in_slots_.erase(
        std::unique(remote_in_slots_.begin(), remote_in_slots_.end()),
        remote_in_slots_.end());
  }

  // Distinct destination patches, ascending (stream emission order must
  // match the old per-destination std::map iteration).
  {
    std::vector<PatchId> dst;
    dst.reserve(g.remote_out.size());
    for (const auto& e : g.remote_out) dst.push_back(e.dst_patch);
    std::sort(dst.begin(), dst.end());
    dst_patches_.assign(dst.begin(), std::unique(dst.begin(), dst.end()));
  }
  const auto dst_index = [&](PatchId p) -> std::int32_t {
    const auto it =
        std::lower_bound(dst_patches_.begin(), dst_patches_.end(), p);
    JSWEEP_ASSERT(it != dst_patches_.end() && *it == p);
    return static_cast<std::int32_t>(it - dst_patches_.begin());
  };
  dst_capacity_.assign(dst_patches_.size(), 0);
  for (const auto& e : g.remote_out)
    ++dst_capacity_[static_cast<std::size_t>(dst_index(e.dst_patch))];

  // Remote out-edges, CSR by source vertex, slot- and destination-resolved.
  graph::build_csr(
      n,
      [&](auto&& emit) {
        for (const auto& e : g.remote_out)
          emit(e.u, RemoteOut{e.dst_cell, e.face, resolve(e.face),
                              dst_index(e.dst_patch)});
      },
      rout_off_, rout_);

  // Lagged structure: read-side faces to seed (deduplicated — an intra-
  // patch cut edge appears once) and a CSR of write-side faces per vertex,
  // both resolved to (workspace, store) slot pairs. Reflecting/albedo
  // boundary faces join both lists: reads seed `albedo ×` the mirror
  // angle's stored outflow, writes stage this angle's raw outflow.
  const std::int32_t angle_id = angle_.value();
  if (g.has_lagged()) {
    std::vector<std::int64_t> seed;
    seed.reserve(g.lagged_local.size() + g.lagged_in.size());
    for (const auto& e : g.lagged_local) seed.push_back(e.face);
    for (const auto& e : g.lagged_in) seed.push_back(e.face);
    std::sort(seed.begin(), seed.end());
    seed.erase(std::unique(seed.begin(), seed.end()), seed.end());
    lagged_seed_.reserve(seed.size());
    for (const auto face : seed)
      lagged_seed_.push_back(
          LaggedSlot{resolve(face), lagged->slot_index(angle_id, face)});
  }
  if (has_boundary)
    for (const auto& r : boundary->reads)
      lagged_seed_.push_back(
          LaggedSlot{resolve(r.face), r.store_slot, r.scale});

  // Write side: (vertex, face, store slot) triples in the order cut-local,
  // cut-out, boundary — the per-vertex staging order.
  struct LaggedWrite {
    std::int32_t u;
    std::int64_t face;
    std::int32_t store_slot;
  };
  std::vector<LaggedWrite> writes;
  for (const auto& e : g.lagged_local)
    writes.push_back({e.u, e.face, lagged->slot_index(angle_id, e.face)});
  for (const auto& e : g.lagged_out)
    writes.push_back({e.u, e.face, lagged->slot_index(angle_id, e.face)});
  if (has_boundary)
    for (const auto& w : boundary->writes)
      writes.push_back({w.v, w.face, w.store_slot});
  if (!writes.empty())
    graph::build_csr(
        n,
        [&](auto&& emit) {
          for (const auto& w : writes)
            emit(w.u, LaggedSlot{resolve(w.face), w.store_slot});
        },
        lag_off_, lag_slots_);

  vprio_ = graph::vertex_priorities(vertex_strategy, g);
  initial_counts_ = std::move(g.initial_counts);
}

std::int64_t SweepTaskData::memory_bytes() const {
  return static_cast<std::int64_t>(sizeof(*this)) +
         capacity_bytes(initial_counts_) + capacity_bytes(out_off_) +
         capacity_bytes(out_) + capacity_bytes(rout_off_) +
         capacity_bytes(rout_) + capacity_bytes(vprio_) +
         capacity_bytes(cell_slots_) + capacity_bytes(remote_in_slots_) +
         capacity_bytes(dst_patches_) + capacity_bytes(dst_capacity_) +
         capacity_bytes(lagged_seed_) + capacity_bytes(lag_off_) +
         capacity_bytes(lag_slots_);
}

std::int32_t SweepTaskData::slot_of_remote_in(std::int64_t face) const {
  const auto it = std::lower_bound(
      remote_in_slots_.begin(), remote_in_slots_.end(), face,
      [](const std::pair<std::int64_t, std::int32_t>& a, std::int64_t f) {
        return a.first < f;
      });
  JSWEEP_CHECK_MSG(it != remote_in_slots_.end() && it->first == face,
                   "stream delivered flux for face "
                       << face << " which patch " << patch_
                       << " never reads");
  return it->second;
}

}  // namespace jsweep::sweep
