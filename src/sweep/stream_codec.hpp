#pragma once

/// \file stream_codec.hpp
/// Payload format of sweep streams: a batch of face-flux deliveries. Each
/// record says "the flux through `face` is `lanes[0..W)`", one lane per
/// energy group of the sending program's group set (W = 1 for single-group
/// and per-group solves). The receiving task resolves the face to its
/// workspace slot and downwind vertex itself, so a record names no cell.
/// One record is one dependency decrement, whatever W. Vertex clustering
/// aggregates many records per stream (Sec. V-C benefit 2).
///
/// ## Wire format
///
/// A payload is a flat little-endian byte sequence (host byte order — the
/// in-process cluster never crosses endianness):
///
/// ```text
///   offset 0                 : uint64  count     (number of records)
///   offset 8 + (8+8W)*i      : int64   face      (global face id)
///   offset 8 + (8+8W)*i + 8  : double  lanes[W]  (angular face flux per
///                                                 group of the set)
/// ```
///
/// i.e. an 8-byte count header followed by `count` packed (8 + 8W)-byte
/// records. The width W is carried by the program tag's group set, not
/// the payload; encoder and decoder must agree on it. record_count()
/// validates the framing: a payload is well-formed iff
/// size == 8 + (8 + 8W)·count, checked by division so that no count can
/// wrap the product. A zero-length payload is NOT a valid codec payload —
/// the engines reserve empty stream data for the multigroup activation
/// markers, which never reach the codec.
///
/// The hot path never materializes record vectors: a program appends
/// records straight into a (pooled) payload with begin_records() /
/// append_record() / end_records(), and for_each_record() iterates a
/// payload in place.

#include <cstdint>
#include <cstring>
#include <vector>

#include "comm/serialize.hpp"

namespace jsweep::sweep {

/// Largest lane width a record can carry (= sn::kMaxGroupSetWidth, without
/// the sn dependency).
inline constexpr int kMaxRecordLanes = 8;

/// Encoded byte size of one record at lane width `width`.
[[nodiscard]] inline std::size_t record_size(int width) {
  return sizeof(std::int64_t) +
         static_cast<std::size_t>(width) * sizeof(double);
}

/// Start a payload in `out` (cleared first): a count header, filled in by
/// end_records(), and room for `max_records` records. Capacity is reused,
/// so a pooled buffer makes steady-state encoding allocation-free.
inline void begin_records(comm::Bytes& out, std::size_t max_records,
                          int width) {
  out.clear();
  out.reserve(sizeof(std::uint64_t) + max_records * record_size(width));
  out.resize(sizeof(std::uint64_t));
}

/// Append the record (face, lanes[0..width)) to a payload begun by
/// begin_records().
inline void append_record(comm::Bytes& out, std::int64_t face,
                          const double* lanes, int width) {
  const std::size_t at = out.size();
  out.resize(at + record_size(width));
  std::byte* p = out.data() + at;
  std::memcpy(p, &face, sizeof(face));
  p += sizeof(face);
  // One fixed-size copy per lane: a short loop of stores, no memcpy call.
  for (int l = 0; l < width; ++l, p += sizeof(double))
    std::memcpy(p, lanes + l, sizeof(double));
}

/// Finish a payload: write the count of the records appended since
/// begin_records().
inline void end_records(comm::Bytes& out, int width) {
  const auto count = static_cast<std::uint64_t>(
      (out.size() - sizeof(std::uint64_t)) / record_size(width));
  std::memcpy(out.data(), &count, sizeof(count));
}

/// Number of records in an encoded payload of lane width `width`
/// (validates the framing).
inline std::size_t record_count(const comm::Bytes& bytes, int width) {
  JSWEEP_CHECK_MSG(bytes.size() >= sizeof(std::uint64_t),
                   "stream payload truncated: " << bytes.size() << " bytes");
  std::uint64_t count = 0;
  std::memcpy(&count, bytes.data(), sizeof(count));
  const std::size_t body = bytes.size() - sizeof(count);
  const std::size_t rec = record_size(width);
  JSWEEP_CHECK_MSG(body % rec == 0 && body / rec == count,
                   "stream payload size mismatch: "
                       << bytes.size() << " bytes for " << count
                       << " records at width " << width);
  return static_cast<std::size_t>(count);
}

/// Visit each record of an encoded payload in place: `fn(face, lanes)`
/// with `lanes` pointing at `width` doubles (valid only during the call;
/// copied to a local to guarantee alignment).
template <class Fn>
inline void for_each_record(const comm::Bytes& bytes, int width, Fn&& fn) {
  JSWEEP_ASSERT(width >= 1 && width <= kMaxRecordLanes);
  const std::size_t count = record_count(bytes, width);
  const std::size_t rec = record_size(width);
  const std::byte* p = bytes.data() + sizeof(std::uint64_t);
  double lanes[kMaxRecordLanes];
  for (std::size_t i = 0; i < count; ++i, p += rec) {
    std::int64_t face;  // memcpy: payload bytes are not aligned
    std::memcpy(&face, p, sizeof(face));
    const std::byte* lane = p + sizeof(face);
    for (int l = 0; l < width; ++l, lane += sizeof(double))
      std::memcpy(lanes + l, lane, sizeof(double));
    fn(face, static_cast<const double*>(lanes));
  }
}

}  // namespace jsweep::sweep
