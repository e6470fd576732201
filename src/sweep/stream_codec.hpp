#pragma once

/// \file stream_codec.hpp
/// Payload format of sweep streams: a batch of face-flux deliveries. Each
/// item says "the flux through `face` feeding your cell `cell` is `value`".
/// Vertex clustering aggregates many items per stream (Sec. V-C benefit 2).
///
/// ## Wire format
///
/// A payload is a flat little-endian byte sequence (host byte order — the
/// in-process cluster never crosses endianness):
///
/// ```text
///   offset 0            : uint64  count        (number of items)
///   offset 8 + 24*i     : int64   item[i].cell (destination global cell)
///   offset 8 + 24*i + 8 : int64   item[i].face (global face id)
///   offset 8 + 24*i + 16: double  item[i].value(angular face flux)
/// ```
///
/// i.e. an 8-byte count header followed by `count` packed 24-byte
/// StreamItem records (the struct is trivially copyable and memcpy'd
/// whole). item_count() validates the framing: a payload is well-formed
/// iff size == 8 + 24·count, checked by division so that no count can wrap
/// the product. A zero-length payload is NOT a valid codec payload — the
/// engines reserve empty stream data for the multigroup activation
/// markers, which never reach the codec.
///
/// The hot path never materializes item vectors: encode_items_into() fills
/// a (pooled) byte buffer in place and for_each_item() iterates the payload
/// directly. encode_items()/decode_items() remain as the allocating
/// convenience forms for tests and tools.

#include <cstdint>
#include <cstring>
#include <vector>

#include "comm/serialize.hpp"

namespace jsweep::sweep {

struct StreamItem {
  std::int64_t cell;   ///< destination cell (global id)
  std::int64_t face;   ///< mesh face id carrying the flux
  double value;        ///< angular face flux
};

static_assert(std::is_trivially_copyable_v<StreamItem>);

/// Serialize `items` into `out` (cleared first; capacity is reused, so a
/// pooled buffer makes steady-state encoding allocation-free).
inline void encode_items_into(const std::vector<StreamItem>& items,
                              comm::Bytes& out) {
  const auto count = static_cast<std::uint64_t>(items.size());
  out.clear();
  out.resize(sizeof(count) + items.size() * sizeof(StreamItem));
  std::memcpy(out.data(), &count, sizeof(count));
  if (!items.empty())
    std::memcpy(out.data() + sizeof(count), items.data(),
                items.size() * sizeof(StreamItem));
}

/// Allocating convenience form of encode_items_into().
inline comm::Bytes encode_items(const std::vector<StreamItem>& items) {
  comm::Bytes out;
  encode_items_into(items, out);
  return out;
}

/// Number of items in an encoded payload (validates the framing).
inline std::size_t item_count(const comm::Bytes& bytes) {
  JSWEEP_CHECK_MSG(bytes.size() >= sizeof(std::uint64_t),
                   "stream payload truncated: " << bytes.size() << " bytes");
  std::uint64_t count = 0;
  std::memcpy(&count, bytes.data(), sizeof(count));
  const std::size_t body = bytes.size() - sizeof(count);
  JSWEEP_CHECK_MSG(
      body % sizeof(StreamItem) == 0 && body / sizeof(StreamItem) == count,
      "stream payload size mismatch: " << bytes.size() << " bytes for "
                                       << count << " items");
  return static_cast<std::size_t>(count);
}

/// Visit each item of an encoded payload in place — no allocation, no
/// intermediate vector.
template <class Fn>
inline void for_each_item(const comm::Bytes& bytes, Fn&& fn) {
  const std::size_t count = item_count(bytes);
  const std::byte* p = bytes.data() + sizeof(std::uint64_t);
  for (std::size_t i = 0; i < count; ++i, p += sizeof(StreamItem)) {
    StreamItem item;  // memcpy: payload bytes are not alignment-guaranteed
    std::memcpy(&item, p, sizeof(item));
    fn(item);
  }
}

/// Allocating convenience form of for_each_item() (tests and tools).
inline std::vector<StreamItem> decode_items(const comm::Bytes& bytes) {
  std::vector<StreamItem> items;
  items.reserve(item_count(bytes));
  for_each_item(bytes, [&](const StreamItem& it) { items.push_back(it); });
  return items;
}

// ---------------------------------------------------------------------------
// Group-set payloads
// ---------------------------------------------------------------------------
//
// A group-set program (set width W > 1) delivers W lane fluxes per face in
// one record, so downstream dependency counting still decrements once per
// face delivery:
//
// ```text
//   offset 0                  : uint64  count     (number of records)
//   offset 8 + (16+8W)*i      : int64   cell
//   offset 8 + (16+8W)*i + 8  : int64   face
//   offset 8 + (16+8W)*i + 16 : double  lanes[W]  (flux per group of set)
// ```
//
// The record width W is carried by the program tag's set, not the payload;
// encoder and decoder must agree on it. W == 1 programs keep the StreamItem
// codec above byte-for-byte.

/// One staged group-set record before encoding: the lane values live in a
/// caller-managed flat array alongside.
struct SetStreamRecord {
  std::int64_t cell;  ///< destination cell (global id)
  std::int64_t face;  ///< mesh face id carrying the flux
};

static_assert(std::is_trivially_copyable_v<SetStreamRecord>);

/// Encoded byte size of one group-set record at lane width `width`.
[[nodiscard]] inline std::size_t set_record_size(int width) {
  return sizeof(SetStreamRecord) +
         static_cast<std::size_t>(width) * sizeof(double);
}

/// Serialize `records` (with `lanes[i * width + l]` holding record i's lane
/// values) into `out` (cleared first; capacity reused).
inline void encode_set_items_into(const std::vector<SetStreamRecord>& records,
                                  const std::vector<double>& lanes, int width,
                                  comm::Bytes& out) {
  JSWEEP_ASSERT(lanes.size() ==
                records.size() * static_cast<std::size_t>(width));
  const auto count = static_cast<std::uint64_t>(records.size());
  const std::size_t rec = set_record_size(width);
  out.clear();
  out.resize(sizeof(count) + records.size() * rec);
  std::memcpy(out.data(), &count, sizeof(count));
  std::byte* p = out.data() + sizeof(count);
  for (std::size_t i = 0; i < records.size(); ++i, p += rec) {
    std::memcpy(p, &records[i], sizeof(SetStreamRecord));
    std::memcpy(p + sizeof(SetStreamRecord),
                lanes.data() + i * static_cast<std::size_t>(width),
                static_cast<std::size_t>(width) * sizeof(double));
  }
}

/// Number of records in an encoded group-set payload of lane width `width`
/// (validates the framing).
inline std::size_t set_item_count(const comm::Bytes& bytes, int width) {
  JSWEEP_CHECK_MSG(bytes.size() >= sizeof(std::uint64_t),
                   "set stream payload truncated: " << bytes.size()
                                                    << " bytes");
  std::uint64_t count = 0;
  std::memcpy(&count, bytes.data(), sizeof(count));
  const std::size_t body = bytes.size() - sizeof(count);
  const std::size_t rec = set_record_size(width);
  JSWEEP_CHECK_MSG(
      body % rec == 0 && body / rec == count,
      "set stream payload size mismatch: " << bytes.size() << " bytes for "
                                           << count << " records at width "
                                           << width);
  return static_cast<std::size_t>(count);
}

/// Visit each record of an encoded group-set payload in place:
/// `fn(cell, face, lanes)` with `lanes` pointing at `width` doubles (valid
/// only during the call; copied to a local to guarantee alignment).
template <class Fn>
inline void for_each_set_item(const comm::Bytes& bytes, int width, Fn&& fn) {
  const std::size_t count = set_item_count(bytes, width);
  const std::size_t rec = set_record_size(width);
  const std::byte* p = bytes.data() + sizeof(std::uint64_t);
  double lanes[8];  // kMaxGroupSetWidth, without the sn dependency
  JSWEEP_ASSERT(width >= 1 && width <= 8);
  for (std::size_t i = 0; i < count; ++i, p += rec) {
    SetStreamRecord r;  // memcpy: payload bytes are not aligned
    std::memcpy(&r, p, sizeof(r));
    std::memcpy(lanes, p + sizeof(r),
                static_cast<std::size_t>(width) * sizeof(double));
    fn(r.cell, r.face, static_cast<const double*>(lanes));
  }
}

}  // namespace jsweep::sweep
