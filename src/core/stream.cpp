#include "core/stream.hpp"

namespace jsweep::core {

namespace {

struct WireKey {
  std::int32_t patch;
  std::int32_t task;
};

/// Wire bytes of one stream before its payload: src and dst keys, the
/// priority and the payload's length prefix.
constexpr std::size_t kStreamHeaderBytes =
    2 * sizeof(WireKey) + sizeof(double) + sizeof(std::uint64_t);

}  // namespace

comm::Bytes pack_streams(const std::vector<Stream>& streams) {
  std::size_t bytes = sizeof(std::uint32_t);
  for (const auto& s : streams) bytes += kStreamHeaderBytes + s.data.size();
  comm::ByteWriter w(bytes);
  w.write(static_cast<std::uint32_t>(streams.size()));
  for (const auto& s : streams) {
    w.write(WireKey{s.src.patch.value(), s.src.task.value()});
    w.write(WireKey{s.dst.patch.value(), s.dst.task.value()});
    w.write(s.priority);
    w.write_vector(s.data);
  }
  return w.take();
}

std::vector<Stream> unpack_streams(const comm::Bytes& payload) {
  comm::ByteReader r(payload);
  const auto count = r.read<std::uint32_t>();
  // Bound the count by the bytes left before reserving for it.
  JSWEEP_CHECK_MSG(
      count <= (payload.size() - r.position()) / kStreamHeaderBytes,
      "stream batch of " << count << " streams overruns its "
                         << payload.size() << "-byte payload");
  std::vector<Stream> streams;
  streams.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    Stream s;
    const auto src = r.read<WireKey>();
    const auto dst = r.read<WireKey>();
    s.src = {PatchId{src.patch}, TaskTag{src.task}};
    s.dst = {PatchId{dst.patch}, TaskTag{dst.task}};
    s.priority = r.read<double>();
    s.data = r.read_vector<std::byte>();
    streams.push_back(std::move(s));
  }
  return streams;
}

}  // namespace jsweep::core
