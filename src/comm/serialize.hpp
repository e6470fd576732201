#pragma once

/// \file serialize.hpp
/// Byte-level serialization for message payloads.
///
/// Streams crossing rank boundaries are packed into byte buffers exactly as
/// they would be for MPI; pack/unpack cost is part of the paper's runtime
/// breakdown (Fig. 16), so serialization is explicit rather than hidden
/// behind shared memory.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "support/check.hpp"

namespace jsweep::comm {

/// A serialized message payload.
using Bytes = std::vector<std::byte>;

/// Appends trivially-copyable values to a byte buffer.
class ByteWriter {
 public:
  ByteWriter() = default;  ///< empty buffer
  /// Empty buffer with `reserve_bytes` of capacity pre-reserved.
  explicit ByteWriter(std::size_t reserve_bytes) {
    buf_.reserve(reserve_bytes);
  }

  /// Append the raw bytes of one trivially copyable value.
  template <class T>
  void write(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "ByteWriter::write requires a trivially copyable type");
    const auto old = buf_.size();
    buf_.resize(old + sizeof(T));
    std::memcpy(buf_.data() + old, &v, sizeof(T));
  }

  /// Append a length-prefixed vector of trivially copyable elements.
  template <class T>
  void write_vector(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    write(static_cast<std::uint64_t>(v.size()));
    const auto old = buf_.size();
    buf_.resize(old + v.size() * sizeof(T));
    if (!v.empty()) std::memcpy(buf_.data() + old, v.data(), v.size() * sizeof(T));
  }

  /// Append a length-prefixed string.
  void write_string(const std::string& s) {
    write(static_cast<std::uint64_t>(s.size()));
    const auto old = buf_.size();
    buf_.resize(old + s.size());
    if (!s.empty()) std::memcpy(buf_.data() + old, s.data(), s.size());
  }

  /// Bytes written so far.
  [[nodiscard]] std::size_t size() const { return buf_.size(); }
  /// Move the buffer out (the writer is left empty).
  [[nodiscard]] Bytes take() { return std::move(buf_); }
  /// The buffer written so far, without giving it up.
  [[nodiscard]] const Bytes& bytes() const { return buf_; }

 private:
  Bytes buf_;
};

/// Reads trivially-copyable values back out of a byte buffer.
class ByteReader {
 public:
  /// Read from `buf`, which must outlive the reader.
  explicit ByteReader(const Bytes& buf) : buf_(buf) {}

  /// Read one trivially copyable value (bounds-checked; overruns throw).
  template <class T>
  T read() {
    static_assert(std::is_trivially_copyable_v<T>);
    JSWEEP_CHECK_MSG(pos_ + sizeof(T) <= buf_.size(),
                     "ByteReader overrun at " << pos_ << "/" << buf_.size());
    T v;
    std::memcpy(&v, buf_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  /// Read a length-prefixed vector written by write_vector().
  template <class T>
  std::vector<T> read_vector() {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto n = read<std::uint64_t>();
    // Divide rather than multiply: n * sizeof(T) can wrap.
    JSWEEP_CHECK_MSG(n <= (buf_.size() - pos_) / sizeof(T),
                     "ByteReader: " << n << " elements of " << sizeof(T)
                                    << " bytes overrun at " << pos_ << "/"
                                    << buf_.size());
    std::vector<T> v(n);
    if (n) std::memcpy(v.data(), buf_.data() + pos_, n * sizeof(T));
    pos_ += n * sizeof(T);
    return v;
  }

  /// Read a length-prefixed string written by write_string().
  std::string read_string() {
    const auto n = read<std::uint64_t>();
    JSWEEP_CHECK_MSG(n <= buf_.size() - pos_,
                     "ByteReader: " << n << "-byte string overruns at "
                                    << pos_ << "/" << buf_.size());
    std::string s(reinterpret_cast<const char*>(buf_.data() + pos_), n);
    pos_ += n;
    return s;
  }

  /// Whether every byte of the buffer has been consumed.
  [[nodiscard]] bool exhausted() const { return pos_ == buf_.size(); }
  /// Current read offset in bytes.
  [[nodiscard]] std::size_t position() const { return pos_; }

 private:
  const Bytes& buf_;
  std::size_t pos_ = 0;
};

}  // namespace jsweep::comm
