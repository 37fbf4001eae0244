// Byte-level serialization for wire messages.
//
// All messages crossing the simulated network are encoded to bytes so that
// (a) message *size* is physically meaningful — the bandwidth model and the
// "traffic between Matrix servers corresponds to overlap-region size" result
// depend on it — and (b) encode/decode round-trips are testable invariants.
//
// Encoding: little-endian fixed-width integers, IEEE-754 doubles, LEB128
// varints for counts, length-prefixed strings.  No alignment padding.
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/ids.h"

namespace matrix {

/// Appends primitive values to a growing byte buffer.
class ByteWriter {
 public:
  ByteWriter() = default;

  /// Adopts `recycled` as the backing buffer (cleared, capacity preserved).
  /// Pairs with BufferPool / Network::rent_buffer so steady-state encoding
  /// reuses payload storage instead of allocating.
  explicit ByteWriter(std::vector<std::uint8_t> recycled)
      : buf_(std::move(recycled)) {
    buf_.clear();
  }

  /// Pre-sizes the buffer (core/protocol reserves each message's exact
  /// encoded size, so no message reallocates even on a fresh buffer).
  void reserve(std::size_t bytes) { buf_.reserve(bytes); }

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const { return buf_; }
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(buf_); }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }

  void u8(std::uint8_t v) { buf_.push_back(v); }

  void u16(std::uint16_t v) { append_le(v); }
  void u32(std::uint32_t v) { append_le(v); }
  void u64(std::uint64_t v) { append_le(v); }
  void i64(std::int64_t v) { append_le(static_cast<std::uint64_t>(v)); }

  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    append_le(bits);
  }

  /// LEB128 unsigned varint — compact for small counts.
  void varint(std::uint64_t v) {
    while (v >= 0x80) {
      buf_.push_back(static_cast<std::uint8_t>(v) | 0x80);
      v >>= 7;
    }
    buf_.push_back(static_cast<std::uint8_t>(v));
  }

  void str(std::string_view s) {
    varint(s.size());
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  void raw(std::span<const std::uint8_t> bytes) {
    varint(bytes.size());
    buf_.insert(buf_.end(), bytes.begin(), bytes.end());
  }

  template <typename Tag>
  void id(Id<Tag> v) {
    varint(v.value());
  }

 private:
  template <typename T>
  void append_le(T v) {
    // Bulk write (one resize + one wide store after optimization) instead of
    // per-byte push_back — encoding is f64/u64-heavy on the hot path.
    const std::size_t n = buf_.size();
    buf_.resize(n + sizeof(T));
    std::uint8_t* out = buf_.data() + n;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      out[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
  }

  std::vector<std::uint8_t> buf_;
};

/// Reads primitives back out of a byte buffer.  All reads are bounds-checked;
/// a malformed buffer flips `ok()` to false and subsequent reads return
/// zero values instead of touching out-of-range memory.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] bool at_end() const { return pos_ == bytes_.size(); }
  [[nodiscard]] std::size_t remaining() const { return bytes_.size() - pos_; }

  /// Like raw(), but returns a view into the underlying buffer instead of
  /// copying — for the zero-copy frame fast paths.
  std::span<const std::uint8_t> raw_span() {
    const std::uint64_t n = varint();
    if (!check(n)) return {};
    std::span<const std::uint8_t> out = bytes_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  std::uint8_t u8() {
    if (!check(1)) return 0;
    return bytes_[pos_++];
  }

  std::uint16_t u16() { return read_le<std::uint16_t>(); }
  std::uint32_t u32() { return read_le<std::uint32_t>(); }
  std::uint64_t u64() { return read_le<std::uint64_t>(); }
  std::int64_t i64() { return static_cast<std::int64_t>(read_le<std::uint64_t>()); }

  double f64() {
    const std::uint64_t bits = read_le<std::uint64_t>();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }

  std::uint64_t varint() {
    std::uint64_t v = 0;
    int shift = 0;
    while (true) {
      if (!check(1) || shift > 63) {
        ok_ = false;
        return 0;
      }
      const std::uint8_t byte = bytes_[pos_++];
      v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
      if ((byte & 0x80) == 0) break;
      shift += 7;
    }
    return v;
  }

  std::string str() {
    const std::uint64_t n = varint();
    if (!check(n)) return {};
    std::string s(reinterpret_cast<const char*>(bytes_.data() + pos_), n);
    pos_ += n;
    return s;
  }

  std::vector<std::uint8_t> raw() {
    const std::uint64_t n = varint();
    if (!check(n)) return {};
    std::vector<std::uint8_t> out(bytes_.begin() + static_cast<std::ptrdiff_t>(pos_),
                                  bytes_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
    pos_ += n;
    return out;
  }

  template <typename IdType>
  IdType id() {
    return IdType(varint());
  }

 private:
  bool check(std::uint64_t n) {
    if (!ok_ || n > bytes_.size() - pos_) {
      ok_ = false;
      return false;
    }
    return true;
  }

  template <typename T>
  T read_le() {
    if (!check(sizeof(T))) return T{};
    // Accumulate in u64 with the canonical little-endian idiom, which
    // optimizers collapse into a single wide load.
    const std::uint8_t* in = bytes_.data() + pos_;
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<std::uint64_t>(in[i]) << (8 * i);
    }
    pos_ += sizeof(T);
    return static_cast<T>(v);
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace matrix
