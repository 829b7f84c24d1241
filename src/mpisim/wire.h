// Wire (de)serialization for structured messages.
//
// The drivers exchange typed records (fragment assignments, candidate-hit
// metadata, output offsets). Encoder/Decoder implement a simple
// little-endian byte-stream format; everything that crosses a simulated
// message or file boundary goes through here so message *sizes* are real
// and the cost models see honest byte counts.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "util/error.h"

namespace pioblast::mpisim {

class Encoder;
class Decoder;

/// Customization point: how a value of type T crosses the wire.
///
/// Specialize WireCodec<T> next to T's definition (e.g. the FragmentRange
/// codec lives in seqdb/partition.h, the Hsp codec in blast/serialize.h) so
/// both drivers — and the typed driver::Channel<T> layer — share one
/// encoding. The primary template covers arithmetic and enum types only;
/// aggregate structs must be specialized field-by-field so struct padding
/// never leaks into (and inflates) simulated message sizes.
template <typename T>
struct WireCodec {
  static_assert(std::is_arithmetic_v<T> || std::is_enum_v<T>,
                "specialize WireCodec<T> next to T's definition (aggregates "
                "are encoded field-by-field, never memcpy'd with padding)");
  static void encode(Encoder& enc, const T& value);
  static T decode(Decoder& dec);
};

/// Appends plain-old-data values, strings, and vectors to a byte buffer.
class Encoder {
 public:
  Encoder() = default;

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  Encoder& put(const T& value) {
    append(&value, sizeof(T));
    return *this;
  }

  Encoder& put_string(const std::string& s) {
    put<std::uint64_t>(s.size());
    append(s.data(), s.size());
    return *this;
  }

  Encoder& put_bytes(std::span<const std::uint8_t> data) {
    put<std::uint64_t>(data.size());
    append(data.data(), data.size());
    return *this;
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  Encoder& put_vector(const std::vector<T>& v) {
    put<std::uint64_t>(v.size());
    append(v.data(), v.size() * sizeof(T));
    return *this;
  }

  /// Encodes `value` through its WireCodec specialization.
  template <typename T>
  Encoder& put_obj(const T& value) {
    WireCodec<T>::encode(*this, value);
    return *this;
  }

  const std::vector<std::uint8_t>& bytes() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

 private:
  /// Appends `n` raw bytes. Resize plus memcpy: g++ 12 at -O3 misreads an
  /// inlined vector::insert of a few bytes as an overflow.
  void append(const void* data, std::size_t n) {
    if (n == 0) return;
    const std::size_t at = buf_.size();
    buf_.resize(at + n);
    std::memcpy(buf_.data() + at, data, n);
  }

  std::vector<std::uint8_t> buf_;
};

/// Reads values back in the order they were encoded.
class Decoder {
 public:
  explicit Decoder(std::span<const std::uint8_t> data) : data_(data) {}

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  T get() {
    PIOBLAST_CHECK_MSG(pos_ + sizeof(T) <= data_.size(), "decode past end");
    T value;
    std::memcpy(&value, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return value;
  }

  // Lengths are checked against remaining(): a corrupt length near 2^64
  // would wrap `pos_ + n` back below the buffer size.
  std::string get_string() {
    const auto n = get<std::uint64_t>();
    PIOBLAST_CHECK_MSG(n <= remaining(), "decode past end");
    std::string s(reinterpret_cast<const char*>(data_.data() + pos_), n);
    pos_ += n;
    return s;
  }

  std::vector<std::uint8_t> get_bytes() {
    const auto n = get<std::uint64_t>();
    PIOBLAST_CHECK_MSG(n <= remaining(), "decode past end");
    std::vector<std::uint8_t> out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
                                  data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
    pos_ += n;
    return out;
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  std::vector<T> get_vector() {
    const auto n = get<std::uint64_t>();
    PIOBLAST_CHECK_MSG(n <= remaining() / sizeof(T), "decode past end");
    std::vector<T> out(n);
    std::memcpy(out.data(), data_.data() + pos_, n * sizeof(T));
    pos_ += n * sizeof(T);
    return out;
  }

  /// Decodes a value through its WireCodec specialization.
  template <typename T>
  T get_obj() {
    return WireCodec<T>::decode(*this);
  }

  bool exhausted() const { return pos_ == data_.size(); }
  std::size_t remaining() const { return data_.size() - pos_; }

 private:
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

// Out-of-line so the primary WireCodec template can reference the complete
// Encoder/Decoder types.
template <typename T>
void WireCodec<T>::encode(Encoder& enc, const T& value) {
  enc.put(value);
}

template <typename T>
T WireCodec<T>::decode(Decoder& dec) {
  return dec.get<T>();
}

}  // namespace pioblast::mpisim
