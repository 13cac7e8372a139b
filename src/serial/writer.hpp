#pragma once
/// \file writer.hpp
/// \brief Append-only byte writer (little-endian fixed width + LEB128).
///
/// All message payloads in the simulator are produced through this writer so
/// that the network layer's bit accounting reflects exactly what an
/// implementation would put on the wire.

#include <cstdint>
#include <string_view>
#include <type_traits>

#include "serial/bytes.hpp"

namespace dknn {

class Writer {
public:
  /// Starts with room for any Algorithm 1/2 message (all ≤ 42 bytes), so
  /// encoding one allocates once; bulk payloads grow past it as usual.
  Writer() { buffer_.reserve(kInitialCapacity); }

  /// Fixed-width little-endian unsigned integer.
  void put_u8(std::uint8_t v);
  void put_u16(std::uint16_t v);
  void put_u32(std::uint32_t v);
  void put_u64(std::uint64_t v);

  /// Two's-complement signed (zig-zag is reserved for varints).
  void put_i64(std::int64_t v) { put_u64(static_cast<std::uint64_t>(v)); }

  /// IEEE-754 doubles, bit-cast little-endian.
  void put_f64(double v);

  /// LEB128 varint: 1 byte for values < 128; used for counts and sizes.
  void put_varint(std::uint64_t v);

  /// Zig-zag-encoded signed varint.
  void put_varint_signed(std::int64_t v);

  /// Length-prefixed (varint) raw bytes / string.
  void put_bytes(const Bytes& data);
  void put_string(std::string_view s);

  void put_bool(bool v) { put_u8(v ? 1 : 0); }

  [[nodiscard]] const Bytes& buffer() const { return buffer_; }
  [[nodiscard]] Bytes take() && { return std::move(buffer_); }
  [[nodiscard]] std::size_t size() const { return buffer_.size(); }

private:
  static constexpr std::size_t kInitialCapacity = 48;
  Bytes buffer_;
};

}  // namespace dknn
