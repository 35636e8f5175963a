#ifndef PPRL_COMMON_WIRE_H_
#define PPRL_COMMON_WIRE_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "common/status.h"

namespace pprl {

/// The byte layer of every wire and disk format: frames and protocol
/// messages (net/, service/), PCLK shards, WAL segments and checkpoints
/// (io/). Each rule is written once, here (docs/PROTOCOLS.md, "Byte
/// layer"):
///  - integers are little-endian; a double travels as its IEEE-754 bit
///    pattern in a little-endian u64;
///  - checksums are FNV-1a-64 (Fnv1a64 below).
/// On a little-endian host every load and store is a plain memcpy.

/// Fixed-width little-endian load of an unsigned integer at `p`.
template <typename T>
inline T LoadLe(const uint8_t* p) {
  static_assert(std::is_unsigned_v<T>);
  T v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, p, sizeof(T));
  } else {
    for (size_t i = 0; i < sizeof(T); ++i) v |= static_cast<T>(p[i]) << (8 * i);
  }
  return v;
}

/// Fixed-width little-endian store of an unsigned integer at `p`.
template <typename T>
inline void StoreLe(uint8_t* p, T v) {
  static_assert(std::is_unsigned_v<T>);
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(p, &v, sizeof(T));
  } else {
    for (size_t i = 0; i < sizeof(T); ++i) p[i] = static_cast<uint8_t>(v >> (8 * i));
  }
}

/// Fixed-offset loads and stores for format headers.
inline uint32_t LoadLeU32(const uint8_t* p) { return LoadLe<uint32_t>(p); }
inline uint64_t LoadLeU64(const uint8_t* p) { return LoadLe<uint64_t>(p); }
inline double LoadLeF64(const uint8_t* p) { return std::bit_cast<double>(LoadLeU64(p)); }
inline void StoreLeU32(uint8_t* p, uint32_t v) { StoreLe(p, v); }
inline void StoreLeU64(uint8_t* p, uint64_t v) { StoreLe(p, v); }
inline void StoreLeF64(uint8_t* p, double v) { StoreLe(p, std::bit_cast<uint64_t>(v)); }

/// Bulk form: `count` values from `values` to `out` (count * sizeof(T)
/// bytes), one memcpy on a little-endian host.
template <typename T>
inline void StoreLeSpan(uint8_t* out, const T* values, size_t count) {
  if (count == 0) return;  // an empty vector's data() may be null
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(out, values, count * sizeof(T));
  } else {
    for (size_t i = 0; i < count; ++i) StoreLe(out + i * sizeof(T), values[i]);
  }
}

/// Inverse of StoreLeSpan.
template <typename T>
inline void LoadLeSpan(T* out, const uint8_t* bytes, size_t count) {
  if (count == 0) return;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(out, bytes, count * sizeof(T));
  } else {
    for (size_t i = 0; i < count; ++i) out[i] = LoadLe<T>(bytes + i * sizeof(T));
  }
}

/// FNV-1a-64 offset basis: the hash of zero bytes.
inline constexpr uint64_t kFnv1a64Basis = 0xcbf29ce484222325ull;

/// FNV-1a-64 over `len` bytes, continuing from `hash`, so a run hashed in
/// pieces hashes exactly like the whole run. Cheap and order-sensitive:
/// it catches the bit flips and torn writes of a faulty disk or
/// transport, and spreads keys that are already HMAC or LSH outputs. It
/// is not a cryptographic hash.
inline uint64_t Fnv1a64(const void* data, size_t len, uint64_t hash = kFnv1a64Basis) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < len; ++i) hash = (hash ^ p[i]) * 0x100000001b3ull;
  return hash;
}

/// Appends little-endian fixed-width values, length-prefixed strings and
/// raw byte runs to a growable buffer.
class WireWriter {
 public:
  void PutU8(uint8_t v) { buf_.push_back(v); }
  void PutU16(uint16_t v) { Put(v); }
  void PutU32(uint32_t v) { Put(v); }
  void PutU64(uint64_t v) { Put(v); }
  void PutF64(double v) { Put(std::bit_cast<uint64_t>(v)); }
  /// `count` u32 values, little-endian, no prefix.
  void PutU32s(const uint32_t* values, size_t count) {
    StoreLeSpan(Grow(count * 4), values, count);
  }
  /// Raw bytes, no length prefix.
  void PutBytes(const uint8_t* data, size_t len);
  /// u32 length prefix + bytes.
  void PutString(const std::string& s);

  const std::vector<uint8_t>& buffer() const { return buf_; }
  std::vector<uint8_t> Take() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

 private:
  template <typename T>
  void Put(T v) {
    StoreLe(Grow(sizeof(T)), v);
  }
  /// Extends the buffer by `len` bytes and returns where they start.
  uint8_t* Grow(size_t len) {
    buf_.resize(buf_.size() + len);
    return buf_.data() + buf_.size() - len;
  }

  std::vector<uint8_t> buf_;
};

/// Bounds-checked inverse of WireWriter over a byte buffer it does not
/// own. Every read checks the remaining length first and returns
/// kOutOfRange on truncated input, so a decoder never reads past the end
/// of the buffer and never allocates more than the buffer could hold —
/// which is what makes the frame and message decoders safe against
/// adversarial payloads (tests/net_framing_test.cc).
class WireReader {
 public:
  WireReader(const uint8_t* data, size_t len) : data_(data), len_(len) {}
  explicit WireReader(const std::vector<uint8_t>& buf)
      : data_(buf.data()), len_(buf.size()) {}

  /// Reads one value (u8, u16, u32, u64 or f64) into `*out`.
  template <typename T>
  Status Read(T* out) {
    if (remaining() < sizeof(T)) {
      return Status::OutOfRange("wire: truncated " + std::to_string(sizeof(T)) +
                                "-byte value");
    }
    if constexpr (std::is_floating_point_v<T>) {
      *out = std::bit_cast<T>(LoadLe<uint64_t>(data_ + pos_));
    } else {
      *out = LoadLe<T>(data_ + pos_);
    }
    pos_ += sizeof(T);
    return Status::OK();
  }
  /// Reads a u32 length prefix + that many bytes. `max_len` bounds the
  /// declared length so a hostile prefix cannot trigger a huge allocation.
  Status Read(std::string* out, size_t max_len);

  Result<uint8_t> ReadU8() { return ReadAs<uint8_t>(); }
  Result<uint16_t> ReadU16() { return ReadAs<uint16_t>(); }
  Result<uint32_t> ReadU32() { return ReadAs<uint32_t>(); }
  Result<uint64_t> ReadU64() { return ReadAs<uint64_t>(); }
  Result<std::string> ReadString(size_t max_len = 1 << 20);
  /// Raw bytes, no prefix.
  Result<std::vector<uint8_t>> ReadBytes(size_t len);
  /// The next `len` bytes in place, without copying them.
  Result<const uint8_t*> ReadView(size_t len);
  /// `count` u32 values into `out` (resized to `count`), no prefix.
  Status ReadU32s(size_t count, std::vector<uint32_t>* out);

  size_t remaining() const { return len_ - pos_; }
  bool exhausted() const { return pos_ == len_; }

 private:
  template <typename T>
  Result<T> ReadAs() {
    T v{};
    Status read = Read(&v);
    if (!read.ok()) return read;
    return v;
  }

  const uint8_t* data_;
  size_t len_;
  size_t pos_ = 0;
};

}  // namespace pprl

#endif  // PPRL_COMMON_WIRE_H_
