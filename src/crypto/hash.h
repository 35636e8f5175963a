#ifndef PPRL_CRYPTO_HASH_H_
#define PPRL_CRYPTO_HASH_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace pprl {

/// MD5 digest (16 bytes). Used only as one leg of the classic
/// double-hashing scheme for Bloom-filter encodings [33]; not for security.
std::array<uint8_t, 16> Md5(std::string_view data);

/// SHA-1 digest (20 bytes).
std::array<uint8_t, 20> Sha1(std::string_view data);

/// SHA-256 digest (32 bytes).
std::array<uint8_t, 32> Sha256(std::string_view data);

/// The compiled copies of the one SHA-256 compression. Every SHA-256 and
/// HMAC call runs the fastest one the CPU supports, chosen once per
/// process: the portable body, or the x86 SHA extensions (SHA-NI).
enum class Sha256Clone { kPortable, kShaNi };

/// The clones this CPU can execute, portable first.
std::vector<Sha256Clone> SupportedSha256Clones();

/// Test seam: while an instance is alive, every SHA-256 compression runs
/// `clone` (which must be in SupportedSha256Clones()) instead of the
/// fastest one, so parity tests can cover the body a host's dispatch
/// would skip. Scopes nest; production code never creates one.
class ScopedSha256Clone {
 public:
  explicit ScopedSha256Clone(Sha256Clone clone);
  ~ScopedSha256Clone();

  ScopedSha256Clone(const ScopedSha256Clone&) = delete;
  ScopedSha256Clone& operator=(const ScopedSha256Clone&) = delete;

 private:
  int previous_;
};

/// HMAC-SHA-256 under one fixed key (RFC 2104). Keyed hashing is the
/// survey's standard defence that keeps a dictionary-equipped adversary
/// from hashing candidate QID values itself.
///
/// The constructor compresses the key's ipad and opad blocks once. For
/// many messages that share a prefix (a keyed Bloom filter's token), call
/// `Absorb(prefix)` once and `Mac64(midstate, suffix)` per message: the
/// prefix's whole blocks are compressed once, and a message whose prefix
/// tail, suffix and padding fit one block costs one inner and one outer
/// compression. `Mac` finishes through the same code. Every call works on
/// stack buffers only, so one key object may be shared across threads.
class HmacSha256Key {
 public:
  /// The inner hash after the key pad and a prefix's whole 64-byte blocks.
  struct Midstate {
    uint32_t state[8];
    uint64_t length;   ///< bytes absorbed, the 64-byte key pad included
    uint8_t tail[64];  ///< the prefix's last length % 64 bytes, then zeros
  };

  /// A key longer than the 64-byte block is hashed first, per RFC 2104.
  explicit HmacSha256Key(std::string_view key);

  /// The midstate every message that starts with `prefix` passes through.
  Midstate Absorb(std::string_view prefix) const;

  /// `DigestToUint64(Mac(prefix + suffix))` for `midstate == Absorb(prefix)`,
  /// read straight from the outer state.
  uint64_t Mac64(const Midstate& midstate, std::string_view suffix) const;

  std::array<uint8_t, 32> Mac(std::string_view data) const;

 private:
  /// The outer SHA-256 state of HMAC(prefix + suffix).
  void Finish(const Midstate& midstate, std::string_view suffix,
              uint32_t (&outer)[8]) const;

  uint32_t inner_[8];  ///< SHA-256 state after the (key ^ ipad) block
  uint32_t outer_[8];  ///< SHA-256 state after the (key ^ opad) block
};

/// One-shot HMAC-SHA-256: `HmacSha256Key(key).Mac(data)`.
std::array<uint8_t, 32> HmacSha256(std::string_view key, std::string_view data);

/// First 8 bytes of a digest as a little-endian integer, for use as a hash
/// value in [0, 2^64).
template <size_t N>
uint64_t DigestToUint64(const std::array<uint8_t, N>& digest) {
  static_assert(N >= 8);
  uint64_t out = 0;
  for (int i = 7; i >= 0; --i) out = (out << 8) | digest[static_cast<size_t>(i)];
  return out;
}

/// Hex rendering of a digest (lower-case).
template <size_t N>
std::string DigestToHex(const std::array<uint8_t, N>& digest) {
  static const char* kHex = "0123456789abcdef";
  std::string out;
  out.reserve(2 * N);
  for (uint8_t b : digest) {
    out += kHex[b >> 4];
    out += kHex[b & 0xf];
  }
  return out;
}

/// 64-bit tabulation hash family: cheap, 3-independent, seedable.
/// Used for MinHash signatures and LSH where cryptographic strength is not
/// required but independence across seeds is.
class TabulationHash {
 public:
  /// Builds the 8x256 random table from `seed`.
  explicit TabulationHash(uint64_t seed);

  /// Hashes an arbitrary byte string.
  uint64_t Hash(std::string_view data) const;

  /// Hashes a 64-bit value.
  uint64_t Hash64(uint64_t x) const;

 private:
  std::array<std::array<uint64_t, 256>, 8> table_;
};

}  // namespace pprl

#endif  // PPRL_CRYPTO_HASH_H_
