#include "crypto/hash.h"

#include <atomic>
#include <bit>
#include <cstring>

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#endif

#include "common/random.h"
#include "common/wire.h"

namespace pprl {

namespace {

uint32_t RotL32(uint32_t x, int n) { return std::rotl(x, n); }
uint32_t RotR32(uint32_t x, int n) { return std::rotr(x, n); }

uint32_t LoadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) | (static_cast<uint32_t>(p[3]) << 24);
}

uint32_t LoadBe32(const uint8_t* p) {
  return (static_cast<uint32_t>(p[0]) << 24) | (static_cast<uint32_t>(p[1]) << 16) |
         (static_cast<uint32_t>(p[2]) << 8) | static_cast<uint32_t>(p[3]);
}

uint32_t ByteSwap32(uint32_t x) {
  return (x >> 24) | ((x >> 8) & 0xff00) | ((x << 8) & 0xff0000) | (x << 24);
}

void StoreBe32(uint8_t* p, uint32_t x) {
  if constexpr (std::endian::native == std::endian::little) x = ByteSwap32(x);
  std::memcpy(p, &x, sizeof(x));
}

/// Big-endian serialisation of a SHA-1/SHA-256 state into its digest.
template <size_t N>
std::array<uint8_t, 4 * N> StoreBe(const uint32_t (&h)[N]) {
  std::array<uint8_t, 4 * N> digest;
  for (size_t r = 0; r < N; ++r) StoreBe32(digest.data() + 4 * r, h[r]);
  return digest;
}

/// Pads the `n` (< 64) message bytes at the front of `buf` with 0x80,
/// zeros and the 64-bit bit length `bit_len`, then compresses the block
/// that makes, or two blocks when fewer than 9 bytes of the first are
/// free. The 63 zero bytes after 0x80 reach the length field in both
/// cases and stay inside the buffer.
template <typename Compress>
void PadAndCompress(uint8_t (&buf)[128], size_t n, uint64_t bit_len, bool big_endian_length,
                    Compress compress) {
  const size_t end = n < 56 ? 64 : 128;
  buf[n] = 0x80;
  std::memset(buf + n + 1, 0, 63);
  for (size_t i = 0; i < 8; ++i) {
    const size_t at = big_endian_length ? end - 1 - i : end - 8 + i;
    buf[at] = static_cast<uint8_t>(bit_len >> (8 * i));
  }
  compress(buf);
  if (end == 128) compress(buf + 64);
}

/// The Merkle-Damgard tail shared by MD5, SHA-1 and SHA-256: `compress`
/// runs on every full 64-byte block of `data` straight from the caller's
/// bytes; only the last partial block and its padding go through a stack
/// buffer.
template <typename Compress>
void MerkleDamgard(std::string_view data, bool big_endian_length, Compress compress) {
  const auto* p = reinterpret_cast<const uint8_t*>(data.data());
  size_t n = data.size();
  for (; n >= 64; n -= 64, p += 64) compress(p);
  uint8_t tail[128];
  if (n > 0) std::memcpy(tail, p, n);
  PadAndCompress(tail, n, uint64_t{data.size()} * 8, big_endian_length, compress);
}

constexpr uint32_t kMd5K[64] = {
    0xd76aa478, 0xe8c7b756, 0x242070db, 0xc1bdceee, 0xf57c0faf, 0x4787c62a, 0xa8304613,
    0xfd469501, 0x698098d8, 0x8b44f7af, 0xffff5bb1, 0x895cd7be, 0x6b901122, 0xfd987193,
    0xa679438e, 0x49b40821, 0xf61e2562, 0xc040b340, 0x265e5a51, 0xe9b6c7aa, 0xd62f105d,
    0x02441453, 0xd8a1e681, 0xe7d3fbc8, 0x21e1cde6, 0xc33707d6, 0xf4d50d87, 0x455a14ed,
    0xa9e3e905, 0xfcefa3f8, 0x676f02d9, 0x8d2a4c8a, 0xfffa3942, 0x8771f681, 0x6d9d6122,
    0xfde5380c, 0xa4beea44, 0x4bdecfa9, 0xf6bb4b60, 0xbebfbc70, 0x289b7ec6, 0xeaa127fa,
    0xd4ef3085, 0x04881d05, 0xd9d4d039, 0xe6db99e5, 0x1fa27cf8, 0xc4ac5665, 0xf4292244,
    0x432aff97, 0xab9423a7, 0xfc93a039, 0x655b59c3, 0x8f0ccc92, 0xffeff47d, 0x85845dd1,
    0x6fa87e4f, 0xfe2ce6e0, 0xa3014314, 0x4e0811a1, 0xf7537e82, 0xbd3af235, 0x2ad7d2bb,
    0xeb86d391};

constexpr int kMd5Shift[64] = {7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22,
                               5, 9,  14, 20, 5, 9,  14, 20, 5, 9,  14, 20, 5, 9,  14, 20,
                               4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23,
                               6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21};

constexpr uint32_t kSha256K[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
    0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
    0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
    0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
    0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
    0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
    0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
    0xc67178f2};

constexpr uint32_t kSha256Init[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                                     0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

void Md5Compress(uint32_t (&state)[4], const uint8_t* block) {
  uint32_t m[16];
  for (int i = 0; i < 16; ++i) m[i] = LoadLe32(block + 4 * i);
  uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
  for (int i = 0; i < 64; ++i) {
    uint32_t f;
    int g;
    if (i < 16) {
      f = (b & c) | (~b & d);
      g = i;
    } else if (i < 32) {
      f = (d & b) | (~d & c);
      g = (5 * i + 1) % 16;
    } else if (i < 48) {
      f = b ^ c ^ d;
      g = (3 * i + 5) % 16;
    } else {
      f = c ^ (b | ~d);
      g = (7 * i) % 16;
    }
    f = f + a + kMd5K[i] + m[g];
    a = d;
    d = c;
    c = b;
    b = b + RotL32(f, kMd5Shift[i]);
  }
  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
}

void Sha1Compress(uint32_t (&state)[5], const uint8_t* block) {
  uint32_t w[80];
  for (int i = 0; i < 16; ++i) w[i] = LoadBe32(block + 4 * i);
  for (int i = 16; i < 80; ++i) {
    w[i] = RotL32(w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16], 1);
  }
  uint32_t a = state[0], b = state[1], c = state[2], d = state[3], e = state[4];
  for (int i = 0; i < 80; ++i) {
    uint32_t f, k;
    if (i < 20) {
      f = (b & c) | (~b & d);
      k = 0x5a827999;
    } else if (i < 40) {
      f = b ^ c ^ d;
      k = 0x6ed9eba1;
    } else if (i < 60) {
      f = (b & c) | (b & d) | (c & d);
      k = 0x8f1bbcdc;
    } else {
      f = b ^ c ^ d;
      k = 0xca62c1d6;
    }
    const uint32_t temp = RotL32(a, 5) + f + e + k + w[i];
    e = d;
    d = c;
    c = RotL32(b, 30);
    b = a;
    a = temp;
  }
  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
}

/// One SHA-256 round. Instead of shifting all eight working variables down
/// by one, the caller rotates which variable plays which role: only `d`
/// (which becomes the next round's e) and `h` (the next round's a) change.
inline void Sha256Round(uint32_t a, uint32_t b, uint32_t c, uint32_t& d, uint32_t e,
                        uint32_t f, uint32_t g, uint32_t& h, uint32_t k_plus_w) {
  const uint32_t t1 = h + (RotR32(e, 6) ^ RotR32(e, 11) ^ RotR32(e, 25)) +
                      (g ^ (e & (f ^ g))) + k_plus_w;
  const uint32_t t2 =
      (RotR32(a, 2) ^ RotR32(a, 13) ^ RotR32(a, 22)) + ((a & b) | (c & (a | b)));
  d += t1;
  h = t1 + t2;
}

/// The SHA-256 compression function (FIPS 180-4 §6.2.2), unrolled by eight
/// rounds so the role rotation comes back to the start every iteration.
void Sha256CompressPortable(uint32_t (&state)[8], const uint8_t* block) {
  uint32_t w[64];
  for (int i = 0; i < 16; ++i) w[i] = LoadBe32(block + 4 * i);
  for (int i = 16; i < 64; ++i) {
    const uint32_t s0 = RotR32(w[i - 15], 7) ^ RotR32(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const uint32_t s1 = RotR32(w[i - 2], 17) ^ RotR32(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }
  uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
  uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
  for (int i = 0; i < 64; i += 8) {
    Sha256Round(a, b, c, d, e, f, g, h, kSha256K[i] + w[i]);
    Sha256Round(h, a, b, c, d, e, f, g, kSha256K[i + 1] + w[i + 1]);
    Sha256Round(g, h, a, b, c, d, e, f, kSha256K[i + 2] + w[i + 2]);
    Sha256Round(f, g, h, a, b, c, d, e, kSha256K[i + 3] + w[i + 3]);
    Sha256Round(e, f, g, h, a, b, c, d, kSha256K[i + 4] + w[i + 4]);
    Sha256Round(d, e, f, g, h, a, b, c, kSha256K[i + 5] + w[i + 5]);
    Sha256Round(c, d, e, f, g, h, a, b, kSha256K[i + 6] + w[i + 6]);
    Sha256Round(b, c, d, e, f, g, h, a, kSha256K[i + 7] + w[i + 7]);
  }
  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

#if defined(__x86_64__) && defined(__GNUC__)
#define PPRL_HAVE_SHA_NI 1
/// The same compression on the x86 SHA extensions. SHA256RNDS2 runs two
/// rounds on the state split as the instruction wants it: A, B, E, F in
/// one register and C, D, G, H in the other (lane 3 first). Two rounds
/// turn the old ABEF into the new CDGH, so the registers swap roles every
/// call. SHA256MSG1 and SHA256MSG2 extend the schedule four words at a
/// time; w[g % 4] holds W[4g .. 4g+3] for rounds 4g .. 4g+3.
__attribute__((target("sha,sse4.1"))) void Sha256CompressShaNi(uint32_t (&state)[8],
                                                                const uint8_t* block) {
  const __m128i bswap = _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  const __m128i badc = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state)), 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4)), 0x1B);
  const __m128i abef_in = _mm_alignr_epi8(badc, efgh, 8);
  const __m128i cdgh_in = _mm_blend_epi16(efgh, badc, 0xF0);
  __m128i abef = abef_in;
  __m128i cdgh = cdgh_in;
  __m128i w[4];
  for (int i = 0; i < 4; ++i) {
    w[i] = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(block + 16 * i)), bswap);
  }
#pragma GCC unroll 16
  for (int g = 0; g < 16; ++g) {
    if (g >= 4) {
      // W[t..t+3] = σ1(W[t-2..]) + W[t-7..] + σ0(W[t-15..]) + W[t-16..], t = 4g.
      w[g & 3] = _mm_sha256msg2_epu32(
          _mm_add_epi32(_mm_sha256msg1_epu32(w[g & 3], w[(g + 1) & 3]),
                        _mm_alignr_epi8(w[(g + 3) & 3], w[(g + 2) & 3], 4)),
          w[(g + 3) & 3]);
    }
    const __m128i wk = _mm_add_epi32(
        w[g & 3], _mm_loadu_si128(reinterpret_cast<const __m128i*>(kSha256K + 4 * g)));
    cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
    abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
  }
  const __m128i feba = _mm_shuffle_epi32(_mm_add_epi32(abef, abef_in), 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(_mm_add_epi32(cdgh, cdgh_in), 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), _mm_alignr_epi8(dchg, feba, 8));
}
#endif

/// The clone a ScopedSha256Clone forces, or -1 for the fastest supported.
std::atomic<int> forced_sha256_clone{-1};

using Sha256CompressFn = void (*)(uint32_t (&)[8], const uint8_t*);

/// The compression this call runs. The fastest clone is picked once per
/// process, in a function-local static because keys may be built during
/// static initialisation.
Sha256CompressFn ActiveSha256Compress() {
  static const Sha256Clone fastest = SupportedSha256Clones().back();
  const int forced = forced_sha256_clone.load(std::memory_order_relaxed);
  switch (forced >= 0 ? static_cast<Sha256Clone>(forced) : fastest) {
#ifdef PPRL_HAVE_SHA_NI
    case Sha256Clone::kShaNi:
      return Sha256CompressShaNi;
#endif
    default:
      return Sha256CompressPortable;
  }
}

}  // namespace

std::array<uint8_t, 16> Md5(std::string_view data) {
  uint32_t state[4] = {0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476};
  MerkleDamgard(data, /*big_endian_length=*/false,
                [&state](const uint8_t* block) { Md5Compress(state, block); });
  std::array<uint8_t, 16> digest;
  for (size_t r = 0; r < 4; ++r) {
    for (size_t i = 0; i < 4; ++i) {
      digest[4 * r + i] = static_cast<uint8_t>(state[r] >> (8 * i));
    }
  }
  return digest;
}

std::array<uint8_t, 20> Sha1(std::string_view data) {
  uint32_t state[5] = {0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476, 0xc3d2e1f0};
  MerkleDamgard(data, /*big_endian_length=*/true,
                [&state](const uint8_t* block) { Sha1Compress(state, block); });
  return StoreBe(state);
}

std::array<uint8_t, 32> Sha256(std::string_view data) {
  uint32_t state[8];
  std::memcpy(state, kSha256Init, sizeof(state));
  const Sha256CompressFn compress = ActiveSha256Compress();
  MerkleDamgard(data, /*big_endian_length=*/true,
                [&state, compress](const uint8_t* block) { compress(state, block); });
  return StoreBe(state);
}

std::vector<Sha256Clone> SupportedSha256Clones() {
  std::vector<Sha256Clone> clones = {Sha256Clone::kPortable};
#ifdef PPRL_HAVE_SHA_NI
  // The CPU model may not be read yet when a key is built during static
  // initialisation.
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1")) {
    clones.push_back(Sha256Clone::kShaNi);
  }
#endif
  return clones;
}

ScopedSha256Clone::ScopedSha256Clone(Sha256Clone clone)
    : previous_(forced_sha256_clone.exchange(static_cast<int>(clone))) {}

ScopedSha256Clone::~ScopedSha256Clone() { forced_sha256_clone.store(previous_); }

HmacSha256Key::HmacSha256Key(std::string_view key) {
  uint8_t key_block[64] = {};
  if (key.size() > sizeof(key_block)) {
    const auto hashed = Sha256(key);
    std::memcpy(key_block, hashed.data(), hashed.size());
  } else if (!key.empty()) {
    std::memcpy(key_block, key.data(), key.size());
  }
  const Sha256CompressFn compress = ActiveSha256Compress();
  uint8_t pad[64];
  for (size_t i = 0; i < 64; ++i) pad[i] = key_block[i] ^ 0x36;
  std::memcpy(inner_, kSha256Init, sizeof(inner_));
  compress(inner_, pad);
  for (size_t i = 0; i < 64; ++i) pad[i] = key_block[i] ^ 0x5c;
  std::memcpy(outer_, kSha256Init, sizeof(outer_));
  compress(outer_, pad);
}

HmacSha256Key::Midstate HmacSha256Key::Absorb(std::string_view prefix) const {
  Midstate mid;
  std::memcpy(mid.state, inner_, sizeof(mid.state));
  std::memset(mid.tail, 0, sizeof(mid.tail));
  mid.length = 64 + uint64_t{prefix.size()};
  const Sha256CompressFn compress = ActiveSha256Compress();
  const auto* p = reinterpret_cast<const uint8_t*>(prefix.data());
  size_t n = prefix.size();
  for (; n >= 64; n -= 64, p += 64) compress(mid.state, p);
  if (n > 0) std::memcpy(mid.tail, p, n);
  return mid;
}

void HmacSha256Key::Finish(const Midstate& midstate, std::string_view suffix,
                           uint32_t (&outer)[8]) const {
  const Sha256CompressFn compress = ActiveSha256Compress();
  uint32_t inner[8];
  std::memcpy(inner, midstate.state, sizeof(inner));
  // The prefix's tail and the suffix, laid out in one stack block; a
  // suffix that fills it is compressed block by block first.
  uint8_t block[128];
  size_t n = static_cast<size_t>(midstate.length % 64);
  std::memcpy(block, midstate.tail, sizeof(midstate.tail));
  const auto* s = reinterpret_cast<const uint8_t*>(suffix.data());
  size_t left = suffix.size();
  while (n + left >= 64) {
    std::memcpy(block + n, s, 64 - n);
    compress(inner, block);
    s += 64 - n;
    left -= 64 - n;
    n = 0;
  }
  if (left > 0) std::memcpy(block + n, s, left);
  PadAndCompress(block, n + left, (midstate.length + suffix.size()) * 8,
                 /*big_endian_length=*/true,
                 [&inner, compress](const uint8_t* b) { compress(inner, b); });
  // The outer hash resumes after the opad block with the 32-byte inner
  // digest: one more block.
  for (size_t r = 0; r < 8; ++r) StoreBe32(block + 4 * r, inner[r]);
  std::memcpy(outer, outer_, sizeof(outer_));
  PadAndCompress(block, 32, (64 + 32) * 8, /*big_endian_length=*/true,
                 [&outer, compress](const uint8_t* b) { compress(outer, b); });
}

uint64_t HmacSha256Key::Mac64(const Midstate& midstate, std::string_view suffix) const {
  uint32_t outer[8];
  Finish(midstate, suffix, outer);
  // DigestToUint64 reads digest bytes 0..7 little-endian: the big-endian
  // state words 0 and 1, byte-swapped.
  return (uint64_t{ByteSwap32(outer[1])} << 32) | ByteSwap32(outer[0]);
}

std::array<uint8_t, 32> HmacSha256Key::Mac(std::string_view data) const {
  uint32_t outer[8];
  Finish(Absorb(data), {}, outer);
  return StoreBe(outer);
}

std::array<uint8_t, 32> HmacSha256(std::string_view key, std::string_view data) {
  return HmacSha256Key(key).Mac(data);
}

TabulationHash::TabulationHash(uint64_t seed) {
  Rng rng(seed);
  for (auto& row : table_) {
    for (auto& cell : row) cell = rng.NextUint64();
  }
}

uint64_t TabulationHash::Hash64(uint64_t x) const {
  uint64_t h = 0;
  for (size_t i = 0; i < 8; ++i) {
    h ^= table_[i][(x >> (8 * i)) & 0xff];
  }
  return h;
}

uint64_t TabulationHash::Hash(std::string_view data) const {
  // FNV-1a fold to 64 bits, then one tabulation round for independence
  // across differently seeded instances. The fold's start value is not
  // the FNV offset basis; it stays as it is so every seeded hash does.
  return Hash64(Fnv1a64(data.data(), data.size(), 1469598103934665603ull));
}

}  // namespace pprl
