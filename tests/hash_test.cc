#include "crypto/hash.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/random.h"

namespace pprl {
namespace {

std::string CloneLabel(Sha256Clone clone) {
  return clone == Sha256Clone::kShaNi ? "sha-ni" : "portable";
}

TEST(Sha256CloneTest, PortableIsAlwaysSupported) {
  const std::vector<Sha256Clone> clones = SupportedSha256Clones();
  ASSERT_FALSE(clones.empty());
  EXPECT_EQ(clones.front(), Sha256Clone::kPortable);
}

// RFC 1321 / FIPS 180 reference vectors; every SHA-256 vector runs under
// each compression clone the CPU supports.

TEST(Md5Test, ReferenceVectors) {
  EXPECT_EQ(DigestToHex(Md5("")), "d41d8cd98f00b204e9800998ecf8427e");
  EXPECT_EQ(DigestToHex(Md5("abc")), "900150983cd24fb0d6963f7d28e17f72");
  EXPECT_EQ(DigestToHex(Md5("message digest")), "f96b697d7cb7938d525a2f31aaf161d0");
  EXPECT_EQ(DigestToHex(Md5("abcdefghijklmnopqrstuvwxyz")),
            "c3fcd3d76192e4007dfb496cca67e13b");
}

TEST(Sha1Test, ReferenceVectors) {
  EXPECT_EQ(DigestToHex(Sha1("")), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
  EXPECT_EQ(DigestToHex(Sha1("abc")), "a9993e364706816aba3e25717850c26c9cd0d89d");
  EXPECT_EQ(DigestToHex(Sha1("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

TEST(Sha256Test, ReferenceVectors) {
  for (const Sha256Clone clone : SupportedSha256Clones()) {
    const ScopedSha256Clone scope(clone);
    SCOPED_TRACE(CloneLabel(clone));
    EXPECT_EQ(DigestToHex(Sha256("")),
              "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    EXPECT_EQ(DigestToHex(Sha256("abc")),
              "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
    EXPECT_EQ(
        DigestToHex(Sha256("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  }
}

TEST(Sha256Test, MultiBlockMessage) {
  // One million 'a' characters (NIST long-message vector).
  const std::string million(1000000, 'a');
  for (const Sha256Clone clone : SupportedSha256Clones()) {
    const ScopedSha256Clone scope(clone);
    EXPECT_EQ(DigestToHex(Sha256(million)),
              "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0")
        << CloneLabel(clone);
  }
}

/// Every clone must give the portable body's digest for random messages
/// of every length from empty to past four blocks.
TEST(Sha256Test, ClonesMatchPortableOnRandomMessages) {
  Rng rng(2212);
  for (size_t n = 0; n <= 300; ++n) {
    for (int trial = 0; trial < 4; ++trial) {
      std::string message(n, '\0');
      for (char& c : message) c = static_cast<char>(rng.NextUint64(256));
      std::string portable;
      {
        const ScopedSha256Clone scope(Sha256Clone::kPortable);
        portable = DigestToHex(Sha256(message));
      }
      for (const Sha256Clone clone : SupportedSha256Clones()) {
        const ScopedSha256Clone scope(clone);
        ASSERT_EQ(DigestToHex(Sha256(message)), portable)
            << CloneLabel(clone) << ", " << n << " bytes, trial " << trial;
      }
    }
  }
}

TEST(HmacTest, Rfc4231Vectors) {
  for (const Sha256Clone clone : SupportedSha256Clones()) {
    const ScopedSha256Clone scope(clone);
    SCOPED_TRACE(CloneLabel(clone));
    // RFC 4231 test case 2.
    EXPECT_EQ(DigestToHex(HmacSha256("Jefe", "what do ya want for nothing?")),
              "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
    // Wikipedia's classic example.
    EXPECT_EQ(
        DigestToHex(HmacSha256("key", "The quick brown fox jumps over the lazy dog")),
        "f7bc83f430538424b13298e6aa6fb143ef4d59a14946175997479dbc2d1a3cd8");
  }
}

TEST(HmacTest, LongKeyIsHashedFirst) {
  const std::string long_key(200, 'k');
  // Consistency: must equal HMAC with SHA256(long_key) as the key material.
  const auto direct = HmacSha256(long_key, "data");
  const auto hashed_key = Sha256(long_key);
  const std::string key_str(reinterpret_cast<const char*>(hashed_key.data()),
                            hashed_key.size());
  EXPECT_EQ(DigestToHex(direct), DigestToHex(HmacSha256(key_str, "data")));
}

TEST(HmacTest, KeySeparation) {
  EXPECT_NE(DigestToHex(HmacSha256("key1", "data")),
            DigestToHex(HmacSha256("key2", "data")));
}

// Messages of 'a' x n at the padding edges: 55 bytes leaves exactly room
// for the 0x80 byte and the length, 56 and 63 need a second padding block,
// 64 is one full block plus a padding-only block, and 119/120 repeat the
// edge one block later. Expected values come from python3's hashlib.
TEST(DigestPaddingTest, BlockBoundaries) {
  struct Case {
    size_t n;
    const char* md5;
    const char* sha1;
    const char* sha256;
  };
  const Case cases[] = {
      {55, "ef1772b6dff9a122358552954ad0df65", "c1c8bbdc22796e28c0e15163d20899b65621d65a",
       "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318"},
      {56, "3b0c8ac703f828b04c6c197006d17218", "c2db330f6083854c99d4b5bfb6e8f29f201be699",
       "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a"},
      {63, "b06521f39153d618550606be297466d5", "03f09f5b158a7a8cdad920bddc29b81c18a551f5",
       "7d3e74a05d7db15bce4ad9ec0658ea98e3f06eeecf16b4c6fff2da457ddc2f34"},
      {64, "014842d480b571495a4a0363793f7367", "0098ba824b5c16427bd7a1122a5a442a25ec644d",
       "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb"},
      {119, "8a7bd0732ed6a28ce75f6dabc90e1613",
       "ee971065aaa017e0632a8ca6c77bb3bf8b1dfc56",
       "31eba51c313a5c08226adf18d4a359cfdfd8d2e816b13f4af952f7ea6584dcfb"},
      {120, "5f61c0ccad4cac44c75ff505e1f1e537",
       "f34c1488385346a55709ba056ddd08280dd4c6d6",
       "2f3d335432c70b580af0e8e1b3674a7c020d683aa5f73aaaedfdc55af904c21c"},
  };
  for (const Case& c : cases) {
    const std::string message(c.n, 'a');
    EXPECT_EQ(DigestToHex(Md5(message)), c.md5) << "n = " << c.n;
    EXPECT_EQ(DigestToHex(Sha1(message)), c.sha1) << "n = " << c.n;
    for (const Sha256Clone clone : SupportedSha256Clones()) {
      const ScopedSha256Clone scope(clone);
      EXPECT_EQ(DigestToHex(Sha256(message)), c.sha256)
          << CloneLabel(clone) << ", n = " << c.n;
    }
  }
}

/// Textbook HMAC (RFC 2104), Sha256(opad || Sha256(ipad || m)), written out
/// with whole-message Sha256 calls: an independent reference for the
/// midstate implementation that HmacSha256 now wraps.
std::string ReferenceHmacHex(std::string key, const std::string& message) {
  if (key.size() > 64) {
    const auto hashed = Sha256(key);
    key.assign(reinterpret_cast<const char*>(hashed.data()), hashed.size());
  }
  key.resize(64, '\0');
  std::string ipad(64, '\0'), opad(64, '\0');
  for (size_t i = 0; i < 64; ++i) {
    ipad[i] = static_cast<char>(key[i] ^ 0x36);
    opad[i] = static_cast<char>(key[i] ^ 0x5c);
  }
  const auto inner = Sha256(ipad + message);
  return DigestToHex(
      Sha256(opad + std::string(reinterpret_cast<const char*>(inner.data()), 32)));
}

std::string PatternBytes(size_t n, int mul, int add) {
  std::string out(n, '\0');
  for (size_t i = 0; i < n; ++i) {
    out[i] = static_cast<char>(static_cast<int>(i) * mul + add);
  }
  return out;
}

TEST(HmacSha256KeyTest, MatchesTextbookHmacAcrossKeyAndMessageLengths) {
  for (const Sha256Clone clone : SupportedSha256Clones()) {
    const ScopedSha256Clone scope(clone);
    for (size_t key_len : {0, 1, 13, 63, 64, 65, 131, 200}) {
      const std::string key = PatternBytes(key_len, 37, 11);
      const HmacSha256Key mac(key);
      for (size_t n = 0; n <= 300; ++n) {
        const std::string message = PatternBytes(n, 131, 7);
        const std::string expected = ReferenceHmacHex(key, message);
        ASSERT_EQ(DigestToHex(mac.Mac(message)), expected)
            << CloneLabel(clone) << ", key " << key_len << " bytes, message " << n
            << " bytes";
        ASSERT_EQ(DigestToHex(HmacSha256(key, message)), expected)
            << CloneLabel(clone) << ", key " << key_len << " bytes, message " << n
            << " bytes";
      }
    }
  }
}

/// The per-token path: absorbing a prefix once and finishing with each
/// suffix gives the MAC of the whole message, whatever block boundary the
/// prefix's tail, the suffix and the padding cross. The long suffixes
/// fill the stack block more than once.
TEST(HmacSha256KeyTest, Mac64OfAbsorbedPrefixMatchesMac) {
  const std::vector<size_t> suffix_lengths = [] {
    std::vector<size_t> lengths;
    for (size_t n = 0; n <= 24; ++n) lengths.push_back(n);
    for (size_t n : {55, 63, 64, 65, 128, 150}) lengths.push_back(n);
    return lengths;
  }();
  for (const Sha256Clone clone : SupportedSha256Clones()) {
    const ScopedSha256Clone scope(clone);
    for (size_t key_len : {13, 64, 100}) {
      const HmacSha256Key mac(PatternBytes(key_len, 37, 11));
      for (size_t p = 0; p <= 200; ++p) {
        const std::string prefix = PatternBytes(p, 131, 7);
        const HmacSha256Key::Midstate midstate = mac.Absorb(prefix);
        for (size_t s : suffix_lengths) {
          const std::string suffix = PatternBytes(s, 29, 3);
          ASSERT_EQ(mac.Mac64(midstate, suffix), DigestToUint64(mac.Mac(prefix + suffix)))
              << CloneLabel(clone) << ", key " << key_len << " bytes, prefix " << p
              << " bytes, suffix " << s << " bytes";
        }
      }
    }
  }
}

TEST(HmacSha256KeyTest, Rfc4231Vectors) {
  struct Case {
    int number;
    std::string key;
    std::string data;
    const char* mac;
  };
  std::string key4;
  for (char c = 0x01; c <= 0x19; ++c) key4 += c;
  const std::vector<Case> cases = {
      {1, std::string(20, '\x0b'), "Hi There",
       "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"},
      {3, std::string(20, '\xaa'), std::string(50, '\xdd'),
       "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"},
      {4, key4, std::string(50, '\xcd'),
       "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"},
      {6, std::string(131, '\xaa'),
       "Test Using Larger Than Block-Size Key - Hash Key First",
       "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"},
      {7, std::string(131, '\xaa'),
       "This is a test using a larger than block-size key and a larger than "
       "block-size data. The key needs to be hashed before being used by the "
       "HMAC algorithm.",
       "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"},
  };
  for (const Sha256Clone clone : SupportedSha256Clones()) {
    const ScopedSha256Clone scope(clone);
    for (const Case& c : cases) {
      EXPECT_EQ(DigestToHex(HmacSha256Key(c.key).Mac(c.data)), c.mac)
          << CloneLabel(clone) << ", case " << c.number;
      EXPECT_EQ(DigestToHex(HmacSha256(c.key, c.data)), c.mac)
          << CloneLabel(clone) << ", case " << c.number;
    }
  }
}

TEST(DigestHelpersTest, DigestToUint64LittleEndian) {
  std::array<uint8_t, 8> digest = {1, 0, 0, 0, 0, 0, 0, 0};
  EXPECT_EQ(DigestToUint64(digest), 1u);
  digest = {0, 0, 0, 0, 0, 0, 0, 1};
  EXPECT_EQ(DigestToUint64(digest), uint64_t{1} << 56);
}

TEST(TabulationHashTest, DeterministicPerSeed) {
  const TabulationHash h1(42), h2(42), h3(43);
  EXPECT_EQ(h1.Hash("hello"), h2.Hash("hello"));
  EXPECT_NE(h1.Hash("hello"), h3.Hash("hello"));
  EXPECT_EQ(h1.Hash64(12345), h2.Hash64(12345));
}

TEST(TabulationHashTest, SpreadsBits) {
  const TabulationHash h(7);
  // Rough avalanche check: flipping one input bit flips ~half the output bits.
  int total_flips = 0;
  const int trials = 64;
  for (int bit = 0; bit < trials; ++bit) {
    const uint64_t a = h.Hash64(0);
    const uint64_t b = h.Hash64(uint64_t{1} << bit);
    total_flips += __builtin_popcountll(a ^ b);
  }
  const double avg = static_cast<double>(total_flips) / trials;
  EXPECT_GT(avg, 20.0);
  EXPECT_LT(avg, 44.0);
}

}  // namespace
}  // namespace pprl
