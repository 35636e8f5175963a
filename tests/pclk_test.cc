#include "io/pclk.h"

#include <cstdio>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/bitvector.h"
#include "common/wire.h"
#include "encoding/clk_io.h"

namespace pprl {
namespace {

using io::DecodePclk;
using io::DecodePclkHeader;
using io::EncodePclk;
using io::kPclkHeaderBytes;

/// A deterministic shard with varied rows (including an all-zero one).
EncodedShard MakeShard(size_t rows, size_t bits, uint64_t seed = 1) {
  std::mt19937_64 rng(seed);
  std::vector<BitVector> filters;
  EncodedShard shard;
  for (size_t r = 0; r < rows; ++r) {
    BitVector bv(bits);
    if (r != 0) {  // row 0 stays all-zero
      const size_t set = rng() % (bits + 1);
      for (size_t k = 0; k < set; ++k) bv.Set(rng() % bits, true);
    }
    filters.push_back(std::move(bv));
    shard.ids.push_back(1000 + r * 7);
  }
  shard.bits = BitMatrix::FromVectors(filters);
  return shard;
}

void ExpectShardsEqual(const EncodedShard& a, const EncodedShard& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.ids, b.ids);
  ASSERT_EQ(a.bits.num_bits(), b.bits.num_bits());
  for (size_t r = 0; r < a.size(); ++r) {
    EXPECT_EQ(std::memcmp(a.bits.row(r), b.bits.row(r),
                          a.bits.words_per_row() * 8),
              0)
        << "row " << r;
    EXPECT_EQ(a.bits.row_count(r), b.bits.row_count(r)) << "row " << r;
  }
}

TEST(PclkTest, Fnv1a64MatchesKnownVectors) {
  // Standard FNV-1a test vectors.
  EXPECT_EQ(Fnv1a64("", 0), 0xcbf29ce484222325ull);
  EXPECT_EQ(Fnv1a64("a", 1), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(Fnv1a64("foobar", 6), 0x85944171f73967e8ull);
}

TEST(PclkTest, MemoryRoundTrip) {
  const EncodedShard shard = MakeShard(17, 1024);
  const std::vector<uint8_t> bytes = EncodePclk(shard);
  auto decoded = DecodePclk(bytes.data(), bytes.size());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ExpectShardsEqual(shard, *decoded);
}

TEST(PclkTest, RoundTripWithoutPopcounts) {
  const EncodedShard shard = MakeShard(5, 100);
  const std::vector<uint8_t> bytes =
      EncodePclk(shard, /*include_popcounts=*/false);
  auto header = DecodePclkHeader(bytes.data(), bytes.size());
  ASSERT_TRUE(header.ok());
  EXPECT_FALSE(header->has_popcounts());
  auto decoded = DecodePclk(bytes.data(), bytes.size());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ExpectShardsEqual(shard, *decoded);
}

TEST(PclkTest, EmptyShardRoundTrip) {
  EncodedShard shard;
  const std::vector<uint8_t> bytes = EncodePclk(shard);
  EXPECT_EQ(bytes.size(), kPclkHeaderBytes);
  auto decoded = DecodePclk(bytes.data(), bytes.size());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->size(), 0u);
}

TEST(PclkTest, OddBitWidthsRoundTrip) {
  for (size_t bits : {1u, 7u, 63u, 64u, 65u, 500u, 511u, 513u}) {
    const EncodedShard shard = MakeShard(9, bits, /*seed=*/bits);
    const std::vector<uint8_t> bytes = EncodePclk(shard);
    auto decoded = DecodePclk(bytes.data(), bytes.size());
    ASSERT_TRUE(decoded.ok())
        << bits << " bits: " << decoded.status().ToString();
    ExpectShardsEqual(shard, *decoded);
  }
}

TEST(PclkTest, HeaderGeometry) {
  const EncodedShard shard = MakeShard(10, 1000);
  const std::vector<uint8_t> bytes = EncodePclk(shard);
  auto info = DecodePclkHeader(bytes.data(), bytes.size());
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->version, io::kPclkVersion);
  EXPECT_EQ(info->filter_bits, 1000u);
  EXPECT_EQ(info->row_count, 10u);
  EXPECT_TRUE(info->has_popcounts());
  EXPECT_EQ(info->row_stride_bytes % 64, 0u);
  EXPECT_GE(info->row_stride_bytes, (1000u + 7) / 8);
  EXPECT_EQ(info->total_bytes(), bytes.size());
  EXPECT_EQ(info->rows_offset() % 64, 0u);
}

TEST(PclkTest, FileRoundTrip) {
  const EncodedShard shard = MakeShard(64, 1024);
  const std::string path = ::testing::TempDir() + "/pprl_pclk_test.pclk";
  ASSERT_TRUE(io::WritePclkFile(path, shard).ok());
  EXPECT_TRUE(io::LooksLikePclkFile(path));

  auto info = io::ReadPclkInfo(path);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->row_count, 64u);

  auto decoded = io::ReadPclkFile(path);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ExpectShardsEqual(shard, *decoded);
  std::remove(path.c_str());
}

TEST(PclkTest, SliceAddressing) {
  const EncodedShard shard = MakeShard(100, 512);
  const std::string path = ::testing::TempDir() + "/pprl_pclk_slice.pclk";
  ASSERT_TRUE(io::WritePclkFile(path, shard).ok());

  struct Range {
    uint64_t begin, count;
  };
  for (Range range : {Range{0, 10}, Range{90, 10}, Range{37, 21},
                      Range{0, 100}, Range{50, 0}}) {
    auto slice = io::ReadPclkSlice(path, range.begin, range.count);
    ASSERT_TRUE(slice.ok()) << slice.status().ToString();
    ASSERT_EQ(slice->size(), range.count);
    for (uint64_t i = 0; i < range.count; ++i) {
      EXPECT_EQ(slice->ids[i], shard.ids[range.begin + i]);
      EXPECT_EQ(std::memcmp(slice->bits.row(i),
                            shard.bits.row(range.begin + i),
                            shard.bits.words_per_row() * 8),
                0);
    }
  }

  // Past-the-end slices are OutOfRange, not garbage.
  EXPECT_EQ(io::ReadPclkSlice(path, 95, 10).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(io::ReadPclkSlice(path, 101, 0).status().code(),
            StatusCode::kOutOfRange);
  std::remove(path.c_str());
}

// ---- typed decoder errors -------------------------------------------------

std::vector<uint8_t> Encoded(size_t rows = 4, size_t bits = 128) {
  return EncodePclk(MakeShard(rows, bits));
}

/// Recomputes the header checksum after a deliberate header edit, so the
/// edit itself (not the checksum) is what the decoder sees.
void FixHeaderChecksum(std::vector<uint8_t>& bytes) {
  const uint64_t sum = Fnv1a64(bytes.data(), 56);
  std::memcpy(bytes.data() + 56, &sum, 8);
}

TEST(PclkTest, TruncatedHeaderIsOutOfRange) {
  const std::vector<uint8_t> bytes = Encoded();
  for (size_t len : {0u, 1u, 63u}) {
    EXPECT_EQ(DecodePclk(bytes.data(), len).status().code(),
              StatusCode::kOutOfRange)
        << len;
  }
}

TEST(PclkTest, TruncatedSectionsAreOutOfRange) {
  const std::vector<uint8_t> bytes = Encoded();
  EXPECT_EQ(DecodePclk(bytes.data(), bytes.size() - 1).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(DecodePclk(bytes.data(), kPclkHeaderBytes + 3).status().code(),
            StatusCode::kOutOfRange);
}

TEST(PclkTest, BadMagicIsInvalidArgument) {
  std::vector<uint8_t> bytes = Encoded();
  bytes[0] ^= 0xFF;
  FixHeaderChecksum(bytes);
  EXPECT_EQ(DecodePclk(bytes.data(), bytes.size()).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(PclkTest, UnsupportedVersionIsInvalidArgument) {
  std::vector<uint8_t> bytes = Encoded();
  bytes[4] = 99;
  FixHeaderChecksum(bytes);
  EXPECT_EQ(DecodePclk(bytes.data(), bytes.size()).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(PclkTest, UnknownFlagIsProtocolViolation) {
  std::vector<uint8_t> bytes = Encoded();
  bytes[8] |= 0x80;
  FixHeaderChecksum(bytes);
  EXPECT_EQ(DecodePclk(bytes.data(), bytes.size()).status().code(),
            StatusCode::kProtocolViolation);
}

TEST(PclkTest, ReservedBytesMustBeZero) {
  std::vector<uint8_t> bytes = Encoded();
  bytes[29] = 1;
  FixHeaderChecksum(bytes);
  EXPECT_EQ(DecodePclk(bytes.data(), bytes.size()).status().code(),
            StatusCode::kProtocolViolation);
}

TEST(PclkTest, BadStrideIsInvalidArgument) {
  std::vector<uint8_t> bytes = Encoded();
  const uint32_t bad_stride = 63;  // not a 64-byte multiple
  std::memcpy(bytes.data() + 24, &bad_stride, 4);
  FixHeaderChecksum(bytes);
  EXPECT_EQ(DecodePclk(bytes.data(), bytes.size()).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(PclkTest, HugeGeometryIsRejectedNotOverflowed) {
  std::vector<uint8_t> bytes = Encoded();
  const uint64_t huge_rows = ~0ull;
  std::memcpy(bytes.data() + 16, &huge_rows, 8);
  FixHeaderChecksum(bytes);
  EXPECT_EQ(DecodePclk(bytes.data(), bytes.size()).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(PclkTest, CorruptHeaderChecksumIsIoError) {
  std::vector<uint8_t> bytes = Encoded();
  bytes[12] ^= 1;  // change filter_bits without fixing the checksum
  EXPECT_EQ(DecodePclk(bytes.data(), bytes.size()).status().code(),
            StatusCode::kIoError);
}

TEST(PclkTest, CorruptRowDataIsDetected) {
  std::vector<uint8_t> bytes = Encoded();
  bytes[bytes.size() - 1] ^= 0x40;  // flip a bit in the last row
  // Caught either by the rows checksum or the popcount cross-check.
  EXPECT_EQ(DecodePclk(bytes.data(), bytes.size()).status().code(),
            StatusCode::kIoError);
}

TEST(PclkTest, CorruptIdSectionIsIoError) {
  std::vector<uint8_t> bytes = Encoded();
  bytes[kPclkHeaderBytes] ^= 1;
  EXPECT_EQ(DecodePclk(bytes.data(), bytes.size()).status().code(),
            StatusCode::kIoError);
}

TEST(PclkTest, TrailingBytesAreProtocolViolation) {
  std::vector<uint8_t> bytes = Encoded();
  bytes.push_back(0);
  EXPECT_EQ(DecodePclk(bytes.data(), bytes.size()).status().code(),
            StatusCode::kProtocolViolation);
}

TEST(PclkTest, StrayBitsPastFilterBitsAreProtocolViolation) {
  // 100-bit rows leave tail bits in the 13th byte; set one of them and
  // repair every checksum so only the stray bit itself is wrong.
  const EncodedShard shard = MakeShard(3, 100);
  std::vector<uint8_t> bytes = EncodePclk(shard, /*include_popcounts=*/false);
  auto info = DecodePclkHeader(bytes.data(), bytes.size());
  ASSERT_TRUE(info.ok());
  uint8_t* row0 = bytes.data() + info->rows_offset();
  row0[12] |= 0x80;  // bit 103 of a 100-bit row
  const uint64_t rows_sum = Fnv1a64(bytes.data() + info->rows_offset(),
                                    bytes.size() - info->rows_offset());
  std::memcpy(bytes.data() + 48, &rows_sum, 8);
  FixHeaderChecksum(bytes);
  EXPECT_EQ(DecodePclk(bytes.data(), bytes.size()).status().code(),
            StatusCode::kProtocolViolation);
}

TEST(PclkTest, PopcountDisagreementIsIoError) {
  const EncodedShard shard = MakeShard(3, 128);
  std::vector<uint8_t> bytes = EncodePclk(shard);
  auto info = DecodePclkHeader(bytes.data(), bytes.size());
  ASSERT_TRUE(info.ok());
  // Bump popcount[1] and repair the section + header checksums.
  uint8_t* pop = bytes.data() + info->popcounts_offset();
  pop[4] ^= 1;
  const uint64_t pop_sum =
      Fnv1a64(bytes.data() + info->popcounts_offset(), 4 * info->row_count);
  std::memcpy(bytes.data() + 40, &pop_sum, 8);
  FixHeaderChecksum(bytes);
  EXPECT_EQ(DecodePclk(bytes.data(), bytes.size()).status().code(),
            StatusCode::kIoError);
}

TEST(PclkTest, FuzzedDecodingNeverCrashesAndErrorsAreTyped) {
  // Random single-byte mutations of a valid image: the decoder must either
  // return the original shard (mutation hit a dead byte — there are none,
  // but the property is what matters) or fail with one of the documented
  // codes. Never aborts, never returns garbage silently.
  const EncodedShard shard = MakeShard(6, 96);
  const std::vector<uint8_t> pristine = EncodePclk(shard);
  std::mt19937_64 rng(0xC0FFEE);
  for (int iteration = 0; iteration < 2000; ++iteration) {
    std::vector<uint8_t> bytes = pristine;
    const size_t mutations = 1 + rng() % 3;
    for (size_t m = 0; m < mutations; ++m) {
      bytes[rng() % bytes.size()] ^= static_cast<uint8_t>(1 + rng() % 255);
    }
    // Occasionally also truncate or extend.
    if (rng() % 4 == 0) bytes.resize(rng() % (bytes.size() + 16));
    auto decoded = DecodePclk(bytes.data(), bytes.size());
    if (decoded.ok()) {
      ExpectShardsEqual(shard, *decoded);
      continue;
    }
    const StatusCode code = decoded.status().code();
    EXPECT_TRUE(code == StatusCode::kInvalidArgument ||
                code == StatusCode::kOutOfRange ||
                code == StatusCode::kProtocolViolation ||
                code == StatusCode::kIoError)
        << StatusCodeToString(code) << ": " << decoded.status().message();
  }
}

void WriteBytes(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  if (!bytes.empty()) std::fwrite(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
}

/// The file reader runs the decoder's validation body: on every mutated
/// image both return the same shard or fail with the same code.
TEST(PclkTest, FileReaderAgreesWithDecoderOnMutations) {
  const EncodedShard shard = MakeShard(5, 200);
  const std::vector<uint8_t> pristine = EncodePclk(shard);
  const std::string path = ::testing::TempDir() + "/pclk_mutated.pclk";
  std::mt19937_64 rng(0xBEEF);
  for (int iteration = 0; iteration < 400; ++iteration) {
    std::vector<uint8_t> bytes = pristine;
    bytes[rng() % bytes.size()] ^= static_cast<uint8_t>(1 + rng() % 255);
    if (rng() % 4 == 0) bytes.resize(rng() % (bytes.size() + 16));
    WriteBytes(path, bytes);
    auto from_memory = DecodePclk(bytes.data(), bytes.size());
    auto from_file = io::ReadPclkFile(path);
    ASSERT_EQ(from_memory.ok(), from_file.ok()) << iteration;
    if (from_memory.ok()) {
      ExpectShardsEqual(*from_memory, *from_file);
    } else {
      EXPECT_EQ(from_memory.status().code(), from_file.status().code())
          << from_memory.status().ToString() << " vs "
          << from_file.status().ToString();
    }
  }
}

/// A file whose rows are stored at a wider stride than the matrix's takes
/// the row-by-row path, which must decode the same rows and still report
/// nonzero stride padding as a protocol violation.
TEST(PclkTest, WideStrideImagesDecodeRowByRow) {
  const EncodedShard shard = MakeShard(3, 100);
  const std::vector<uint8_t> narrow = EncodePclk(shard);
  auto info = DecodePclkHeader(narrow.data(), narrow.size());
  ASSERT_TRUE(info.ok());
  const size_t stride = info->row_stride_bytes;
  std::vector<uint8_t> wide(narrow.begin(), narrow.begin() + info->rows_offset());
  for (size_t r = 0; r < shard.size(); ++r) {
    const uint8_t* row = narrow.data() + info->rows_offset() + r * stride;
    wide.insert(wide.end(), row, row + stride);
    wide.insert(wide.end(), 64, 0);
  }
  const auto seal = [&](std::vector<uint8_t>& bytes) {
    StoreLeU32(bytes.data() + 24, static_cast<uint32_t>(stride + 64));
    StoreLeU64(bytes.data() + 48, Fnv1a64(bytes.data() + info->rows_offset(),
                                          bytes.size() - info->rows_offset()));
    StoreLeU64(bytes.data() + 56, Fnv1a64(bytes.data(), 56));
  };
  seal(wide);
  const std::string path = ::testing::TempDir() + "/pclk_wide.pclk";
  WriteBytes(path, wide);
  auto decoded = DecodePclk(wide.data(), wide.size());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ExpectShardsEqual(shard, *decoded);
  auto read = io::ReadPclkFile(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  ExpectShardsEqual(shard, *read);

  wide[info->rows_offset() + (stride + 64) + stride + 5] = 1;  // row 1's padding
  seal(wide);
  WriteBytes(path, wide);
  EXPECT_EQ(DecodePclk(wide.data(), wide.size()).status().code(),
            StatusCode::kProtocolViolation);
  EXPECT_EQ(io::ReadPclkFile(path).status().code(), StatusCode::kProtocolViolation);
}

/// A header that declares far more rows than the file holds fails from the
/// file size, before anything is allocated for those rows.
TEST(PclkTest, DeclaredRowsBeyondTheFileFailBeforeAllocating) {
  std::vector<uint8_t> bytes = Encoded();
  StoreLeU64(bytes.data() + 16, 1ull << 32);  // the largest count a header may declare
  FixHeaderChecksum(bytes);
  const std::string path = ::testing::TempDir() + "/pclk_oversized.pclk";
  WriteBytes(path, bytes);
  EXPECT_EQ(DecodePclk(bytes.data(), bytes.size()).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(io::ReadPclkFile(path).status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(io::ReadPclkSlice(path, 0, 1ull << 32).status().code(),
            StatusCode::kOutOfRange);
}

TEST(PclkTest, ReadMissingFileFails) {
  auto result = io::ReadPclkFile("/nonexistent/definitely/not/here.pclk");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
  EXPECT_FALSE(io::LooksLikePclkFile("/nonexistent/not/here.pclk"));
}

}  // namespace
}  // namespace pprl
