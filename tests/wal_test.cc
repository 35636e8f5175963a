#include "io/wal.h"

#include <sys/stat.h>

#include <cerrno>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "blocking/lsh_blocking.h"
#include "common/bitvector.h"
#include "common/random.h"
#include "encoding/clk_io.h"

namespace pprl {
namespace io {
namespace {

constexpr size_t kFilterBits = 128;

std::vector<uint8_t> Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

void Dump(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

EncodedDatabase MakeRecords(size_t n, uint64_t seed) {
  Rng rng(seed);
  EncodedDatabase db;
  for (size_t i = 0; i < n; ++i) {
    BitVector bv(kFilterBits);
    for (size_t b = 0; b < kFilterBits; ++b) {
      if (rng.NextBool(0.3)) bv.Set(b);
    }
    db.ids.push_back(100 + i);
    db.filters.push_back(std::move(bv));
  }
  return db;
}

/// Writes a small segment (one hello + two append batches) and returns its
/// path. Sequences start at `start_sequence`.
std::string WriteSampleSegment(const std::string& name,
                               uint64_t start_sequence = 1) {
  const std::string path = ::testing::TempDir() + "/" + name;
  WalWriter::Options options;
  options.sync_every_ms = 0;  // sync every append: deterministic contents
  auto writer = WalWriter::Create(path, kFilterBits, start_sequence, options);
  EXPECT_TRUE(writer.ok()) << writer.status().ToString();
  const auto hello = EncodeWalHello("hospital-a");
  EXPECT_TRUE(
      (*writer)->Append(WalRecordType::kHello, hello.data(), hello.size()).ok());
  const EncodedDatabase records = MakeRecords(5, /*seed=*/7);
  for (const auto& [begin, end] : {std::pair<size_t, size_t>{0, 3}, {3, 5}}) {
    const auto batch = EncodeWalAppendBatch(0, records, begin, end);
    EXPECT_TRUE(
        (*writer)
            ->Append(WalRecordType::kAppendBatch, batch.data(), batch.size())
            .ok());
  }
  return path;
}

TEST(WalTest, RoundtripRecords) {
  const std::string path = WriteSampleSegment("wal_roundtrip.pwal");
  auto segment = ReadWalFile(path);
  ASSERT_TRUE(segment.ok()) << segment.status().ToString();
  EXPECT_EQ(segment->filter_bits, kFilterBits);
  EXPECT_EQ(segment->start_sequence, 1u);
  EXPECT_EQ(segment->torn_bytes, 0u);
  ASSERT_EQ(segment->records.size(), 3u);

  EXPECT_EQ(segment->records[0].type,
            static_cast<uint32_t>(WalRecordType::kHello));
  EXPECT_EQ(segment->records[0].sequence, 1u);
  auto party = DecodeWalHello(segment->records[0].payload);
  ASSERT_TRUE(party.ok());
  EXPECT_EQ(*party, "hospital-a");

  const EncodedDatabase records = MakeRecords(5, /*seed=*/7);
  size_t cursor = 0;
  for (size_t r = 1; r < 3; ++r) {
    EXPECT_EQ(segment->records[r].type,
              static_cast<uint32_t>(WalRecordType::kAppendBatch));
    EXPECT_EQ(segment->records[r].sequence, r + 1);
    auto batch = DecodeWalAppendBatch(segment->records[r].payload);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    EXPECT_EQ(batch->database, 0u);
    for (size_t i = 0; i < batch->rows.size(); ++i, ++cursor) {
      EXPECT_EQ(batch->rows.ids[i], records.ids[cursor]);
      EXPECT_EQ(batch->rows.filters[i], records.filters[cursor]);
    }
  }
  EXPECT_EQ(cursor, 5u);
}

/// Cutting the file anywhere past the segment header must read as a CLEAN
/// torn tail: the fully contained prefix of records, the ragged remainder
/// reported as dropped bytes — never an error, never a partial record.
TEST(WalTest, TornTailTruncationSweep) {
  const std::string path = WriteSampleSegment("wal_torn.pwal");
  const std::vector<uint8_t> bytes = Slurp(path);
  ASSERT_GT(bytes.size(), kWalHeaderBytes);

  auto full = ReadWalFile(path);
  ASSERT_TRUE(full.ok());
  // Byte offset at which each record ends.
  std::vector<size_t> record_ends;
  for (const WalRecord& record : full->records) {
    record_ends.push_back(record.offset + kWalRecordHeaderBytes +
                          record.payload.size());
  }

  const std::string cut_path = ::testing::TempDir() + "/wal_torn_cut.pwal";
  for (size_t cut = kWalHeaderBytes; cut <= bytes.size(); ++cut) {
    Dump(cut_path, std::vector<uint8_t>(bytes.begin(), bytes.begin() + cut));
    auto segment = ReadWalFile(cut_path);
    ASSERT_TRUE(segment.ok())
        << "cut at " << cut << ": " << segment.status().ToString();
    size_t contained = 0;
    while (contained < record_ends.size() && record_ends[contained] <= cut) {
      ++contained;
    }
    EXPECT_EQ(segment->records.size(), contained) << "cut at " << cut;
    const size_t tail_start =
        contained == 0 ? kWalHeaderBytes : record_ends[contained - 1];
    EXPECT_EQ(segment->torn_bytes, cut - tail_start) << "cut at " << cut;
  }

  // Cutting INTO the segment header is not a torn tail: the file cannot
  // even declare its geometry.
  for (const size_t cut : {size_t{0}, size_t{4}, kWalHeaderBytes - 1}) {
    Dump(cut_path, std::vector<uint8_t>(bytes.begin(), bytes.begin() + cut));
    EXPECT_FALSE(ReadWalFile(cut_path).ok()) << "header cut at " << cut;
  }
}

/// Every single-bit flip anywhere in the file must surface as a typed
/// error (checksums catch it), never as silently different records and
/// never as a crash. The record-header checksum is what turns a flipped
/// payload length into corruption instead of a bogus "torn tail".
TEST(WalTest, BitFlipFuzzAlwaysTypedError) {
  const std::string path = WriteSampleSegment("wal_flip.pwal");
  const std::vector<uint8_t> bytes = Slurp(path);
  const std::string flip_path = ::testing::TempDir() + "/wal_flip_mut.pwal";
  Rng rng(23);
  for (size_t pos = 0; pos < bytes.size(); ++pos) {
    std::vector<uint8_t> mutated = bytes;
    mutated[pos] ^= static_cast<uint8_t>(1u << rng.NextUint64(8));
    Dump(flip_path, mutated);
    auto segment = ReadWalFile(flip_path);
    EXPECT_FALSE(segment.ok()) << "flip at byte " << pos << " went unnoticed";
    if (!segment.ok()) {
      // The error must name the file so an operator can act on it.
      EXPECT_NE(segment.status().ToString().find("wal_flip_mut"),
                std::string::npos)
          << segment.status().ToString();
    }
  }
}

/// A segment header with intact checksums but a filter width no entry
/// point accepts fails the read with a typed error; recovery would size
/// the online engine from it.
TEST(WalTest, OutOfRangeFilterWidthIsRejected) {
  const std::string path = ::testing::TempDir() + "/wal_wide.pwal";
  {
    auto writer = WalWriter::Create(path, kMaxFilterBits + 1, 1, {});
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  }
  auto segment = ReadWalFile(path);
  ASSERT_FALSE(segment.ok());
  EXPECT_EQ(segment.status().code(), StatusCode::kProtocolViolation);
}

TEST(WalTest, SequenceGapIsCorruption) {
  // Two records written through separate writers into one file cannot
  // happen through the API, so splice manually: duplicate the last record
  // of a valid file (sequence repeats = gap backwards).
  const std::string path = WriteSampleSegment("wal_gap.pwal");
  auto full = ReadWalFile(path);
  ASSERT_TRUE(full.ok());
  const WalRecord& last = full->records.back();
  std::vector<uint8_t> bytes = Slurp(path);
  bytes.insert(bytes.end(), bytes.begin() + last.offset, bytes.end());
  const std::string gap_path = ::testing::TempDir() + "/wal_gap_mut.pwal";
  Dump(gap_path, bytes);
  auto segment = ReadWalFile(gap_path);
  ASSERT_FALSE(segment.ok());
  EXPECT_EQ(segment.status().code(), StatusCode::kProtocolViolation);
}

TEST(WalTest, GroupCommitSyncCadence) {
  // sync_every_ms <= 0: every append fsyncs.
  {
    const std::string path = ::testing::TempDir() + "/wal_sync_each.pwal";
    WalWriter::Options options;
    options.sync_every_ms = 0;
    auto writer = WalWriter::Create(path, kFilterBits, 1, options);
    ASSERT_TRUE(writer.ok());
    const auto hello = EncodeWalHello("p");
    const uint64_t before = (*writer)->syncs();
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE((*writer)
                      ->Append(WalRecordType::kHello, hello.data(), hello.size())
                      .ok());
    }
    EXPECT_EQ((*writer)->syncs() - before, 10u);
  }
  // A wide group-commit window: the 10 appends land well inside it, so at
  // most the first can trigger a sync.
  {
    const std::string path = ::testing::TempDir() + "/wal_sync_grouped.pwal";
    WalWriter::Options options;
    options.sync_every_ms = 60000;
    auto writer = WalWriter::Create(path, kFilterBits, 1, options);
    ASSERT_TRUE(writer.ok());
    const auto hello = EncodeWalHello("p");
    const uint64_t before = (*writer)->syncs();
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE((*writer)
                      ->Append(WalRecordType::kHello, hello.data(), hello.size())
                      .ok());
    }
    EXPECT_LE((*writer)->syncs() - before, 1u);
    // Sync() on demand still works and counts.
    ASSERT_TRUE((*writer)->Sync().ok());
  }
}

TEST(WalTest, HostilePayloadCodecs) {
  // Hello: empty and oversized names.
  EXPECT_FALSE(DecodeWalHello({}).ok());
  auto hello = EncodeWalHello("party");
  hello.resize(hello.size() - 1);  // length prefix now lies
  EXPECT_FALSE(DecodeWalHello(hello).ok());

  const EncodedDatabase records = MakeRecords(3, /*seed=*/5);
  const auto batch = EncodeWalAppendBatch(1, records, 0, 3);
  ASSERT_TRUE(DecodeWalAppendBatch(batch).ok());

  // Truncations at every length must fail cleanly, never read past end.
  for (size_t cut = 0; cut < batch.size(); ++cut) {
    const std::vector<uint8_t> prefix(batch.begin(), batch.begin() + cut);
    EXPECT_FALSE(DecodeWalAppendBatch(prefix).ok()) << "cut " << cut;
  }
  // Trailing garbage is a length mismatch, not ignorable padding.
  auto padded = batch;
  padded.push_back(0);
  EXPECT_FALSE(DecodeWalAppendBatch(padded).ok());
}

TEST(WalTest, ListSegmentsSortsAndIgnoresForeignFiles) {
  const std::string dir = ::testing::TempDir() + "/wal_list_dir";
  std::remove((dir + "/" + "x").c_str());
  ASSERT_EQ(::mkdir(dir.c_str(), 0755) == 0 || errno == EEXIST, true);
  // Three real segments out of order, plus files the listing must skip.
  for (const uint64_t seq : {uint64_t{900}, uint64_t{7}, uint64_t{30}}) {
    WalWriter::Options options;
    auto writer =
        WalWriter::Create(WalSegmentPath(dir, seq), kFilterBits, seq, options);
    ASSERT_TRUE(writer.ok());
  }
  Dump(dir + "/notes.txt", {1, 2, 3});
  Dump(dir + "/wal-junk.pwal", {1, 2, 3});
  auto segments = ListWalSegments(dir);
  ASSERT_TRUE(segments.ok());
  ASSERT_EQ(segments->size(), 3u);
  EXPECT_EQ((*segments)[0].first, 7u);
  EXPECT_EQ((*segments)[1].first, 30u);
  EXPECT_EQ((*segments)[2].first, 900u);

  auto missing = ListWalSegments(dir + "/does-not-exist");
  ASSERT_TRUE(missing.ok());
  EXPECT_TRUE(missing->empty());
}

}  // namespace
}  // namespace io
}  // namespace pprl
