#include "service/durability.h"

#include <sys/stat.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "blocking/lsh_blocking.h"
#include "common/random.h"
#include "common/wire.h"
#include "encoding/clk_io.h"
#include "io/checkpoint.h"
#include "io/wal.h"
#include "linkage/online_linkage.h"
#include "service/client.h"
#include "service/server.h"

namespace pprl {
namespace {

constexpr size_t kFilterBits = 256;

BitVector RandomFilter(Rng& rng) {
  BitVector bv(kFilterBits);
  for (size_t i = 0; i < kFilterBits; ++i) {
    if (rng.NextBool(0.3)) bv.Set(i);
  }
  return bv;
}

BitVector Perturb(const BitVector& filter, size_t flips, Rng& rng) {
  BitVector out = filter;
  for (size_t i = 0; i < flips; ++i) out.Flip(rng.NextUint64(kFilterBits));
  return out;
}

/// Two overlapping databases: shared entities cluster across them, unique
/// records stay singletons — enough structure that a wrong partition
/// cannot pass by accident.
std::vector<EncodedDatabase> MakeDatabases(size_t entities, uint64_t seed) {
  Rng rng(seed);
  std::vector<BitVector> base;
  for (size_t e = 0; e < entities; ++e) base.push_back(RandomFilter(rng));
  std::vector<EncodedDatabase> dbs(2);
  for (size_t d = 0; d < 2; ++d) {
    for (size_t e = 0; e < entities * 7 / 10; ++e) {
      const size_t entity = (e + d * entities / 3) % entities;
      dbs[d].ids.push_back(1000 * (d + 1) + e);
      dbs[d].filters.push_back(Perturb(base[entity], 2, rng));
    }
    for (size_t e = 0; e < entities / 4; ++e) {
      dbs[d].ids.push_back(800000 + 1000 * (d + 1) + e);
      dbs[d].filters.push_back(RandomFilter(rng));
    }
  }
  return dbs;
}

std::unique_ptr<OnlineLinkageEngine> BuildReference(
    const std::vector<EncodedDatabase>& dbs) {
  auto engine = std::make_unique<OnlineLinkageEngine>(kFilterBits);
  for (size_t d = 0; d < dbs.size(); ++d) {
    const uint32_t db = engine->RegisterDatabase("db-" + std::to_string(d));
    for (size_t i = 0; i < dbs[d].size(); ++i) {
      EXPECT_TRUE(engine->Append(db, dbs[d].ids[i], dbs[d].filters[i]).ok());
    }
  }
  return engine;
}

/// The recovered engine must be indistinguishable from the reference:
/// same registry, same cursors, same partition, same accounting.
void ExpectEngineParity(OnlineLinkageEngine& recovered,
                        OnlineLinkageEngine& reference) {
  ASSERT_EQ(recovered.database_count(), reference.database_count());
  for (uint32_t d = 0; d < recovered.database_count(); ++d) {
    EXPECT_EQ(recovered.database_name(d), reference.database_name(d));
    EXPECT_EQ(recovered.record_count(d), reference.record_count(d));
  }
  EXPECT_EQ(recovered.size(), reference.size());
  EXPECT_EQ(recovered.edges(), reference.edges());
  EXPECT_EQ(recovered.comparisons(), reference.comparisons());
  EXPECT_EQ(recovered.Clusters(), reference.Clusters());
}

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  ::mkdir(dir.c_str(), 0755);
  // Start every test from an empty directory: durable state from an
  // earlier (failed) run must not leak in.
  auto segments = io::ListWalSegments(dir);
  if (segments.ok()) {
    for (const auto& [seq, path] : *segments) std::remove(path.c_str());
  }
  auto checkpoints = io::ListCheckpoints(dir);
  if (checkpoints.ok()) {
    for (const auto& [seq, path] : *checkpoints) std::remove(path.c_str());
  }
  return dir;
}

DurabilityConfig Config(const std::string& dir) {
  DurabilityConfig config;
  config.wal_dir = dir;
  config.wal_sync_ms = 0;
  config.checkpoint_every_n = 0;  // checkpoints only when the test asks
  config.wal_batch_records = 16;
  return config;
}

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

TEST(CheckpointTest, SnapshotRoundtripRestoresTheExactEngine) {
  const auto dbs = MakeDatabases(40, /*seed=*/3);
  auto reference = BuildReference(dbs);

  const std::string dir = FreshDir("ckpt_roundtrip");
  const io::OnlineSnapshot snapshot = reference->ExportSnapshot(/*wal_sequence=*/42);
  std::string path;
  ASSERT_TRUE(io::WriteCheckpointFile(dir, snapshot, &path).ok());

  auto read = io::ReadCheckpointFile(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->wal_sequence, 42u);
  auto restored = OnlineLinkageEngine::FromSnapshot(*read, {});
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ExpectEngineParity(**restored, *reference);

  // Queries answer identically too (same candidates, same scores).
  Rng rng(9);
  for (int q = 0; q < 20; ++q) {
    const BitVector probe = Perturb(dbs[0].filters[q], 2, rng);
    auto a = (*restored)->Query(probe, 0, /*want_clusters=*/true, /*top_k=*/0);
    auto b = reference->Query(probe, 0, /*want_clusters=*/true, /*top_k=*/0);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ASSERT_EQ(a->matches.size(), b->matches.size());
    for (size_t m = 0; m < a->matches.size(); ++m) {
      EXPECT_EQ(a->matches[m].database, b->matches[m].database);
      EXPECT_EQ(a->matches[m].record, b->matches[m].record);
      EXPECT_EQ(a->matches[m].score, b->matches[m].score);
    }
    EXPECT_EQ(a->cluster_id, b->cluster_id);
    EXPECT_EQ(a->cluster_size, b->cluster_size);
  }
}

TEST(CheckpointTest, BandChecksumCatchesGeometryDrift) {
  const auto dbs = MakeDatabases(20, /*seed=*/5);
  auto reference = BuildReference(dbs);
  io::OnlineSnapshot snapshot = reference->ExportSnapshot(1);
  snapshot.band_checksum ^= 1;  // what seed/geometry drift looks like
  auto restored = OnlineLinkageEngine::FromSnapshot(snapshot, {});
  ASSERT_FALSE(restored.ok());
  EXPECT_NE(restored.status().ToString().find("band checksum"),
            std::string::npos);
}

/// A checkpoint whose header declares LSH geometry no entry point accepts
/// (its checksums are intact) must fail recovery with a typed error
/// instead of sizing band tables from it.
TEST(CheckpointTest, OutOfRangeGeometryFailsRecovery) {
  const auto dbs = MakeDatabases(12, /*seed=*/8);
  auto reference = BuildReference(dbs);
  for (const auto& [tables, bits] : {std::pair<uint32_t, uint32_t>{20, 65}, {1025, 18}}) {
    const std::string dir = FreshDir("ckpt_geometry");
    io::OnlineSnapshot snapshot = reference->ExportSnapshot(1);
    snapshot.lsh_tables = tables;
    snapshot.lsh_bits_per_key = bits;
    ASSERT_TRUE(io::WriteCheckpointFile(dir, snapshot, nullptr).ok());

    OnlineDurability durability(Config(dir));
    std::unique_ptr<OnlineLinkageEngine> recovered;
    RecoveryReport report;
    const Status status = durability.Recover(&recovered, &report);
    EXPECT_EQ(status.code(), StatusCode::kProtocolViolation)
        << tables << " x " << bits << ": " << status.ToString();
    EXPECT_EQ(recovered, nullptr);
  }
}

/// The same for a header whose Dice threshold or filter width no entry
/// point accepts: the engine would size its cutoff table from them.
TEST(CheckpointTest, OutOfRangeThresholdOrFilterWidthFailsRecovery) {
  const auto dbs = MakeDatabases(12, /*seed=*/8);
  auto reference = BuildReference(dbs);
  const auto cases = {std::pair<double, uint32_t>{0.0, kFilterBits},
                      {1.5, kFilterBits},
                      {std::nan(""), kFilterBits},
                      {0.8, static_cast<uint32_t>(kMaxFilterBits + 1)}};
  for (const auto& [threshold, bits] : cases) {
    const std::string dir = FreshDir("ckpt_threshold");
    io::OnlineSnapshot snapshot = reference->ExportSnapshot(1);
    snapshot.dice_threshold = threshold;
    snapshot.filter_bits = bits;
    ASSERT_TRUE(io::WriteCheckpointFile(dir, snapshot, nullptr).ok());

    OnlineDurability durability(Config(dir));
    std::unique_ptr<OnlineLinkageEngine> recovered;
    RecoveryReport report;
    const Status status = durability.Recover(&recovered, &report);
    EXPECT_EQ(status.code(), StatusCode::kProtocolViolation)
        << threshold << " at " << bits << " bits: " << status.ToString();
    EXPECT_EQ(recovered, nullptr);
  }
}

/// Every single-bit flip in a checkpoint file must fail the read with a
/// typed error naming the file — a daemon must refuse corrupt state, not
/// serve from it.
TEST(CheckpointTest, BitFlipAndTruncationFuzz) {
  const auto dbs = MakeDatabases(12, /*seed=*/8);
  auto reference = BuildReference(dbs);
  const std::string dir = FreshDir("ckpt_fuzz");
  std::string path;
  ASSERT_TRUE(io::WriteCheckpointFile(dir, reference->ExportSnapshot(7), &path).ok());
  const std::vector<uint8_t> bytes = Slurp(path);
  ASSERT_GT(bytes.size(), io::kCheckpointHeaderBytes);

  const std::string mut_path = dir + "/mutated.pckp";
  Rng rng(31);
  // Flipping every byte of a multi-KiB file is slow under sanitizers;
  // cover every header/section-header byte and sample the payloads.
  for (size_t pos = 0; pos < bytes.size();
       pos += (pos < 4 * io::kCheckpointHeaderBytes ? 1 : 37)) {
    std::vector<uint8_t> mutated = bytes;
    mutated[pos] ^= static_cast<uint8_t>(1u << rng.NextUint64(8));
    Dump(mut_path, mutated);
    auto read = io::ReadCheckpointFile(mut_path);
    EXPECT_FALSE(read.ok()) << "flip at byte " << pos << " went unnoticed";
    if (!read.ok()) {
      EXPECT_NE(read.status().ToString().find("mutated.pckp"), std::string::npos);
    }
  }
  for (size_t cut = 0; cut < bytes.size(); cut += 191) {
    Dump(mut_path, std::vector<uint8_t>(bytes.begin(), bytes.begin() + cut));
    EXPECT_FALSE(io::ReadCheckpointFile(mut_path).ok()) << "cut at " << cut;
  }
}

/// Drives a full durable ingest and returns the directory, so crash-matrix
/// tests can mutate the files and recover. `stop_after` bounds how many
/// records of each database are absorbed (SIZE_MAX = all).
void DurableIngest(const std::vector<EncodedDatabase>& dbs,
                   OnlineDurability& durability, OnlineLinkageEngine& engine,
                   size_t stop_after = SIZE_MAX) {
  for (size_t d = 0; d < dbs.size(); ++d) {
    const size_t end = std::min(stop_after, dbs[d].size());
    uint32_t db = 0;
    auto cursor = durability.DurableAppend(engine, "db-" + std::to_string(d),
                                           dbs[d], 0, end, &db);
    ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
    EXPECT_EQ(*cursor, end);
  }
}

/// A partition section that declares more rows than its bytes hold must
/// fail with a typed error. 0x1f81f81f81f81f80 rows make the section's
/// size arithmetic (8 + 8 rows + ceil(rows / 8) + 16) wrap to exactly the
/// 8 bytes the crafted section has; with every section re-checksummed,
/// nothing but the row count gives the image away.
TEST(CheckpointTest, OverflowingPartitionRowCountIsRejected) {
  io::OnlineSnapshot snapshot;
  snapshot.filter_bits = 64;
  snapshot.lsh_tables = 4;
  snapshot.lsh_bits_per_key = 8;
  snapshot.lsh_seed = 1;
  snapshot.dice_threshold = 0.8;
  snapshot.database_names = {"a"};
  snapshot.database_sizes = {2};
  EncodedDatabase rows;
  rows.ids = {1, 2};
  rows.filters = {BitVector(64), BitVector(64)};
  snapshot.rows = ShardFromEncodedDatabase(rows);
  snapshot.row_database = {0, 0};
  snapshot.parent = {0, 1};
  snapshot.linked = {0, 0};
  const std::vector<uint8_t> honest = io::EncodeCheckpoint(snapshot);

  // Rebuild the file with the partition section's payload replaced.
  std::vector<uint8_t> image(honest.begin(),
                             honest.begin() + io::kCheckpointHeaderBytes);
  for (size_t offset = io::kCheckpointHeaderBytes; offset < honest.size();) {
    const uint8_t* h = honest.data() + offset;
    const uint64_t len = LoadLeU64(h + 8);
    std::vector<uint8_t> payload(h + io::kCheckpointSectionHeaderBytes,
                                 h + io::kCheckpointSectionHeaderBytes + len);
    if (LoadLeU32(h) == static_cast<uint32_t>(io::CheckpointSection::kPartition)) {
      payload.assign(8, 0);
      StoreLeU64(payload.data(), 0x1f81f81f81f81f80ull);
    }
    uint8_t header[io::kCheckpointSectionHeaderBytes] = {};
    StoreLeU32(header, LoadLeU32(h));
    StoreLeU64(header + 8, payload.size());
    StoreLeU64(header + 16, Fnv1a64(payload.data(), payload.size()));
    StoreLeU64(header + 24, Fnv1a64(header, 24));
    image.insert(image.end(), header, header + sizeof(header));
    image.insert(image.end(), payload.begin(), payload.end());
    offset += io::kCheckpointSectionHeaderBytes + len;
  }
  ASSERT_EQ(image.size(), 477u);

  const auto decoded = io::DecodeCheckpoint(image.data(), image.size(), "crafted");
  EXPECT_EQ(decoded.status().code(), StatusCode::kProtocolViolation)
      << decoded.status().ToString();

  const std::string dir = FreshDir("ckpt_row_overflow");
  Dump(io::CheckpointPath(dir, 1), image);
  OnlineDurability durability(Config(dir));
  std::unique_ptr<OnlineLinkageEngine> recovered;
  RecoveryReport report;
  const Status status = durability.Recover(&recovered, &report);
  EXPECT_EQ(status.code(), StatusCode::kProtocolViolation) << status.ToString();
  EXPECT_EQ(recovered, nullptr);
}

/// Crash matrix k1: process died mid-WAL-append — the segment ends in a
/// ragged partial record. Recovery drops the torn tail and rebuilds the
/// exact pre-crash state.
TEST(CrashMatrixTest, K1_TornWalAppend) {
  const auto dbs = MakeDatabases(30, /*seed=*/13);
  const std::string dir = FreshDir("crash_k1");
  {
    OnlineDurability durability(Config(dir));
    std::unique_ptr<OnlineLinkageEngine> engine;
    RecoveryReport report;
    ASSERT_TRUE(durability.Recover(&engine, &report).ok());
    ASSERT_EQ(engine, nullptr);
    engine = std::make_unique<OnlineLinkageEngine>(kFilterBits);
    DurableIngest(dbs, durability, *engine);
  }  // destructors stand in for the kill: nothing flushes beyond the OS

  auto segments = io::ListWalSegments(dir);
  ASSERT_TRUE(segments.ok());
  ASSERT_EQ(segments->size(), 1u);
  {  // a ragged 11-byte tail, as a crash mid-write() would leave
    std::ofstream out((*segments)[0].second,
                      std::ios::binary | std::ios::app);
    out.write("torn-bytes!", 11);
  }

  OnlineDurability durability(Config(dir));
  std::unique_ptr<OnlineLinkageEngine> engine;
  RecoveryReport report;
  ASSERT_TRUE(durability.Recover(&engine, &report).ok());
  ASSERT_NE(engine, nullptr);
  EXPECT_EQ(report.torn_bytes_dropped, 11u);
  EXPECT_GT(report.replayed_records, 0u);
  auto reference = BuildReference(dbs);
  ExpectEngineParity(*engine, *reference);
}

/// Crash matrix k2: process died mid-checkpoint-write — a partial
/// checkpoint-*.tmp exists, never renamed. Recovery ignores it and
/// replays the WAL.
TEST(CrashMatrixTest, K2_PartialCheckpointTemp) {
  const auto dbs = MakeDatabases(30, /*seed=*/17);
  const std::string dir = FreshDir("crash_k2");
  {
    OnlineDurability durability(Config(dir));
    std::unique_ptr<OnlineLinkageEngine> engine;
    RecoveryReport report;
    ASSERT_TRUE(durability.Recover(&engine, &report).ok());
    engine = std::make_unique<OnlineLinkageEngine>(kFilterBits);
    DurableIngest(dbs, durability, *engine);
  }
  Dump(dir + "/checkpoint-00000000000000000099.pckp.tmp",
       {'h', 'a', 'l', 'f'});

  OnlineDurability durability(Config(dir));
  std::unique_ptr<OnlineLinkageEngine> engine;
  RecoveryReport report;
  ASSERT_TRUE(durability.Recover(&engine, &report).ok());
  ASSERT_NE(engine, nullptr);
  EXPECT_FALSE(report.checkpoint_loaded);
  auto reference = BuildReference(dbs);
  ExpectEngineParity(*engine, *reference);
}

/// Crash matrix k3: process died after the checkpoint rename but before
/// the covered WAL segments were deleted. Recovery loads the checkpoint
/// and must SKIP every already-covered WAL record instead of replaying it
/// twice.
TEST(CrashMatrixTest, K3_CheckpointRenamedWalNotYetDeleted) {
  const auto dbs = MakeDatabases(30, /*seed=*/19);
  const std::string dir = FreshDir("crash_k3");
  {
    OnlineDurability durability(Config(dir));
    std::unique_ptr<OnlineLinkageEngine> engine;
    RecoveryReport report;
    ASSERT_TRUE(durability.Recover(&engine, &report).ok());
    engine = std::make_unique<OnlineLinkageEngine>(kFilterBits);
    DurableIngest(dbs, durability, *engine);

    // Freeze the pre-checkpoint WAL, checkpoint (which deletes it), then
    // resurrect it — the exact k3 on-disk state.
    auto segments = io::ListWalSegments(dir);
    ASSERT_TRUE(segments.ok());
    ASSERT_EQ(segments->size(), 1u);
    const std::vector<uint8_t> frozen = Slurp((*segments)[0].second);
    const std::string frozen_path = (*segments)[0].second;
    ASSERT_TRUE(durability.Checkpoint(*engine).ok());
    ASSERT_TRUE(io::ListWalSegments(dir)->empty());
    Dump(frozen_path, frozen);
  }

  OnlineDurability durability(Config(dir));
  std::unique_ptr<OnlineLinkageEngine> engine;
  RecoveryReport report;
  ASSERT_TRUE(durability.Recover(&engine, &report).ok());
  ASSERT_NE(engine, nullptr);
  EXPECT_TRUE(report.checkpoint_loaded);
  EXPECT_EQ(report.replayed_records, 0u) << "covered records were replayed";
  auto reference = BuildReference(dbs);
  ExpectEngineParity(*engine, *reference);
}

/// Crash matrix k4: process died mid-shipment — only a prefix of the
/// second database was journaled. Recovery restores the prefix state and
/// an idempotent re-drive (skip the server-side cursor, append the tail)
/// converges to the full state.
TEST(CrashMatrixTest, K4_MidShipmentAbsorb) {
  const auto dbs = MakeDatabases(30, /*seed=*/23);
  const std::string dir = FreshDir("crash_k4");
  const size_t prefix = dbs[1].size() / 2;
  {
    OnlineDurability durability(Config(dir));
    std::unique_ptr<OnlineLinkageEngine> engine;
    RecoveryReport report;
    ASSERT_TRUE(durability.Recover(&engine, &report).ok());
    engine = std::make_unique<OnlineLinkageEngine>(kFilterBits);
    uint32_t db = 0;
    ASSERT_TRUE(
        durability.DurableAppend(*engine, "db-0", dbs[0], 0, dbs[0].size(), &db)
            .ok());
    ASSERT_TRUE(
        durability.DurableAppend(*engine, "db-1", dbs[1], 0, prefix, &db).ok());
  }

  OnlineDurability durability(Config(dir));
  std::unique_ptr<OnlineLinkageEngine> engine;
  RecoveryReport report;
  ASSERT_TRUE(durability.Recover(&engine, &report).ok());
  ASSERT_NE(engine, nullptr);
  ASSERT_EQ(engine->record_count(1), prefix);

  // The re-driven owner ships the whole database again; the server-side
  // cursor rule turns it into an append of the missing tail.
  const size_t skip = std::min<size_t>(engine->record_count(1), dbs[1].size());
  EXPECT_EQ(skip, prefix);
  uint32_t db = 0;
  ASSERT_TRUE(
      durability.DurableAppend(*engine, "db-1", dbs[1], skip, dbs[1].size(), &db)
          .ok());
  auto reference = BuildReference(dbs);
  ExpectEngineParity(*engine, *reference);
}

TEST(RecoveryTest, CrashDuringRecoveryIsIdempotent) {
  // Recovery is read-only: running it twice (a re-crash mid-recovery)
  // yields the identical engine and leaves the files byte-identical.
  const auto dbs = MakeDatabases(20, /*seed=*/29);
  const std::string dir = FreshDir("recover_twice");
  {
    OnlineDurability durability(Config(dir));
    std::unique_ptr<OnlineLinkageEngine> engine;
    RecoveryReport report;
    ASSERT_TRUE(durability.Recover(&engine, &report).ok());
    engine = std::make_unique<OnlineLinkageEngine>(kFilterBits);
    DurableIngest(dbs, durability, *engine);
  }
  auto segments = io::ListWalSegments(dir);
  ASSERT_TRUE(segments.ok());
  const std::vector<uint8_t> before = Slurp((*segments)[0].second);

  std::unique_ptr<OnlineLinkageEngine> first, second;
  RecoveryReport report;
  {
    OnlineDurability durability(Config(dir));
    ASSERT_TRUE(durability.Recover(&first, &report).ok());
  }
  {
    OnlineDurability durability(Config(dir));
    ASSERT_TRUE(durability.Recover(&second, &report).ok());
  }
  ASSERT_NE(first, nullptr);
  ASSERT_NE(second, nullptr);
  ExpectEngineParity(*second, *first);
  EXPECT_EQ(Slurp((*segments)[0].second), before);
}

/// A batch the engine would reject never reaches the journal: a
/// mixed-width batch and one with fewer ids than filters each fail the
/// append, the WAL keeps its bytes and no hello is journaled for the new
/// party, and the next Recover restores the state before them.
TEST(RecoveryTest, RejectedBatchLeavesTheWalUnchanged) {
  const auto dbs = MakeDatabases(20, /*seed=*/31);
  const std::string dir = FreshDir("rejected_batch");
  {
    OnlineDurability durability(Config(dir));
    std::unique_ptr<OnlineLinkageEngine> engine;
    RecoveryReport report;
    ASSERT_TRUE(durability.Recover(&engine, &report).ok());
    engine = std::make_unique<OnlineLinkageEngine>(kFilterBits);
    uint32_t db = 0;
    ASSERT_TRUE(
        durability.DurableAppend(*engine, "db-0", dbs[0], 0, dbs[0].size(), &db)
            .ok());
    auto segments = io::ListWalSegments(dir);
    ASSERT_TRUE(segments.ok());
    ASSERT_EQ(segments->size(), 1u);
    const std::vector<uint8_t> before = Slurp((*segments)[0].second);

    EncodedDatabase mixed = dbs[1];
    mixed.filters[5] = BitVector(kFilterBits + 64);
    const auto mixed_append =
        durability.DurableAppend(*engine, "db-1", mixed, 0, mixed.size(), &db);
    EXPECT_EQ(mixed_append.status().code(), StatusCode::kInvalidArgument);
    EncodedDatabase short_ids = dbs[1];
    short_ids.ids.pop_back();
    const auto short_append =
        durability.DurableAppend(*engine, "db-1", short_ids, 0, short_ids.size(), &db);
    EXPECT_EQ(short_append.status().code(), StatusCode::kInvalidArgument);

    EXPECT_EQ(engine->database_count(), 1u);
    segments = io::ListWalSegments(dir);
    ASSERT_TRUE(segments.ok());
    ASSERT_EQ(segments->size(), 1u);
    EXPECT_EQ(Slurp((*segments)[0].second), before);
  }

  OnlineDurability durability(Config(dir));
  std::unique_ptr<OnlineLinkageEngine> engine;
  RecoveryReport report;
  ASSERT_TRUE(durability.Recover(&engine, &report).ok());
  ASSERT_NE(engine, nullptr);
  EXPECT_EQ(report.replayed_records, dbs[0].size());
  auto reference = BuildReference({dbs[0]});
  ExpectEngineParity(*engine, *reference);
}

TEST(RecoveryTest, CorruptWalRefusesStartup) {
  const auto dbs = MakeDatabases(15, /*seed=*/37);
  const std::string dir = FreshDir("corrupt_wal");
  {
    OnlineDurability durability(Config(dir));
    std::unique_ptr<OnlineLinkageEngine> engine;
    RecoveryReport report;
    ASSERT_TRUE(durability.Recover(&engine, &report).ok());
    engine = std::make_unique<OnlineLinkageEngine>(kFilterBits);
    DurableIngest(dbs, durability, *engine);
  }
  auto segments = io::ListWalSegments(dir);
  ASSERT_TRUE(segments.ok());
  std::vector<uint8_t> bytes = Slurp((*segments)[0].second);
  bytes[io::kWalHeaderBytes + io::kWalRecordHeaderBytes + 2] ^= 0x10;
  Dump((*segments)[0].second, bytes);

  OnlineDurability durability(Config(dir));
  std::unique_ptr<OnlineLinkageEngine> engine;
  RecoveryReport report;
  const Status recovered = durability.Recover(&engine, &report);
  ASSERT_FALSE(recovered.ok());
  EXPECT_NE(recovered.ToString().find("wal-"), std::string::npos)
      << "error must name the corrupt file: " << recovered.ToString();
}

/// Socket-level restart: a durable online daemon is stopped gracefully
/// (final checkpoint), a second daemon recovers from the same directories,
/// and a client's cursor probe + queries prove the served state survived.
TEST(RecoveryTest, ServerRestartServesIdenticalState) {
  const auto dbs = MakeDatabases(25, /*seed=*/41);
  const std::string dir = FreshDir("server_restart");

  LinkageUnitServerConfig config;
  config.port = 0;
  config.online_mode = true;
  config.expected_owners = 2;
  config.wal_dir = dir;
  config.wal_sync_ms = 0;
  config.name = "restart-a";

  EncodedShard shard0 = ShardFromEncodedDatabase(dbs[0]);
  EncodedShard shard1 = ShardFromEncodedDatabase(dbs[1]);

  std::vector<QueryResultMessage> before;
  uint16_t port = 0;
  {
    LinkageUnitServer server(config);
    ASSERT_TRUE(server.Start().ok());
    ASSERT_TRUE(server.durable());
    port = server.port();

    OnlineLinkClientConfig client_config;
    client_config.host = "127.0.0.1";
    client_config.port = port;
    OnlineLinkClient owner0(client_config);
    ASSERT_TRUE(owner0.Connect("db-0", kFilterBits).ok());
    ASSERT_TRUE(owner0.AppendRows(shard0, 0, shard0.size()).ok());
    OnlineLinkClient owner1(client_config);
    ASSERT_TRUE(owner1.Connect("db-1", kFilterBits).ok());
    ASSERT_TRUE(owner1.AppendRows(shard1, 0, shard1.size()).ok());

    auto result = owner0.QueryRows(shard0, 0, 10, /*want_clusters=*/true, 0);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    before.push_back(*result);
    owner0.Close();
    owner1.Close();
    server.Stop();  // graceful: writes the final checkpoint
  }
  ASSERT_FALSE(io::ListCheckpoints(dir)->empty());
  ASSERT_TRUE(io::ListWalSegments(dir)->empty()) << "WAL not truncated";

  config.name = "restart-b";
  LinkageUnitServer server(config);
  ASSERT_TRUE(server.Start().ok());
  EXPECT_TRUE(server.recovery_report().checkpoint_loaded);
  EXPECT_EQ(server.recovery_report().checkpoint_records,
            dbs[0].size() + dbs[1].size());

  OnlineLinkClientConfig client_config;
  client_config.host = "127.0.0.1";
  client_config.port = server.port();
  OnlineLinkClient owner0(client_config);
  ASSERT_TRUE(owner0.Connect("db-0", kFilterBits).ok());
  // A crashed owner re-drives its whole shipment (it has no ack to trust);
  // the fresh session's base index 0 makes the server skip every
  // already-indexed record — the append is idempotent.
  ASSERT_TRUE(owner0.AppendRows(shard0, 0, shard0.size()).ok());
  // Cursor re-derivation: the server remembers exactly what was acked.
  auto cursor = owner0.ServerCursor();
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
  EXPECT_EQ(*cursor, shard0.size());

  // ... and queries answer exactly as before the restart.
  auto result = owner0.QueryRows(shard0, 0, 10, /*want_clusters=*/true, 0);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->records.size(), before[0].records.size());
  for (size_t r = 0; r < result->records.size(); ++r) {
    const auto& now = result->records[r];
    const auto& then = before[0].records[r];
    EXPECT_EQ(now.matches, then.matches);
    EXPECT_EQ(now.cluster_id, then.cluster_id);
    EXPECT_EQ(now.cluster_size, then.cluster_size);
  }
  owner0.Close();
  server.Stop();
}

}  // namespace
}  // namespace pprl
