// Parity of the recovery bulk paths with the per-record paths they replace:
// LshBandIndex::AppendRows against row-by-row Append, and
// OnlineLinkageEngine::AppendRun (and Recover, which applies the WAL tail
// in runs) against per-record Append. Both must leave byte-identical
// state at every thread count.

#include <sys/stat.h>

#include <cstdio>
#include <memory>
#include <optional>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "blocking/lsh_index.h"
#include "blocking/partitioner.h"
#include "common/bit_matrix.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "encoding/clk_io.h"
#include "io/checkpoint.h"
#include "io/wal.h"
#include "linkage/online_linkage.h"
#include "service/durability.h"

namespace pprl {
namespace {

constexpr size_t kFilterBits = 512;

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

/// `n` filters, about half of them near-duplicates of earlier ones, so
/// band chains are long enough to matter.
std::vector<BitVector> Filters(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<BitVector> filters;
  filters.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (i > 0 && rng.NextBool(0.5)) {
      filters.push_back(Perturb(filters[rng.NextUint64(i)], 3, rng));
    } else {
      filters.push_back(RandomFilter(rng));
    }
  }
  return filters;
}

/// The pools a parity case runs on: inline, and four workers.
struct Pools {
  ShardScheduler four{4};
  std::vector<ShardScheduler*> all() { return {nullptr, &four}; }
};

/// What the parity cases compare of an index: every row's bits and
/// popcount, the band checksum, every row's Probe and the candidate pairs.
struct IndexView {
  std::vector<uint64_t> words;
  std::vector<size_t> counts;
  uint64_t checksum = 0;
  std::vector<std::vector<uint32_t>> probes;
  std::vector<CandidatePair> pairs;

  explicit IndexView(const LshBandIndex& index) : checksum(index.band_checksum()) {
    const BitMatrix& rows = index.rows();
    for (size_t r = 0; r < rows.num_rows(); ++r) {
      words.insert(words.end(), rows.row(r), rows.row(r) + rows.words_per_row());
      counts.push_back(rows.row_count(r));
    }
    for (const BitVector& row : rows.ToVectors()) {
      probes.emplace_back();
      index.Probe(row, &probes.back());
    }
    pairs = LshCandidatePairs(index, index, BlockPartitioner(1), 0);
  }
};

void ExpectSameIndex(const IndexView& got, const IndexView& want, const std::string& what) {
  EXPECT_EQ(got.counts, want.counts) << what;
  EXPECT_TRUE(got.words == want.words) << what;
  EXPECT_EQ(got.checksum, want.checksum) << what;
  EXPECT_TRUE(got.probes == want.probes) << what;
  EXPECT_TRUE(got.pairs == want.pairs) << what;
}

TEST(LshBandIndexBulkTest, AppendRowsMatchesRowByRowAppends) {
  Pools pools;
  // Rows past the bulk range stay out of the index, and with rows
  // already indexed the range starts mid-matrix.
  const std::vector<BitVector> filters = Filters(1000 + 4097 + 3, 7);
  const BitMatrix source = BitMatrix::FromVectors(filters);
  for (const size_t existing : {size_t{0}, size_t{1000}}) {
    for (const size_t bulk : {size_t{0}, size_t{1}, size_t{4095}, size_t{4096},
                              size_t{4097}}) {
      LshBandIndex reference(kFilterBits, 20, 18, 42);
      for (size_t r = 0; r < existing + bulk; ++r) reference.Append(filters[r]);
      const IndexView want(reference);
      for (ShardScheduler* pool : pools.all()) {
        LshBandIndex got(kFilterBits, 20, 18, 42);
        for (size_t r = 0; r < existing; ++r) got.Append(filters[r]);
        got.AppendRows(source, existing, existing + bulk, pool);
        ExpectSameIndex(IndexView(got), want,
                        std::to_string(existing) + " + " + std::to_string(bulk) +
                            " rows, " + (pool == nullptr ? "inline" : "4 threads"));
      }
    }
  }
}

/// One event of a recovery tail: a party's hello, or a batch of its rows.
struct TailEvent {
  bool hello = false;
  uint32_t database = 0;
  std::string party;
  EncodedDatabase rows;
};

/// A seeded tail: `parties` owners whose hellos arrive interleaved with
/// batches of 1-600 rows. Two rows in five are near-duplicates of an
/// earlier entity, from any party, so some parties hold duplicates of
/// their own: a later row of another party that matches two of them
/// joins two components, and the order of its unions shows in the
/// union-find parents.
std::vector<TailEvent> MakeTail(size_t parties, size_t rows, uint64_t seed) {
  Rng rng(seed);
  std::vector<TailEvent> tail;
  std::vector<BitVector> entities;
  size_t registered = 1;  // party 0 says hello first
  tail.push_back({true, 0, "party-0", {}});
  uint64_t next_id = 1;
  for (size_t done = 0; done < rows;) {
    if (registered < parties && rng.NextBool(0.3)) {
      tail.push_back({true, static_cast<uint32_t>(registered),
                      "party-" + std::to_string(registered), {}});
      ++registered;
      continue;
    }
    TailEvent batch;
    batch.database = static_cast<uint32_t>(rng.NextUint64(registered));
    const size_t n = std::min<size_t>(rows - done, 1 + rng.NextUint64(600));
    for (size_t i = 0; i < n; ++i) {
      if (entities.empty() || !rng.NextBool(0.4)) entities.push_back(RandomFilter(rng));
      batch.rows.ids.push_back(next_id++);
      batch.rows.filters.push_back(
          Perturb(entities[rng.NextUint64(entities.size())], 4, rng));
    }
    done += n;
    tail.push_back(std::move(batch));
  }
  return tail;
}

/// `events` cut after the first batch that brings the head to `head_rows`
/// rows: a checkpointed head and the tail that follows it, whose rows
/// link to the head's.
std::pair<std::vector<TailEvent>, std::vector<TailEvent>> Split(
    std::vector<TailEvent> events, size_t head_rows) {
  size_t rows = 0;
  size_t cut = 0;
  while (cut < events.size() && rows < head_rows) rows += events[cut++].rows.size();
  std::vector<TailEvent> tail(std::make_move_iterator(events.begin() + cut),
                              std::make_move_iterator(events.end()));
  events.resize(cut);
  return {std::move(events), std::move(tail)};
}

/// Applies `tail` record by record, the way replay did before runs.
void ApplyPerRecord(const std::vector<TailEvent>& tail, OnlineLinkageEngine& engine) {
  for (const TailEvent& event : tail) {
    if (event.hello) {
      ASSERT_EQ(engine.RegisterDatabase(event.party), event.database);
      continue;
    }
    for (size_t i = 0; i < event.rows.size(); ++i) {
      ASSERT_TRUE(engine.Append(event.database, event.rows.ids[i], event.rows.filters[i]).ok());
    }
  }
}

/// Applies `tail` in runs of `run_rows` rows that straddle batch and
/// hello boundaries: hellos register at once, rows wait for their run.
void ApplyInRuns(const std::vector<TailEvent>& tail, size_t run_rows,
                 ShardScheduler* pool, OnlineLinkageEngine& engine) {
  std::vector<uint32_t> databases;
  EncodedShard run;
  run.bits = BitMatrix(0, kFilterBits);
  const auto flush = [&] {
    ASSERT_TRUE(engine.AppendRun(databases, run, pool).ok());
    databases.clear();
    run.ids.clear();
    run.bits = BitMatrix(0, kFilterBits);
  };
  for (const TailEvent& event : tail) {
    if (event.hello) {
      ASSERT_EQ(engine.RegisterDatabase(event.party), event.database);
      continue;
    }
    for (size_t i = 0; i < event.rows.size(); ++i) {
      databases.push_back(event.database);
      run.ids.push_back(event.rows.ids[i]);
      run.bits.AppendRow(event.rows.filters[i]);
      if (databases.size() == run_rows) flush();
    }
  }
  flush();
}

void ExpectSameEngine(OnlineLinkageEngine& got, OnlineLinkageEngine& want,
                      const std::vector<BitVector>& queries, const std::string& what) {
  EXPECT_EQ(io::EncodeCheckpoint(got.ExportSnapshot(7)),
            io::EncodeCheckpoint(want.ExportSnapshot(7)))
      << what;
  EXPECT_EQ(got.edges(), want.edges()) << what;
  EXPECT_EQ(got.comparisons(), want.comparisons()) << what;
  EXPECT_EQ(got.Clusters(), want.Clusters()) << what;
  for (size_t q = 0; q < queries.size(); ++q) {
    auto g = got.Query(queries[q], OnlineLinkageEngine::kNoDatabase, true, 0);
    auto w = want.Query(queries[q], OnlineLinkageEngine::kNoDatabase, true, 0);
    ASSERT_TRUE(g.ok() && w.ok());
    EXPECT_EQ(g->candidates, w->candidates) << what << " query " << q;
    EXPECT_EQ(g->cluster_id, w->cluster_id) << what << " query " << q;
    EXPECT_EQ(g->cluster_size, w->cluster_size) << what << " query " << q;
    ASSERT_EQ(g->matches.size(), w->matches.size()) << what << " query " << q;
    for (size_t m = 0; m < g->matches.size(); ++m) {
      EXPECT_EQ(g->matches[m].database, w->matches[m].database);
      EXPECT_EQ(g->matches[m].record, w->matches[m].record);
      EXPECT_EQ(g->matches[m].id, w->matches[m].id);
      EXPECT_EQ(g->matches[m].score, w->matches[m].score);
    }
  }
}

/// 64 queries: perturbed copies of tail rows, so most have matches.
std::vector<BitVector> Queries(const std::vector<TailEvent>& tail, uint64_t seed) {
  Rng rng(seed);
  std::vector<BitVector> rows;
  for (const TailEvent& event : tail) {
    rows.insert(rows.end(), event.rows.filters.begin(), event.rows.filters.end());
  }
  std::vector<BitVector> queries;
  for (size_t q = 0; q < 64; ++q) {
    queries.push_back(Perturb(rows[rng.NextUint64(rows.size())], 5, rng));
  }
  return queries;
}

TEST(ReplayParityTest, RunsMatchPerRecordAppends) {
  Pools pools;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    const size_t parties = 2 + seed % 2;
    const std::vector<TailEvent> tail = MakeTail(parties, 3000, seed);
    const std::vector<BitVector> queries = Queries(tail, seed);
    OnlineLinkageEngine want(kFilterBits);
    ApplyPerRecord(tail, want);
    ASSERT_GT(want.edges(), 0u);
    for (ShardScheduler* pool : pools.all()) {
      for (const size_t run_rows : {size_t{1}, size_t{77}, size_t{1000}, size_t{4096}}) {
        OnlineLinkageEngine got(kFilterBits);
        ApplyInRuns(tail, run_rows, pool, got);
        ExpectSameEngine(got, want, queries,
                         "seed " + std::to_string(seed) + ", runs of " +
                             std::to_string(run_rows) + ", " +
                             (pool == nullptr ? "inline" : "4 threads"));
      }
    }
  }
}

TEST(ReplayParityTest, RunsOnARestoredCheckpointMatchPerRecordAppends) {
  Pools pools;
  const auto [head, tail] = Split(MakeTail(3, 5000, 11), 2500);
  const std::vector<BitVector> queries = Queries(tail, 13);
  OnlineLinkageEngine want(kFilterBits);
  ApplyPerRecord(head, want);
  const io::OnlineSnapshot checkpoint = want.ExportSnapshot(1);
  ApplyPerRecord(tail, want);
  for (ShardScheduler* pool : pools.all()) {
    auto restored = OnlineLinkageEngine::FromSnapshot(checkpoint, OnlineLinkageOptions{}, pool);
    ASSERT_TRUE(restored.ok());
    ApplyInRuns(tail, 1500, pool, **restored);
    ExpectSameEngine(**restored, want, queries,
                     pool == nullptr ? "inline" : "4 threads");
  }
}

TEST(ReplayParityTest, AppendRunRejectsBadRunsWithoutApplyingThem) {
  OnlineLinkageEngine engine(kFilterBits);
  const uint32_t db = engine.RegisterDatabase("only");
  Rng rng(5);
  EncodedShard run;
  run.bits = BitMatrix(0, kFilterBits);
  run.ids = {1, 2};
  run.bits.AppendRow(RandomFilter(rng));
  run.bits.AppendRow(RandomFilter(rng));
  EXPECT_EQ(engine.AppendRun({db, 1}, run, nullptr).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.AppendRun({db}, run, nullptr).code(), StatusCode::kInvalidArgument);
  EncodedShard wide;
  wide.ids = {3};
  wide.bits = BitMatrix(1, kFilterBits + 64);
  EXPECT_EQ(engine.AppendRun({db}, wide, nullptr).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.size(), 0u);
  EXPECT_TRUE(engine.AppendRun({db, db}, run, nullptr).ok());
  EXPECT_EQ(engine.size(), 2u);
  EXPECT_EQ(engine.record_count(db), 2u);
}

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  ::mkdir(dir.c_str(), 0755);
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

/// End to end: a journaled head, a checkpoint and a two-party tail longer
/// than one replay run, recovered and compared with the engine that
/// journaled it.
TEST(ReplayParityTest, RecoverMatchesTheJournalingEngine) {
  const std::string dir = FreshDir("replay_parity_recover");
  DurabilityConfig config;
  config.wal_dir = dir;
  config.wal_sync_ms = 0;
  config.checkpoint_every_n = 0;
  config.wal_batch_records = 300;
  const auto [head, tail] = Split(MakeTail(3, 7000, 21), 2000);
  size_t tail_rows = 0;
  for (const TailEvent& event : tail) tail_rows += event.rows.size();
  ASSERT_GT(tail_rows, 4096u);  // more than one replay run
  OnlineLinkageEngine journaled(kFilterBits);
  {
    OnlineDurability durability(config);
    const auto journal = [&](const std::vector<TailEvent>& events) {
      for (const TailEvent& event : events) {
        // A hello is an append of no rows: DurableAppend journals the
        // party's registration on its first call.
        uint32_t db = 0;
        ASSERT_TRUE(durability
                        .DurableAppend(journaled, "party-" + std::to_string(event.database),
                                       event.rows, 0, event.rows.size(), &db)
                        .ok());
        ASSERT_EQ(db, event.database);
      }
    };
    journal(head);
    ASSERT_TRUE(durability.Checkpoint(journaled).ok());
    journal(tail);
  }
  OnlineDurability durability(config);
  std::unique_ptr<OnlineLinkageEngine> recovered;
  RecoveryReport report;
  ASSERT_TRUE(durability.Recover(&recovered, &report).ok());
  ASSERT_NE(recovered, nullptr);
  EXPECT_TRUE(report.checkpoint_loaded);
  EXPECT_EQ(report.replayed_records, tail_rows);
  EXPECT_GE(report.checkpoint_seconds, 0.0);
  EXPECT_GE(report.replay_seconds, 0.0);
  EXPECT_LE(report.checkpoint_seconds + report.replay_seconds, report.seconds);
  ExpectSameEngine(*recovered, journaled, Queries(tail, 23), "Recover");
}

/// A WAL batch whose rows are wider than the engine's filters (a crafted
/// or foreign segment: the decoder checks a batch against its own header
/// only) fails recovery with the status per-record Append gives it, after
/// the rows before it, and replay stops there.
TEST(ReplayParityTest, RecoverRefusesABatchOfAnotherWidthAsAppendWould) {
  const std::string dir = FreshDir("replay_parity_wide_batch");
  Rng rng(9);
  EncodedDatabase good, wide;
  for (uint64_t i = 0; i < 5; ++i) {
    good.ids.push_back(i + 1);
    good.filters.push_back(RandomFilter(rng));
  }
  wide.ids = {100, 101};
  wide.filters = {BitVector(kFilterBits + 64), BitVector(kFilterBits + 64)};
  {
    auto writer = io::WalWriter::Create(io::WalSegmentPath(dir, 1), kFilterBits, 1, {});
    ASSERT_TRUE(writer.ok());
    const auto append = [&](io::WalRecordType type, const std::vector<uint8_t>& payload) {
      ASSERT_TRUE((*writer)->Append(type, payload.data(), payload.size()).ok());
    };
    append(io::WalRecordType::kHello, io::EncodeWalHello("party-0"));
    append(io::WalRecordType::kAppendBatch, io::EncodeWalAppendBatch(0, good, 0, 5));
    append(io::WalRecordType::kAppendBatch, io::EncodeWalAppendBatch(0, wide, 0, 2));
    append(io::WalRecordType::kAppendBatch, io::EncodeWalAppendBatch(0, good, 0, 5));
  }
  OnlineLinkageEngine reference(kFilterBits);
  reference.RegisterDatabase("party-0");
  const Status want = reference.Append(0, 100, wide.filters[0]).status();

  DurabilityConfig config;
  config.wal_dir = dir;
  OnlineDurability durability(config);
  std::unique_ptr<OnlineLinkageEngine> recovered;
  RecoveryReport report;
  const Status got = durability.Recover(&recovered, &report);
  EXPECT_EQ(got.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(got.ToString(), want.ToString());
  ASSERT_NE(recovered, nullptr);
  EXPECT_EQ(recovered->size(), 5u);
}

}  // namespace
}  // namespace pprl
