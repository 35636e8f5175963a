#include "blocking/blocking.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "datagen/generator.h"
#include "eval/metrics.h"

namespace pprl {
namespace {

Database MakeDb(const std::vector<std::pair<std::string, std::string>>& names,
                uint64_t first_entity = 0) {
  Database db;
  db.schema = DataGenerator::StandardSchema();
  for (size_t i = 0; i < names.size(); ++i) {
    Record r;
    r.id = i;
    r.entity_id = first_entity + i;
    r.values = {names[i].first, names[i].second, "f", "1980-01-01",
                "springfield", "1 main st", "2000", "0400000000"};
    db.records.push_back(std::move(r));
  }
  return db;
}

TEST(StandardBlockerTest, SameKeysShareBlocks) {
  const Database a = MakeDb({{"mary", "smith"}, {"john", "jones"}});
  const Database b = MakeDb({{"mary", "smyth"}, {"peter", "brown"}});
  const StandardBlocker blocker(SoundexNameKey("k"));
  const auto pairs =
      StandardBlocker::CandidatePairs(blocker.BuildIndex(a), blocker.BuildIndex(b));
  // smith/smyth soundex-collide with the same first initial -> (0,0) only.
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0].a, 0u);
  EXPECT_EQ(pairs[0].b, 0u);
}

TEST(StandardBlockerTest, KeyedBlockingDiffersByKey) {
  const Database a = MakeDb({{"mary", "smith"}});
  const StandardBlocker b1(SoundexNameKey("key-1"));
  const StandardBlocker b2(SoundexNameKey("key-2"));
  const auto i1 = b1.BuildIndex(a);
  const auto i2 = b2.BuildIndex(a);
  EXPECT_NE(i1.begin()->first, i2.begin()->first);
}

/// One key per function, pinned: the first 16 hex digits of
/// HMAC-SHA-256("k", material), whatever way the HMAC is computed.
TEST(StandardBlockerTest, KeyedKeysAreGolden) {
  Database db = MakeDb({{"Mary", "Smith"}});
  db.records[0].values[6] = " 2000 ";
  const Record& record = db.records[0];
  EXPECT_EQ(SoundexNameKey("k")(db.schema, record),
            std::vector<std::string>{"bd7873fa5cbfdfc5"});  // "snk\x1fS530\x1fm"
  EXPECT_EQ(ExactAttributeKey("postcode", "k")(db.schema, record),
            std::vector<std::string>{"54e3f6218b5ec757"});  // "eak\x1fpostcode\x1f2000"
}

TEST(StandardBlockerTest, CandidatePairsDeduplicated) {
  // Key function emitting two identical keys must not duplicate pairs.
  const BlockingKeyFunction multi = [](const Schema&, const Record&) {
    return std::vector<std::string>{"k1", "k2"};
  };
  const Database a = MakeDb({{"x", "y"}});
  const Database b = MakeDb({{"p", "q"}});
  const StandardBlocker blocker(multi);
  const auto pairs =
      StandardBlocker::CandidatePairs(blocker.BuildIndex(a), blocker.BuildIndex(b));
  EXPECT_EQ(pairs.size(), 1u);
}

TEST(ExactAttributeKeyTest, BlocksOnNormalizedValue) {
  const Database a = MakeDb({{"ann", "lee"}});
  Database b = MakeDb({{"ann", "lee"}});
  b.records[0].values[6] = "2000";  // same postcode
  const StandardBlocker blocker(ExactAttributeKey("postcode", "k"));
  const auto pairs =
      StandardBlocker::CandidatePairs(blocker.BuildIndex(a), blocker.BuildIndex(b));
  EXPECT_EQ(pairs.size(), 1u);
}

TEST(ExactAttributeKeyTest, MissingFieldYieldsNoKeys) {
  const Database a = MakeDb({{"ann", "lee"}});
  const StandardBlocker blocker(ExactAttributeKey("nonexistent", "k"));
  EXPECT_TRUE(blocker.BuildIndex(a).empty());
}

TEST(FullPairsTest, CrossProduct) {
  const auto pairs = FullPairs(3, 2);
  EXPECT_EQ(pairs.size(), 6u);
  EXPECT_EQ(pairs.front(), (CandidatePair{0, 0}));
  EXPECT_EQ(pairs.back(), (CandidatePair{2, 1}));
  EXPECT_TRUE(FullPairs(0, 5).empty());
}

/// Collects a run-shard stream back into one expanded vector, checking
/// that shard ids are sequential, no shard is empty, every shard except
/// the last covers exactly `shard_size` pairs, and each shard's expanded
/// sequence is ascending (a, b) — the invariant the tiled compare path
/// sorts against.
std::vector<CandidatePair> CollectRunShards(
    size_t shard_size,
    const std::function<void(const CandidateShardFn&)>& produce) {
  std::vector<CandidatePair> all;
  uint32_t next_id = 0;
  bool saw_short_shard = false;
  produce([&](CandidateShard shard) {
    EXPECT_EQ(shard.shard_id, next_id++) << "shard ids must be sequential";
    EXPECT_FALSE(shard.runs.empty()) << "empty shards must not be emitted";
    const size_t num_pairs = shard.num_pairs();
    if (shard_size != 0) {
      EXPECT_FALSE(saw_short_shard) << "only the final shard may be short";
      EXPECT_LE(num_pairs, shard_size);
      if (num_pairs < shard_size) saw_short_shard = true;
    }
    std::vector<CandidatePair> pairs;
    for (const PairRun& run : shard.runs) {
      for (uint32_t b = run.b_begin; b < run.b_end; ++b) pairs.push_back({run.a, b});
    }
    EXPECT_EQ(pairs.size(), num_pairs);
    for (size_t i = 1; i < pairs.size(); ++i) {
      EXPECT_TRUE(pairs[i - 1] < pairs[i]) << "expanded runs must ascend within a shard";
    }
    all.insert(all.end(), pairs.begin(), pairs.end());
  });
  return all;
}

/// The run producers must emit exactly the candidate sequence (and shard
/// boundaries) of their materializing counterparts — runs are a wire
/// format, not a different stream.
TEST(StreamPairRunsTest, FullRunsMatchFullPairsAtEveryShardSize) {
  const auto expected = FullPairs(23, 17);
  for (const size_t shard_size :
       {size_t{0}, size_t{1}, size_t{7}, size_t{64}, size_t{1000}}) {
    const auto streamed =
        CollectRunShards(shard_size, [&](const CandidateShardFn& emit) {
          StreamFullPairRuns(23, 17, shard_size, emit);
        });
    ASSERT_EQ(expected.size(), streamed.size()) << "shard_size=" << shard_size;
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(expected[i], streamed[i]) << "shard_size=" << shard_size;
    }
  }
  size_t shards_seen = 0;
  StreamFullPairRuns(0, 5, 8, [&](CandidateShard) { ++shards_seen; });
  StreamFullPairRuns(5, 0, 8, [&](CandidateShard) { ++shards_seen; });
  EXPECT_EQ(shards_seen, 0u);
}

TEST(StreamPairRunsTest, BlockedRunsMatchCandidatePairsAtEveryShardSize) {
  const BlockingKeyFunction keys = [](const Schema&, const Record& r) {
    const std::string& name = r.values.at(0);
    std::vector<std::string> out = {name.substr(0, 1)};
    if (name.size() > 1) out.push_back(name.substr(0, 2));
    return out;
  };
  const Database a = MakeDb({{"ada", "x"}, {"adam", "y"}, {"bob", "z"}, {"ben", "w"}});
  const Database b = MakeDb({{"ada", "p"}, {"beth", "q"}, {"adele", "r"}});
  const StandardBlocker blocker(keys);
  const BlockIndex ia = blocker.BuildIndex(a);
  const BlockIndex ib = blocker.BuildIndex(b);
  const auto expected = StandardBlocker::CandidatePairs(ia, ib);
  ASSERT_FALSE(expected.empty());
  for (const size_t shard_size : {size_t{0}, size_t{1}, size_t{3}, size_t{100}}) {
    const auto streamed =
        CollectRunShards(shard_size, [&](const CandidateShardFn& emit) {
          StreamBlockedPairRuns(ia, ib, shard_size, emit);
        });
    ASSERT_EQ(expected.size(), streamed.size()) << "shard_size=" << shard_size;
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(expected[i], streamed[i]) << "shard_size=" << shard_size;
    }
  }
}

TEST(SortedNeighborhoodTest, WindowCoversAdjacentKeys) {
  const Database a = MakeDb({{"aaa", "aaa"}, {"zzz", "zzz"}});
  const Database b = MakeDb({{"aab", "aab"}, {"zzy", "zzy"}});
  // Key on raw last name (unkeyed for testability).
  const BlockingKeyFunction raw_key = [](const Schema& schema, const Record& r) {
    const int idx = schema.FieldIndex("last_name");
    return std::vector<std::string>{r.values[static_cast<size_t>(idx)]};
  };
  const SortedNeighborhoodBlocker blocker(raw_key, 2);
  const auto pairs = blocker.CandidatePairs(a, b);
  // Sorted keys: aaa(a0) aab(b0) zzy(b1) zzz(a1): window 2 pairs a0-b0, b1-a1.
  ASSERT_EQ(pairs.size(), 2u);
  EXPECT_EQ(pairs[0], (CandidatePair{0, 0}));
  EXPECT_EQ(pairs[1], (CandidatePair{1, 1}));
}

TEST(SortedNeighborhoodTest, LargerWindowMoreCandidates) {
  DataGenerator gen(GeneratorConfig{});
  LinkageScenarioConfig config;
  config.records_per_database = 100;
  config.overlap = 0.5;
  auto dbs = gen.GenerateScenario(config);
  ASSERT_TRUE(dbs.ok());
  const BlockingKeyFunction raw_key = [](const Schema& schema, const Record& r) {
    const int idx = schema.FieldIndex("last_name");
    return std::vector<std::string>{r.values[static_cast<size_t>(idx)]};
  };
  const SortedNeighborhoodBlocker narrow(raw_key, 3);
  const SortedNeighborhoodBlocker wide(raw_key, 10);
  EXPECT_LT(narrow.CandidatePairs((*dbs)[0], (*dbs)[1]).size(),
            wide.CandidatePairs((*dbs)[0], (*dbs)[1]).size());
}

TEST(BlockingQualityTest, SoundexBlockingOnGeneratedData) {
  DataGenerator gen(GeneratorConfig{});
  LinkageScenarioConfig config;
  config.records_per_database = 300;
  config.overlap = 0.5;
  config.corruption.mean_corruptions = 1.0;
  auto dbs = gen.GenerateScenario(config);
  ASSERT_TRUE(dbs.ok());
  const Database& a = (*dbs)[0];
  const Database& b = (*dbs)[1];
  const GroundTruth truth(a, b);
  ASSERT_GT(truth.num_matches(), 100u);

  const StandardBlocker blocker(SoundexNameKey("k"));
  const auto pairs =
      StandardBlocker::CandidatePairs(blocker.BuildIndex(a), blocker.BuildIndex(b));
  const BlockingQuality quality = EvaluateBlocking(pairs, truth, a.size(), b.size());
  // Blocking must prune hard while keeping most true matches.
  EXPECT_GT(quality.reduction_ratio, 0.9);
  EXPECT_GT(quality.pairs_completeness, 0.6);
}

}  // namespace
}  // namespace pprl
