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
