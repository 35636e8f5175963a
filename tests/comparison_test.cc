#include "linkage/comparison.h"

#include <gtest/gtest.h>

#include "encoding/bloom_filter.h"
#include "similarity/similarity.h"

namespace pprl {
namespace {

std::vector<BitVector> Encode(const std::vector<std::string>& names) {
  const BloomFilterEncoder encoder({500, 15, BloomHashScheme::kDoubleHashing, ""});
  std::vector<BitVector> out;
  for (const auto& n : names) out.push_back(encoder.EncodeString(n));
  return out;
}

PairSimilarityFunction Dice() {
  return [](const BitVector& a, const BitVector& b) { return DiceSimilarity(a, b); };
}

TEST(ComparisonEngineTest, ScoresCandidates) {
  const auto fa = Encode({"smith", "jones"});
  const auto fb = Encode({"smith", "brown"});
  const ComparisonEngine engine(Dice());
  const auto scored = engine.Compare(fa, fb, {{0, 0}, {0, 1}, {1, 1}});
  ASSERT_EQ(scored.size(), 3u);
  EXPECT_DOUBLE_EQ(scored[0].score, 1.0);
  EXPECT_LT(scored[1].score, 0.5);
  EXPECT_EQ(engine.last_comparison_count(), 3u);
}

TEST(ComparisonEngineTest, MinScoreFiltersEarly) {
  const auto fa = Encode({"smith"});
  const auto fb = Encode({"smith", "zzzzz"});
  const ComparisonEngine engine(Dice());
  const auto scored = engine.Compare(fa, fb, {{0, 0}, {0, 1}}, 0.8);
  ASSERT_EQ(scored.size(), 1u);
  EXPECT_EQ(scored[0].b, 0u);
  EXPECT_EQ(engine.last_comparison_count(), 2u);  // both were still compared
}

TEST(ComparisonEngineTest, EmptyCandidates) {
  const ComparisonEngine engine(Dice());
  EXPECT_TRUE(engine.Compare({}, {}, {}).empty());
  EXPECT_EQ(engine.last_comparison_count(), 0u);
}

TEST(CompareFieldwiseTest, PerFieldScores) {
  // Two fields, two records each.
  const auto first_a = Encode({"mary", "john"});
  const auto first_b = Encode({"mary", "jon"});
  const auto last_a = Encode({"smith", "jones"});
  const auto last_b = Encode({"smyth", "wilson"});
  const auto pairs = CompareFieldwise({first_a, last_a}, {first_b, last_b},
                                      {{0, 0}, {1, 1}}, Dice());
  ASSERT_EQ(pairs.size(), 2u);
  ASSERT_EQ(pairs[0].field_scores.size(), 2u);
  EXPECT_DOUBLE_EQ(pairs[0].field_scores[0], 1.0);     // mary == mary
  EXPECT_GT(pairs[0].field_scores[1], 0.5);            // smith ~ smyth
  EXPECT_LT(pairs[1].field_scores[1], 0.4);            // jones vs wilson
}

TEST(CompareFieldwiseTest, NoFields) {
  const auto pairs = CompareFieldwise({}, {}, {{0, 0}}, Dice());
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_TRUE(pairs[0].field_scores.empty());
}

}  // namespace
}  // namespace pprl
