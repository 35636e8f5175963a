#include "pipeline/pipeline.h"

#include <gtest/gtest.h>

#include "datagen/generator.h"
#include "eval/metrics.h"
#include "pipeline/channel.h"

namespace pprl {
namespace {

TEST(ChannelTest, MetersMessagesAndBytes) {
  Channel channel;
  channel.Send("a", "b", 100, "filters");
  channel.Send("a", "b", 50, "filters");
  channel.Send("b", "a", 10, "ids");
  EXPECT_EQ(channel.total_messages(), 3u);
  EXPECT_EQ(channel.total_bytes(), 160u);
  EXPECT_EQ(channel.BytesBetween("a", "b"), 150u);
  EXPECT_EQ(channel.BytesBetween("b", "a"), 10u);
  EXPECT_EQ(channel.BytesBetween("a", "c"), 0u);
  EXPECT_EQ(channel.bytes_by_tag().at("filters"), 150u);
  channel.Reset();
  EXPECT_EQ(channel.total_messages(), 0u);
  EXPECT_EQ(channel.total_bytes(), 0u);
}

class PipelineTest : public ::testing::Test {
 protected:
  static std::pair<Database, Database> MakeScenario(double mean_corruptions) {
    DataGenerator gen(GeneratorConfig{});
    LinkageScenarioConfig config;
    config.records_per_database = 200;
    config.overlap = 0.5;
    config.corruption.mean_corruptions = mean_corruptions;
    auto dbs = gen.GenerateScenario(config);
    EXPECT_TRUE(dbs.ok());
    return {std::move((*dbs)[0]), std::move((*dbs)[1])};
  }
};

TEST_F(PipelineTest, LinksCleanDataPerfectly) {
  DataGenerator gen(GeneratorConfig{});
  LinkageScenarioConfig scenario;
  scenario.records_per_database = 200;
  scenario.overlap = 0.5;
  scenario.corruption.mean_corruptions = 0.0;
  scenario.corruption.name_swap_prob = 0.0;  // truly clean duplicates
  auto dbs = gen.GenerateScenario(scenario);
  ASSERT_TRUE(dbs.ok());
  const Database& a = (*dbs)[0];
  const Database& b = (*dbs)[1];
  PipelineConfig config;
  config.bloom.num_bits = 1000;
  config.match_threshold = 0.95;
  const PprlPipeline pipeline(config);
  auto output = pipeline.Link(a, b);
  ASSERT_TRUE(output.ok());
  const GroundTruth truth(a, b);
  const ConfusionCounts counts = EvaluateMatches(output->matches, truth);
  EXPECT_DOUBLE_EQ(counts.Precision(), 1.0);
  EXPECT_GT(counts.Recall(), 0.98);
}

TEST_F(PipelineTest, LinksDirtyDataWell) {
  const auto [a, b] = MakeScenario(1.5);
  PipelineConfig config;
  config.bloom.num_bits = 1000;
  config.match_threshold = 0.75;
  const PprlPipeline pipeline(config);
  auto output = pipeline.Link(a, b);
  ASSERT_TRUE(output.ok());
  const GroundTruth truth(a, b);
  const ConfusionCounts counts = EvaluateMatches(output->matches, truth);
  EXPECT_GT(counts.F1(), 0.75);
}

TEST_F(PipelineTest, BlockingReducesComparisons) {
  const auto [a, b] = MakeScenario(0.5);
  PipelineConfig lsh;
  lsh.blocking = BlockingScheme::kHammingLsh;
  PipelineConfig none;
  none.blocking = BlockingScheme::kNone;
  auto lsh_out = PprlPipeline(lsh).Link(a, b);
  auto none_out = PprlPipeline(none).Link(a, b);
  ASSERT_TRUE(lsh_out.ok() && none_out.ok());
  EXPECT_EQ(none_out->comparisons, 200u * 200u);
  EXPECT_LT(lsh_out->comparisons, none_out->comparisons / 2);
}

TEST_F(PipelineTest, AllLinkageModelsAgreeOnMatches) {
  const auto [a, b] = MakeScenario(1.0);
  std::vector<size_t> match_counts;
  for (LinkageModel model :
       {LinkageModel::kTwoPartyLinkageUnit, LinkageModel::kTwoPartyDirect,
        LinkageModel::kDualLinkageUnit}) {
    PipelineConfig config;
    config.model = model;
    auto output = PprlPipeline(config).Link(a, b);
    ASSERT_TRUE(output.ok());
    match_counts.push_back(output->matches.size());
    EXPECT_GT(output->messages, 0u);
    EXPECT_GT(output->bytes, 0u);
  }
  EXPECT_EQ(match_counts[0], match_counts[1]);
  EXPECT_EQ(match_counts[0], match_counts[2]);
}

TEST_F(PipelineTest, DualLuSendsMoreMessages) {
  const auto [a, b] = MakeScenario(1.0);
  PipelineConfig single;
  single.model = LinkageModel::kTwoPartyLinkageUnit;
  PipelineConfig dual;
  dual.model = LinkageModel::kDualLinkageUnit;
  auto single_out = PprlPipeline(single).Link(a, b);
  auto dual_out = PprlPipeline(dual).Link(a, b);
  ASSERT_TRUE(single_out.ok() && dual_out.ok());
  EXPECT_GT(dual_out->messages, single_out->messages);
}

TEST_F(PipelineTest, HardeningSchemesStillLink) {
  const auto [a, b] = MakeScenario(0.5);
  const GroundTruth truth(a, b);
  for (HardeningScheme scheme :
       {HardeningScheme::kBalance, HardeningScheme::kXorFold, HardeningScheme::kBlip}) {
    PipelineConfig config;
    config.hardening = scheme;
    config.match_threshold = 0.7;
    // XOR-fold halves the filter; keep the LSH within bounds.
    config.lsh_bits_per_key = 12;
    auto output = PprlPipeline(config).Link(a, b);
    ASSERT_TRUE(output.ok());
    const ConfusionCounts counts = EvaluateMatches(output->matches, truth);
    EXPECT_GT(counts.F1(), 0.5) << "scheme " << static_cast<int>(scheme);
  }
}

TEST_F(PipelineTest, SoundexBlockingWorks) {
  const auto [a, b] = MakeScenario(0.5);
  PipelineConfig config;
  config.blocking = BlockingScheme::kSoundex;
  config.match_threshold = 0.8;
  auto output = PprlPipeline(config).Link(a, b);
  ASSERT_TRUE(output.ok());
  const GroundTruth truth(a, b);
  EXPECT_GT(EvaluateMatches(output->matches, truth).F1(), 0.6);
}

TEST_F(PipelineTest, InvalidConfigRejected) {
  PipelineConfig config;
  config.bloom.num_bits = 0;
  const auto [a, b] = MakeScenario(0.0);
  EXPECT_FALSE(PprlPipeline(config).Link(a, b).ok());
}

TEST_F(PipelineTest, OutOfRangeLshGeometryRejected) {
  const auto [a, b] = MakeScenario(0.0);
  for (const auto& [tables, bits] :
       {std::pair<size_t, size_t>{0, 18}, {1025, 18}, {20, 0}, {20, 65}}) {
    PipelineConfig config;
    config.lsh_tables = tables;
    config.lsh_bits_per_key = bits;
    EXPECT_EQ(PprlPipeline(config).Link(a, b).status().code(),
              StatusCode::kInvalidArgument)
        << tables << " x " << bits;
  }
}

TEST_F(PipelineTest, ReportsTimingAndCandidates) {
  const auto [a, b] = MakeScenario(0.5);
  PipelineConfig config;
  auto output = PprlPipeline(config).Link(a, b);
  ASSERT_TRUE(output.ok());
  EXPECT_GT(output->candidate_pairs, 0u);
  EXPECT_GE(output->encode_seconds, 0.0);
  EXPECT_GE(output->compare_seconds, 0.0);
}

TEST(PipelineConfigTest, DefaultFieldConfigsMatchStandardSchema) {
  const Schema schema = DataGenerator::StandardSchema();
  for (const auto& field : PprlPipeline::DefaultFieldConfigs()) {
    EXPECT_GE(schema.FieldIndex(field.field_name), 0) << field.field_name;
  }
}

}  // namespace
}  // namespace pprl
