#include "pipeline/party.h"

#include <set>

#include <gtest/gtest.h>

#include "datagen/generator.h"
#include "pipeline/pipeline.h"

namespace pprl {
namespace {

class PartyTest : public ::testing::Test {
 protected:
  static ClkEncoder SharedEncoder() {
    PipelineConfig config;
    return ClkEncoder(config.bloom, PprlPipeline::DefaultFieldConfigs());
  }
};

TEST_F(PartyTest, ShipBeforeEncodeFails) {
  DataGenerator gen(GeneratorConfig{});
  DatabaseOwner owner("hospital-a", gen.GenerateClean(5));
  Channel channel;
  EXPECT_FALSE(owner.ShipEncodings(channel, "lu").ok());
  EXPECT_EQ(channel.total_messages(), 0u);  // nothing leaked
}

TEST_F(PartyTest, ShipmentIsMetered) {
  DataGenerator gen(GeneratorConfig{});
  DatabaseOwner owner("hospital-a", gen.GenerateClean(10));
  ASSERT_TRUE(owner.Encode(SharedEncoder()).ok());
  Channel channel;
  auto shipment = owner.ShipEncodings(channel, "lu");
  ASSERT_TRUE(shipment.ok());
  EXPECT_EQ(shipment->size(), 10u);
  EXPECT_EQ(channel.total_messages(), 1u);
  EXPECT_GT(channel.BytesBetween("hospital-a", "lu"), 10u * 100);
}

TEST_F(PartyTest, LinkageUnitRejectsBadShipments) {
  LinkageUnitService lu("lu");
  EncodedDatabase mismatched;
  mismatched.ids = {1};
  EXPECT_FALSE(lu.Receive("a", mismatched).ok());

  EncodedDatabase first;
  first.ids = {1};
  first.filters = {BitVector(100)};
  ASSERT_TRUE(lu.Receive("a", first).ok());
  EXPECT_FALSE(lu.Receive("a", first).ok());  // duplicate owner

  EncodedDatabase wrong_length;
  wrong_length.ids = {1};
  wrong_length.filters = {BitVector(64)};
  EXPECT_FALSE(lu.Receive("b", wrong_length).ok());
}

TEST_F(PartyTest, LinkNeedsTwoDatabases) {
  LinkageUnitService lu("lu");
  EncodedDatabase one;
  one.ids = {1};
  one.filters = {BitVector(100)};
  ASSERT_TRUE(lu.Receive("a", one).ok());
  EXPECT_FALSE(lu.Link(MultiPartyLinkageOptions{}).ok());
}

TEST_F(PartyTest, OutOfRangeLshGeometryIsRejected) {
  LinkageUnitService lu("lu");
  EncodedDatabase db;
  db.ids = {1};
  db.filters = {BitVector(100)};
  ASSERT_TRUE(lu.Receive("a", db).ok());
  ASSERT_TRUE(lu.Receive("b", db).ok());
  const std::vector<std::pair<size_t, size_t>> rejected = {
      {0, 18}, {1025, 18}, {size_t{UINT32_MAX}, 18}, {20, 0}, {20, 65}};
  for (const auto& [tables, bits] : rejected) {
    MultiPartyLinkageOptions options;
    options.lsh_tables = tables;
    options.lsh_bits_per_key = bits;
    EXPECT_EQ(lu.Link(options).status().code(), StatusCode::kInvalidArgument)
        << tables << " x " << bits;
    EXPECT_EQ(lu.LinkPartition(options, PartitionSpec{}).status().code(),
              StatusCode::kInvalidArgument)
        << tables << " x " << bits;
  }
  for (const auto& [tables, bits] : {std::pair<size_t, size_t>{1, 1}, {1024, 64}}) {
    MultiPartyLinkageOptions options;
    options.lsh_tables = tables;
    options.lsh_bits_per_key = bits;
    EXPECT_TRUE(lu.Link(options).ok()) << tables << " x " << bits;
    EXPECT_TRUE(lu.LinkPartition(options, PartitionSpec{}).ok()) << tables << " x " << bits;
  }
}

TEST_F(PartyTest, ThreeHospitalEndToEnd) {
  DataGenerator gen(GeneratorConfig{});
  LinkageScenarioConfig scenario;
  scenario.records_per_database = 150;
  scenario.num_databases = 3;
  scenario.overlap = 0.4;
  scenario.corruption.mean_corruptions = 1.0;
  auto dbs = gen.GenerateScenario(scenario);
  ASSERT_TRUE(dbs.ok());

  // Keep entity ids aside for scoring before handing databases to owners.
  std::vector<std::vector<uint64_t>> entity_ids;
  for (const auto& db : *dbs) {
    std::vector<uint64_t> ids;
    for (const auto& r : db.records) ids.push_back(r.entity_id);
    entity_ids.push_back(std::move(ids));
  }

  const ClkEncoder encoder = SharedEncoder();
  Channel channel;
  LinkageUnitService lu("lu");
  const std::vector<std::string> names = {"hospital-a", "hospital-b", "registry-c"};
  for (size_t d = 0; d < 3; ++d) {
    DatabaseOwner owner(names[d], std::move((*dbs)[d]));
    ASSERT_TRUE(owner.Encode(encoder).ok());
    auto shipment = owner.ShipEncodings(channel, "lu");
    ASSERT_TRUE(shipment.ok());
    ASSERT_TRUE(lu.Receive(owner.name(), std::move(shipment).value()).ok());
  }
  EXPECT_EQ(lu.num_databases(), 3u);
  EXPECT_EQ(channel.total_messages(), 3u);

  MultiPartyLinkageOptions options;
  options.dice_threshold = 0.78;
  auto result = lu.Link(options);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->edges.size(), 50u);
  EXPECT_LT(result->comparisons, 3u * 150u * 150u);  // LSH pruned

  // Cluster purity against the retained ground truth.
  const auto full = ClustersInAtLeast(result->clusters, 3);
  size_t pure = 0;
  for (const Cluster& cluster : full) {
    std::set<uint64_t> entities;
    for (const RecordRef& ref : cluster) {
      entities.insert(entity_ids[ref.database][ref.record]);
    }
    if (entities.size() == 1) ++pure;
  }
  EXPECT_GT(full.size(), 25u);
  EXPECT_GT(static_cast<double>(pure) / static_cast<double>(full.size()), 0.75);
}

TEST_F(PartyTest, StarVsComponentsToggle) {
  DataGenerator gen(GeneratorConfig{});
  LinkageScenarioConfig scenario;
  scenario.records_per_database = 80;
  scenario.num_databases = 3;
  auto dbs = gen.GenerateScenario(scenario);
  ASSERT_TRUE(dbs.ok());
  const ClkEncoder encoder = SharedEncoder();
  Channel channel;
  LinkageUnitService lu("lu");
  for (size_t d = 0; d < 3; ++d) {
    DatabaseOwner owner("p" + std::to_string(d), std::move((*dbs)[d]));
    ASSERT_TRUE(owner.Encode(encoder).ok());
    ASSERT_TRUE(lu.Receive(owner.name(),
                           std::move(owner.ShipEncodings(channel, "lu")).value())
                    .ok());
  }
  MultiPartyLinkageOptions star;
  star.use_star_clustering = true;
  MultiPartyLinkageOptions components;
  components.use_star_clustering = false;
  auto star_result = lu.Link(star);
  auto comp_result = lu.Link(components);
  ASSERT_TRUE(star_result.ok() && comp_result.ok());
  EXPECT_EQ(star_result->edges.size(), comp_result->edges.size());
  EXPECT_GE(star_result->clusters.size(), comp_result->clusters.size());
}

}  // namespace
}  // namespace pprl
