#include "pipeline/party.h"

#include <cmath>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "common/bit_matrix.h"
#include "datagen/generator.h"
#include "linkage/comparison.h"
#include "linkage/online_linkage.h"
#include "pipeline/pipeline.h"
#include "similarity/similarity.h"

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

  // Only the first filter matching is not enough: every filter of a
  // shipment must have the length the first non-empty shipment fixed, or
  // Link() would copy a 4000-bit row into a 1000-bit matrix row.
  LinkageUnitService unit("lu");
  EncodedDatabase uniform;
  uniform.ids = {1, 2};
  uniform.filters = {BitVector(1000), BitVector(1000)};
  ASSERT_TRUE(unit.Receive("a", uniform).ok());
  EncodedDatabase mixed;
  mixed.ids = {3, 4};
  mixed.filters = {BitVector(1000), BitVector(4000)};
  ASSERT_EQ(unit.Receive("b", mixed).code(), StatusCode::kInvalidArgument);
  ASSERT_EQ(unit.num_databases(), 1u) << "a rejected owner must not register";
  EXPECT_EQ(unit.Link(MultiPartyLinkageOptions{}).status().code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(unit.Receive("b", uniform).ok());
  EXPECT_TRUE(unit.Link(MultiPartyLinkageOptions{}).ok());

  // The first shipment is held to its own first filter, too.
  LinkageUnitService fresh("lu");
  EXPECT_EQ(fresh.Receive("a", mixed).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(fresh.num_databases(), 0u);
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

/// The Dice threshold and the filter width size the compare stage's
/// cutoff table, so both entry points check them before anything runs.
TEST_F(PartyTest, OutOfRangeThresholdOrFilterWidthIsRejected) {
  LinkageUnitService lu("lu");
  EncodedDatabase db;
  db.ids = {1};
  db.filters = {BitVector(100)};
  ASSERT_TRUE(lu.Receive("a", db).ok());
  ASSERT_TRUE(lu.Receive("b", db).ok());
  for (const double threshold : {0.0, -0.5, 1.0000001, std::nan(""), double{INFINITY}}) {
    MultiPartyLinkageOptions options;
    options.dice_threshold = threshold;
    EXPECT_EQ(lu.Link(options).status().code(), StatusCode::kInvalidArgument)
        << threshold;
    EXPECT_EQ(lu.LinkPartition(options, PartitionSpec{}).status().code(),
              StatusCode::kInvalidArgument)
        << threshold;
  }
  MultiPartyLinkageOptions at_one;
  at_one.dice_threshold = 1.0;
  EXPECT_TRUE(lu.Link(at_one).ok());

  for (const size_t bits : {size_t{0}, size_t{65537}}) {
    LinkageUnitService wide("lu");
    EncodedDatabase shipment;
    shipment.ids = {1};
    shipment.filters = {BitVector(bits)};
    ASSERT_TRUE(wide.Receive("a", shipment).ok());
    ASSERT_TRUE(wide.Receive("b", shipment).ok());
    EXPECT_EQ(wide.Link(MultiPartyLinkageOptions{}).status().code(),
              StatusCode::kInvalidArgument)
        << bits << " bits";
    EXPECT_EQ(wide.LinkPartition(MultiPartyLinkageOptions{}, PartitionSpec{})
                  .status()
                  .code(),
              StatusCode::kInvalidArgument)
        << bits << " bits";
  }
}

/// The linkage unit accepts a Dice score within 1e-12 under its
/// threshold, so a threshold written as the rounded decimal
/// 0.666666666667 keeps a pair whose Dice is exactly 2/3 — on every path
/// that decides with the linkage rule. CompareMatrices keeps its exact
/// `score >= min_score` contract and drops the same pair.
TEST_F(PartyTest, RoundedThresholdKeepsExactTwoThirdsOnEveryLinkagePath) {
  constexpr size_t kBits = 1000;
  constexpr double kThreshold = 0.666666666667;
  EncodedDatabase a, b;
  a.ids = {1};
  b.ids = {2};
  a.filters = {BitVector(kBits)};
  b.filters = {BitVector(kBits)};
  for (size_t i = 0; i < 30; ++i) a.filters[0].Set(i);       // |a| = 30
  for (size_t i = 10; i < 40; ++i) b.filters[0].Set(i);      // |b| = 30, c = 20
  ASSERT_EQ(DiceSimilarity(a.filters[0], b.filters[0]), 2.0 / 3);
  ASSERT_LT(2.0 / 3, kThreshold);

  LinkageUnitService lu("lu");
  ASSERT_TRUE(lu.Receive("a", a).ok());
  ASSERT_TRUE(lu.Receive("b", b).ok());
  MultiPartyLinkageOptions options;
  options.dice_threshold = kThreshold;
  const auto expect_edge = [](const std::vector<MatchEdge>& edges,
                              const std::string& path) {
    ASSERT_EQ(edges.size(), 1u) << path;
    EXPECT_EQ(edges[0].x, (RecordRef{0, 0})) << path;
    EXPECT_EQ(edges[0].y, (RecordRef{1, 0})) << path;
    EXPECT_EQ(edges[0].score, 2.0 / 3) << path;
  };

  const auto serial = lu.Link(options);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  expect_edge(serial->edges, "serial Link");

  MultiPartyLinkageOptions threaded_options = options;
  threaded_options.num_threads = 2;
  const auto threaded = lu.Link(threaded_options);
  ASSERT_TRUE(threaded.ok()) << threaded.status().ToString();
  expect_edge(threaded->edges, "threaded Link");

  std::vector<MatchEdge> partition_edges;
  for (uint32_t w = 0; w < 2; ++w) {
    const auto part = lu.LinkPartition(options, PartitionSpec{w, 2});
    ASSERT_TRUE(part.ok()) << part.status().ToString();
    partition_edges.insert(partition_edges.end(), part->edges.begin(),
                           part->edges.end());
  }
  expect_edge(partition_edges, "LinkPartition at 2 workers");

  OnlineLinkageOptions online_options;
  online_options.dice_threshold = kThreshold;
  OnlineLinkageEngine engine(kBits, online_options);
  const uint32_t da = engine.RegisterDatabase("a");
  const uint32_t db = engine.RegisterDatabase("b");
  ASSERT_TRUE(engine.Append(da, 1, a.filters[0]).ok());
  ASSERT_TRUE(engine.Append(db, 2, b.filters[0]).ok());
  EXPECT_EQ(engine.edges(), 1u) << "online append";
  const auto query = engine.Query(a.filters[0], da, /*want_clusters=*/false, 0);
  ASSERT_TRUE(query.ok());
  ASSERT_EQ(query->matches.size(), 1u) << "online query";
  EXPECT_EQ(query->matches[0].score, 2.0 / 3);

  const ComparisonEngine exact(SimilarityMeasure::kDice);
  const BitMatrix ma = BitMatrix::FromVectors(a.filters);
  const BitMatrix mb = BitMatrix::FromVectors(b.filters);
  EXPECT_TRUE(exact.CompareMatrices(ma, mb, {{0, 0}}, kThreshold).empty())
      << "CompareMatrices keeps the exact rule";
  EXPECT_EQ(exact.CompareMatrices(ma, mb, {{0, 0}}, 2.0 / 3).size(), 1u);
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
