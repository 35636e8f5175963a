// Determinism of the parallel linkage path: the same datasets linked at
// 1, 2 and 8 worker threads must produce byte-identical matches, edges
// and clusters. Shard boundaries, which worker runs which shard and merge
// timing may vary freely underneath — none of it may reach the output.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "blocking/blocking.h"
#include "common/bit_matrix.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "datagen/generator.h"
#include "linkage/clustering.h"
#include "linkage/comparison.h"
#include "linkage/parallel_linkage.h"
#include "obs/metrics.h"
#include "pipeline/party.h"
#include "pipeline/pipeline.h"

namespace pprl {
namespace {

std::pair<Database, Database> OverlappingDatabases(size_t records_each) {
  DataGenerator gen(GeneratorConfig{});
  LinkageScenarioConfig scenario;
  scenario.records_per_database = records_each;
  scenario.overlap = 0.5;
  scenario.corruption.mean_corruptions = 1.0;
  auto dbs = gen.GenerateScenario(scenario);
  EXPECT_TRUE(dbs.ok());
  return {std::move((*dbs)[0]), std::move((*dbs)[1])};
}

void ExpectSameOutput(const LinkageOutput& expected, const LinkageOutput& actual,
                      size_t threads) {
  ASSERT_EQ(expected.matches.size(), actual.matches.size()) << threads << " threads";
  for (size_t i = 0; i < expected.matches.size(); ++i) {
    EXPECT_EQ(expected.matches[i], actual.matches[i])
        << threads << " threads, match " << i;
  }
  EXPECT_EQ(expected.candidate_pairs, actual.candidate_pairs) << threads;
  EXPECT_EQ(expected.comparisons, actual.comparisons) << threads;
  EXPECT_EQ(expected.pruned_comparisons, actual.pruned_comparisons) << threads;
}

TEST(ParallelPipelineTest, MatchesIdenticalAtEveryThreadCount) {
  const auto [a, b] = OverlappingDatabases(200);
  PipelineConfig config;
  config.bloom.num_bits = 500;
  config.match_threshold = 0.8;
  const auto serial = PprlPipeline(config).Link(a, b);
  ASSERT_TRUE(serial.ok()) << serial.status().message();
  EXPECT_FALSE(serial->matches.empty());
  for (const size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    PipelineConfig parallel_config = config;
    parallel_config.num_threads = threads;
    const auto parallel = PprlPipeline(parallel_config).Link(a, b);
    ASSERT_TRUE(parallel.ok()) << parallel.status().message();
    ExpectSameOutput(*serial, *parallel, threads);
  }
}

TEST(ParallelPipelineTest, FullPairsBlockingAlsoDeterministic) {
  const auto [a, b] = OverlappingDatabases(80);
  PipelineConfig config;
  config.bloom.num_bits = 500;
  config.blocking = BlockingScheme::kNone;
  config.match_threshold = 0.8;
  const auto serial = PprlPipeline(config).Link(a, b);
  ASSERT_TRUE(serial.ok()) << serial.status().message();
  for (const size_t threads : {size_t{2}, size_t{8}}) {
    PipelineConfig parallel_config = config;
    parallel_config.num_threads = threads;
    const auto parallel = PprlPipeline(parallel_config).Link(a, b);
    ASSERT_TRUE(parallel.ok()) << parallel.status().message();
    ExpectSameOutput(*serial, *parallel, threads);
  }
}

/// The multi-party service path: serial Link() versus worker counts and a
/// borrowed shared scheduler must agree on edges, clusters and counters.
TEST(ParallelPipelineTest, MultiPartyLinkIdenticalAcrossWorkerCounts) {
  DataGenerator gen(GeneratorConfig{});
  LinkageScenarioConfig scenario;
  scenario.records_per_database = 120;
  scenario.num_databases = 3;
  scenario.overlap = 0.4;
  scenario.corruption.mean_corruptions = 1.0;
  auto dbs = gen.GenerateScenario(scenario);
  ASSERT_TRUE(dbs.ok());

  PipelineConfig encoder_config;
  const ClkEncoder encoder(encoder_config.bloom, PprlPipeline::DefaultFieldConfigs());
  Channel channel;
  LinkageUnitService unit("lu");
  for (size_t d = 0; d < dbs->size(); ++d) {
    DatabaseOwner owner("owner-" + std::to_string(d), std::move((*dbs)[d]));
    ASSERT_TRUE(owner.Encode(encoder).ok());
    auto shipment = owner.ShipEncodings(channel, unit.name());
    ASSERT_TRUE(shipment.ok());
    ASSERT_TRUE(unit.Receive(owner.name(), std::move(shipment).value()).ok());
  }

  MultiPartyLinkageOptions options;
  options.dice_threshold = 0.8;
  options.use_star_clustering = false;  // exercise parallel union-find
  const auto serial = unit.Link(options);
  ASSERT_TRUE(serial.ok()) << serial.status().message();
  EXPECT_FALSE(serial->edges.empty());

  auto expect_same = [&](const MultiPartyLinkageResult& actual, const std::string& label) {
    ASSERT_EQ(serial->edges.size(), actual.edges.size()) << label;
    for (size_t i = 0; i < serial->edges.size(); ++i) {
      EXPECT_EQ(serial->edges[i].x, actual.edges[i].x) << label << ", edge " << i;
      EXPECT_EQ(serial->edges[i].y, actual.edges[i].y) << label << ", edge " << i;
      EXPECT_EQ(serial->edges[i].score, actual.edges[i].score) << label << ", edge " << i;
    }
    ASSERT_EQ(serial->clusters.size(), actual.clusters.size()) << label;
    for (size_t i = 0; i < serial->clusters.size(); ++i) {
      EXPECT_EQ(serial->clusters[i], actual.clusters[i]) << label << ", cluster " << i;
    }
    EXPECT_EQ(serial->comparisons, actual.comparisons) << label;
    EXPECT_EQ(serial->pruned_comparisons, actual.pruned_comparisons) << label;
  };

  for (const size_t threads : {size_t{1}, size_t{4}}) {
    MultiPartyLinkageOptions parallel_options = options;
    parallel_options.num_threads = threads;
    const auto parallel = unit.Link(parallel_options);
    ASSERT_TRUE(parallel.ok()) << parallel.status().message();
    expect_same(*parallel, std::to_string(threads) + " threads");
  }

  ShardScheduler shared(4);
  MultiPartyLinkageOptions shared_options = options;
  shared_options.scheduler = &shared;
  const auto borrowed = unit.Link(shared_options);
  ASSERT_TRUE(borrowed.ok()) << borrowed.status().message();
  expect_same(*borrowed, "borrowed scheduler");

  // A worker's partition runs the same block and compare code: streamed
  // run shards of its owned pairs score exactly like the serial list.
  for (uint32_t w = 0; w < 3; ++w) {
    const PartitionSpec spec{w, 3, PartitionScheme::kAuto};
    const auto serial_part = unit.LinkPartition(options, spec);
    const auto parallel_part = unit.LinkPartition(shared_options, spec);
    ASSERT_TRUE(serial_part.ok() && parallel_part.ok());
    ASSERT_EQ(serial_part->edges.size(), parallel_part->edges.size()) << "worker " << w;
    for (size_t i = 0; i < serial_part->edges.size(); ++i) {
      EXPECT_EQ(serial_part->edges[i].x, parallel_part->edges[i].x) << "worker " << w;
      EXPECT_EQ(serial_part->edges[i].y, parallel_part->edges[i].y) << "worker " << w;
      EXPECT_EQ(serial_part->edges[i].score, parallel_part->edges[i].score) << "worker " << w;
    }
    EXPECT_EQ(serial_part->candidate_pairs, parallel_part->candidate_pairs) << "worker " << w;
    EXPECT_EQ(serial_part->pruned_comparisons, parallel_part->pruned_comparisons)
        << "worker " << w;
  }
}

/// The tiled compare path re-orders kernel execution by (a-tile, b-tile).
/// None of that may reach the output: hits (values, order, scores —
/// bitwise), counters and the clusters derived from the hits must be
/// identical for every thread count and every tile geometry, including
/// degenerate ones, and the one-thread stream must equal the serial engine
/// over the materialized candidate list.
TEST(ParallelPipelineTest, TiledExecutionDeterministicAcrossThreadsAndTiles) {
  Rng rng(97);
  const size_t kBits = 600;
  auto random_filters = [&](size_t n) {
    std::vector<BitVector> rows;
    rows.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      BitVector v(kBits);
      for (size_t bit = 0; bit < kBits; ++bit) {
        if (rng.NextDouble() < 0.3) v.Set(bit);
      }
      rows.push_back(std::move(v));
    }
    return rows;
  };
  const BitMatrix ma = BitMatrix::FromVectors(random_filters(300));
  const BitMatrix mb = BitMatrix::FromVectors(random_filters(300));

  // Skewed blocks: key k holds every record with i % 13 == k plus, for
  // k == 0, a giant block of half of each side — the shape the shard pool
  // and tiling have to keep balanced without reordering output.
  BlockIndex index_a;
  BlockIndex index_b;
  for (uint32_t i = 0; i < ma.num_rows(); ++i) {
    index_a["k" + std::to_string(i % 13)].push_back(i);
    if (i < ma.num_rows() / 2) index_a["k0"].push_back(i);
  }
  for (uint32_t i = 0; i < mb.num_rows(); ++i) {
    index_b["k" + std::to_string(i % 13)].push_back(i);
    if (i >= mb.num_rows() / 2) index_b["k0"].push_back(i);
  }

  // Streams the blocked candidates through the tiled compare at the
  // options' effective shard size.
  const DiceCutoffs cutoffs(0.40, ma.num_bits());
  auto stream_blocked = [&](const ParallelLinkageOptions& options) {
    const size_t shard_size = ResolveParallelTuning(options, ma.num_bits()).shard_size;
    return StreamCompareShards(cutoffs, ma, mb, options,
                               [&](const CandidateShardFn& emit) {
                                 StreamBlockedPairRuns(index_a, index_b, shard_size,
                                                       emit);
                               });
  };

  ParallelLinkageOptions reference_options;
  reference_options.num_threads = 1;
  // 0.40 sits ~2.6 sigma above the mean Dice of independent 0.3-density
  // filters: enough hits to make the equality assertions meaningful,
  // rare enough that the prune and threshold paths stay exercised.
  const StreamCompareResult reference = stream_blocked(reference_options);
  ASSERT_FALSE(reference.hits.empty());

  // The independent reference: the serial engine, untiled, over the
  // materialized candidate list the stream expands to.
  const ComparisonEngine serial(SimilarityMeasure::kDice);
  const std::vector<ScoredPair> serial_hits = serial.CompareMatrices(
      ma, mb, StandardBlocker::CandidatePairs(index_a, index_b), 0.40);
  ASSERT_EQ(serial_hits.size(), reference.hits.size());
  for (size_t i = 0; i < serial_hits.size(); ++i) {
    EXPECT_EQ(serial_hits[i], reference.hits[i]) << "serial engine, hit " << i;
  }
  EXPECT_EQ(serial.last_comparison_count(), reference.comparisons);
  EXPECT_EQ(serial.last_pruned_count(), reference.pruned);
  const auto reference_clusters = ConnectedComponents([&] {
    std::vector<MatchEdge> edges;
    for (const ScoredPair& hit : reference.hits) {
      edges.push_back({{0, hit.a}, {1, hit.b}, hit.score});
    }
    return edges;
  }());

  struct TileGeometry {
    const char* label;
    size_t tile_a_rows;
    size_t tile_b_rows;
    size_t shard_size;
  };
  const TileGeometry geometries[] = {
      {"tiny", 1, 8, 1024},          // every bucket a handful of pairs
      {"default", 0, 0, 0},          // auto-sized from the cache hierarchy
      {"huge", 1 << 20, 1 << 20, 1 << 22},  // one bucket per shard
  };
  for (const size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    for (const TileGeometry& geometry : geometries) {
      ParallelLinkageOptions options;
      options.num_threads = threads;
      options.tile_a_rows = geometry.tile_a_rows;
      options.tile_b_rows = geometry.tile_b_rows;
      options.shard_size = geometry.shard_size;
      const StreamCompareResult actual = stream_blocked(options);
      const std::string label =
          std::string(geometry.label) + " tiles, " + std::to_string(threads) + " threads";
      ASSERT_EQ(reference.hits.size(), actual.hits.size()) << label;
      for (size_t i = 0; i < reference.hits.size(); ++i) {
        EXPECT_EQ(reference.hits[i], actual.hits[i]) << label << ", hit " << i;
      }
      EXPECT_EQ(reference.comparisons, actual.comparisons) << label;
      EXPECT_EQ(reference.pruned, actual.pruned) << label;
      std::vector<MatchEdge> edges;
      for (const ScoredPair& hit : actual.hits) {
        edges.push_back({{0, hit.a}, {1, hit.b}, hit.score});
      }
      const auto clusters = ConnectedComponents(edges);
      ASSERT_EQ(reference_clusters.size(), clusters.size()) << label;
      for (size_t i = 0; i < reference_clusters.size(); ++i) {
        EXPECT_EQ(reference_clusters[i], clusters[i]) << label << ", cluster " << i;
      }
    }
  }
}

/// The threaded path reports its work: one `path="stream"` call, and the
/// pair and prune counters advance by exactly the run's own totals.
TEST(ParallelPipelineTest, StreamedCompareAdvancesTheCompareCounters) {
  Rng rng(101);
  const size_t kBits = 500;
  std::vector<BitVector> rows;
  for (size_t i = 0; i < 400; ++i) {
    BitVector v(kBits);
    const double density = 0.05 + 0.5 * rng.NextDouble();
    for (size_t bit = 0; bit < kBits; ++bit) {
      if (rng.NextDouble() < density) v.Set(bit);
    }
    rows.push_back(std::move(v));
  }
  const BitMatrix ma = BitMatrix::FromVectors(rows);
  const BitMatrix mb = ma;

  obs::MetricsRegistry& registry = obs::GlobalMetrics();
  const char* kCallsHelp = "Compare*() dispatches by execution path";
  obs::Counter& pairs = registry.GetCounter(
      "pprl_compare_pairs_total",
      "Candidate pairs evaluated by ComparisonEngine (word loop or bound)");
  obs::Counter& pruned = registry.GetCounter(
      "pprl_compare_pairs_pruned_total",
      "Pairs the cardinality bound rejected without running the word loop");
  obs::Counter& stream_calls =
      registry.GetCounter("pprl_compare_calls_total", kCallsHelp, {{"path", "stream"}});
  const uint64_t pairs_before = pairs.value();
  const uint64_t pruned_before = pruned.value();
  const uint64_t calls_before = stream_calls.value();

  ParallelLinkageOptions options;
  options.num_threads = 4;
  options.shard_size = 1024;
  const size_t shard_size = ResolveParallelTuning(options, kBits).shard_size;
  const StreamCompareResult result = StreamCompareShards(
      DiceCutoffs(0.7, kBits), ma, mb, options, [&](const CandidateShardFn& emit) {
        StreamFullPairRuns(ma.num_rows(), mb.num_rows(), shard_size, emit);
      });
  ASSERT_EQ(result.comparisons, ma.num_rows() * mb.num_rows());
  ASSERT_GT(result.pruned, 0u);
  EXPECT_EQ(pairs.value() - pairs_before, result.comparisons);
  EXPECT_EQ(pruned.value() - pruned_before, result.pruned);
  EXPECT_EQ(stream_calls.value() - calls_before, 1u);
}

/// Out-of-range tuning must clamp, not crash or silently misbehave — and
/// auto (0) knobs must resolve to something sane for the filter width.
TEST(ParallelPipelineTest, TuningValidationClampsAbsurdValues) {
  ParallelLinkageOptions absurd;
  absurd.num_threads = 0;
  absurd.shard_size = 3;
  absurd.tile_b_rows = 2;
  const ResolvedParallelTuning clamped = ResolveParallelTuning(absurd, 500);
  EXPECT_EQ(clamped.num_threads, 1u);
  EXPECT_EQ(clamped.shard_size, 1024u);
  EXPECT_EQ(clamped.tile_b_rows, 8u);

  const ResolvedParallelTuning automatic =
      ResolveParallelTuning(ParallelLinkageOptions{}, 500);
  EXPECT_GE(automatic.shard_size, 16384u);
  EXPECT_LE(automatic.shard_size, 524288u);
  EXPECT_GE(automatic.tile_b_rows, 64u);
  EXPECT_GE(automatic.tile_a_rows, 16u);
  EXPECT_EQ(automatic.row_bytes, 64u);  // 500 bits -> 8 words -> one line
}

}  // namespace
}  // namespace pprl
