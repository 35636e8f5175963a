// Determinism of the parallel linkage paths: the same datasets linked at
// any thread count must produce byte-identical matches, edges, clusters
// and counters, equal to a serial reference that materializes the
// candidates and scores them in one pass. Range boundaries, which worker
// runs which range task and join timing may vary freely underneath — none
// of it may reach the output.

#include <bit>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "blocking/blocking.h"
#include "blocking/lsh_index.h"
#include "blocking/partitioner.h"
#include "common/bit_matrix.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "datagen/generator.h"
#include "linkage/classifier.h"
#include "linkage/clustering.h"
#include "linkage/comparison.h"
#include "linkage/matching.h"
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

/// The first `n` records of `db`.
Database Prefix(const Database& db, size_t n) {
  Database prefix;
  prefix.schema = db.schema;
  prefix.records.assign(db.records.begin(), db.records.begin() + n);
  return prefix;
}

/// The serial reference for PprlPipeline::Link(): the scheme's whole
/// candidate list materialized (FullPairs, StandardBlocker::CandidatePairs,
/// or BuildBandIndexes + LshCandidatePairs), one CompareMatrices over it,
/// then the threshold classifier and the greedy 1:1 matching.
LinkageOutput SerialPipelineReference(const PipelineConfig& config, const Database& a,
                                      const Database& b) {
  const ClkEncoder encoder(config.bloom, config.fields);
  const std::vector<BitVector> fa = encoder.EncodeDatabase(a).value();
  const std::vector<BitVector> fb = encoder.EncodeDatabase(b).value();
  std::vector<CandidatePair> pairs;
  switch (config.blocking) {
    case BlockingScheme::kNone:
      pairs = FullPairs(fa.size(), fb.size());
      break;
    case BlockingScheme::kSoundex: {
      const StandardBlocker blocker(SoundexNameKey(config.secret_key));
      pairs = StandardBlocker::CandidatePairs(blocker.BuildIndex(a), blocker.BuildIndex(b));
      break;
    }
    case BlockingScheme::kHammingLsh: {
      const std::deque<LshBandIndex> lsh =
          BuildBandIndexes({&fa, &fb}, config.bloom.num_bits, config.lsh_tables,
                           config.lsh_bits_per_key, config.seed);
      pairs = LshCandidatePairs(lsh[0], lsh[1], BlockPartitioner(1), 0);
      break;
    }
  }
  const ComparisonEngine engine(SimilarityMeasure::kDice);
  const std::vector<ScoredPair> scored =
      engine.CompareMatrices(BitMatrix::FromVectors(fa), BitMatrix::FromVectors(fb), pairs,
                             config.match_threshold);
  LinkageOutput out;
  out.candidate_pairs = pairs.size();
  out.comparisons = engine.last_comparison_count();
  out.pruned_comparisons = engine.last_pruned_count();
  const ThresholdClassifier classifier(config.match_threshold, config.match_threshold);
  out.matches = GreedyOneToOne(classifier.SelectMatches(scored));
  return out;
}

/// PprlPipeline::Link() against the serial reference, for every blocking
/// scheme at 0 (inline), 1, 3 and 8 threads: matches (scores bitwise) and
/// all three counters equal the reference's, and messages and bytes are
/// the same at every thread count. A sizes straddle the candidate-range
/// size R against a B of R rows (1, R−1, R, R+1 and 2R+7 rows), so
/// one-row, short, exact and split ranges all occur.
TEST(ParallelPipelineTest, LinkMatchesSerialReferenceAtEveryThreadCount) {
  constexpr size_t R = kCandidateRangeRows;
  const auto [a_all, b_all] = OverlappingDatabases(2 * R + 7);
  const Database b = Prefix(b_all, R);
  const std::pair<BlockingScheme, const char*> schemes[] = {
      {BlockingScheme::kNone, "none"},
      {BlockingScheme::kSoundex, "soundex"},
      {BlockingScheme::kHammingLsh, "hamming-lsh"},
  };
  for (const auto& [scheme, scheme_name] : schemes) {
    for (const size_t a_rows : {size_t{1}, R - 1, R, R + 1, 2 * R + 7}) {
      const Database a = Prefix(a_all, a_rows);
      PipelineConfig config;
      config.bloom.num_bits = 500;
      // Every Link() encodes both databases; two name fields keep that
      // cheap enough for the sanitizer builds.
      config.fields = {{"first_name", 10}, {"last_name", 10}};
      config.blocking = scheme;
      config.match_threshold = 0.8;
      const LinkageOutput reference = SerialPipelineReference(config, a, b);
      if (a_rows == 2 * R + 7) {
        EXPECT_FALSE(reference.matches.empty()) << scheme_name;
      }

      std::optional<LinkageOutput> first;
      for (const size_t threads : {size_t{0}, size_t{1}, size_t{3}, size_t{8}}) {
        const std::string label = std::string(scheme_name) + ", " +
                                  std::to_string(a_rows) + " x " + std::to_string(R) +
                                  ", " + std::to_string(threads) + " threads";
        config.num_threads = threads;
        const auto linked = PprlPipeline(config).Link(a, b);
        ASSERT_TRUE(linked.ok()) << label << ": " << linked.status().message();
        ASSERT_EQ(reference.matches.size(), linked->matches.size()) << label;
        for (size_t i = 0; i < reference.matches.size(); ++i) {
          const ScoredPair& want = reference.matches[i];
          const ScoredPair& got = linked->matches[i];
          EXPECT_EQ(want.a, got.a) << label << ", match " << i;
          EXPECT_EQ(want.b, got.b) << label << ", match " << i;
          EXPECT_EQ(std::bit_cast<uint64_t>(want.score), std::bit_cast<uint64_t>(got.score))
              << label << ", match " << i;
        }
        EXPECT_EQ(reference.candidate_pairs, linked->candidate_pairs) << label;
        EXPECT_EQ(reference.comparisons, linked->comparisons) << label;
        EXPECT_EQ(reference.pruned_comparisons, linked->pruned_comparisons) << label;
        if (!first.has_value()) first = *linked;
        EXPECT_EQ(first->messages, linked->messages) << label;
        EXPECT_EQ(first->bytes, linked->bytes) << label;
      }
    }
  }
}

/// The serial reference for Link() and LinkPartition(): one
/// BuildBandIndexes, then per database pair one LshCandidatePairs walk
/// over every a-row and one CompareMatrices, edges in pair order. Every
/// thread count and partition must reproduce it bit for bit.
PartitionLinkResult SerialLinkReference(const std::vector<EncodedDatabase>& databases,
                                        const MultiPartyLinkageOptions& options,
                                        const BlockPartitioner& partitioner,
                                        uint32_t worker) {
  const size_t bits = databases[0].filters[0].size();
  std::vector<const std::vector<BitVector>*> filters;
  for (const EncodedDatabase& db : databases) filters.push_back(&db.filters);
  const std::deque<LshBandIndex> indexes =
      BuildBandIndexes(filters, bits, options.lsh_tables, options.lsh_bits_per_key,
                       options.lsh_seed);
  const DiceCutoffs cutoffs(options.dice_threshold, bits, LinkageAccepts);
  const ComparisonEngine engine(SimilarityMeasure::kDice);
  PartitionLinkResult result;
  for (uint32_t d1 = 0; d1 < databases.size(); ++d1) {
    for (uint32_t d2 = d1 + 1; d2 < databases.size(); ++d2) {
      const std::vector<CandidatePair> pairs =
          LshCandidatePairs(indexes[d1], indexes[d2], partitioner, worker);
      result.candidate_pairs += pairs.size();
      for (const ScoredPair& pair :
           engine.CompareMatrices(indexes[d1].rows(), indexes[d2].rows(), pairs, cutoffs)) {
        result.edges.push_back({{d1, pair.a}, {d2, pair.b}, pair.score});
      }
      result.comparisons += engine.last_comparison_count();
      result.pruned_comparisons += engine.last_pruned_count();
    }
  }
  return result;
}

void ExpectSameEdges(const std::vector<MatchEdge>& want, const std::vector<MatchEdge>& got,
                     const std::string& label) {
  ASSERT_EQ(want.size(), got.size()) << label;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].x, got[i].x) << label << ", edge " << i;
    EXPECT_EQ(want[i].y, got[i].y) << label << ", edge " << i;
    EXPECT_EQ(std::bit_cast<uint64_t>(want[i].score), std::bit_cast<uint64_t>(got[i].score))
        << label << ", edge " << i;
  }
}

/// The multi-party service path against the serial reference: Link() at
/// 1–4 threads and on a borrowed pool, and LinkPartition() at every
/// worker of rings of 1–3, agree with it on edges (bitwise), clusters and
/// all three counters. Database sizes straddle the candidate-range size R
/// (1, R−1, R, R+1 and 2R+7 rows), so one-row, short, exact and split
/// ranges all occur.
TEST(ParallelPipelineTest, MultiPartyLinkIdenticalAcrossWorkerCounts) {
  constexpr size_t R = kCandidateRangeRows;
  DataGenerator gen(GeneratorConfig{});
  LinkageScenarioConfig scenario;
  scenario.records_per_database = 2 * R + 7;
  scenario.num_databases = 4;
  scenario.overlap = 0.4;
  scenario.corruption.mean_corruptions = 1.0;
  auto dbs = gen.GenerateScenario(scenario);
  ASSERT_TRUE(dbs.ok());
  PipelineConfig encoder_config;
  encoder_config.bloom.num_bits = 500;
  const ClkEncoder encoder(encoder_config.bloom, PprlPipeline::DefaultFieldConfigs());
  std::vector<EncodedDatabase> encoded;
  for (const Database& db : *dbs) {
    auto filters = encoder.EncodeDatabase(db);
    ASSERT_TRUE(filters.ok());
    EncodedDatabase shipment;
    for (const Record& r : db.records) shipment.ids.push_back(r.id);
    shipment.filters = std::move(filters).value();
    encoded.push_back(std::move(shipment));
  }

  struct Case {
    std::vector<size_t> sizes;
    bool star;
  };
  const std::vector<Case> cases = {
      {{2 * R + 7, R}, true},
      {{R + 1, 1, R - 1}, false},
      {{R, 2 * R + 7, R + 1, R - 1}, true},
  };
  ShardScheduler shared(4);
  for (const Case& c : cases) {
    std::string sizes;
    for (const size_t n : c.sizes) sizes += " " + std::to_string(n);
    LinkageUnitService unit("lu");
    std::vector<EncodedDatabase> shipped;
    for (size_t d = 0; d < c.sizes.size(); ++d) {
      EncodedDatabase db;
      db.ids.assign(encoded[d].ids.begin(), encoded[d].ids.begin() + c.sizes[d]);
      db.filters.assign(encoded[d].filters.begin(),
                        encoded[d].filters.begin() + c.sizes[d]);
      ASSERT_TRUE(unit.Receive("owner-" + std::to_string(d), db).ok());
      shipped.push_back(std::move(db));
    }

    MultiPartyLinkageOptions options;
    options.dice_threshold = 0.8;
    options.use_star_clustering = c.star;
    const PartitionLinkResult reference =
        SerialLinkReference(shipped, options, BlockPartitioner(1), 0);
    EXPECT_FALSE(reference.edges.empty()) << "sizes" << sizes;
    const std::vector<Cluster> reference_clusters =
        ClusterEdges(reference.edges, options.use_star_clustering);

    std::vector<std::pair<std::string, MultiPartyLinkageOptions>> runs;
    for (const size_t threads : {size_t{1}, size_t{2}, size_t{3}, size_t{4}}) {
      MultiPartyLinkageOptions run = options;
      run.num_threads = threads;
      runs.emplace_back(std::to_string(threads) + " threads", run);
    }
    MultiPartyLinkageOptions borrowed = options;
    borrowed.scheduler = &shared;
    runs.emplace_back("borrowed pool", borrowed);

    for (const auto& [name, run] : runs) {
      const std::string label = "sizes" + sizes + ", " + name;
      const auto linked = unit.Link(run);
      ASSERT_TRUE(linked.ok()) << label << ": " << linked.status().message();
      ExpectSameEdges(reference.edges, linked->edges, label);
      EXPECT_EQ(reference_clusters, linked->clusters) << label;
      EXPECT_EQ(reference.candidate_pairs, linked->candidate_pairs) << label;
      EXPECT_EQ(reference.comparisons, linked->comparisons) << label;
      EXPECT_EQ(reference.pruned_comparisons, linked->pruned_comparisons) << label;

      for (uint32_t workers = 1; workers <= 3; ++workers) {
        for (uint32_t w = 0; w < workers; ++w) {
          const std::string part_label =
              label + ", worker " + std::to_string(w) + "/" + std::to_string(workers);
          const PartitionSpec spec{w, workers, PartitionScheme::kAuto};
          const PartitionLinkResult want = SerialLinkReference(
              shipped, options, BlockPartitioner(workers, spec.scheme), w);
          const auto part = unit.LinkPartition(run, spec);
          ASSERT_TRUE(part.ok()) << part_label << ": " << part.status().message();
          ExpectSameEdges(want.edges, part->edges, part_label);
          EXPECT_EQ(want.candidate_pairs, part->candidate_pairs) << part_label;
          EXPECT_EQ(want.comparisons, part->comparisons) << part_label;
          EXPECT_EQ(want.pruned_comparisons, part->pruned_comparisons) << part_label;
        }
      }
    }
  }
}

/// Blocked candidates through CompareRanges: hits (values, order, scores
/// — bitwise), counters and the clusters derived from the hits must be
/// identical for every thread count, and the one-thread run must equal the
/// serial engine over the materialized candidate list.
TEST(ParallelPipelineTest, BlockedRangesDeterministicAcrossThreads) {
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
  // k == 0, a giant block of half of each side — the shape the range
  // tasks have to keep balanced without reordering output.
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

  // Scores the blocked candidates through CompareRanges.
  const std::vector<CandidatePair> blocked =
      StandardBlocker::CandidatePairs(index_a, index_b);
  const DiceCutoffs cutoffs(0.40, ma.num_bits());
  auto compare_blocked = [&](size_t threads) {
    return CompareRanges(cutoffs, {CandidateSource::Listed(ma, mb, blocked)}, threads)[0];
  };

  // 0.40 sits ~2.6 sigma above the mean Dice of independent 0.3-density
  // filters: enough hits to make the equality assertions meaningful,
  // rare enough that the prune and threshold paths stay exercised.
  const SourceHits reference = compare_blocked(1);
  ASSERT_FALSE(reference.hits.empty());

  // The independent reference: the serial engine over the materialized
  // candidate list.
  const ComparisonEngine serial(SimilarityMeasure::kDice);
  const std::vector<ScoredPair> serial_hits = serial.CompareMatrices(ma, mb, blocked, 0.40);
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

  for (const size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    const SourceHits actual = compare_blocked(threads);
    const std::string label = std::to_string(threads) + " threads";
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

/// CompareRanges reports its work: one `path="kernel"` call per range,
/// and the pair and prune counters advance by exactly the run's own
/// totals. A spans several ranges.
TEST(ParallelPipelineTest, RangeCompareAdvancesTheCompareCounters) {
  Rng rng(101);
  const size_t kBits = 500;
  auto random_rows = [&](size_t n) {
    std::vector<BitVector> rows;
    for (size_t i = 0; i < n; ++i) {
      BitVector v(kBits);
      const double density = 0.05 + 0.5 * rng.NextDouble();
      for (size_t bit = 0; bit < kBits; ++bit) {
        if (rng.NextDouble() < density) v.Set(bit);
      }
      rows.push_back(std::move(v));
    }
    return rows;
  };
  const BitMatrix ma = BitMatrix::FromVectors(random_rows(2 * kCandidateRangeRows + 7));
  const BitMatrix mb = BitMatrix::FromVectors(random_rows(400));
  const CandidateSource all_pairs = CandidateSource::AllPairs(ma, mb);
  const size_t range_rows = RangeRows(all_pairs);
  const size_t ranges = (ma.num_rows() + range_rows - 1) / range_rows;
  ASSERT_GT(ranges, 1u);

  obs::MetricsRegistry& registry = obs::GlobalMetrics();
  const char* kCallsHelp = "Compare*() dispatches by execution path";
  obs::Counter& pairs = registry.GetCounter(
      "pprl_compare_pairs_total",
      "Candidate pairs evaluated by ComparisonEngine (word loop or bound)");
  obs::Counter& pruned = registry.GetCounter(
      "pprl_compare_pairs_pruned_total",
      "Pairs the cardinality bound rejected without running the word loop");
  obs::Counter& kernel_calls =
      registry.GetCounter("pprl_compare_calls_total", kCallsHelp, {{"path", "kernel"}});
  const uint64_t pairs_before = pairs.value();
  const uint64_t pruned_before = pruned.value();
  const uint64_t calls_before = kernel_calls.value();

  const SourceHits result = CompareRanges(DiceCutoffs(0.7, kBits), {all_pairs}, 4)[0];
  ASSERT_EQ(result.comparisons, ma.num_rows() * mb.num_rows());
  ASSERT_GT(result.pruned, 0u);
  EXPECT_EQ(pairs.value() - pairs_before, result.comparisons);
  EXPECT_EQ(pruned.value() - pruned_before, result.pruned);
  EXPECT_EQ(kernel_calls.value() - calls_before, ranges);
}

}  // namespace
}  // namespace pprl
