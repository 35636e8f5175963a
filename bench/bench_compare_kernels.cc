// Throughput of the comparison step (the pipeline bottleneck every
// complexity-reduction technology in the survey exists to shrink):
// the seed's std::function-over-BitVector path versus the devirtualized
// serial batch kernels over contiguous BitMatrix storage, with and without
// the Dice cutoff table, at 500/1000-bit filters. Optionally writes the
// numbers as JSON (BENCH_compare.json is the committed baseline) so later
// PRs can track the trajectory.
//
// A second, larger sweep drives the parallel compare executor: all
// 10k x 10k pairs as candidate-range tasks (CompareRanges,
// linkage/parallel_linkage.h) at 1/2/4/8 workers. BENCH_parallel.json is
// its committed baseline.
//
// Every row is the median of kReps timed runs, with the quartiles beside
// it: on a shared host one run can read half or double the next, so a
// best-of-N figure cannot tell two builds apart. Both JSON files record the
// host and commit they ran on.
//
// usage: bench_compare_kernels [out.json [parallel_out.json]]

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/timer.h"
#include "encoding/bloom_filter.h"
#include "linkage/comparison.h"
#include "linkage/parallel_linkage.h"
#include "pipeline/pipeline.h"

namespace pprl::bench {
namespace {

constexpr size_t kRecordsPerSide = 1000;
constexpr size_t kParallelRecordsPerSide = 10000;
constexpr double kPruneThreshold = 0.7;
/// The parallel sweep runs at a linkage-realistic threshold: at 0.7 most
/// of the dense 500-bit cross product scores as a hit and the bench would
/// time result materialization instead of the comparison path.
constexpr double kParallelThreshold = 0.85;
constexpr int kReps = 7;

/// Times `run` (which returns the pairs it pruned) kReps times over
/// `num_pairs` pairs: the spread of its pairs/sec. The last run's prune
/// count lands in `pruned`.
template <typename Run>
Spread TimeRuns(size_t num_pairs, Run run, size_t& pruned) {
  std::vector<double> rates;
  for (int rep = 0; rep < kReps; ++rep) {
    Timer timer;
    pruned = run();
    rates.push_back(static_cast<double>(num_pairs) / timer.ElapsedSeconds());
  }
  return MedianAndQuartiles(std::move(rates));
}

struct Measurement {
  std::string name;
  size_t bits = 0;
  Spread rate;
  size_t pruned = 0;
};

template <typename Run>
Measurement Measure(const std::string& name, size_t bits, size_t num_pairs, Run run) {
  Measurement m;
  m.name = name;
  m.bits = bits;
  m.rate = TimeRuns(num_pairs, run, m.pruned);
  return m;
}

std::vector<Measurement> BenchAtWidth(size_t bits, const Database& a, const Database& b) {
  BloomFilterParams bloom;
  bloom.num_bits = bits;
  const ClkEncoder encoder(bloom, PprlPipeline::DefaultFieldConfigs());
  const std::vector<BitVector> fa = encoder.EncodeDatabase(a).value();
  const std::vector<BitVector> fb = encoder.EncodeDatabase(b).value();

  std::vector<CandidatePair> candidates;
  candidates.reserve(fa.size() * fb.size());
  for (uint32_t i = 0; i < fa.size(); ++i) {
    for (uint32_t j = 0; j < fb.size(); ++j) candidates.push_back({i, j});
  }
  const size_t n = candidates.size();

  const ComparisonEngine scalar(MeasureFunction(SimilarityMeasure::kDice));
  const ComparisonEngine kernel(SimilarityMeasure::kDice);

  std::vector<Measurement> out;
  out.push_back(Measure("scalar", bits, n, [&] {
    scalar.Compare(fa, fb, candidates, 0.0);
    return size_t{0};
  }));
  out.push_back(Measure("scalar-threshold", bits, n, [&] {
    scalar.Compare(fa, fb, candidates, kPruneThreshold);
    return size_t{0};
  }));
  // The vector-input path, so the timing includes the BitMatrix
  // conversion the seed path never pays (it is O(records), amortized over
  // O(pairs) scoring).
  out.push_back(Measure("kernel", bits, n, [&] {
    kernel.Compare(fa, fb, candidates, 0.0);
    return kernel.last_pruned_count();
  }));
  out.push_back(Measure("kernel-pruned", bits, n, [&] {
    kernel.Compare(fa, fb, candidates, kPruneThreshold);
    return kernel.last_pruned_count();
  }));
  return out;
}

struct ParallelMeasurement {
  size_t threads = 0;
  size_t bits = 0;
  Spread rate;
  size_t pruned = 0;
  /// Median rate / (t1 median x threads) at the same width: 1.0 is perfect
  /// scaling, and anything flat across thread counts means a serial stage
  /// or shared bottleneck is capping the path.
  double scaling_efficiency = 0;
  /// A-rows per range task (RangeRows of the all-pairs source).
  size_t range_rows = 0;
};

/// The parallel sweep: all 10k x 10k pairs through CompareRanges, one
/// task per range of a-rows on a pool of `threads` workers (inline at
/// one) — pool start, pair expansion, dispatch and the join are all inside
/// the timed region, so this measures the linkage paths' executor, not
/// just the kernel loop.
std::vector<ParallelMeasurement> BenchParallelAtWidth(size_t bits, const Database& a,
                                                      const Database& b) {
  BloomFilterParams bloom;
  bloom.num_bits = bits;
  const ClkEncoder encoder(bloom, PprlPipeline::DefaultFieldConfigs());
  const std::vector<BitVector> fa = encoder.EncodeDatabase(a).value();
  const std::vector<BitVector> fb = encoder.EncodeDatabase(b).value();
  const BitMatrix ma = BitMatrix::FromVectors(fa);
  const BitMatrix mb = BitMatrix::FromVectors(fb);
  const size_t n = fa.size() * fb.size();
  const DiceCutoffs cutoffs(kParallelThreshold, bits);
  const CandidateSource all_pairs = CandidateSource::AllPairs(ma, mb);

  std::vector<ParallelMeasurement> out;
  double t1_rate = 0;
  for (const size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    ParallelMeasurement m;
    m.threads = threads;
    m.bits = bits;
    m.range_rows = RangeRows(all_pairs);
    m.rate = TimeRuns(
        n, [&] { return CompareRanges(cutoffs, {all_pairs}, threads)[0].pruned; },
        m.pruned);
    if (threads == 1) t1_rate = m.rate.median;
    // Fraction of perfect scaling: 1.0 means N threads deliver N x the
    // single-thread rate.
    m.scaling_efficiency = m.rate.median / (t1_rate * static_cast<double>(threads));
    out.push_back(m);
  }
  return out;
}

int Main(int argc, char** argv) {
  auto [a, b] = TwoDatabases(kRecordsPerSide, 1.2);
  const size_t num_pairs = kRecordsPerSide * kRecordsPerSide;
  std::printf("comparison throughput, %zu x %zu records (%zu candidate pairs), "
              "Dice, prune threshold %.2f\n\n",
              kRecordsPerSide, kRecordsPerSide, num_pairs, kPruneThreshold);

  std::vector<Measurement> all;
  for (const size_t bits : {size_t{500}, size_t{1000}}) {
    const auto rows = BenchAtWidth(bits, a, b);
    all.insert(all.end(), rows.begin(), rows.end());
  }

  PrintHeader({"config", "bits", "Mpairs/s", "p25", "p75", "pruned", "vs scalar"});
  double scalar_rate = 0;
  for (const Measurement& m : all) {
    if (m.name == "scalar") scalar_rate = m.rate.median;
    PrintRow({m.name, Fmt(m.bits), Fmt(m.rate.median / 1e6, 2),
              Fmt(m.rate.p25 / 1e6, 2), Fmt(m.rate.p75 / 1e6, 2), Fmt(m.pruned),
              Fmt(m.rate.median / scalar_rate, 2) + "x"});
  }

  const size_t cores = std::thread::hardware_concurrency();
  if (argc > 1) {
    std::FILE* f = std::fopen(argv[1], "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", argv[1]);
      return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"bench_compare_kernels\",\n");
    std::fprintf(f, "  \"host\": {%s},\n", ProvenanceJsonMembers().c_str());
    std::fprintf(f, "  \"records_per_side\": %zu,\n  \"candidate_pairs\": %zu,\n",
                 kRecordsPerSide, num_pairs);
    std::fprintf(f, "  \"prune_threshold\": %.2f,\n  \"timed_runs\": %d,\n",
                 kPruneThreshold, kReps);
    std::fprintf(f, "  \"measurements\": [\n");
    for (size_t i = 0; i < all.size(); ++i) {
      const Measurement& m = all[i];
      std::fprintf(f,
                   "    {\"config\": \"%s\", \"bits\": %zu, \"pairs_per_sec\": %.0f, "
                   "\"p25\": %.0f, \"p75\": %.0f, \"pruned\": %zu}%s\n",
                   m.name.c_str(), m.bits, m.rate.median, m.rate.p25, m.rate.p75,
                   m.pruned, i + 1 < all.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("\nwrote %s\n", argv[1]);
  }

  // --- Parallel sweep ------------------------------------------------------
  auto [pa, pb] = TwoDatabases(kParallelRecordsPerSide, 1.2);
  const size_t parallel_pairs = kParallelRecordsPerSide * kParallelRecordsPerSide;
  std::vector<ParallelMeasurement> parallel_all;
  for (const size_t bits : {size_t{500}, size_t{1000}}) {
    const auto rows = BenchParallelAtWidth(bits, pa, pb);
    parallel_all.insert(parallel_all.end(), rows.begin(), rows.end());
  }
  const size_t range_rows = parallel_all.front().range_rows;
  std::printf("\nparallel compare (CompareRanges), %zu x %zu records (%zu candidate "
              "pairs), Dice threshold %.2f, %zu cores, %zu a-rows per range\n\n",
              kParallelRecordsPerSide, kParallelRecordsPerSide, parallel_pairs,
              kParallelThreshold, cores, range_rows);

  PrintHeader({"config", "bits", "Mpairs/s", "p25", "p75", "pruned", "vs t1",
               "efficiency"});
  double t1_rate = 0;
  for (const ParallelMeasurement& m : parallel_all) {
    if (m.threads == 1) t1_rate = m.rate.median;
    PrintRow({"range-t" + std::to_string(m.threads), Fmt(m.bits),
              Fmt(m.rate.median / 1e6, 2), Fmt(m.rate.p25 / 1e6, 2),
              Fmt(m.rate.p75 / 1e6, 2), Fmt(m.pruned),
              Fmt(m.rate.median / t1_rate, 2) + "x", Fmt(m.scaling_efficiency, 2)});
  }

  if (argc > 2) {
    std::FILE* f = std::fopen(argv[2], "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", argv[2]);
      return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"bench_compare_kernels_parallel\",\n");
    std::fprintf(f, "  \"host\": {%s},\n", ProvenanceJsonMembers().c_str());
    std::fprintf(f, "  \"records_per_side\": %zu,\n  \"candidate_pairs\": %zu,\n",
                 kParallelRecordsPerSide, parallel_pairs);
    std::fprintf(f, "  \"range_rows\": %zu,\n", range_rows);
    std::fprintf(f, "  \"prune_threshold\": %.2f,\n  \"timed_runs\": %d,\n",
                 kParallelThreshold, kReps);
    std::fprintf(f, "  \"measurements\": [\n");
    for (size_t i = 0; i < parallel_all.size(); ++i) {
      const ParallelMeasurement& m = parallel_all[i];
      if (m.threads == 1) t1_rate = m.rate.median;
      std::fprintf(f,
                   "    {\"config\": \"range-t%zu\", \"bits\": %zu, \"threads\": %zu, "
                   "\"pairs_per_sec\": %.0f, \"p25\": %.0f, \"p75\": %.0f, "
                   "\"pruned\": %zu, "
                   "\"speedup_vs_t1\": %.2f, \"scaling_efficiency\": %.3f}%s\n",
                   m.threads, m.bits, m.threads, m.rate.median, m.rate.p25, m.rate.p75,
                   m.pruned, m.rate.median / t1_rate, m.scaling_efficiency,
                   i + 1 < parallel_all.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("\nwrote %s\n", argv[2]);
  }
  DumpMetricsIfRequested();
  return 0;
}

}  // namespace
}  // namespace pprl::bench

int main(int argc, char** argv) { return pprl::bench::Main(argc, argv); }
