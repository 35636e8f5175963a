#include "linkage/compare_kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/bit_matrix.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "linkage/comparison.h"
#include "linkage/parallel_linkage.h"
#include "similarity/similarity.h"

namespace pprl {
namespace {

constexpr SimilarityMeasure kAllMeasures[] = {
    SimilarityMeasure::kDice, SimilarityMeasure::kJaccard, SimilarityMeasure::kHamming,
    SimilarityMeasure::kOverlap, SimilarityMeasure::kCosine};

/// Random filters with strongly varying density (so cardinality bounds
/// actually separate pairs), plus deliberate edge rows: all-zero (empty)
/// filters and duplicated rows that score exactly 1.
std::vector<BitVector> RandomFilters(size_t n, size_t num_bits, Rng& rng) {
  std::vector<BitVector> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    BitVector v(num_bits);
    const double density = 0.05 + 0.5 * rng.NextDouble();
    for (size_t b = 0; b < num_bits; ++b) {
      if (rng.NextBool(density)) v.Set(b);
    }
    out.push_back(std::move(v));
  }
  if (n >= 3 && num_bits > 0) {
    out[0].Clear();           // empty filter
    out[n - 1] = out[n / 2];  // exact duplicate pair across the databases
  }
  return out;
}

std::vector<CandidatePair> AllPairs(size_t na, size_t nb) {
  std::vector<CandidatePair> out;
  for (uint32_t i = 0; i < na; ++i) {
    for (uint32_t j = 0; j < nb; ++j) out.push_back({i, j});
  }
  return out;
}

/// The same pairs in a seeded random order: no eight consecutive pairs
/// form a dense {a, b..b+7} run, so the AVX-512 clone takes its
/// group-of-eight path instead of the dense one.
std::vector<CandidatePair> Shuffled(std::vector<CandidatePair> pairs, Rng& rng) {
  for (size_t i = pairs.size(); i > 1; --i) {
    std::swap(pairs[i - 1], pairs[rng.NextUint64(i)]);
  }
  return pairs;
}

/// Candidates whose cardinality bound falls strictly below `min_score`:
/// exactly the pairs a kernel may answer without the word loop.
size_t BoundPrunedCount(SimilarityMeasure m, const std::vector<BitVector>& fa,
                        const std::vector<BitVector>& fb,
                        const std::vector<CandidatePair>& candidates, double min_score) {
  size_t pruned = 0;
  for (const CandidatePair& pair : candidates) {
    const double bound = ScoreUpperBound(m, fa[pair.a].Count(), fb[pair.b].Count(),
                                         fa[pair.a].size());
    if (bound < min_score) ++pruned;
  }
  return pruned;
}

/// Every a x b pair through the parallel compare executor: CompareRanges
/// on `threads` workers, or on `scheduler` when given.
SourceHits CompareAllPairs(const DiceCutoffs& cutoffs, const BitMatrix& ma,
                           const BitMatrix& mb, size_t threads,
                           ShardScheduler* scheduler = nullptr) {
  return CompareRanges(cutoffs, {CandidateSource::AllPairs(ma, mb)}, threads,
                       scheduler)[0];
}

std::string CloneLabel(KernelClone clone) {
  return "clone " + std::to_string(static_cast<int>(clone));
}

void ExpectSameHits(const std::vector<ScoredPair>& expected,
                    const std::vector<ScoredPair>& actual, const std::string& label) {
  ASSERT_EQ(expected.size(), actual.size()) << label;
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i], actual[i]) << label << ", pair " << i;
  }
}

TEST(BitMatrixTest, RoundTripsAndAlignment) {
  Rng rng(7);
  for (const size_t bits : {size_t{0}, size_t{1}, size_t{61}, size_t{127}, size_t{500},
                            size_t{1000}}) {
    const auto rows = RandomFilters(9, bits, rng);
    const BitMatrix m = BitMatrix::FromVectors(rows);
    EXPECT_EQ(m.num_rows(), rows.size());
    EXPECT_EQ(m.num_bits(), bits);
    EXPECT_EQ(m.stride_words() % 8, 0u) << "stride must stay a 64-byte multiple";
    const auto back = m.ToVectors();
    ASSERT_EQ(back.size(), rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
      EXPECT_EQ(back[i], rows[i]) << "row " << i << " at " << bits << " bits";
      EXPECT_EQ(m.row_count(i), rows[i].Count());
      EXPECT_EQ(reinterpret_cast<uintptr_t>(m.row(i)) % 64, 0u)
          << "row " << i << " must start on a cache line";
    }
  }
}

TEST(BitMatrixTest, CopyIsDeep) {
  Rng rng(11);
  const BitMatrix a = BitMatrix::FromVectors(RandomFilters(4, 127, rng));
  BitMatrix b = a;
  b.mutable_row(0)[0] = ~b.mutable_row(0)[0];
  b.RecomputeCounts();
  EXPECT_NE(a.row(0)[0], b.row(0)[0]);
  EXPECT_EQ(a.ToVectors()[1], b.ToVectors()[1]);
}

TEST(CompareKernelsTest, UpperBoundDominatesEveryScore) {
  Rng rng(13);
  for (const size_t bits : {size_t{61}, size_t{127}, size_t{500}}) {
    const auto fa = RandomFilters(24, bits, rng);
    const auto fb = RandomFilters(24, bits, rng);
    for (const SimilarityMeasure m : kAllMeasures) {
      const auto reference = MeasureFunction(m);
      for (const auto& a : fa) {
        for (const auto& b : fb) {
          const double score = reference(a, b);
          const double bound = ScoreUpperBound(m, a.Count(), b.Count(), bits);
          EXPECT_GE(bound, score)
              << SimilarityMeasureName(m) << " bound must dominate at " << bits
              << " bits (|a|=" << a.Count() << ", |b|=" << b.Count() << ")";
          const double exact =
              ScoreFromIntersection(m, a.Count(), b.Count(), a.AndCount(b), bits);
          EXPECT_EQ(exact, score)
              << SimilarityMeasureName(m) << " intersection formula must be bitwise";
        }
      }
    }
  }
}

/// The heart of the kernels' contract: for every measure, odd/word-
/// straddling bit lengths, empty filters, a sweep of thresholds, and every
/// kernel clone this CPU can run, the kernel path must reproduce the
/// std::function reference path exactly — same scores to the bit, same
/// kept pairs, same output order — while counting every candidate and
/// pruning exactly the pairs whose cardinality bound falls below the
/// threshold. Candidates run in order (dense runs) and shuffled.
TEST(CompareKernelsTest, KernelMatchesReferenceBitwise) {
  Rng rng(17);
  for (const size_t bits : {size_t{61}, size_t{127}, size_t{500}}) {
    const auto fa = RandomFilters(40, bits, rng);
    const auto fb = RandomFilters(40, bits, rng);
    const auto in_order = AllPairs(fa.size(), fb.size());
    const auto shuffled = Shuffled(in_order, rng);
    for (const KernelClone clone : SupportedKernelClones()) {
      const ScopedKernelClone scope(clone);
      for (const auto* candidates : {&in_order, &shuffled}) {
        for (const SimilarityMeasure m : kAllMeasures) {
          const ComparisonEngine reference(MeasureFunction(m));
          const ComparisonEngine kernel(m);
          for (const double min_score : {0.0, 0.5, 0.7, 0.9}) {
            const std::string label =
                std::string(SimilarityMeasureName(m)) + " " + CloneLabel(clone) +
                (candidates == &shuffled ? " shuffled" : " in order") +
                " bits=" + std::to_string(bits) + " min=" + std::to_string(min_score);
            const auto expected = reference.Compare(fa, fb, *candidates, min_score);
            const auto actual = kernel.Compare(fa, fb, *candidates, min_score);
            ExpectSameHits(expected, actual, label);
            EXPECT_EQ(kernel.last_comparison_count(), candidates->size()) << label;
            EXPECT_EQ(reference.last_pruned_count(), 0u) << label;
            EXPECT_EQ(kernel.last_pruned_count(),
                      BoundPrunedCount(m, fa, fb, *candidates, min_score))
                << label;
          }
        }
      }
    }
  }
}

TEST(CompareKernelsTest, PruningFiresAtHighThresholds) {
  Rng rng(19);
  const auto fa = RandomFilters(60, 500, rng);
  const auto fb = RandomFilters(60, 500, rng);
  const auto candidates = AllPairs(fa.size(), fb.size());
  // Pruned pairs are exactly the ones the reference would have dropped.
  const ComparisonEngine reference(MeasureFunction(SimilarityMeasure::kDice));
  const auto expected = reference.Compare(fa, fb, candidates, 0.7);
  for (const KernelClone clone : SupportedKernelClones()) {
    const ScopedKernelClone scope(clone);
    const ComparisonEngine kernel(SimilarityMeasure::kDice);
    const auto kept = kernel.Compare(fa, fb, candidates, 0.7);
    EXPECT_GT(kernel.last_pruned_count(), 0u)
        << "density spread from 5% to 55% must let the cardinality bound prune";
    EXPECT_EQ(kernel.last_pruned_count(),
              BoundPrunedCount(SimilarityMeasure::kDice, fa, fb, candidates, 0.7));
    EXPECT_EQ(kernel.last_comparison_count(), candidates.size());
    ExpectSameHits(expected, kept, CloneLabel(clone));
  }
}

/// The parallel path — candidate-range tasks on the shard pool — against
/// the serial engine: same hits, same order, same accounting at every
/// thread count. Dice is the only measure the parallel path runs; the
/// serial kernels of every measure are checked in
/// KernelMatchesReferenceBitwise.
TEST(CompareKernelsTest, ParallelMatchesSequentialKernel) {
  Rng rng(23);
  const auto fa = RandomFilters(50, 127, rng);
  const auto fb = RandomFilters(50, 127, rng);
  const auto candidates = AllPairs(fa.size(), fb.size());
  const BitMatrix ma = BitMatrix::FromVectors(fa);
  const BitMatrix mb = BitMatrix::FromVectors(fb);
  const ComparisonEngine kernel(SimilarityMeasure::kDice);
  const auto sequential = kernel.Compare(fa, fb, candidates, 0.6);
  const size_t sequential_pruned = kernel.last_pruned_count();
  for (const size_t threads : {size_t{1}, size_t{4}}) {
    const std::string label = "threads=" + std::to_string(threads);
    const SourceHits parallel =
        CompareAllPairs(DiceCutoffs(0.6, ma.num_bits()), ma, mb, threads);
    ExpectSameHits(sequential, parallel.hits, label);
    EXPECT_EQ(parallel.comparisons, candidates.size()) << label;
    EXPECT_EQ(parallel.pruned, sequential_pruned) << label;
  }
}

/// Thresholded Dice runs through the cutoff-table loops (dense-run
/// vectorization included) on the serial engine and the parallel path:
/// scores, kept pairs, order, and the pruned/comparison accounting must
/// all be identical at every thread count, with every kernel clone.
TEST(CompareKernelsTest, ThresholdedParallelAccountingMatchesSequential) {
  Rng rng(31);
  for (const size_t bits : {size_t{127}, size_t{500}}) {
    const auto fa = RandomFilters(64, bits, rng);
    const auto fb = RandomFilters(64, bits, rng);
    const auto candidates = AllPairs(fa.size(), fb.size());
    const BitMatrix ma = BitMatrix::FromVectors(fa);
    const BitMatrix mb = BitMatrix::FromVectors(fb);
    const ComparisonEngine kernel(SimilarityMeasure::kDice);
    for (const KernelClone clone : SupportedKernelClones()) {
      const ScopedKernelClone scope(clone);
      for (const double min_score : {0.5, 0.7, 0.85, 0.95}) {
        const auto sequential = kernel.CompareMatrices(ma, mb, candidates, min_score);
        const size_t sequential_pruned = kernel.last_pruned_count();
        for (const size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
          const std::string label = CloneLabel(clone) +
                                    " bits=" + std::to_string(bits) +
                                    " min=" + std::to_string(min_score) +
                                    " threads=" + std::to_string(threads);
          const SourceHits parallel =
              CompareAllPairs(DiceCutoffs(min_score, bits), ma, mb, threads);
          ExpectSameHits(sequential, parallel.hits, label);
          EXPECT_EQ(parallel.comparisons, candidates.size()) << label;
          EXPECT_EQ(parallel.pruned, sequential_pruned) << label;
        }
      }
    }
  }
}

/// Several callers comparing on one shared scheduler at once — the shape
/// the daemon runs with --threads. Every caller must get its own correct
/// result and accounting.
TEST(CompareKernelsTest, ConcurrentCallersShareScheduler) {
  Rng rng(37);
  const auto fa = RandomFilters(48, 500, rng);
  const auto fb = RandomFilters(48, 500, rng);
  const auto candidates = AllPairs(fa.size(), fb.size());
  const BitMatrix ma = BitMatrix::FromVectors(fa);
  const BitMatrix mb = BitMatrix::FromVectors(fb);
  const ComparisonEngine kernel(SimilarityMeasure::kDice);
  const auto expected = kernel.CompareMatrices(ma, mb, candidates, 0.7);
  const size_t expected_pruned = kernel.last_pruned_count();

  const DiceCutoffs cutoffs(0.7, ma.num_bits());
  ShardScheduler scheduler(4);
  constexpr int kCallers = 4;
  std::vector<SourceHits> results(kCallers);
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&, t] {
      results[t] = CompareAllPairs(cutoffs, ma, mb, 1, &scheduler);
    });
  }
  for (auto& c : callers) c.join();
  for (int t = 0; t < kCallers; ++t) {
    const std::string label = "caller " + std::to_string(t);
    ExpectSameHits(expected, results[t].hits, label);
    EXPECT_EQ(results[t].comparisons, candidates.size()) << label;
    EXPECT_EQ(results[t].pruned, expected_pruned) << label;
  }
}

TEST(CompareKernelsTest, ZeroLengthFiltersCompareDegenerate) {
  const std::vector<BitVector> fa(3), fb(3);  // zero-bit filters
  const auto candidates = AllPairs(3, 3);
  for (const KernelClone clone : SupportedKernelClones()) {
    const ScopedKernelClone scope(clone);
    for (const SimilarityMeasure m : kAllMeasures) {
      const ComparisonEngine reference(MeasureFunction(m));
      const ComparisonEngine kernel(m);
      for (const double min_score : {0.0, 0.8}) {
        const auto expected = reference.Compare(fa, fb, candidates, min_score);
        const auto actual = kernel.Compare(fa, fb, candidates, min_score);
        ExpectSameHits(expected, actual,
                       std::string(SimilarityMeasureName(m)) + " " + CloneLabel(clone));
      }
    }
  }
}

TEST(CompareFieldwiseKernelTest, MatchesFunctionOverload) {
  Rng rng(29);
  const std::vector<std::vector<BitVector>> fa = {RandomFilters(12, 61, rng),
                                                  RandomFilters(12, 500, rng)};
  const std::vector<std::vector<BitVector>> fb = {RandomFilters(12, 61, rng),
                                                  RandomFilters(12, 500, rng)};
  const auto candidates = AllPairs(12, 12);
  for (const KernelClone clone : SupportedKernelClones()) {
    const ScopedKernelClone scope(clone);
    for (const SimilarityMeasure m : kAllMeasures) {
      const auto expected = CompareFieldwise(fa, fb, candidates, MeasureFunction(m));
      const auto actual = CompareFieldwise(fa, fb, candidates, m);
      ASSERT_EQ(expected.size(), actual.size());
      for (size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(expected[i].a, actual[i].a);
        EXPECT_EQ(expected[i].b, actual[i].b);
        ASSERT_EQ(expected[i].field_scores.size(), actual[i].field_scores.size());
        for (size_t f = 0; f < expected[i].field_scores.size(); ++f) {
          EXPECT_EQ(expected[i].field_scores[f], actual[i].field_scores[f])
              << SimilarityMeasureName(m) << " " << CloneLabel(clone) << " pair " << i
              << " field " << f;
        }
      }
    }
  }
}

/// The cutoff table against the double rule it was built from, for every
/// sum s in [0, 2 * bits] and every c <= floor(s / 2): the prune decision
/// (min(|a|, |b|) = c) must equal the rule applied to the pair's
/// cardinality bound, and the accept decision (|a AND b| = c) the rule
/// applied to its score. Thresholds include values one ulp and 1.5e-12
/// either side of 0.8 and the rounded decimal 0.666666666667.
TEST(DiceCutoffsTest, TableReproducesTheDoubleRuleExhaustively) {
  const double thresholds[] = {0.4,  0.5, 0.7, 0.8, 0.85, 0.95, 1.0, 2.0 / 3,
                               0.666666666667, std::nextafter(0.8, 0.0),
                               std::nextafter(0.8, 1.0), 0.8 + 1.5e-12,
                               0.8 - 1.5e-12};
  const std::pair<const char*, DiceCutoffs::AcceptRule> rules[] = {
      {"at-least", DiceCutoffs::AtLeast}, {"linkage", LinkageAccepts}};
  for (const size_t bits : {size_t{1}, size_t{61}, size_t{127}, size_t{500},
                            size_t{1000}, size_t{1024}}) {
    for (const double t : thresholds) {
      for (const auto& [rule_name, rule] : rules) {
        const DiceCutoffs cutoffs(t, bits, rule);
        ASSERT_EQ(cutoffs.num_bits(), bits);
        size_t mismatches = 0;
        std::string first;
        for (size_t s = 0; s <= 2 * bits; ++s) {
          for (size_t c = 0; c <= s / 2; ++c) {
            // The kernels prune a pair whose smaller side holds c bits iff
            // c < c_min[s], and accept a pair with intersection c iff
            // c >= c_min[s].
            const bool prune_want =
                !rule(ScoreUpperBound(SimilarityMeasure::kDice, c, s - c, bits), t);
            const bool accept_want = rule(
                ScoreFromIntersection(SimilarityMeasure::kDice, s / 2, s - s / 2, c, bits),
                t);
            if ((c < cutoffs[s]) != prune_want || (c >= cutoffs[s]) != accept_want) {
              if (mismatches++ == 0) {
                first = "s=" + std::to_string(s) + " c=" + std::to_string(c);
              }
            }
          }
        }
        EXPECT_EQ(mismatches, 0u) << rule_name << " threshold " << t << " at " << bits
                                  << " bits, first at " << first;
      }
    }
  }
}

}  // namespace
}  // namespace pprl
