#include "linkage/comparison.h"

#include <cassert>
#include <utility>

#include "obs/metrics.h"

namespace pprl {

namespace {

/// Comparison counters: one relaxed atomic add per compare call (not per
/// pair), so instrumentation cost is invisible next to the O(pairs)
/// kernel work. The `path` label is the kernel-dispatch breakdown.
struct CompareMetrics {
  obs::Counter& pairs = obs::GlobalMetrics().GetCounter(
      "pprl_compare_pairs_total",
      "Candidate pairs evaluated by ComparisonEngine (word loop or bound)");
  obs::Counter& pruned = obs::GlobalMetrics().GetCounter(
      "pprl_compare_pairs_pruned_total",
      "Pairs the cardinality bound rejected without running the word loop");
  obs::Counter* calls[3] = {&Calls("scalar"), &Calls("kernel"), &Calls("fieldwise")};

  static obs::Counter& Calls(const char* path) {
    return obs::GlobalMetrics().GetCounter(
        "pprl_compare_calls_total", "Compare*() dispatches by execution path",
        {{"path", path}});
  }
};

CompareMetrics& Metrics() {
  static CompareMetrics* m = new CompareMetrics();
  return *m;
}

}  // namespace

ComparisonEngine::ComparisonEngine(SimilarityMeasure measure) : measure_(measure) {}

ComparisonEngine::ComparisonEngine(PairSimilarityFunction similarity)
    : similarity_(std::move(similarity)) {}

std::vector<ScoredPair> ComparisonEngine::Compare(
    const std::vector<BitVector>& a_filters, const std::vector<BitVector>& b_filters,
    const std::vector<CandidatePair>& candidates, double min_score) const {
  if (measure_.has_value()) {
    return CompareMatrices(BitMatrix::FromVectors(a_filters),
                           BitMatrix::FromVectors(b_filters), candidates, min_score);
  }
  std::vector<ScoredPair> out;
  out.reserve(candidates.size());
  for (const CandidatePair& pair : candidates) {
    const double score = similarity_(a_filters[pair.a], b_filters[pair.b]);
    if (score >= min_score) out.push_back({pair.a, pair.b, score});
  }
  last_comparisons_ = candidates.size();
  last_pruned_ = 0;
  RecordCompareCall(ComparePath::kScalar, candidates.size(), 0);
  return out;
}

template <typename ScoreFn>
std::vector<ScoredPair> ComparisonEngine::CompareWith(
    const std::vector<CandidatePair>& candidates, const ScoreFn& score) const {
  CompareKernelStats stats;
  std::vector<ScoredPair> out;
  out.reserve(candidates.size());
  score(out, stats);
  last_comparisons_ = candidates.size();
  last_pruned_ = stats.pruned;
  RecordCompareCall(ComparePath::kKernel, candidates.size(), stats.pruned);
  return out;
}

std::vector<ScoredPair> ComparisonEngine::CompareMatrices(
    const BitMatrix& a_matrix, const BitMatrix& b_matrix,
    const std::vector<CandidatePair>& candidates, double min_score) const {
  assert(measure_.has_value());
  return CompareWith(candidates, [&](std::vector<ScoredPair>& out,
                                     CompareKernelStats& stats) {
    CompareKernel(*measure_, a_matrix, b_matrix, candidates.data(), candidates.size(),
                  min_score, out, stats);
  });
}

std::vector<ScoredPair> ComparisonEngine::CompareMatrices(
    const BitMatrix& a_matrix, const BitMatrix& b_matrix,
    const std::vector<CandidatePair>& candidates, const DiceCutoffs& cutoffs) const {
  assert(measure_ == SimilarityMeasure::kDice);
  return CompareWith(candidates, [&](std::vector<ScoredPair>& out,
                                     CompareKernelStats& stats) {
    CompareKernel(cutoffs, a_matrix, b_matrix, candidates.data(), candidates.size(), out,
                  stats);
  });
}

void RecordCompareCall(ComparePath path, size_t pairs, size_t pruned) {
  CompareMetrics& metrics = Metrics();
  metrics.calls[static_cast<size_t>(path)]->Increment();
  metrics.pairs.Increment(pairs);
  metrics.pruned.Increment(pruned);
}

std::vector<FieldwiseScoredPair> CompareFieldwise(
    const std::vector<std::vector<BitVector>>& a_field_filters,
    const std::vector<std::vector<BitVector>>& b_field_filters,
    const std::vector<CandidatePair>& candidates,
    const PairSimilarityFunction& similarity) {
  std::vector<FieldwiseScoredPair> out;
  out.reserve(candidates.size());
  const size_t num_fields = a_field_filters.size();
  for (const CandidatePair& pair : candidates) {
    FieldwiseScoredPair fsp;
    fsp.a = pair.a;
    fsp.b = pair.b;
    fsp.field_scores.reserve(num_fields);
    for (size_t f = 0; f < num_fields; ++f) {
      fsp.field_scores.push_back(
          similarity(a_field_filters[f][pair.a], b_field_filters[f][pair.b]));
    }
    out.push_back(std::move(fsp));
  }
  return out;
}

std::vector<FieldwiseScoredPair> CompareFieldwise(
    const std::vector<std::vector<BitVector>>& a_field_filters,
    const std::vector<std::vector<BitVector>>& b_field_filters,
    const std::vector<CandidatePair>& candidates, SimilarityMeasure measure) {
  std::vector<FieldwiseScoredPair> out(candidates.size());
  const size_t num_fields = a_field_filters.size();
  RecordCompareCall(ComparePath::kFieldwise, candidates.size() * num_fields, 0);
  for (size_t i = 0; i < candidates.size(); ++i) {
    out[i].a = candidates[i].a;
    out[i].b = candidates[i].b;
    out[i].field_scores.reserve(num_fields);
  }
  std::vector<ScoredPair> scored;
  scored.reserve(candidates.size());
  for (size_t f = 0; f < num_fields; ++f) {
    const BitMatrix ma = BitMatrix::FromVectors(a_field_filters[f]);
    const BitMatrix mb = BitMatrix::FromVectors(b_field_filters[f]);
    scored.clear();
    CompareKernelStats stats;
    // min_score 0 keeps every pair (all measures map into [0, 1]) in
    // candidate order, so scored[i] is candidate i's score for this field.
    CompareKernel(measure, ma, mb, candidates.data(), candidates.size(), 0.0, scored,
                  stats);
    for (size_t i = 0; i < scored.size(); ++i) {
      out[i].field_scores.push_back(scored[i].score);
    }
  }
  return out;
}

}  // namespace pprl
