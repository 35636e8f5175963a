#ifndef PPRL_LINKAGE_COMPARISON_H_
#define PPRL_LINKAGE_COMPARISON_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/bit_matrix.h"
#include "common/bitvector.h"
#include "blocking/blocking.h"
#include "linkage/compare_kernels.h"

namespace pprl {

// ScoredPair lives in compare_kernels.h (the kernels emit it directly).

/// Similarity of two encoded records (e.g. Dice of Bloom filters).
using PairSimilarityFunction = std::function<double(const BitVector&, const BitVector&)>;

/// The comparison step of the PPRL pipeline: evaluates the similarity
/// function on every candidate pair. This is the bottleneck the survey's
/// complexity-reduction technologies exist to shrink, so the engine counts
/// exactly how many comparisons it performs.
///
/// Constructed from a `SimilarityMeasure`, the engine runs the batch
/// kernels of compare_kernels.h over contiguous `BitMatrix` storage, one
/// pass over the candidates in the caller's order: each pair costs one
/// fused AND-popcount loop with no indirect call, and pairs whose
/// cardinality upper bound falls below `min_score` skip the loop entirely
/// (counted by last_pruned_count()). Scores are bitwise identical to the
/// scalar functions in similarity/similarity.h and results stay in
/// candidate order. The engine does no cache blocking: its callers hand it
/// candidate lists of blocking or online probes, and the linkage paths
/// score their candidates with the same kernels in range tasks
/// (linkage/parallel_linkage.h). The `std::function` constructor remains
/// as the fully general fallback (custom measures, instrumented runs).
class ComparisonEngine {
 public:
  /// Fast path: devirtualized batch kernels for a named measure.
  explicit ComparisonEngine(SimilarityMeasure measure);

  /// Fallback path: arbitrary per-pair similarity, no pruning.
  explicit ComparisonEngine(PairSimilarityFunction similarity);

  /// Scores all candidate pairs; `min_score` drops pairs below it early
  /// (pass 0 to keep everything).
  std::vector<ScoredPair> Compare(const std::vector<BitVector>& a_filters,
                                  const std::vector<BitVector>& b_filters,
                                  const std::vector<CandidatePair>& candidates,
                                  double min_score = 0) const;

  /// Same, over already-packed matrices — lets callers amortize the
  /// conversion across many calls. Measure-constructed engines only. The
  /// exact contract: a pair is kept iff its double score is >= min_score
  /// (a Dice engine decides it with a DiceCutoffs table built for this
  /// call).
  std::vector<ScoredPair> CompareMatrices(const BitMatrix& a_matrix,
                                          const BitMatrix& b_matrix,
                                          const std::vector<CandidatePair>& candidates,
                                          double min_score = 0) const;

  /// Same, deciding with a prebuilt Dice table — for callers that score
  /// many batches at one threshold (the linkage unit, the online engine).
  /// Dice engines only.
  std::vector<ScoredPair> CompareMatrices(const BitMatrix& a_matrix,
                                          const BitMatrix& b_matrix,
                                          const std::vector<CandidatePair>& candidates,
                                          const DiceCutoffs& cutoffs) const;

  /// Candidate pairs evaluated (attempted) by the last Compare*() call,
  /// whether by the word loop or by the cardinality bound. Counters are
  /// atomic so one engine may serve concurrent sessions; under concurrent
  /// calls each reader sees the totals of some completed call.
  size_t last_comparison_count() const {
    return last_comparisons_.load(std::memory_order_relaxed);
  }

  /// Of those, pairs the cardinality bound rejected without running the
  /// word loop. Always 0 on the `std::function` path.
  size_t last_pruned_count() const {
    return last_pruned_.load(std::memory_order_relaxed);
  }

  /// The measure this engine runs kernels for, if measure-constructed.
  std::optional<SimilarityMeasure> measure() const { return measure_; }

 private:
  /// The shared body of both CompareMatrices() forms; `score(out, stats)`
  /// runs the kernel over `candidates`.
  template <typename ScoreFn>
  std::vector<ScoredPair> CompareWith(const std::vector<CandidatePair>& candidates,
                                      const ScoreFn& score) const;

  std::optional<SimilarityMeasure> measure_;
  PairSimilarityFunction similarity_;
  mutable std::atomic<size_t> last_comparisons_{0};
  mutable std::atomic<size_t> last_pruned_{0};
};

/// Where a compare call ran, the `path` label of pprl_compare_calls_total.
enum class ComparePath { kScalar, kKernel, kFieldwise };

/// Counts one finished compare call into the pprl_compare_* counters:
/// `pairs` candidates evaluated, `pruned` of them answered by the
/// cardinality bound. ComparisonEngine and CompareFieldwise report once
/// per call; CompareRanges once per candidate-range task.
void RecordCompareCall(ComparePath path, size_t pairs, size_t pruned);

/// Per-field similarity vectors for multi-attribute classifiers: one
/// encoded filter per field per record.
struct FieldwiseScoredPair {
  uint32_t a = 0;
  uint32_t b = 0;
  std::vector<double> field_scores;
};

/// Compares candidate pairs field by field (field-level Bloom filters),
/// producing the similarity vectors that rule-based, Fellegi-Sunter and ML
/// classifiers consume.
std::vector<FieldwiseScoredPair> CompareFieldwise(
    const std::vector<std::vector<BitVector>>& a_field_filters,
    const std::vector<std::vector<BitVector>>& b_field_filters,
    const std::vector<CandidatePair>& candidates,
    const PairSimilarityFunction& similarity);

/// Kernel-backed CompareFieldwise: packs each field into a BitMatrix once
/// and scores every candidate with the fused word loop. Bitwise identical
/// to the `std::function` overload over the matching scalar measure.
std::vector<FieldwiseScoredPair> CompareFieldwise(
    const std::vector<std::vector<BitVector>>& a_field_filters,
    const std::vector<std::vector<BitVector>>& b_field_filters,
    const std::vector<CandidatePair>& candidates, SimilarityMeasure measure);

}  // namespace pprl

#endif  // PPRL_LINKAGE_COMPARISON_H_
