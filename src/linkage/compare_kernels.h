#ifndef PPRL_LINKAGE_COMPARE_KERNELS_H_
#define PPRL_LINKAGE_COMPARE_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "blocking/blocking.h"
#include "common/bit_matrix.h"
#include "common/bitvector.h"

namespace pprl {

/// The token-based similarity measures PPRL compares Bloom-filter
/// encodings with (survey §3.4). Naming a measure instead of passing a
/// `std::function` lets the comparison engine pick a devirtualized batch
/// kernel: one fused word loop per pair, no indirect call, no re-derived
/// cardinalities.
enum class SimilarityMeasure {
  kDice,     // 2c / (x1 + x2)
  kJaccard,  // c / (x1 + x2 - c)
  kHamming,  // 1 - (x1 + x2 - 2c) / m
  kOverlap,  // c / min(x1, x2)
  kCosine,   // c / sqrt(x1 * x2)
};

const char* SimilarityMeasureName(SimilarityMeasure measure);

/// The scalar reference implementation of `measure` (the functions in
/// similarity/similarity.h), wrapped for the engine's fallback path. The
/// batch kernels below produce bitwise-identical scores.
std::function<double(const BitVector&, const BitVector&)> MeasureFunction(
    SimilarityMeasure measure);

/// Score of a pair given the two set-bit counts `ca`, `cb`, the
/// intersection count `c`, and the filter length `num_bits`. Every
/// measure above is a function of only these four values — |a OR b| is
/// ca + cb - c and the Hamming distance is ca + cb - 2c, both exact in
/// integers — which is why the kernels only ever run one fused AND
/// popcount loop. Degenerate cases (empty filters) follow the scalar
/// conventions: two empty filters compare as 1.
double ScoreFromIntersection(SimilarityMeasure measure, size_t ca, size_t cb,
                             size_t c, size_t num_bits);

/// Upper bound on the pair's score from cardinalities alone, i.e. the
/// score at the best-case intersection c = min(ca, cb). Monotonicity of
/// IEEE division guarantees ScoreFromIntersection(...) <=
/// ScoreUpperBound(...) for every real intersection, so a pair whose
/// bound falls strictly below a threshold can be skipped without running
/// the word loop at all — the PPJoin-style length filter applied at the
/// comparison step. (For Overlap the bound is the trivial 1, so only
/// degenerate pairs prune.)
double ScoreUpperBound(SimilarityMeasure measure, size_t ca, size_t cb,
                       size_t num_bits);

/// The exact integer form of a Dice threshold at one filter width.
///
/// A Dice score depends only on c = |a AND b| and s = |a| + |b|, and the
/// double quotient 2c / s never decreases as c grows. So for any accept
/// rule that is monotone in the score, the pairs the rule keeps at sum s
/// are exactly those with c >= c_min[s]: the smallest c <= floor(s/2)
/// whose double score passes, or floor(s/2) + 1 when none does. The table
/// is built from the double rule itself, one entry per s in
/// [0, 2 * num_bits], so its decisions are the rule's, bit for bit:
///  - a pair is pruned iff min(|a|, |b|) < c_min[s] (its best reachable
///    score, at c = min(|a|, |b|), fails the rule);
///  - a pair is accepted iff c >= c_min[s].
/// The kernels divide only to emit an accepted pair's score. Building a
/// table costs a few thousand score evaluations, so callers build one per
/// linkage call or engine and share it across every chunk they score.
class DiceCutoffs {
 public:
  /// A monotone accept rule over (score, threshold).
  using AcceptRule = bool (*)(double score, double threshold);

  /// The exact rule `score >= min_score`.
  static bool AtLeast(double score, double min_score) { return score >= min_score; }

  DiceCutoffs(double threshold, size_t num_bits, AcceptRule accept = AtLeast);

  size_t num_bits() const { return num_bits_; }

  /// c_min[s] for s = |a| + |b| in [0, 2 * num_bits()].
  uint32_t operator[](size_t s) const { return c_min_[s]; }
  const uint32_t* data() const { return c_min_.data(); }

 private:
  size_t num_bits_;
  std::vector<uint32_t> c_min_;
};

/// The linkage unit's accept rule, shared by Link(), LinkPartition() and
/// the online engine: a Dice score within 1e-12 under the threshold still
/// links, so a threshold written as a rounded decimal (0.666666666667)
/// keeps the pairs it names (Dice exactly 2/3).
inline bool LinkageAccepts(double score, double threshold) {
  return score + 1e-12 >= threshold;
}

/// Counters a kernel run reports: how many candidate pairs ran the word
/// loop and how many the cardinality bound answered without it.
struct CompareKernelStats {
  size_t scored = 0;
  size_t pruned = 0;
};

/// A compared record pair with its similarity score.
struct ScoredPair {
  uint32_t a = 0;
  uint32_t b = 0;
  double score = 0;

  friend bool operator==(const ScoredPair& x, const ScoredPair& y) {
    return x.a == y.a && x.b == y.b && x.score == y.score;
  }
};

/// Scores `pairs` of rows drawn from `a` x `b`, appending one result per
/// pair whose score is >= `min_score` to `out`, in pair order. Pairs whose
/// cardinality bound is strictly below `min_score` are skipped and counted
/// in `stats.pruned`; everything else runs the fused word loop and counts
/// in `stats.scored`. A Dice run with `min_score > 0` builds its
/// DiceCutoffs for this call; callers that score many chunks at one
/// threshold build the table once and use the overload below.
void CompareKernel(SimilarityMeasure measure, const BitMatrix& a, const BitMatrix& b,
                   const CandidatePair* pairs, size_t num_pairs, double min_score,
                   std::vector<ScoredPair>& out, CompareKernelStats& stats);

/// Dice with a prebuilt table: prunes and accepts exactly as `cutoffs`
/// says. `cutoffs.num_bits()` must equal the matrices' filter width.
void CompareKernel(const DiceCutoffs& cutoffs, const BitMatrix& a, const BitMatrix& b,
                   const CandidatePair* pairs, size_t num_pairs,
                   std::vector<ScoredPair>& out, CompareKernelStats& stats);

/// The compiled copies of every kernel loop. CompareKernel runs the
/// fastest one the CPU supports, chosen once per process.
enum class KernelClone { kPortable, kPopcnt, kAvx512 };

/// The clones this CPU can execute, portable first.
std::vector<KernelClone> SupportedKernelClones();

/// Test seam: while an instance is alive, every CompareKernel call runs
/// `clone` (which must be in SupportedKernelClones()) instead of the
/// fastest one, so parity tests can cover the loops a host's dispatch
/// would skip. Scopes nest; production code never creates one.
class ScopedKernelClone {
 public:
  explicit ScopedKernelClone(KernelClone clone);
  ~ScopedKernelClone();

  ScopedKernelClone(const ScopedKernelClone&) = delete;
  ScopedKernelClone& operator=(const ScopedKernelClone&) = delete;

 private:
  int previous_;
};

}  // namespace pprl

#endif  // PPRL_LINKAGE_COMPARE_KERNELS_H_
