#ifndef PPRL_LINKAGE_PARALLEL_LINKAGE_H_
#define PPRL_LINKAGE_PARALLEL_LINKAGE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "blocking/blocking.h"
#include "blocking/lsh_index.h"
#include "blocking/partitioner.h"
#include "common/bit_matrix.h"
#include "common/thread_pool.h"
#include "linkage/compare_kernels.h"

namespace pprl {

/// A-rows per candidate-range task of CompareRanges: each task walks and
/// scores this many rows of one matrix against another. Enough tasks to
/// balance a few cores over 5,000-row databases, each long enough that its
/// stamps and dispatch cost little.
inline constexpr size_t kCandidateRangeRows = 512;

/// Pairs an all-pairs range task is cut to: such a range takes
/// kDenseRangePairs / |B| a-rows, at least one and at most
/// kCandidateRangeRows. Every row of a cross product costs |B| pairs, so
/// 512-row ranges of a 10k x 10k product would be only 20 tasks of 5M
/// pairs, too few to balance four cores; at 1M pairs it is 97 tasks.
inline constexpr size_t kDenseRangePairs = size_t{1} << 20;

/// One (A, B) matrix pair and the candidates CompareRanges walks in it,
/// in ascending (a, b) order. Build one with a factory:
///  - AllPairs: every pair of A x B;
///  - Listed: an ascending, deduplicated pair list over A x B
///    (StandardBlocker::CandidatePairs);
///  - LshBands: the band chains of two indexes over one geometry
///    (ForEachLshCandidateRow), keeping the pairs `worker` owns under
///    `partitioner`; the indexes' rows() are the matrices.
///  - Arrivals: one index against itself, in arrival order. For each row
///    a in [first, index.size()) it yields the rows b < a that share a
///    band chain with a and whose row_database[b] differs from
///    row_database[a] (LshBandIndex::ProbeRows), which are exactly the
///    pairs the online engine's per-record Append scores when a arrives.
/// A source borrows everything it points at.
struct CandidateSource {
  static CandidateSource AllPairs(const BitMatrix& a, const BitMatrix& b);
  static CandidateSource Listed(const BitMatrix& a, const BitMatrix& b,
                                const std::vector<CandidatePair>& pairs);
  static CandidateSource LshBands(const LshBandIndex& a, const LshBandIndex& b,
                                  const BlockPartitioner& partitioner, uint32_t worker);
  static CandidateSource Arrivals(const LshBandIndex& index,
                                  const std::vector<uint32_t>& row_database, size_t first);

  const BitMatrix* a = nullptr;
  const BitMatrix* b = nullptr;
  const std::vector<CandidatePair>* listed = nullptr;
  const LshBandIndex* a_index = nullptr;
  const LshBandIndex* b_index = nullptr;
  const BlockPartitioner* partitioner = nullptr;
  uint32_t worker = 0;
  const std::vector<uint32_t>* row_database = nullptr;
  /// The first a-row walked; ranges are cut from here.
  size_t first = 0;
};

/// What CompareRanges kept of one source.
struct SourceHits {
  /// Pairs the cutoffs accept, in candidate order.
  std::vector<ScoredPair> hits;
  /// Candidate pairs walked (word loop or cardinality bound).
  size_t comparisons = 0;
  /// Of those, pairs the cardinality bound rejected without the word loop.
  size_t pruned = 0;
};

/// The a-rows of each range task CompareRanges cuts `source` into (the
/// last range of a matrix pair may be shorter).
size_t RangeRows(const CandidateSource& source);

/// The parallel compare executor of every linkage path (survey §3.4
/// "Parallel/distributed processing"): one task per (source, range of
/// a-rows): kCandidateRangeRows rows, or kDenseRangePairs worth of rows
/// for an all-pairs source. A task walks its range's candidates,
/// expands them into one reused, bounded pair buffer and scores each full
/// buffer with the Dice kernels under `cutoffs`. Tasks run on `scheduler`
/// when it is set (a borrowed pool, e.g. the daemon's), else inline on
/// the calling thread at num_threads <= 1, else on one pool of
/// min(num_threads, ShardScheduler::kMaxThreads) workers for this call.
/// Each source's ranges join in range order, so hits and counters are
/// those of one serial walk at any thread count. Counts one
/// `path="kernel"` call per range into the pprl_compare_* counters.
std::vector<SourceHits> CompareRanges(const DiceCutoffs& cutoffs,
                                      const std::vector<CandidateSource>& sources,
                                      size_t num_threads,
                                      ShardScheduler* scheduler = nullptr);

}  // namespace pprl

#endif  // PPRL_LINKAGE_PARALLEL_LINKAGE_H_
