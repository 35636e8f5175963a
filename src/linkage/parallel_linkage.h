#ifndef PPRL_LINKAGE_PARALLEL_LINKAGE_H_
#define PPRL_LINKAGE_PARALLEL_LINKAGE_H_

#include <cstddef>
#include <functional>
#include <vector>

#include "blocking/blocking.h"
#include "common/bit_matrix.h"
#include "common/thread_pool.h"
#include "linkage/compare_kernels.h"

namespace pprl {

/// The end-to-end parallel execution path (survey §3.4 "Parallel/distributed
/// processing"): blocking streams candidate shards into a bounded window, a
/// shard pool scores them on every core, and per-shard result
/// buffers merge back in shard order — so the output is byte-identical to
/// the serial pipeline at any thread count while peak memory stays
/// O(window), not O(candidates).
///
/// Workers execute run shards cache-blocked, the only cache blocking of the
/// compare path: a shard's candidates are bucketed into (a-row-tile,
/// b-row-tile) tiles sized so a tile's B rows fit in L2, every tile scores
/// straight from the two shared matrices, and the shard's hits are sorted
/// back into candidate order afterwards. Every tuning knob below defaults
/// to 0 = auto-size from the filter width and the detected cache hierarchy
/// (common/cache_info.h); ResolveParallelTuning() is the single place the
/// defaults, validation and clamping live.
struct ParallelLinkageOptions {
  /// Workers in the shard pool this call spins up, at most
  /// ShardScheduler::kMaxThreads. Ignored when `scheduler` is set.
  size_t num_threads = 1;

  /// Candidate pairs per shard — the scheduling unit. 0 auto-sizes so a
  /// shard amortizes dispatch and spans enough A rows for B-tile reuse
  /// while staying numerous enough to balance skewed blocks across workers.
  size_t shard_size = 0;

  /// B rows per cache tile inside a shard. 0 auto-sizes the tile's rows
  /// to half of L2.
  size_t tile_b_rows = 0;

  /// A rows per tile bucket. 0 auto-sizes.
  size_t tile_a_rows = 0;

  /// Borrowed long-lived shard pool (e.g. the daemon's). When set, shards
  /// run on its workers and completion is tracked per call with a
  /// TaskGroup, so concurrent sessions can share it safely.
  ShardScheduler* scheduler = nullptr;
};

/// The effective (validated, clamped, auto-sized) tuning a streaming run
/// executes with. Exposed so operators (daemon effective-config printout)
/// and benches can see — and record — what "auto" resolved to.
struct ResolvedParallelTuning {
  size_t num_threads = 1;
  size_t shard_size = 0;
  size_t tile_b_rows = 0;
  size_t tile_a_rows = 0;
  /// Bytes one matrix row occupies (stride), the unit of the sizing math.
  size_t row_bytes = 0;
};

/// Validates `options` against the filter width and fills every auto (0)
/// knob from the detected cache sizes. Out-of-range explicit values are
/// clamped with a logged warning rather than silently accepted — a
/// shard_size of 3 would drown the pool in dispatch. The shard window is
/// the pool's own (ShardScheduler::PendingWindow).
ResolvedParallelTuning ResolveParallelTuning(const ParallelLinkageOptions& options,
                                             size_t bits_per_row);

/// What a streaming comparison run produced.
struct StreamCompareResult {
  /// Kept pairs, in the global candidate order (identical to
  /// materializing the pairs and calling ComparisonEngine::CompareMatrices
  /// with the same cutoffs).
  std::vector<ScoredPair> hits;
  /// Candidate pairs evaluated (word loop or cardinality bound).
  size_t comparisons = 0;
  /// Of those, pairs the cardinality bound rejected without the word loop.
  size_t pruned = 0;
};

/// A producer that drives a run-shard candidate stream
/// (StreamBlockedPairRuns, StreamLshPairRuns, StreamFullPairRuns,
/// StreamCandidateRowRuns) into the consumer callback. It runs on the
/// calling thread and blocks inside `emit` when the shard window is full.
using ShardProducer = std::function<void(const CandidateShardFn& emit)>;

/// Runs `produce`'s candidate stream through the Dice kernels on a
/// shard pool, deciding every pair with `cutoffs`. Shards run
/// cache-blocked and land in per-shard buffers that are concatenated in
/// shard order after the last shard finishes, so `hits` is deterministic
/// for every (options.num_threads, scheduler) choice. Each shard's
/// expanded run sequence must ascend in (a, b) — every Stream*PairRuns
/// producer guarantees it — so hits can be restored to candidate order by
/// an (a, b) sort. Counts one `path="stream"` call into the
/// pprl_compare_* counters. Dice is the only measure linkage streams; the
/// plain rule `score >= t` is `DiceCutoffs(t, bits)`.
StreamCompareResult StreamCompareShards(const DiceCutoffs& cutoffs,
                                        const BitMatrix& a_matrix,
                                        const BitMatrix& b_matrix,
                                        const ParallelLinkageOptions& options,
                                        const ShardProducer& produce);

}  // namespace pprl

#endif  // PPRL_LINKAGE_PARALLEL_LINKAGE_H_
