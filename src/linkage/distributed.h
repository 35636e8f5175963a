#ifndef PPRL_LINKAGE_DISTRIBUTED_H_
#define PPRL_LINKAGE_DISTRIBUTED_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "linkage/clustering.h"

namespace pprl {

/// One worker's gathered partition output, as decoded off the wire (or
/// produced in-process for tests). Mirrors PartitionLinkResult but is
/// independent of the pipeline layer so the merge stays a pure linkage
/// concern.
struct WorkerPartitionResult {
  uint32_t worker_index = 0;
  uint64_t comparisons = 0;
  uint64_t candidate_pairs = 0;
  uint64_t pruned_comparisons = 0;
  std::vector<MatchEdge> edges;
};

/// The coordinator-side merge of a gathered ring.
struct MergedPartitions {
  /// All workers' edges in the single-daemon path's canonical order:
  /// ascending (x.database, y.database, x.record, y.record). Because the
  /// canonical-key partition rule makes per-worker candidate sets
  /// disjoint, this is bitwise-identical to the edge list Link() produces
  /// over the same shipments.
  std::vector<MatchEdge> edges;
  uint64_t comparisons = 0;
  uint64_t candidate_pairs = 0;
  uint64_t pruned_comparisons = 0;
};

/// The coordinator's check of one gathered worker result, before the
/// merge: every edge must join two shipped databases in ascending order
/// (x.database < y.database < database_sizes.size()), name records below
/// their database's size, and carry a finite score in [0, 1].
/// ProtocolViolation names the first edge that fails, so a faulty worker
/// is retried like any other worker fault instead of handing clustering
/// an out-of-range record or a NaN score to sort.
Status ValidatePartitionEdges(const std::vector<MatchEdge>& edges,
                              const std::vector<size_t>& database_sizes);

/// Merges gathered worker results deterministically: concatenates the edge
/// lists, sorts them into the canonical single-path order, and sums the
/// counters. Input order does not matter — workers may be gathered in any
/// order (retries reorder them in practice).
MergedPartitions MergeWorkerPartitions(std::vector<WorkerPartitionResult> parts);

}  // namespace pprl

#endif  // PPRL_LINKAGE_DISTRIBUTED_H_
