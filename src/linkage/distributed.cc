#include "linkage/distributed.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

namespace pprl {

Status ValidatePartitionEdges(const std::vector<MatchEdge>& edges,
                              const std::vector<size_t>& database_sizes) {
  for (size_t i = 0; i < edges.size(); ++i) {
    const MatchEdge& e = edges[i];
    const bool databases_ok =
        e.x.database < e.y.database && e.y.database < database_sizes.size();
    if (!databases_ok || e.x.record >= database_sizes[e.x.database] ||
        e.y.record >= database_sizes[e.y.database] || !std::isfinite(e.score) ||
        e.score < 0 || e.score > 1) {
      return Status::ProtocolViolation(
          "partition-result edge " + std::to_string(i) + " (" +
          std::to_string(e.x.database) + ":" + std::to_string(e.x.record) + ", " +
          std::to_string(e.y.database) + ":" + std::to_string(e.y.record) +
          ", score " + std::to_string(e.score) +
          ") is not an edge of the shipped databases with a score in [0, 1]");
    }
  }
  return Status::OK();
}

MergedPartitions MergeWorkerPartitions(std::vector<WorkerPartitionResult> parts) {
  MergedPartitions merged;
  size_t total_edges = 0;
  for (const WorkerPartitionResult& part : parts) total_edges += part.edges.size();
  merged.edges.reserve(total_edges);
  for (WorkerPartitionResult& part : parts) {
    merged.comparisons += part.comparisons;
    merged.candidate_pairs += part.candidate_pairs;
    merged.pruned_comparisons += part.pruned_comparisons;
    merged.edges.insert(merged.edges.end(),
                        std::make_move_iterator(part.edges.begin()),
                        std::make_move_iterator(part.edges.end()));
  }
  // Canonical order: the single-daemon Link() iterates database pairs
  // (d1, d2) in ascending nested-loop order and emits each pair's edges in
  // ascending (a, b) candidate order — so the global key is the database
  // pair first, the record indices second. Scores never participate — an
  // edge's endpoints are unique across the ring (disjoint partitions), so
  // the sort is a total order and the merge is deterministic for any
  // gather order.
  std::sort(merged.edges.begin(), merged.edges.end(),
            [](const MatchEdge& lhs, const MatchEdge& rhs) {
              if (lhs.x.database != rhs.x.database)
                return lhs.x.database < rhs.x.database;
              if (lhs.y.database != rhs.y.database)
                return lhs.y.database < rhs.y.database;
              if (lhs.x.record != rhs.x.record) return lhs.x.record < rhs.x.record;
              return lhs.y.record < rhs.y.record;
            });
  return merged;
}

}  // namespace pprl
