#ifndef PPRL_LINKAGE_CLUSTERING_H_
#define PPRL_LINKAGE_CLUSTERING_H_

#include <cstdint>
#include <vector>

#include "common/bitvector.h"
#include "linkage/comparison.h"

namespace pprl {

/// A record reference in a multi-database setting.
struct RecordRef {
  uint32_t database = 0;
  uint32_t record = 0;

  friend bool operator==(const RecordRef& x, const RecordRef& y) {
    return x.database == y.database && x.record == y.record;
  }
  friend bool operator<(const RecordRef& x, const RecordRef& y) {
    return x.database != y.database ? x.database < y.database : x.record < y.record;
  }
};

/// A cluster of records believed to be the same entity.
using Cluster = std::vector<RecordRef>;

/// An edge between records of (possibly different) databases.
struct MatchEdge {
  RecordRef x;
  RecordRef y;
  double score = 0;
};

/// Connected-components clustering over match edges: the transitive closure
/// of pairwise matches. Fast but merges over-eagerly on chains.
///
/// Both clusterers return each cluster's members in RecordRef order and
/// the clusters ordered by their first member. They work on flat arrays
/// over the records the edges touch, numbered by one sort of the
/// endpoints, so their memory grows with the edges and never with a
/// record number an edge names.
std::vector<Cluster> ConnectedComponents(const std::vector<MatchEdge>& edges);

/// Star clustering: sorts records by how strongly they are connected (the
/// sum of their incident scores, added in edge order), makes the strongest
/// unassigned record a cluster centre (ties: the smaller RecordRef), and
/// assigns all its unassigned neighbours to it. Avoids the chain-merging
/// of connected components.
std::vector<Cluster> StarClustering(const std::vector<MatchEdge>& edges);

/// The linkage unit's clustering step, shared by the single daemon and the
/// coordinator's merge: StarClustering() when `star`, else
/// ConnectedComponents().
std::vector<Cluster> ClusterEdges(const std::vector<MatchEdge>& edges, bool star);

/// Incremental clustering for multi-party PPRL [43]: records arrive one at a
/// time (velocity!) and are compared against existing cluster
/// representatives only; a record joins the best cluster above `threshold`
/// or founds a new one. The representative is the bitwise majority of the
/// cluster's encodings.
class IncrementalClusterer {
 public:
  /// `similarity` compares an encoding against a cluster representative.
  IncrementalClusterer(double threshold, PairSimilarityFunction similarity);

  /// Inserts one encoded record; returns the cluster index it joined.
  ///
  /// Determinism rule (both overloads): candidate clusters are scanned in
  /// ascending cluster index and only a strictly better score displaces the
  /// current best, so ties on score join the LOWEST cluster index. Stream
  /// replays therefore reproduce the same assignment regardless of how the
  /// candidate set was produced, as long as it contains the best cluster.
  size_t Insert(const RecordRef& ref, const BitVector& encoding);

  /// Candidate-restricted insert: compares `encoding` only against the
  /// listed cluster indices (out-of-range entries ignored, duplicates
  /// deduplicated) instead of scanning every cluster — O(candidates), not
  /// O(clusters). Callers obtain candidates from a blocking index over the
  /// cluster representatives or members (e.g. blocking/lsh_index.h). When
  /// the candidate set contains the would-be winner of the full scan, the
  /// result is identical to the unrestricted overload.
  size_t Insert(const RecordRef& ref, const BitVector& encoding,
                const std::vector<size_t>& candidate_clusters);

  /// A cluster may only contain one record per database when
  /// `one_per_database` is set (entities appear at most once per source).
  void set_one_per_database(bool value) { one_per_database_ = value; }

  const std::vector<Cluster>& clusters() const { return clusters_; }

  /// Number of representative comparisons performed so far (the metric the
  /// E9 benchmark reports against batch re-linkage).
  size_t comparisons() const { return comparisons_; }

 private:
  void UpdateRepresentative(size_t cluster_index, const BitVector& encoding);

  /// Scores cluster `c` against `encoding` and updates the running best
  /// (strictly-better-only; see the determinism rule on Insert). Returns
  /// whether the cluster was actually compared.
  bool ConsiderCluster(size_t c, const RecordRef& ref, const BitVector& encoding,
                       double* best_score, size_t* best_cluster);

  /// Joins `best_cluster` when `best_score` clears the threshold, else
  /// founds a new cluster. Returns the cluster index.
  size_t Attach(const RecordRef& ref, const BitVector& encoding,
                double best_score, size_t best_cluster);

  double threshold_;
  PairSimilarityFunction similarity_;
  bool one_per_database_ = false;
  std::vector<Cluster> clusters_;
  std::vector<BitVector> representatives_;
  /// Per-cluster, per-position counts of one-bits, for majority voting.
  std::vector<std::vector<uint32_t>> bit_counts_;
  size_t comparisons_ = 0;
};

/// Subset matching across p databases [43]: returns the clusters that
/// contain records from at least `min_databases` distinct databases (e.g.
/// "patients seen in at least 3 of 5 hospitals").
std::vector<Cluster> ClustersInAtLeast(const std::vector<Cluster>& clusters,
                                       size_t min_databases);

}  // namespace pprl

#endif  // PPRL_LINKAGE_CLUSTERING_H_
