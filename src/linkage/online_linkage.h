#ifndef PPRL_LINKAGE_ONLINE_LINKAGE_H_
#define PPRL_LINKAGE_ONLINE_LINKAGE_H_

#include <cstdint>
#include <optional>
#include <shared_mutex>
#include <string>
#include <vector>

#include <memory>

#include "blocking/lsh_index.h"
#include "common/bitvector.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "encoding/clk_io.h"
#include "io/checkpoint.h"
#include "linkage/clustering.h"
#include "linkage/comparison.h"
#include "obs/metrics.h"

namespace pprl {

/// Tuning of the online serving path. The LSH and threshold fields default
/// to the same values as `MultiPartyLinkageOptions`, which is what makes
/// the stream/batch parity guarantee hold out of the box.
struct OnlineLinkageOptions {
  double dice_threshold = 0.8;
  size_t lsh_tables = 20;
  size_t lsh_bits_per_key = 18;
  uint64_t lsh_seed = 42;
  /// Default cap on matches returned per query when the caller passes
  /// top_k = 0.
  size_t max_matches_per_query = 16;
};

/// One match returned by a link query.
struct OnlineMatch {
  uint32_t database = 0;
  uint32_t record = 0;
  uint64_t id = 0;  ///< the record id the owner appended with
  double score = 0;
};

/// Result of one link query.
struct OnlineQueryResult {
  /// Accepted matches, best first (descending score, ties by ascending
  /// (database, record)), capped at top_k.
  std::vector<OnlineMatch> matches;
  /// LSH candidates scored for this query (cost transparency).
  uint32_t candidates = 0;
  /// Cluster of the best match, when clusters were requested and the best
  /// match is in a multi-record cluster; else kNoCluster/0. Cluster ids are
  /// indices into the canonical sorted partition (see Clusters()).
  uint32_t cluster_id = UINT32_MAX;
  uint32_t cluster_size = 0;
};

/// The streaming counterpart of `LinkageUnitService::Link` (ROADMAP
/// "velocity" item): records arrive one at a time, each is linked against
/// the already-indexed population in O(candidates) — LSH probe, fused
/// kernel scoring, union-find attach — instead of re-linking the world.
///
/// ## Stream/batch equivalence
///
/// With equal (threshold, LSH geometry, seed), the engine's partition
/// equals a batch `Link()` with `use_star_clustering = false` over the same
/// data, REGARDLESS of arrival order:
///  - Edge set: the batch edge set is {cross-database pairs colliding in
///    >= 1 LSH table with kernel score >= threshold}. Collisions and scores
///    depend only on record content, and the engine considers each
///    unordered pair exactly once — when its later record arrives and
///    probes the index holding the earlier one. So the engine's accepted
///    edges are exactly the batch edges.
///  - Partition: connected components are independent of edge order, and
///    the materialized clusters are sorted (members, then clusters
///    lexicographically) exactly like `ConnectedComponents`, so cluster
///    indices agree too. Records with no accepted edge are singletons and
///    are excluded, again like the batch path.
///
/// Tie-breaking therefore never influences the partition; the
/// deterministic lowest-cluster-index rule of `IncrementalClusterer`
/// matters only for representative-based (star-like) maintenance, which
/// this engine deliberately does not use.
///
/// ## Concurrency
///
/// All public methods are thread-safe. Appends take an exclusive lock;
/// queries that do not ask for cluster info run under a shared lock and
/// never write (the partition cache is only rebuilt under the exclusive
/// lock), so read-mostly query traffic scales without contention.
class OnlineLinkageEngine {
 public:
  static constexpr uint32_t kNoCluster = UINT32_MAX;
  static constexpr uint32_t kNoDatabase = UINT32_MAX;

  OnlineLinkageEngine(size_t filter_bits, OnlineLinkageOptions options = {});

  /// Registers (or finds) a database by owner name; indices are assigned in
  /// first-registration order, which must match the batch run's shipment
  /// order for cluster-id parity.
  uint32_t RegisterDatabase(const std::string& name);

  /// Index of a previously registered database.
  std::optional<uint32_t> FindDatabase(const std::string& name) const;

  /// Links one arriving record into the population: indexes it, scores its
  /// LSH candidates from other databases, attaches accepted edges.
  /// Returns the record's index within its database. While every indexed
  /// row belongs to `database`, no candidate can survive the
  /// cross-database rule and the probe is skipped.
  Result<uint32_t> Append(uint32_t database, uint64_t id, const BitVector& filter);

  /// The WAL replay path: appends record i of `rows` to `databases[i]`,
  /// for every i in order, leaving the rows, registry, partition, edges()
  /// and comparisons() exactly as that many Append() calls would. It
  /// indexes the run with LshBandIndex::AppendRows, scores every row's
  /// candidates (the earlier rows of other databases it collides with)
  /// with CompareRanges on `scheduler` (inline when null), then unions the
  /// hits serially in (row, candidate) order, which is the order the
  /// per-record path unions them in. Rows ahead of the first row with an
  /// earlier row of another database are not probed. Nothing is applied
  /// when a database is unregistered, a filter width differs from the
  /// engine's or the lengths disagree (InvalidArgument). Replayed records
  /// are not observed in pprl_index_insert_seconds.
  Status AppendRun(const std::vector<uint32_t>& databases, const EncodedShard& rows,
                   ShardScheduler* scheduler);

  /// Link query: matches of `filter` against the indexed population,
  /// without inserting anything. `exclude_database` (use kNoDatabase for
  /// none) drops candidates of the caller's own database, mirroring the
  /// batch path's cross-database-only comparisons. `top_k = 0` means the
  /// configured default cap. `want_clusters` additionally resolves the
  /// best match's cluster (may rebuild the partition cache: exclusive
  /// instead of shared lock).
  Result<OnlineQueryResult> Query(const BitVector& filter,
                                  uint32_t exclude_database, bool want_clusters,
                                  size_t top_k);

  /// The canonical partition: clusters of size >= 2, members sorted,
  /// clusters sorted — element-for-element equal to the batch
  /// `MultiPartyLinkageResult::clusters` with connected-components
  /// clustering. Cluster ids in query results index into this vector.
  std::vector<Cluster> Clusters();

  size_t filter_bits() const { return index_.filter_bits(); }
  size_t size() const;                            ///< total records indexed
  size_t database_count() const;
  size_t record_count(uint32_t database) const;   ///< records of one database
  /// By value: a reference into database_names_ could dangle across a
  /// concurrent RegisterDatabase reallocation once the lock drops.
  std::string database_name(uint32_t database) const;

  uint64_t edges() const;        ///< accepted match edges so far
  uint64_t comparisons() const;  ///< candidate pairs scored by appends

  /// Serializes the engine's full durable state — rows, database registry,
  /// union-find partition, LSH band checksum — as a checkpoint snapshot
  /// covering WAL records up to `wal_sequence`. Takes the shared lock:
  /// concurrent queries proceed; appends wait only for the memory copy,
  /// never for the checkpoint file write.
  io::OnlineSnapshot ExportSnapshot(uint64_t wal_sequence) const;

  /// Rebuilds an engine from a decoded checkpoint: restores the registry
  /// and partition and re-appends every row into a fresh LSH index (band
  /// tables are a deterministic function of the row sequence), verifying
  /// the rebuild against the snapshot's band checksum so geometry or seed
  /// drift fails loudly instead of silently changing the collision
  /// relation. Engine options (threshold, LSH geometry) come from the
  /// snapshot; `serving` carries the non-durable serving knobs. The index
  /// is rebuilt by LshBandIndex::AppendRows on `scheduler` (inline when
  /// null).
  static Result<std::unique_ptr<OnlineLinkageEngine>> FromSnapshot(
      const io::OnlineSnapshot& snapshot, const OnlineLinkageOptions& serving,
      ShardScheduler* scheduler = nullptr);

 private:
  struct RowMeta {
    uint32_t record = 0;
    uint64_t id = 0;
  };

  uint32_t Find(uint32_t row);                  ///< union-find with halving
  void Union(uint32_t a, uint32_t b);
  /// Records one accepted edge: union plus the linked/edge bookkeeping.
  void AttachLocked(uint32_t a, uint32_t b);
  void RefreshPartitionLocked();
  OnlineQueryResult QueryLocked(const BitVector& filter,
                                uint32_t exclude_database, bool want_clusters,
                                size_t top_k) const;

  const OnlineLinkageOptions options_;
  LshBandIndex index_;
  ComparisonEngine engine_;
  /// The linkage unit's accept rule at options_.dice_threshold, built once
  /// here and shared by every Append and Query.
  const DiceCutoffs cutoffs_;

  mutable std::shared_mutex mutex_;
  std::vector<RowMeta> meta_;
  std::vector<uint32_t> row_database_;  ///< database of each row
  std::vector<std::string> database_names_;
  std::vector<uint32_t> database_sizes_;
  std::vector<uint32_t> parent_;   ///< union-find over row ids
  std::vector<bool> linked_;       ///< row has >= 1 accepted edge
  uint64_t edges_ = 0;
  uint64_t comparisons_ = 0;

  /// Lazily maintained canonical partition (see Clusters()); row_cluster_
  /// maps each row to its cluster id or kNoCluster.
  bool partition_dirty_ = false;
  std::vector<Cluster> clusters_cache_;
  std::vector<uint32_t> row_cluster_;

  /// Scratch for Append's probe/pair building; guarded by the exclusive lock.
  std::vector<uint32_t> append_scratch_;
  std::vector<CandidatePair> pair_scratch_;

  obs::Histogram& insert_seconds_;
  obs::Histogram& query_seconds_;
  obs::Gauge& index_size_;
};

}  // namespace pprl

#endif  // PPRL_LINKAGE_ONLINE_LINKAGE_H_
