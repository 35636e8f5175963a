#ifndef PPRL_PIPELINE_PARTY_H_
#define PPRL_PIPELINE_PARTY_H_

#include <map>
#include <string>
#include <vector>

#include "blocking/partitioner.h"
#include "common/record.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "encoding/bloom_filter.h"
#include "encoding/clk_io.h"
#include "linkage/clustering.h"
#include "pipeline/channel.h"

namespace pprl {

/// Where a database owner's encodings go when shipped.
///
/// The owner only ever hands its `EncodedDatabase` to a sink; whether the
/// sink is the in-process linkage unit (`LocalLinkageUnitSink`) or a TCP
/// client talking to a remote daemon (`RemoteOwnerClient` in
/// service/client.h) is invisible to the owner. This keeps the dependency
/// arrow pointing the right way: the networked service layer implements
/// this interface, the pipeline never links against sockets.
class EncodingSink {
 public:
  virtual ~EncodingSink() = default;

  /// Accepts `owner`'s shipment. Implementations meter the transfer.
  virtual Status Deliver(const std::string& owner, const EncodedDatabase& encoded) = 0;
};

/// A database owner in a simulated multi-party deployment.
///
/// The class makes the survey's who-sees-what discipline *structural*: the
/// raw `Database` is private state with no accessor, and the only outbound
/// method ships encodings through the metered `Channel`. Protocol code that
/// wants a party's QIDs simply cannot get them.
class DatabaseOwner {
 public:
  DatabaseOwner(std::string name, Database database);

  /// Local pre-processing + encoding step (nothing leaves the machine).
  Status Encode(const ClkEncoder& encoder);

  /// Ships the encodings to `recipient` over `channel` (metered). Encode()
  /// must have run.
  Result<EncodedDatabase> ShipEncodings(Channel& channel,
                                        const std::string& recipient) const;

  /// Ships the encodings into `sink` — the transport-agnostic path; the
  /// sink may be local (LocalLinkageUnitSink) or a remote socket client.
  Status ShipEncodings(EncodingSink& sink) const;

  const std::string& name() const { return name_; }
  size_t size() const { return database_.records.size(); }

  /// Evaluation-only escape hatch: ground-truth entity ids (never used by
  /// protocol code; the evaluator needs them to score results).
  std::vector<uint64_t> EntityIdsForEvaluation() const;

 private:
  std::string name_;
  Database database_;
  std::vector<BitVector> filters_;
  bool encoded_ = false;
};

/// Options for the linkage unit's multi-database run.
struct MultiPartyLinkageOptions {
  double dice_threshold = 0.8;
  /// Hamming-LSH blocking across every database pair.
  size_t lsh_tables = 20;
  size_t lsh_bits_per_key = 18;
  uint64_t lsh_seed = 42;
  /// If true, clusters come from star clustering; else connected components.
  bool use_star_clustering = true;
  /// Threads for the index builds and candidate-range tasks
  /// (linkage/parallel_linkage.h) of Link() and LinkPartition() alike. 1
  /// runs every task inline on the calling thread; >1 runs them on one
  /// shard pool for the call. Results are identical at any thread count.
  size_t num_threads = 1;
  /// Borrowed long-lived shard pool (e.g. the daemon's, shared across
  /// concurrent sessions). Overrides num_threads when set.
  ShardScheduler* scheduler = nullptr;
};

/// Result of a multi-database linkage run at the linkage unit.
struct MultiPartyLinkageResult {
  /// Clusters over (database index, record index) references, in the order
  /// the owners registered.
  std::vector<Cluster> clusters;
  /// The pairwise match edges behind the clusters.
  std::vector<MatchEdge> edges;
  size_t comparisons = 0;
  size_t candidate_pairs = 0;
  /// Of `comparisons`, pairs answered by the Dice cardinality bound alone
  /// (the comparison kernels never ran their word loop for these).
  size_t pruned_comparisons = 0;
};

/// One worker's slice of a horizontally sharded linkage run: which index
/// it holds in a ring of how many, under which block-id partition scheme.
struct PartitionSpec {
  uint32_t worker_index = 0;
  uint32_t num_workers = 1;
  PartitionScheme scheme = PartitionScheme::kAuto;
};

/// The compare+classify output of one worker's partition: every scored
/// edge of the candidate pairs this worker owns (threshold applied, same
/// tolerance semantics as Link()), sorted by (database pair, a, b), plus
/// the partition's share of the global counters. Summing the counters and
/// merging the edge lists over a full ring reproduces Link()'s totals and
/// edge order exactly (see linkage/distributed.h).
struct PartitionLinkResult {
  std::vector<MatchEdge> edges;
  size_t comparisons = 0;
  size_t candidate_pairs = 0;
  size_t pruned_comparisons = 0;
};

/// The linkage unit of a star-topology deployment: owners ship encodings
/// in; the unit blocks, compares, and clusters across all databases. It
/// never sees a quasi-identifier.
class LinkageUnitService {
 public:
  explicit LinkageUnitService(std::string name);

  /// Registers a shipment from `owner`. Owners must send equal-length
  /// filters; the first shipment fixes the length.
  Status Receive(const std::string& owner, EncodedDatabase encoded);

  /// Runs pairwise blocking + matching + clustering over all received
  /// databases. Needs >= 2 shipments and LSH geometry that passes
  /// ValidateLshGeometry() (InvalidArgument otherwise).
  Result<MultiPartyLinkageResult> Link(const MultiPartyLinkageOptions& options) const;

  /// Worker-role step of a sharded run: compares only the candidate pairs
  /// this worker owns under the canonical-key partition rule
  /// (blocking/partitioner.h) and returns their scored edges — no
  /// clustering, which stays global at the coordinator. Link() runs the
  /// same blocking and compare code as a one-worker partition.
  /// Deterministic: the LSH band indexes are rebuilt from
  /// options.lsh_seed, so every process holding the same shipments
  /// computes the same partition.
  Result<PartitionLinkResult> LinkPartition(const MultiPartyLinkageOptions& options,
                                            const PartitionSpec& spec) const;

  const std::string& name() const { return name_; }
  size_t num_databases() const { return owners_.size(); }

  /// Owner names in registration order, and their shipments in the same
  /// order — the coordinator reads these to scatter databases to workers.
  const std::vector<std::string>& owners() const { return owners_; }
  const std::vector<EncodedDatabase>& databases() const { return databases_; }

 private:
  std::string name_;
  std::vector<std::string> owners_;
  std::vector<EncodedDatabase> databases_;
};

/// The in-process EncodingSink: delivers straight into a
/// `LinkageUnitService`, metering through `channel` exactly as the
/// Channel-based ShipEncodings overload does. The reference cost model
/// that the socket path must reproduce byte-for-byte.
class LocalLinkageUnitSink : public EncodingSink {
 public:
  LocalLinkageUnitSink(Channel& channel, LinkageUnitService& unit)
      : channel_(channel), unit_(unit) {}

  Status Deliver(const std::string& owner, const EncodedDatabase& encoded) override;

 private:
  Channel& channel_;
  LinkageUnitService& unit_;
};

}  // namespace pprl

#endif  // PPRL_PIPELINE_PARTY_H_
