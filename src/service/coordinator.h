#ifndef PPRL_SERVICE_COORDINATOR_H_
#define PPRL_SERVICE_COORDINATOR_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "net/fault_injection.h"
#include "net/retry.h"
#include "net/transport.h"
#include "service/server.h"

namespace pprl {

/// One worker daemon in a coordinator's ring.
struct WorkerEndpoint {
  std::string host = "127.0.0.1";
  uint16_t port = 0;

  /// "host:port" — the metering/metric label of this worker's link.
  std::string Label() const { return host + ":" + std::to_string(port); }
};

/// Parses one "host:port" endpoint; a bare "port" means 127.0.0.1. Rejects
/// an empty host and ports outside [1, 65535].
Result<WorkerEndpoint> ParseEndpoint(const std::string& entry);

/// Parses a "host:port,host:port,..." worker list (the --workers flag),
/// each entry by ParseEndpoint. Rejects empty entries.
Result<std::vector<WorkerEndpoint>> ParseWorkerList(const std::string& spec);

/// Configuration of the coordinator role on top of a linkage-unit daemon.
struct CoordinatorConfig {
  /// The worker ring, in partition-index order: workers[i] owns the block
  /// keys BlockPartitioner assigns to index i. Order is part of the
  /// partition geometry — list workers identically across restarts to
  /// reuse their shipments.
  std::vector<WorkerEndpoint> workers;
  /// Block-key partition scheme (kAuto: rendezvous up to 8 workers, the
  /// consistent-hash ring beyond).
  PartitionScheme scheme = PartitionScheme::kAuto;
  /// Retry policy of every coordinator -> worker delivery (shipments and
  /// partition assignments alike).
  RetryPolicy retry;
  ConnectOptions connect;
  /// Socket read timeout while awaiting one kPartitionResult: the worker
  /// computes its whole partition before replying.
  int assign_timeout_ms = 120000;
  /// Straggler quorum: proceed once this many worker partitions have been
  /// gathered and the rest have exhausted their retries. 0 requires every
  /// worker. A shortfall yields a *degraded* result (the failed workers'
  /// partitions are simply missing); partitions are not reassigned.
  size_t min_worker_partitions = 0;
  /// Preferred shipment chunk size towards workers (capped by each
  /// worker's advertised maximum).
  size_t chunk_bytes = 4u << 20;
  size_t max_frame_payload = kDefaultMaxFramePayload;
  /// Chaos mode on the worker links: every coordinator -> worker
  /// connection is wrapped in a FaultInjectingConnection (deterministic
  /// per worker and attempt).
  FaultSpec chaos;
};

/// The coordinator of a horizontally sharded linkage unit.
///
/// Owner-facing, it IS an ordinary `LinkageUnitServer`: owners dial it,
/// ship with the resumable chunk protocol and receive their summaries,
/// indistinguishable from a single daemon. The difference is behind the
/// linkage trigger: instead of comparing locally, the coordinator
///
///   1. *scatters* — re-ships every owner's registered database to each
///      worker daemon over the same fault-tolerant session protocol
///      (stop-and-wait chunks, resume on connection loss, BUSY backoff),
///   2. *assigns* — sends each worker its kAssignPartition (ring index,
///      scheme, blocking + threshold parameters) and awaits the
///      kPartitionResult carrying the partition's scored edges,
///   3. *gathers and merges* — sums the counters and sorts the
///      concatenated edges into the single-daemon order
///      (linkage/distributed.h), then clusters locally.
///
/// Because the canonical-key partition rule makes worker candidate sets
/// disjoint and their union equal to the single-daemon candidate list,
/// the merged result is bitwise-identical to one daemon's at any worker
/// count. Workers that fail all retries degrade the result (summaries
/// report workers_linked < workers_expected) when the quorum allows it.
class CoordinatorServer {
 public:
  CoordinatorServer(LinkageUnitServerConfig server_config,
                    CoordinatorConfig coordinator_config);
  ~CoordinatorServer();

  CoordinatorServer(const CoordinatorServer&) = delete;
  CoordinatorServer& operator=(const CoordinatorServer&) = delete;

  /// Starts the owner-facing daemon with the scatter/gather linker
  /// installed. Fails without at least one worker.
  Status Start();
  void Stop();

  /// See LinkageUnitServer::WaitUntilDone.
  Status WaitUntilDone(int timeout_ms) const;

  uint16_t port() const { return server_->port(); }
  uint16_t metrics_port() const { return server_->metrics_port(); }
  const std::string& name() const { return server_->name(); }
  size_t num_workers() const { return coordinator_.workers.size(); }

  /// The owner-facing daemon (owner channel, wire bytes, results).
  LinkageUnitServer& server() { return *server_; }
  const LinkageUnitServer& server() const { return *server_; }

  /// Metered coordinator -> worker traffic, kept separate from the
  /// owner-facing channel so the owner-side cost columns stay directly
  /// comparable with a single daemon's.
  Channel& worker_channel() { return worker_channel_; }

  /// Raw socket bytes on the worker links, frame headers included.
  size_t worker_wire_bytes_sent() const { return worker_wire_bytes_sent_.load(); }
  size_t worker_wire_bytes_received() const {
    return worker_wire_bytes_received_.load();
  }

  /// Worker-link retries beyond first attempts, summed over the run.
  size_t worker_retries() const { return worker_retries_.load(); }

 private:
  /// The DistributedLinker installed into the daemon: scatter, assign,
  /// gather, merge, cluster.
  Result<DistributedLinkOutcome> ScatterGatherLink(
      const LinkageUnitService& unit, const MultiPartyLinkageOptions& options);

  /// Drives one worker end to end: ships every database, then assigns the
  /// partition and returns the gathered result. Retries per `retry`.
  Result<PartitionResultMessage> DriveWorker(size_t worker_index,
                                             const LinkageUnitService& unit,
                                             const MultiPartyLinkageOptions& options);

  /// One kAssignPartition -> kPartitionResult exchange with retry/backoff
  /// (fresh connection per attempt; BUSY hints honoured). A result whose
  /// edges fail ValidatePartitionEdges against `database_sizes` counts as
  /// a failed attempt.
  Result<PartitionResultMessage> AssignWithRetry(
      size_t worker_index, const AssignPartitionMessage& assign,
      const std::vector<size_t>& database_sizes);

  LinkageUnitServerConfig server_config_;
  CoordinatorConfig coordinator_;
  std::unique_ptr<LinkageUnitServer> server_;
  Channel worker_channel_;
  std::atomic<size_t> worker_wire_bytes_sent_{0};
  std::atomic<size_t> worker_wire_bytes_received_{0};
  std::atomic<size_t> worker_retries_{0};
};

}  // namespace pprl

#endif  // PPRL_SERVICE_COORDINATOR_H_
