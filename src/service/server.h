#ifndef PPRL_SERVICE_SERVER_H_
#define PPRL_SERVICE_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "net/fault_injection.h"
#include "io/ingest.h"
#include "linkage/online_linkage.h"
#include "net/metrics_http.h"
#include "net/transport.h"
#include "pipeline/party.h"
#include "service/durability.h"
#include "service/protocol.h"

namespace pprl {

/// Outcome of a pluggable (distributed) linkage strategy: the linkage
/// result plus the worker complement that actually contributed.
/// workers_linked < workers_expected marks a straggler-quorum run whose
/// result is degraded (some partitions' pairs are missing).
struct DistributedLinkOutcome {
  MultiPartyLinkageResult result;
  uint32_t workers_linked = 0;
  uint32_t workers_expected = 0;
};

/// Pluggable linkage strategy: given the unit's registered shipments and
/// the effective link options, produce the linkage result. The
/// coordinator role (service/coordinator.h) installs its scatter/gather
/// linker here, reusing the daemon's whole session machinery unchanged.
using DistributedLinker = std::function<Result<DistributedLinkOutcome>(
    const LinkageUnitService&, const MultiPartyLinkageOptions&)>;

/// Configuration of a linkage-unit daemon.
struct LinkageUnitServerConfig {
  std::string name = "linkage-unit";
  /// 0 binds an ephemeral port; read it back via port() after Start().
  uint16_t port = 0;
  /// Loopback-only by default: exposing a linkage unit beyond localhost is
  /// a deployment decision, not a default.
  bool loopback_only = true;
  /// The unit links once exactly this many distinct owners have shipped
  /// (unless the quorum option below kicks in first).
  size_t expected_owners = 2;
  MultiPartyLinkageOptions link_options;
  /// Workers in the daemon's shared shard pool, one per core by default.
  /// >1 runs the index builds and candidate-range tasks of every Link()
  /// and LinkPartition() this daemon runs on it (overriding
  /// link_options.num_threads/scheduler); concurrent runs share the same
  /// workers, each tracking its own completion. 1 runs them inline on the
  /// session thread. Only the single-daemon and worker roles start the
  /// pool: the online role and a coordinator front (distributed_linker
  /// set) never call Link() or LinkPartition() themselves. Results do not
  /// depend on it. Start() refuses more than ShardScheduler::kMaxThreads.
  size_t link_threads = ShardScheduler::HardwareThreads();
  /// Per-socket read/write timeout while a session is active. It does not
  /// bound shutdown: Stop() ends every idle read at once.
  int io_timeout_ms = 30000;
  size_t max_frame_payload = kDefaultMaxFramePayload;
  /// Port of the Prometheus /metrics side endpoint: -1 disables it, 0
  /// binds an ephemeral port (read back via metrics_port()), anything else
  /// binds that port. The endpoint honours loopback_only.
  int metrics_port = -1;

  // --- Robustness (session resume + overload shedding) ---

  /// Concurrent connections the daemon will serve, each on its own
  /// thread; arrivals beyond this are shed with a kBusy frame from the
  /// accept thread, before any thread starts. 0 derives
  /// 2 * expected_owners + 2, which leaves room for every owner plus a
  /// resumed straggler each.
  size_t max_sessions = 0;
  /// An unattached session that has not registered its shipment is swept
  /// after this much idle time — its partial buffer is freed and a later
  /// kResume is answered with kNotFound (the owner starts over). The
  /// accept loop wakes every quarter of this (or of quorum_wait_ms when
  /// the quorum option is armed, whichever is smaller), 10-100 ms.
  int session_ttl_ms = 60000;
  /// Hard wall-clock bound from a session's creation to its shipment
  /// completing, across any number of resumes.
  int session_deadline_ms = 120000;
  /// Cap on bytes reserved for in-flight shipment buffers. A hello whose
  /// declared shipment would exceed it is shed with kBusy.
  size_t max_buffered_bytes = 256u << 20;
  /// Retry hint carried in kBusy frames.
  int busy_retry_after_ms = 200;
  /// Largest data span accepted in one kShipmentChunk (advertised in the
  /// HelloAck).
  uint32_t max_chunk_bytes = 4u << 20;
  /// When non-empty, every registered shipment is also persisted to this
  /// directory (which must exist) as "<party>.pclk" or "<party>.csv" per
  /// spool_format, before the linkage consumes it — an audit/replay trail
  /// of exactly what each owner shipped. Spooling is best-effort: a failed
  /// write is logged and counted, never fails the session.
  std::string spool_dir;
  /// On-disk format of spooled shipments (kAuto means kPclk).
  io::ShardFileFormat spool_format = io::ShardFileFormat::kPclk;
  /// Quorum option: when 2 <= min_owners < expected_owners (batch role
  /// only), the unit links with the owners it has once quorum_wait_ms
  /// passes with no new registration — a degraded run, flagged in every
  /// result summary. 0 (or >= expected_owners) disables the option: all
  /// owners required.
  size_t min_owners = 0;
  int quorum_wait_ms = 5000;
  /// Chaos mode: when enabled(), every accepted connection is wrapped in
  /// a FaultInjectingConnection with a seed derived from `chaos.seed` and
  /// the connection's accept index, so runs replay deterministically.
  FaultSpec chaos;

  // --- Horizontal sharding (coordinator/worker roles) ---

  /// Worker role: the daemon accepts shipments exactly like an
  /// owner-facing unit but never links on its own (the quorum option is
  /// ignored). It answers kAssignPartition control frames from a
  /// coordinator by computing the assigned slice of the candidate space
  /// (LinkageUnitService::LinkPartition) and replying kPartitionResult.
  /// Owner sessions get their shipment acks but no results frame.
  bool worker_mode = false;
  /// When set, RunLinkage delegates to this strategy instead of calling
  /// unit_.Link() directly; the outcome's worker complement flows into
  /// every owner's result summary.
  DistributedLinker distributed_linker;

  // --- Online serving (protocol v4) ---

  /// Online role: instead of the one-shot ship -> link -> results
  /// lifecycle, the daemon feeds every shipment into an incrementally
  /// maintained `OnlineLinkageEngine` and then serves kAppendRecords /
  /// kQuery frames on the same session until the owner disconnects. There
  /// is no batch linkage run and no kResults frame; the daemon runs until
  /// stopped. A hello with record_count = 0 opens a query-only session.
  /// Incompatible with worker_mode and distributed_linker. The engine's
  /// threshold and LSH geometry come from link_options, so query scores
  /// and the served partition match what a batch run over the same
  /// shipments would produce (connected-components clustering).
  bool online_mode = false;

  // --- Durability (online role only) ---

  /// When non-empty, the online engine becomes durable: every absorbed
  /// record is journaled to a WAL segment in this directory before it is
  /// applied and acked, Start() recovers checkpoint + WAL replay, and
  /// Stop() writes a final checkpoint. Empty keeps the engine purely
  /// in-memory (pre-durability behaviour).
  std::string wal_dir;
  /// Checkpoint directory; empty defaults to wal_dir.
  std::string checkpoint_dir;
  /// Group-commit window for WAL fsyncs (<= 0 syncs every append).
  int wal_sync_ms = 50;
  /// Checkpoint after this many journaled operations (0 = only on Stop()).
  uint64_t checkpoint_every_n = 100000;
};

/// The linkage unit as a daemon: accepts owner connections over TCP,
/// speaks the framed protocol (service/protocol.h), feeds shipments into
/// the existing `LinkageUnitService`, runs the multi-party linkage once
/// every expected owner has shipped, and answers each owner with its
/// per-owner summary.
///
/// Fault tolerance: each hello opens a server-side *session* that
/// outlives its TCP connection. Shipments arrive as checksummed chunks
/// applied idempotently at acked offsets; if the connection dies the
/// owner resumes the session on a fresh connection and continues from
/// the acked cursor. Overload is shed with kBusy frames rather than
/// stalled accepts, and the quorum option lets the unit degrade to a
/// partial linkage instead of waiting forever for a lost owner.
///
/// All traffic is metered into channel() with the same route/tag
/// accounting as the in-process pipelines, so communication-cost columns
/// in benchmarks are directly comparable. Frame headers and the fixed
/// per-chunk header are excluded from the channel and reported separately
/// via wire_bytes_received()/sent().
class LinkageUnitServer {
 public:
  explicit LinkageUnitServer(LinkageUnitServerConfig config);
  ~LinkageUnitServer();

  LinkageUnitServer(const LinkageUnitServer&) = delete;
  LinkageUnitServer& operator=(const LinkageUnitServer&) = delete;

  /// Binds, listens and starts the accept loop. Non-blocking.
  Status Start();

  /// Stops accepting, ends every session's pending read (a request already
  /// in flight still finishes and is acked; the next read sees end of
  /// stream) and joins every session thread — so the wire-byte counters
  /// are final when it returns — then writes the final checkpoint of a
  /// durable online engine. Sessions already past their shipment still
  /// receive results if the linkage can run; waiting sessions are failed.
  /// Idempotent.
  void Stop();

  /// Blocks until the linkage has run and every *linked* owner got its
  /// results (or `timeout_ms` elapsed; <= 0 waits forever). OK once done.
  Status WaitUntilDone(int timeout_ms) const;

  /// The bound port (valid after Start()).
  uint16_t port() const { return listener_.port(); }

  /// The bound port of the /metrics endpoint (0 when disabled).
  uint16_t metrics_port() const {
    return metrics_server_ ? metrics_server_->port() : 0;
  }

  const std::string& name() const { return config_.name; }

  /// The concurrent-session limit in effect (config or derived default).
  size_t max_sessions() const;

  /// The metered protocol traffic (payload bytes by route and tag).
  Channel& channel() { return channel_; }
  const Channel& channel() const { return channel_; }

  /// Raw socket bytes in each direction, frame headers included.
  size_t wire_bytes_received() const { return wire_bytes_received_.load(); }
  size_t wire_bytes_sent() const { return wire_bytes_sent_.load(); }

  /// The linkage outcome; FailedPrecondition before the run happened.
  Result<MultiPartyLinkageResult> result() const;

  /// Owner names in shipment order (the database order of result()).
  std::vector<std::string> owner_order() const;

  /// True once the linkage ran without the full owner complement (quorum)
  /// or, for a distributed run, without the full worker complement.
  bool linkage_degraded() const;

  /// Worker complement of a distributed run (0/0 for single-daemon runs).
  uint32_t workers_linked() const;
  uint32_t workers_expected() const;

  /// True when the online engine journals to a WAL (config_.wal_dir set).
  bool durable() const { return durability_ != nullptr; }

  /// What Start()'s recovery found (all-zero when durability is off or no
  /// prior state existed). Valid after Start() returned OK.
  const RecoveryReport& recovery_report() const { return recovery_report_; }

 private:
  /// One owner's server-side shipment state. Lives in sessions_ under
  /// mutex_ and survives connection loss until swept or the server stops.
  struct ServerSession {
    uint64_t id = 0;
    std::string party;
    uint32_t filter_bits = 0;
    uint32_t record_count = 0;
    ShipmentAssembler assembler;
    /// Shipment handed to the linkage unit (assembler buffer discarded).
    bool registered = false;
    bool results_delivered = false;
    uint32_t database_index = 0;
    /// A connection is currently serving this session.
    bool attached = false;
    std::chrono::steady_clock::time_point last_activity;
    std::chrono::steady_clock::time_point deadline;
  };

  /// One admitted connection and the thread serving it, from admission
  /// until the accept loop or Stop() joins the thread.
  struct SessionThread {
    std::unique_ptr<TcpConnection> conn;
    std::thread thread;
    /// The handler has closed `conn` and is returning. Guarded by
    /// threads_mutex_.
    bool done = false;
  };

  void AcceptLoop();
  /// True when the batch quorum option can fire.
  bool QuorumArmed() const;
  /// Joins the threads whose handlers have returned.
  void JoinFinishedSessions();
  /// The session thread's body. Every exit closes `conn` and accounts it
  /// exactly once.
  void HandleSession(TcpConnection* conn, uint64_t conn_index);
  /// Receives shipment chunks for `session_id` until the shipment is
  /// registered. Returns false if the session cannot proceed (fault,
  /// protocol error, deadline) — the caller just closes the connection.
  bool ReceiveShipment(MeteredFrameConnection& mfc, uint64_t session_id);
  /// Marks `session`'s shipment registered as database `database_index`:
  /// owner order, buffer reservation, metrics. mutex_ held.
  void RegisterShipmentLocked(ServerSession& session, uint32_t database_index);
  /// Waits for the linkage and delivers this session's results. Returns
  /// true once the results frame reached the wire.
  bool DeliverResults(MeteredFrameConnection& mfc, uint64_t session_id);
  /// Worker role: answers a coordinator's kAssignPartition control frame
  /// with the partition's kPartitionResult (or kBusy while owner
  /// shipments are still missing).
  void HandleAssignPartition(MeteredFrameConnection& mfc, const Frame& first);
  /// Online role: serves kAppendRecords / kQuery frames on an established
  /// session until the connection closes (session stays resumable) or a
  /// protocol error fails it.
  void ServeOnline(MeteredFrameConnection& mfc, uint64_t session_id);
  /// Online role: the one append rule, for kAppendRecords batches and
  /// bulk shipments (base 0) alike. Under append_mutex_ it reads `party`'s
  /// record cursor, rejects a gap (`base_index` beyond the cursor), skips
  /// the retransmitted prefix and applies the tail — journaled through
  /// DurableAppend, or RegisterDatabase plus Append in memory. Returns the
  /// party's cursor after the append and sets `*database_index`. Called
  /// WITHOUT mutex_ held: a bulk append is per-record indexed work that
  /// can run for seconds.
  Result<uint64_t> AppendOnline(const std::string& party, const EncodedDatabase& records,
                                uint64_t base_index, uint32_t* database_index);
  /// Sends an error frame (best effort) and records the session failure.
  void FailSession(MeteredFrameConnection& mfc, const Status& status);
  /// Sends a kBusy frame (best effort) and counts the shed.
  void SendBusy(MeteredFrameConnection& mfc, const std::string& reason);
  /// Sheds a connection from the accept thread before it gets a handler.
  void ShedOnAccept(TcpConnection& conn, const std::string& reason);
  /// Drops expired sessions and fires the quorum option when armed.
  void SweepSessions();
  /// Runs the linkage exactly once; callers hold no lock. With
  /// `allow_partial`, runs with the quorum the unit currently has.
  void RunLinkage(bool allow_partial);
  /// Persists a registered shipment to config_.spool_dir (best effort).
  void SpoolShipment(const std::string& party, const EncodedDatabase& encoded);
  /// Erases a session and releases its buffer reservation. mutex_ held.
  void EraseSessionLocked(uint64_t session_id);

  LinkageUnitServerConfig config_;
  TcpListener listener_;
  std::thread accept_thread_;
  /// Admitted connections by accept index; at most max_sessions() entries.
  /// Handlers only set their own entry's `done`; the accept loop adds and
  /// erases entries, and Stop() joins them once the accept loop is gone.
  std::mutex threads_mutex_;
  std::map<uint64_t, SessionThread> session_threads_;
  /// Shared shard pool of Link() and LinkPartition() (set when
  /// link_threads > 1 in the single-daemon and worker roles).
  std::unique_ptr<ShardScheduler> link_scheduler_;
  std::unique_ptr<MetricsHttpServer> metrics_server_;
  Channel channel_;

  mutable std::mutex mutex_;
  mutable std::condition_variable linkage_done_;
  LinkageUnitService unit_;
  /// Online role only; created at the first hello (which fixes the filter
  /// length). Thread-safe internally — ServeOnline calls it WITHOUT
  /// holding mutex_, so queries from concurrent sessions never serialize
  /// behind each other or behind appends.
  std::unique_ptr<OnlineLinkageEngine> online_;
  /// Online durability layer (set iff config_.wal_dir is non-empty).
  /// Serializes journal+apply internally; never held together with mutex_.
  std::unique_ptr<OnlineDurability> durability_;
  /// Recovery outcome of the last Start() (valid when durability_ is set).
  RecoveryReport recovery_report_;
  /// Serializes every append into online_ — v4 batches and bulk
  /// shipments — from the cursor read through the apply, so each record
  /// is applied exactly once however many sessions of a party send it.
  /// Queries never take it. Never held together with mutex_.
  std::mutex append_mutex_;
  std::map<uint64_t, ServerSession> sessions_;
  uint64_t next_session_id_ = 1;
  /// Bytes reserved by in-flight shipment buffers (admission control).
  size_t buffered_bytes_ = 0;
  std::chrono::steady_clock::time_point last_registration_;
  std::vector<std::string> owner_order_;
  uint32_t expected_filter_bits_ = 0;
  bool linkage_ran_ = false;
  /// Owners included in the linkage run (== owner_order_.size() then).
  size_t linked_owners_ = 0;
  /// Worker complement of a distributed run (both 0 when single-daemon).
  uint32_t workers_linked_ = 0;
  uint32_t workers_expected_ = 0;
  bool linkage_degraded_ = false;
  Status linkage_status_;
  MultiPartyLinkageResult linkage_result_;
  size_t results_delivered_ = 0;

  std::atomic<bool> stopping_{false};
  std::atomic<bool> started_{false};
  std::atomic<uint64_t> accepted_connections_{0};
  std::atomic<size_t> wire_bytes_received_{0};
  std::atomic<size_t> wire_bytes_sent_{0};
};

}  // namespace pprl

#endif  // PPRL_SERVICE_SERVER_H_
