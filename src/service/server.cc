#include "service/server.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <string>
#include <system_error>

#include "blocking/lsh_blocking.h"
#include "common/logging.h"
#include "net/frame.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/stage_timer.h"

namespace pprl {

namespace {

/// Daemon-side service metrics (see docs/OBSERVABILITY.md for the full
/// catalogue). Message counters are labelled with the same tags the
/// channel uses, so the two views cross-check.
struct ServiceMetrics {
  obs::Counter& sessions = obs::GlobalMetrics().GetCounter(
      "pprl_service_sessions_total", "Owner connections accepted by the daemon");
  obs::Counter& sessions_failed = obs::GlobalMetrics().GetCounter(
      "pprl_service_sessions_failed_total",
      "Sessions ended with an error frame or lost peer");
  obs::Gauge& active_sessions = obs::GlobalMetrics().GetGauge(
      "pprl_service_active_sessions", "Connections currently being handled");
  obs::Counter& linkage_runs = obs::GlobalMetrics().GetCounter(
      "pprl_service_linkage_runs_total", "Linkage runs triggered by the daemon");
  obs::Counter& degraded_linkages = obs::GlobalMetrics().GetCounter(
      "pprl_service_degraded_linkages_total",
      "Linkage runs that proceeded on quorum without every expected owner");
  obs::Counter& scrapes = obs::GlobalMetrics().GetCounter(
      "pprl_metrics_scrapes_total", "Snapshots served by the /metrics endpoint");
  obs::Histogram& session_seconds = obs::GlobalMetrics().GetHistogram(
      "pprl_service_session_seconds",
      "Wall time of one owner connection, accept to close",
      obs::DefaultLatencyBuckets());

  // Resumable-session bookkeeping.
  obs::Counter& session_created = obs::GlobalMetrics().GetCounter(
      "pprl_session_created_total", "Sessions opened by a hello");
  obs::Counter& session_resumed = obs::GlobalMetrics().GetCounter(
      "pprl_session_resumed_total",
      "Successful session re-attachments after connection loss");
  obs::Counter& session_expired = obs::GlobalMetrics().GetCounter(
      "pprl_session_expired_total", "Idle partial sessions swept by the TTL");
  obs::Counter& session_completed = obs::GlobalMetrics().GetCounter(
      "pprl_session_completed_total",
      "Sessions whose shipment registered with the linkage unit");
  obs::Counter& session_chunks = obs::GlobalMetrics().GetCounter(
      "pprl_session_chunks_total", "Shipment chunks applied");
  obs::Counter& session_duplicate_chunks = obs::GlobalMetrics().GetCounter(
      "pprl_session_duplicate_chunks_total",
      "Re-delivered shipment chunks skipped idempotently");
  obs::Gauge& session_open = obs::GlobalMetrics().GetGauge(
      "pprl_session_open", "Sessions currently tracked (attached or resumable)");
  obs::Gauge& session_buffered_bytes = obs::GlobalMetrics().GetGauge(
      "pprl_session_buffered_bytes",
      "Bytes reserved by in-flight shipment buffers");
};

ServiceMetrics& Metrics() {
  static ServiceMetrics* m = new ServiceMetrics();
  return *m;
}

obs::Counter& ShedCounter(const std::string& reason) {
  return obs::GlobalMetrics().GetCounter(
      "pprl_shed_total", "Work refused to protect the daemon, by reason",
      {{"reason", reason}});
}

/// Counts one protocol message by its channel tag ("hello",
/// "encoded-filters", ...), split by direction.
void CountMessage(uint8_t type, const char* direction) {
  obs::GlobalMetrics()
      .GetCounter("pprl_service_messages_total",
                  "Protocol messages handled by the daemon, by type",
                  {{"type", MessageTypeTag(type)}, {"direction", direction}})
      .Increment();
}

/// Runs `fn` once: at Run(), or when the guard leaves scope.
template <typename Fn>
class RunOnce {
 public:
  explicit RunOnce(Fn fn) : fn_(std::move(fn)) {}
  ~RunOnce() { Run(); }
  RunOnce(const RunOnce&) = delete;
  RunOnce& operator=(const RunOnce&) = delete;

  void Run() {
    if (done_) return;
    done_ = true;
    fn_();
  }

 private:
  Fn fn_;
  bool done_ = false;
};

uint64_t ExpectedShipmentBytes(uint32_t filter_bits, uint32_t record_count) {
  return static_cast<uint64_t>(record_count) * PackedRecordBytes(filter_bits);
}

}  // namespace

LinkageUnitServer::LinkageUnitServer(LinkageUnitServerConfig config)
    : config_(std::move(config)), unit_(config_.name) {}

LinkageUnitServer::~LinkageUnitServer() { Stop(); }

size_t LinkageUnitServer::max_sessions() const {
  // Default leaves room for every owner plus a resumed straggler each.
  return config_.max_sessions != 0 ? config_.max_sessions
                                   : 2 * config_.expected_owners + 2;
}

Status LinkageUnitServer::Start() {
  if (started_.exchange(true)) {
    return Status::FailedPrecondition("server already started");
  }
  if (config_.online_mode && (config_.worker_mode || config_.distributed_linker)) {
    return Status::InvalidArgument(
        "online mode is a serving role; it combines with neither the worker "
        "role nor a distributed linker");
  }
  if (!config_.online_mode && config_.expected_owners < 2) {
    return Status::InvalidArgument("a linkage unit needs >= 2 expected owners");
  }
  if (config_.min_owners == 1) {
    return Status::InvalidArgument("quorum of 1 owner cannot produce a linkage");
  }
  if (config_.link_threads > ShardScheduler::kMaxThreads) {
    return Status::InvalidArgument("link_threads " +
                                   std::to_string(config_.link_threads) +
                                   " exceeds the shard pool's limit of " +
                                   std::to_string(ShardScheduler::kMaxThreads));
  }
  PPRL_RETURN_IF_ERROR(ValidateLshGeometry(config_.link_options.lsh_tables,
                                           config_.link_options.lsh_bits_per_key));
  PPRL_RETURN_IF_ERROR(ValidateDiceThreshold(config_.link_options.dice_threshold));
  if (!config_.wal_dir.empty() && !config_.online_mode) {
    return Status::InvalidArgument(
        "--wal-dir is an online-serving knob; batch runs persist shipments "
        "via the spool directory instead");
  }
  // Recovery runs BEFORE the listener binds: no connection is accepted
  // until the engine holds the exact pre-crash state, and corrupt durable
  // state refuses startup instead of serving wrong answers.
  recovery_report_ = RecoveryReport();
  if (config_.online_mode && !config_.wal_dir.empty()) {
    DurabilityConfig dconfig;
    dconfig.wal_dir = config_.wal_dir;
    dconfig.checkpoint_dir = config_.checkpoint_dir;
    dconfig.wal_sync_ms = config_.wal_sync_ms;
    dconfig.checkpoint_every_n = config_.checkpoint_every_n;
    dconfig.crash_after_ops = config_.chaos.crash_after_ops;
    dconfig.serving_options.dice_threshold = config_.link_options.dice_threshold;
    dconfig.serving_options.lsh_tables = config_.link_options.lsh_tables;
    dconfig.serving_options.lsh_bits_per_key = config_.link_options.lsh_bits_per_key;
    dconfig.serving_options.lsh_seed = config_.link_options.lsh_seed;
    durability_ = std::make_unique<OnlineDurability>(std::move(dconfig));
    std::unique_ptr<OnlineLinkageEngine> recovered;
    const Status recovery = durability_->Recover(&recovered, &recovery_report_);
    if (!recovery.ok()) {
      durability_.reset();
      started_.store(false);
      return recovery;
    }
    if (recovered) {
      std::lock_guard<std::mutex> lock(mutex_);
      online_ = std::move(recovered);
      expected_filter_bits_ = static_cast<uint32_t>(online_->filter_bits());
      // Registration order is durable state; re-derive the owner order the
      // result summaries and parity gates sequence on.
      owner_order_.clear();
      for (size_t db = 0; db < online_->database_count(); ++db) {
        owner_order_.push_back(online_->database_name(static_cast<uint32_t>(db)));
      }
    }
    PPRL_LOG(kInfo) << "recovery: checkpoint "
                    << (recovery_report_.checkpoint_loaded
                            ? recovery_report_.checkpoint_path
                            : std::string("(none)"))
                    << ", " << recovery_report_.checkpoint_records
                    << " checkpointed + " << recovery_report_.replayed_records
                    << " replayed records, " << recovery_report_.torn_bytes_dropped
                    << " torn WAL bytes dropped, " << recovery_report_.seconds
                    << " s (checkpoint " << recovery_report_.checkpoint_seconds
                    << " s, replay " << recovery_report_.replay_seconds << " s)";
  }
  PPRL_RETURN_IF_ERROR(listener_.Listen(config_.port, config_.loopback_only));
  if (config_.metrics_port >= 0) {
    MetricsHttpServerConfig metrics_config;
    metrics_config.port = static_cast<uint16_t>(config_.metrics_port);
    metrics_config.loopback_only = config_.loopback_only;
    metrics_server_ = std::make_unique<MetricsHttpServer>(metrics_config, [] {
      Metrics().scrapes.Increment();
      return obs::RenderPrometheusText(obs::GlobalMetrics().Snapshot());
    });
    const Status metrics_started = metrics_server_->Start();
    if (!metrics_started.ok()) {
      listener_.Close();
      metrics_server_.reset();
      started_.store(false);
      return metrics_started;
    }
  }
  if (config_.link_threads > 1 && !config_.online_mode && !config_.distributed_linker) {
    link_scheduler_ = std::make_unique<ShardScheduler>(config_.link_threads);
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  PPRL_LOG(kInfo) << "linkage unit '" << config_.name << "' listening on port "
                  << listener_.port() << " for " << config_.expected_owners
                  << " owners"
                  << (config_.worker_mode
                          ? " (worker role)"
                          : config_.online_mode ? " (online serving role)" : "");
  if (config_.chaos.enabled()) {
    PPRL_LOG(kInfo) << "chaos mode on: fault injection seed " << config_.chaos.seed;
  }
  return Status::OK();
}

void LinkageUnitServer::Stop() {
  if (stopping_.exchange(true)) {
    if (accept_thread_.joinable()) accept_thread_.join();
    return;
  }
  listener_.Close();
  linkage_done_.notify_all();
  if (accept_thread_.joinable()) accept_thread_.join();
  // Nothing is admitted any more. End every pending read — a handler
  // parked between requests sees end of stream at once instead of sitting
  // out io_timeout_ms, one mid-request still finishes and acks it — and
  // join every session thread. Handlers only mark their own entry, never
  // add or erase one, so the joins need no lock.
  {
    std::lock_guard<std::mutex> lock(threads_mutex_);
    for (auto& [index, session] : session_threads_) {
      if (!session.done) session.conn->ShutdownRead();
    }
  }
  for (auto& [index, session] : session_threads_) session.thread.join();
  session_threads_.clear();
  // No handler is left to submit shards, so the scheduler can drain too.
  link_scheduler_.reset();
  // Every session has ended, so the engine is quiescent: write the final
  // checkpoint and truncate the WAL. A failure here loses nothing — the
  // WAL still holds everything — so log and keep stopping.
  if (durability_ && online_) {
    const Status final_checkpoint = durability_->Checkpoint(*online_);
    if (final_checkpoint.ok()) {
      PPRL_LOG(kInfo) << "final checkpoint written; WAL truncated";
    } else {
      PPRL_LOG(kWarning) << "final checkpoint failed (WAL remains "
                            "authoritative): "
                         << final_checkpoint.ToString();
    }
  }
  // Last, so operators can scrape right up to the daemon's end.
  metrics_server_.reset();
}

bool LinkageUnitServer::QuorumArmed() const {
  // Workers never self-trigger a linkage — their coordinator owns that
  // decision (and its own straggler quorum) — and an online unit never
  // runs one.
  return !config_.worker_mode && !config_.online_mode && config_.min_owners >= 2 &&
         config_.min_owners < config_.expected_owners;
}

void LinkageUnitServer::JoinFinishedSessions() {
  std::vector<SessionThread> finished;
  {
    std::lock_guard<std::mutex> lock(threads_mutex_);
    for (auto it = session_threads_.begin(); it != session_threads_.end();) {
      if (it->second.done) {
        finished.push_back(std::move(it->second));
        it = session_threads_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (SessionThread& session : finished) session.thread.join();
}

void LinkageUnitServer::AcceptLoop() {
  // Wake often enough for the shortest timer the loop drives: a quarter of
  // the session TTL, or of the armed quorum wait, within 10-100 ms.
  int shortest_timer_ms = config_.session_ttl_ms;
  if (QuorumArmed()) {
    shortest_timer_ms = std::min(shortest_timer_ms, config_.quorum_wait_ms);
  }
  const int wake_ms = std::clamp(shortest_timer_ms / 4, 10, 100);
  while (!stopping_.load()) {
    SweepSessions();
    auto conn = listener_.Accept(wake_ms);
    JoinFinishedSessions();
    if (!conn.ok()) {
      // kNotFound is the poll timing out; kFailedPrecondition is the
      // listener being torn down by Stop().
      if (conn.status().code() == StatusCode::kNotFound) continue;
      if (conn.status().code() == StatusCode::kFailedPrecondition) break;
      if (stopping_.load()) break;
      PPRL_LOG(kWarning) << "accept failed: " << conn.status().ToString();
      continue;
    }
    const uint64_t conn_index = accepted_connections_.fetch_add(1) + 1;
    std::unique_lock<std::mutex> lock(threads_mutex_);
    if (session_threads_.size() < max_sessions()) {
      SessionThread& session = session_threads_[conn_index];
      session.conn = std::move(*conn);
      try {
        session.thread = std::thread(&LinkageUnitServer::HandleSession, this,
                                     session.conn.get(), conn_index);
        continue;
      } catch (const std::system_error& e) {
        // The process is out of threads: shed like a full table.
        PPRL_LOG(kWarning) << "cannot start a session thread: " << e.what();
        *conn = std::move(session.conn);
        session_threads_.erase(conn_index);
      }
    }
    lock.unlock();
    ShedOnAccept(**conn, "sessions");
  }
}

void LinkageUnitServer::ShedOnAccept(TcpConnection& conn, const std::string& reason) {
  ShedCounter(reason).Increment();
  BusyMessage busy;
  busy.retry_after_ms = static_cast<uint32_t>(config_.busy_retry_after_ms);
  busy.reason = reason;
  // Best effort straight from the accept thread — no handler is spent on
  // a connection we are refusing.
  FrameWriter writer(conn, config_.max_frame_payload);
  writer.WriteFrame(static_cast<uint8_t>(MessageType::kBusy), EncodeBusy(busy));
  CountMessage(static_cast<uint8_t>(MessageType::kBusy), "out");
  wire_bytes_sent_ += conn.wire_bytes_sent();
  conn.Close();
}

void LinkageUnitServer::SendBusy(MeteredFrameConnection& mfc, const std::string& reason) {
  ShedCounter(reason).Increment();
  BusyMessage busy;
  busy.retry_after_ms = static_cast<uint32_t>(config_.busy_retry_after_ms);
  busy.reason = reason;
  CountMessage(static_cast<uint8_t>(MessageType::kBusy), "out");
  mfc.Send(static_cast<uint8_t>(MessageType::kBusy), EncodeBusy(busy),
           MessageTypeTag(static_cast<uint8_t>(MessageType::kBusy)));
}

void LinkageUnitServer::FailSession(MeteredFrameConnection& mfc, const Status& status) {
  PPRL_LOG(kWarning) << "session with '"
                     << (mfc.peer().empty() ? "<unknown>" : mfc.peer())
                     << "' failed: " << status.ToString();
  Metrics().sessions_failed.Increment();
  CountMessage(static_cast<uint8_t>(MessageType::kError), "out");
  // Best effort: the peer may already be gone.
  mfc.Send(static_cast<uint8_t>(MessageType::kError), EncodeError(status),
           MessageTypeTag(static_cast<uint8_t>(MessageType::kError)));
}

void LinkageUnitServer::EraseSessionLocked(uint64_t session_id) {
  auto it = sessions_.find(session_id);
  if (it == sessions_.end()) return;
  if (!it->second.registered) {
    const uint64_t reserved =
        ExpectedShipmentBytes(it->second.filter_bits, it->second.record_count);
    buffered_bytes_ -= std::min<uint64_t>(buffered_bytes_, reserved);
  }
  sessions_.erase(it);
  Metrics().session_open.Set(static_cast<int64_t>(sessions_.size()));
  Metrics().session_buffered_bytes.Set(static_cast<int64_t>(buffered_bytes_));
}

void LinkageUnitServer::SweepSessions() {
  const auto now = std::chrono::steady_clock::now();
  bool fire_quorum = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto it = sessions_.begin(); it != sessions_.end();) {
      ServerSession& s = it->second;
      // Registered sessions are kept until the server stops: their owner
      // may still resume to collect results. Only partial shipments age
      // out.
      if (!s.attached && !s.registered &&
          now - s.last_activity >
              std::chrono::milliseconds(config_.session_ttl_ms)) {
        PPRL_LOG(kInfo) << "sweeping idle session " << s.id << " of '" << s.party
                        << "' (" << s.assembler.acked_bytes() << "/"
                        << s.assembler.expected_bytes() << " bytes shipped)";
        Metrics().session_expired.Increment();
        const uint64_t reserved = ExpectedShipmentBytes(s.filter_bits, s.record_count);
        buffered_bytes_ -= std::min<uint64_t>(buffered_bytes_, reserved);
        it = sessions_.erase(it);
      } else {
        ++it;
      }
    }
    Metrics().session_open.Set(static_cast<int64_t>(sessions_.size()));
    Metrics().session_buffered_bytes.Set(static_cast<int64_t>(buffered_bytes_));
    // Quorum option: enough owners registered, the rest silent too long.
    if (QuorumArmed() && !linkage_ran_ &&
        owner_order_.size() >= config_.min_owners &&
        owner_order_.size() < config_.expected_owners &&
        last_registration_ != std::chrono::steady_clock::time_point{} &&
        now - last_registration_ >
            std::chrono::milliseconds(config_.quorum_wait_ms)) {
      fire_quorum = true;
    }
  }
  if (fire_quorum) RunLinkage(/*allow_partial=*/true);
}

void LinkageUnitServer::SpoolShipment(const std::string& party,
                                      const EncodedDatabase& encoded) {
  io::ShardFileFormat format = config_.spool_format;
  if (format == io::ShardFileFormat::kAuto) format = io::ShardFileFormat::kPclk;
  // Party names come off the wire: keep only filesystem-safe characters.
  std::string stem;
  for (char c : party) {
    const bool safe = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '-' || c == '_';
    stem += safe ? c : '_';
  }
  if (stem.empty()) stem = "owner";
  const std::string path = config_.spool_dir + "/" + stem + "." +
                           io::ShardFileFormatName(format);
  const Status written =
      io::WriteShardFile(path, ShardFromEncodedDatabase(encoded), format);
  obs::GlobalMetrics()
      .GetCounter("pprl_spool_shipments_total",
                  "Registered shipments persisted to the spool directory",
                  {{"format", io::ShardFileFormatName(format)},
                   {"outcome", written.ok() ? "ok" : "error"}})
      .Increment();
  if (!written.ok()) {
    PPRL_LOG(kWarning) << "failed to spool shipment of owner '" << party
                       << "' to " << path << ": " << written.ToString();
  } else {
    PPRL_LOG(kInfo) << "spooled shipment of owner '" << party << "' to " << path;
  }
}

void LinkageUnitServer::RunLinkage(bool allow_partial) {
  if (config_.worker_mode) return;  // a coordinator assigns partitions instead
  if (config_.online_mode) return;  // the engine links incrementally instead
  std::lock_guard<std::mutex> lock(mutex_);
  if (linkage_ran_) return;
  if (!allow_partial && owner_order_.size() < config_.expected_owners) return;
  if (allow_partial && owner_order_.size() < std::max<size_t>(config_.min_owners, 2)) {
    return;
  }
  Metrics().linkage_runs.Increment();
  linked_owners_ = owner_order_.size();
  MultiPartyLinkageOptions link_options = config_.link_options;
  if (link_scheduler_) link_options.scheduler = link_scheduler_.get();
  if (config_.distributed_linker) {
    auto outcome = config_.distributed_linker(unit_, link_options);
    linkage_status_ = outcome.status();
    if (outcome.ok()) {
      linkage_result_ = std::move(outcome->result);
      workers_linked_ = outcome->workers_linked;
      workers_expected_ = outcome->workers_expected;
    }
  } else {
    auto result = unit_.Link(link_options);
    linkage_status_ = result.status();
    if (result.ok()) linkage_result_ = std::move(*result);
  }
  linkage_degraded_ = linked_owners_ < config_.expected_owners ||
                      workers_linked_ < workers_expected_;
  if (linkage_degraded_) {
    Metrics().degraded_linkages.Increment();
    PPRL_LOG(kWarning) << "degraded linkage: " << linked_owners_ << "/"
                       << config_.expected_owners << " owners, " << workers_linked_
                       << "/" << workers_expected_ << " worker partitions";
  }
  linkage_ran_ = true;
  if (linkage_status_.ok()) {
    PPRL_LOG(kInfo) << "linkage over " << owner_order_.size() << " databases: "
                    << linkage_result_.comparisons << " comparisons ("
                    << linkage_result_.pruned_comparisons
                    << " answered by the cardinality bound), "
                    << linkage_result_.edges.size() << " match edges";
  } else {
    PPRL_LOG(kInfo) << "linkage over " << owner_order_.size()
                    << " databases: " << linkage_status_.ToString();
  }
  linkage_done_.notify_all();
}

void LinkageUnitServer::HandleSession(TcpConnection* conn, uint64_t conn_index) {
  conn->SetIoTimeout(config_.io_timeout_ms);
  // Chaos mode wraps the socket so every byte this handler moves can be
  // dropped, delayed, truncated or corrupted — deterministically per
  // connection, so failing runs replay.
  std::unique_ptr<FaultInjectingConnection> chaos;
  Connection* wire = conn;
  if (config_.chaos.enabled()) {
    chaos = std::make_unique<FaultInjectingConnection>(
        *conn, config_.chaos.WithSeed(config_.chaos.seed +
                                      0x9e3779b97f4a7c15ULL * conn_index));
    wire = chaos.get();
  }
  MeteredFrameConnection mfc(*wire, &channel_, config_.name,
                             config_.max_frame_payload);
  Metrics().sessions.Increment();
  Metrics().active_sessions.Add(1);
  const auto session_start = std::chrono::steady_clock::now();
  // The session this connection is attached to, once the handshake opened
  // or resumed one.
  uint64_t sid = 0;

  // The one exit path: every return below detaches the session, accounts
  // the connection's wire bytes, closes it and marks this thread joinable.
  RunOnce close_session([&] {
    if (sid != 0) {
      std::lock_guard<std::mutex> lock(mutex_);
      auto it = sessions_.find(sid);
      if (it != sessions_.end()) {
        it->second.attached = false;
        it->second.last_activity = std::chrono::steady_clock::now();
      }
    }
    wire_bytes_received_ += conn->wire_bytes_received();
    wire_bytes_sent_ += conn->wire_bytes_sent();
    conn->Close();
    {
      std::lock_guard<std::mutex> lock(threads_mutex_);
      session_threads_.at(conn_index).done = true;
    }
    Metrics().active_sessions.Sub(1);
    Metrics().session_seconds.Observe(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - session_start)
            .count());
  });

  // 1. Handshake: a new session (hello) or a re-attachment (resume). The
  // first frame is metered only after it names the sender, so it lands on
  // the right channel route.
  auto first = mfc.ReceiveUnmetered();
  if (!first.ok()) {
    PPRL_LOG(kWarning) << "dropping connection before handshake: "
                       << first.status().ToString();
    return;
  }

  bool shipment_complete = false;

  if (first->type == static_cast<uint8_t>(MessageType::kHello)) {
    auto hello = DecodeHello(first->payload);
    if (!hello.ok()) {
      FailSession(mfc, hello.status());
      return;
    }
    mfc.set_peer(hello->party);
    mfc.MeterReceived(*first, MessageTypeTag);
    CountMessage(first->type, "in");
    if (hello->protocol_version != kWireProtocolVersion) {
      FailSession(mfc, Status::ProtocolViolation(
                           "protocol version mismatch: server speaks " +
                           std::to_string(kWireProtocolVersion) + ", owner sent " +
                           std::to_string(hello->protocol_version)));
      return;
    }
    const Status filter_bits = ValidateFilterBits(hello->filter_bits);
    if (!filter_bits.ok()) {
      FailSession(mfc, Status::ProtocolViolation("hello: " + filter_bits.message()));
      return;
    }
    if (hello->record_count == 0 && !config_.online_mode) {
      // Query-only sessions are an online-mode feature; a batch linkage
      // unit has nothing to offer an owner without a shipment.
      FailSession(mfc, Status::ProtocolViolation("hello declared zero records"));
      return;
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (linkage_ran_) {
        const Status late = Status::FailedPrecondition(
            "linkage already ran; owner '" + hello->party + "' is too late to join");
        FailSession(mfc, late);
        return;
      }
      // First owner fixes the filter length for the whole run.
      if (expected_filter_bits_ == 0) expected_filter_bits_ = hello->filter_bits;
      if (hello->filter_bits != expected_filter_bits_) {
        const Status mismatch = Status::InvalidArgument(
            "owner '" + hello->party + "' declared " +
            std::to_string(hello->filter_bits) + "-bit filters; this linkage uses " +
            std::to_string(expected_filter_bits_));
        FailSession(mfc, mismatch);
        return;
      }
      // The first hello fixes the filter length, so the online engine can
      // be built here; it serves every later session.
      if (config_.online_mode && !online_) {
        OnlineLinkageOptions engine_options;
        engine_options.dice_threshold = config_.link_options.dice_threshold;
        engine_options.lsh_tables = config_.link_options.lsh_tables;
        engine_options.lsh_bits_per_key = config_.link_options.lsh_bits_per_key;
        engine_options.lsh_seed = config_.link_options.lsh_seed;
        online_ = std::make_unique<OnlineLinkageEngine>(hello->filter_bits,
                                                        engine_options);
      }
      const uint64_t expected_bytes =
          ExpectedShipmentBytes(hello->filter_bits, hello->record_count);
      if (buffered_bytes_ + expected_bytes > config_.max_buffered_bytes) {
        SendBusy(mfc, "buffer");
        return;
      }
      sid = next_session_id_++;
      ServerSession session;
      session.id = sid;
      session.party = hello->party;
      session.filter_bits = hello->filter_bits;
      session.record_count = hello->record_count;
      session.assembler = ShipmentAssembler(hello->filter_bits, hello->record_count);
      session.attached = true;
      session.last_activity = std::chrono::steady_clock::now();
      session.deadline = session.last_activity +
                         std::chrono::milliseconds(config_.session_deadline_ms);
      buffered_bytes_ += expected_bytes;
      sessions_.emplace(sid, std::move(session));
      Metrics().session_created.Increment();
      Metrics().session_open.Set(static_cast<int64_t>(sessions_.size()));
      Metrics().session_buffered_bytes.Set(static_cast<int64_t>(buffered_bytes_));
    }
    // A zero-record hello in online mode opens a query-only session:
    // there is no shipment phase to run.
    shipment_complete = config_.online_mode && hello->record_count == 0;
    HelloAckMessage ack;
    ack.protocol_version = kWireProtocolVersion;
    ack.server = config_.name;
    ack.expected_owners = static_cast<uint32_t>(config_.expected_owners);
    ack.session_id = sid;
    ack.max_chunk_bytes = config_.max_chunk_bytes;
    CountMessage(static_cast<uint8_t>(MessageType::kHelloAck), "out");
    if (!mfc.Send(static_cast<uint8_t>(MessageType::kHelloAck), EncodeHelloAck(ack),
                  MessageTypeTag(static_cast<uint8_t>(MessageType::kHelloAck)))
             .ok()) {
      return;
    }
  } else if (first->type == static_cast<uint8_t>(MessageType::kResume)) {
    auto resume = DecodeResume(first->payload);
    if (!resume.ok()) {
      FailSession(mfc, resume.status());
      return;
    }
    mfc.set_peer(resume->party);
    mfc.MeterReceived(*first, MessageTypeTag);
    CountMessage(first->type, "in");
    if (resume->protocol_version != kWireProtocolVersion) {
      FailSession(mfc, Status::ProtocolViolation(
                           "protocol version mismatch on resume"));
      return;
    }
    ResumeAckMessage rack;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      auto it = sessions_.find(resume->session_id);
      if (it == sessions_.end()) {
        // Swept or never existed: the owner must start over with a hello.
        const Status unknown = Status::NotFound(
            "unknown session " + std::to_string(resume->session_id) +
            " (expired or never opened); start a new hello");
        FailSession(mfc, unknown);
        return;
      }
      if (it->second.party != resume->party) {
        FailSession(mfc, Status::InvalidArgument(
                             "session " + std::to_string(resume->session_id) +
                             " belongs to another party"));
        return;
      }
      if (it->second.attached) {
        // The previous connection has not noticed its peer died yet. The
        // owner retries shortly instead of us closing sockets across
        // threads.
        SendBusy(mfc, "attached");
        return;
      }
      it->second.attached = true;
      it->second.last_activity = std::chrono::steady_clock::now();
      sid = resume->session_id;
      shipment_complete = it->second.registered ||
                          (config_.online_mode && it->second.record_count == 0);
      rack.session_id = sid;
      rack.acked_bytes = it->second.assembler.acked_bytes();
      rack.shipment_complete = shipment_complete;
      Metrics().session_resumed.Increment();
    }
    CountMessage(static_cast<uint8_t>(MessageType::kResumeAck), "out");
    if (!mfc.Send(static_cast<uint8_t>(MessageType::kResumeAck), EncodeResumeAck(rack),
                  MessageTypeTag(static_cast<uint8_t>(MessageType::kResumeAck)))
             .ok()) {
      return;
    }
  } else if (first->type == static_cast<uint8_t>(MessageType::kAssignPartition)) {
    // A coordinator's control connection, not an owner session: answer
    // the partition assignment and close.
    HandleAssignPartition(mfc, *first);
    return;
  } else {
    FailSession(mfc, Status::ProtocolViolation(
                         "expected hello, resume or assign-partition, got frame type " +
                         std::to_string(first->type)));
    return;
  }

  // 2. Shipment (chunked, resumable, idempotent).
  if (!shipment_complete && !ReceiveShipment(mfc, sid)) return;

  // 3. Online role: the session now serves kAppendRecords / kQuery frames
  // on this connection until the owner leaves. There is no batch linkage
  // run and no results frame.
  if (config_.online_mode) {
    ServeOnline(mfc, sid);
    return;
  }

  // 4. Worker role ends here: the shipment is registered and acked, and
  // results (if any) belong to the coordinator's owners, not to the
  // coordinator's re-shipment session.
  if (config_.worker_mode) return;

  // 5. Link once the last owner shipped, then answer everyone.
  RunLinkage(/*allow_partial=*/false);
  const bool delivered = DeliverResults(mfc, sid);
  // Account the session's wire bytes before announcing delivery, so that
  // once WaitUntilDone() returns the cost counters are final.
  close_session.Run();
  if (delivered) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = sessions_.find(sid);
    if (it != sessions_.end() && !it->second.results_delivered) {
      it->second.results_delivered = true;
      ++results_delivered_;
      linkage_done_.notify_all();
    }
  }
}

bool LinkageUnitServer::ReceiveShipment(MeteredFrameConnection& mfc,
                                        uint64_t session_id) {
  for (;;) {
    auto frame = mfc.ReceiveUnmetered();
    if (!frame.ok()) {
      PPRL_LOG(kWarning) << "owner '" << mfc.peer() << "' lost mid-shipment: "
                         << frame.status().ToString() << " (session "
                         << session_id << " stays resumable)";
      return false;
    }
    CountMessage(frame->type, "in");
    if (frame->type != static_cast<uint8_t>(MessageType::kShipmentChunk)) {
      FailSession(mfc, Status::ProtocolViolation(
                           "expected shipment chunk, got frame type " +
                           std::to_string(frame->type)));
      return false;
    }
    auto chunk = DecodeShipmentChunk(frame->payload);
    if (!chunk.ok()) {
      FailSession(mfc, chunk.status());
      return false;
    }
    if (chunk->session_id != session_id) {
      FailSession(mfc, Status::ProtocolViolation("chunk names a different session"));
      return false;
    }
    if (chunk->data.size() > config_.max_chunk_bytes) {
      FailSession(mfc, Status::ProtocolViolation(
                           "chunk of " + std::to_string(chunk->data.size()) +
                           " bytes exceeds the advertised maximum of " +
                           std::to_string(config_.max_chunk_bytes)));
      return false;
    }

    ShipmentAckMessage ack;
    const auto fill_ack = [&](const ServerSession& session) {
      ack.session_id = session_id;
      ack.acked_bytes = session.assembler.acked_bytes();
      ack.complete = session.registered;
      ack.owners_shipped = static_cast<uint32_t>(owner_order_.size());
      ack.expected_owners = static_cast<uint32_t>(config_.expected_owners);
    };
    Status failure = Status::OK();
    // An online shipment's append is per-record indexed work (LSH probe +
    // kernel compare each) that runs for seconds on a large shipment; it is
    // deferred until mutex_ is released so hellos, resumes, acks and the
    // sweeper keep flowing. The session registers once it succeeded.
    std::optional<EncodedDatabase> online_shipment;
    std::string party;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      auto it = sessions_.find(session_id);
      if (it == sessions_.end()) {
        failure = Status::NotFound("session swept while shipping; start over");
      } else if (std::chrono::steady_clock::now() > it->second.deadline) {
        ShedCounter("deadline").Increment();
        failure = Status::FailedPrecondition(
            "session deadline exceeded before the shipment completed");
        EraseSessionLocked(session_id);
      } else {
        ServerSession& session = it->second;
        auto applied = session.assembler.Apply(*chunk);
        if (!applied.ok()) {
          // Keep the session: the acked cursor is untouched, so the owner
          // can resume and retransmit from it.
          failure = applied.status();
        } else {
          session.last_activity = std::chrono::steady_clock::now();
          if (*applied) {
            // Only fresh bytes count as shipped payload; duplicates and
            // the fixed chunk header are wire overhead, not shipment.
            mfc.MeterReceivedBytes(chunk->data.size(), "encoded-filters");
            Metrics().session_chunks.Increment();
          } else {
            Metrics().session_duplicate_chunks.Increment();
          }
          if (session.assembler.complete() && !session.registered) {
            if (linkage_ran_) {
              failure = Status::FailedPrecondition(
                  "linkage already ran without owner '" + session.party + "'");
            } else {
              auto encoded = session.assembler.Finish();
              if (encoded.ok() && !config_.spool_dir.empty()) {
                SpoolShipment(session.party, *encoded);
              }
              if (!encoded.ok()) {
                failure = encoded.status();
              } else if (config_.online_mode) {
                online_shipment = std::move(*encoded);
                party = session.party;
              } else {
                const uint32_t database_index =
                    static_cast<uint32_t>(owner_order_.size());
                failure = unit_.Receive(session.party, std::move(*encoded));
                if (failure.ok()) RegisterShipmentLocked(session, database_index);
              }
            }
            if (!failure.ok()) EraseSessionLocked(session_id);
          }
          if (failure.ok() && !online_shipment) fill_ack(session);
        }
      }
    }
    if (failure.ok() && online_shipment) {
      uint32_t database_index = 0;
      const Result<uint64_t> appended =
          AppendOnline(party, *online_shipment, /*base_index=*/0, &database_index);
      std::lock_guard<std::mutex> lock(mutex_);
      auto it = sessions_.find(session_id);
      if (it == sessions_.end()) {
        // Swept mid-append (TTL or deadline). The appended records stay —
        // a retry re-ships them as a prefix and skips them idempotently.
        failure = Status::NotFound("session swept while absorbing; start over");
      } else if (!appended.ok()) {
        failure = appended.status();
        EraseSessionLocked(session_id);
      } else {
        RegisterShipmentLocked(it->second, database_index);
        fill_ack(it->second);
      }
    }
    if (!failure.ok()) {
      FailSession(mfc, failure);
      return false;
    }
    CountMessage(static_cast<uint8_t>(MessageType::kShipmentAck), "out");
    if (!mfc.Send(static_cast<uint8_t>(MessageType::kShipmentAck),
                  EncodeShipmentAck(ack),
                  MessageTypeTag(static_cast<uint8_t>(MessageType::kShipmentAck)))
             .ok()) {
      return false;
    }
    if (ack.complete) return true;
  }
}

void LinkageUnitServer::RegisterShipmentLocked(ServerSession& session,
                                               uint32_t database_index) {
  // An online party that ships again registers only once.
  if (std::find(owner_order_.begin(), owner_order_.end(), session.party) ==
      owner_order_.end()) {
    owner_order_.push_back(session.party);
  }
  session.database_index = database_index;
  session.registered = true;
  const uint64_t reserved = ExpectedShipmentBytes(session.filter_bits, session.record_count);
  buffered_bytes_ -= std::min<uint64_t>(buffered_bytes_, reserved);
  session.assembler.Discard();
  last_registration_ = std::chrono::steady_clock::now();
  Metrics().session_completed.Increment();
  Metrics().session_buffered_bytes.Set(static_cast<int64_t>(buffered_bytes_));
  // Registration order IS the database index order the canonical cluster
  // ids depend on; log it so operators (and the check.sh parity gates) can
  // sequence on it.
  PPRL_LOG(kInfo) << "registered shipment of owner '" << session.party << "' ("
                  << owner_order_.size() << "/" << config_.expected_owners << ")";
}

Result<uint64_t> LinkageUnitServer::AppendOnline(const std::string& party,
                                                 const EncodedDatabase& records,
                                                 uint64_t base_index,
                                                 uint32_t* database_index) {
  std::lock_guard<std::mutex> lock(append_mutex_);
  OnlineLinkageEngine& engine = *online_;
  // In durable mode registration is journaled state, so the cursor is read
  // without registering; DurableAppend journals the party's hello on its
  // first append (a zero-record probe registers too, like in memory).
  uint32_t db = OnlineLinkageEngine::kNoDatabase;
  uint64_t cursor = 0;
  if (auto existing = engine.FindDatabase(party)) {
    db = *existing;
    cursor = engine.record_count(db);
  }
  if (base_index > cursor) {
    return Status::ProtocolViolation("append gap: base index " +
                                     std::to_string(base_index) +
                                     " is beyond the record cursor " +
                                     std::to_string(cursor));
  }
  // Records below the cursor are retransmits — an ack was lost, or another
  // session of the party sent them first: skip them, apply only the tail.
  const size_t skip = static_cast<size_t>(
      std::min<uint64_t>(cursor - base_index, records.size()));
  if (skip > 0) Metrics().session_duplicate_chunks.Increment();
  if (durability_) {
    auto appended =
        durability_->DurableAppend(engine, party, records, skip, records.size(), &db);
    if (!appended.ok()) return appended.status();
  } else {
    if (db == OnlineLinkageEngine::kNoDatabase) db = engine.RegisterDatabase(party);
    for (size_t i = skip; i < records.size(); ++i) {
      auto appended = engine.Append(db, records.ids[i], records.filters[i]);
      if (!appended.ok()) return appended.status();
    }
  }
  *database_index = db;
  return static_cast<uint64_t>(engine.record_count(db));
}

void LinkageUnitServer::ServeOnline(MeteredFrameConnection& mfc,
                                    uint64_t session_id) {
  // The engine exists by construction: this session's hello (or the
  // session it resumed) created it, and the pointer never changes until
  // the daemon stops.
  OnlineLinkageEngine& engine = *online_;
  // The rows an append or a query carries, checked against this session
  // and the index's filter width.
  const auto decode_rows = [&](const std::string& what, uint64_t named_session,
                               uint32_t filter_bits,
                               const std::vector<uint8_t>& data) -> Result<EncodedDatabase> {
    if (named_session != session_id) {
      return Status::ProtocolViolation(what + " names a different session");
    }
    if (filter_bits != engine.filter_bits()) {
      return Status::InvalidArgument(what + " declared " + std::to_string(filter_bits) +
                                     "-bit filters; this index uses " +
                                     std::to_string(engine.filter_bits()));
    }
    return DecodeShipment(data, filter_bits);
  };
  for (;;) {
    auto frame = mfc.ReceiveUnmetered();
    if (!frame.ok()) {
      // kNotFound is the owner hanging up cleanly between frames — the
      // normal end of an online session. Anything else leaves the session
      // resumable.
      if (frame.status().code() != StatusCode::kNotFound) {
        PPRL_LOG(kInfo) << "online session " << session_id << " with '"
                        << mfc.peer() << "' detached: "
                        << frame.status().ToString() << " (stays resumable)";
      }
      return;
    }
    mfc.MeterReceived(*frame, MessageTypeTag);
    CountMessage(frame->type, "in");

    // Touch the session so the idle sweep sees live traffic.
    std::string party;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      auto it = sessions_.find(session_id);
      if (it == sessions_.end()) {
        party.clear();
      } else {
        it->second.last_activity = std::chrono::steady_clock::now();
        party = it->second.party;
      }
    }
    if (party.empty()) {
      FailSession(mfc, Status::NotFound("session swept; start a new hello"));
      return;
    }

    if (frame->type == static_cast<uint8_t>(MessageType::kAppendRecords)) {
      auto append = DecodeAppendRecords(frame->payload);
      if (!append.ok()) {
        FailSession(mfc, append.status());
        return;
      }
      auto decoded =
          decode_rows("append", append->session_id, append->filter_bits, append->data);
      if (!decoded.ok()) {
        FailSession(mfc, decoded.status());
        return;
      }
      uint32_t db = 0;
      const Result<uint64_t> cursor =
          AppendOnline(party, *decoded, append->base_index, &db);
      if (!cursor.ok()) {
        FailSession(mfc, cursor.status());
        return;
      }
      ShipmentAckMessage ack;
      ack.session_id = session_id;
      // In online mode the ack cursor counts RECORDS, not bytes: the
      // owner's next base_index.
      ack.acked_bytes = *cursor;
      ack.complete = true;
      ack.owners_shipped = static_cast<uint32_t>(engine.database_count());
      ack.expected_owners = static_cast<uint32_t>(config_.expected_owners);
      CountMessage(static_cast<uint8_t>(MessageType::kShipmentAck), "out");
      if (!mfc.Send(static_cast<uint8_t>(MessageType::kShipmentAck),
                    EncodeShipmentAck(ack),
                    MessageTypeTag(static_cast<uint8_t>(MessageType::kShipmentAck)))
               .ok()) {
        return;
      }
    } else if (frame->type == static_cast<uint8_t>(MessageType::kQuery)) {
      auto query = DecodeQuery(frame->payload);
      if (!query.ok()) {
        FailSession(mfc, query.status());
        return;
      }
      auto decoded =
          decode_rows("query", query->session_id, query->filter_bits, query->data);
      if (!decoded.ok()) {
        FailSession(mfc, decoded.status());
        return;
      }
      // Matches against the querier's own database are suppressed,
      // mirroring the batch path's cross-database-only comparisons.
      const uint32_t exclude = engine.FindDatabase(party).value_or(
          OnlineLinkageEngine::kNoDatabase);
      QueryResultMessage reply;
      reply.query_id = query->query_id;
      reply.records.reserve(decoded->size());
      for (size_t i = 0; i < decoded->size(); ++i) {
        auto result = engine.Query(decoded->filters[i], exclude,
                                   query->want_clusters, query->top_k);
        if (!result.ok()) {
          FailSession(mfc, result.status());
          return;
        }
        QueryRecordResult record;
        record.id = decoded->ids[i];
        record.cluster_id = result->cluster_id;
        record.cluster_size = result->cluster_size;
        record.candidates = result->candidates;
        record.matches.reserve(result->matches.size());
        for (const OnlineMatch& m : result->matches) {
          record.matches.push_back(QueryMatch{m.database, m.record, m.id, m.score});
        }
        reply.records.push_back(std::move(record));
      }
      reply.index_size = engine.size();
      CountMessage(static_cast<uint8_t>(MessageType::kQueryResult), "out");
      if (!mfc.Send(static_cast<uint8_t>(MessageType::kQueryResult),
                    EncodeQueryResult(reply),
                    MessageTypeTag(static_cast<uint8_t>(MessageType::kQueryResult)))
               .ok()) {
        return;
      }
    } else {
      FailSession(mfc, Status::ProtocolViolation(
                           "expected append-records or link-query, got frame type " +
                           std::to_string(frame->type)));
      return;
    }
  }
}

void LinkageUnitServer::HandleAssignPartition(MeteredFrameConnection& mfc,
                                              const Frame& first) {
  auto& assignments = obs::GlobalMetrics();
  const auto count_outcome = [&assignments](const char* outcome) {
    assignments
        .GetCounter("pprl_worker_assignments_total",
                    "Partition assignments handled by a worker daemon, by outcome",
                    {{"outcome", outcome}})
        .Increment();
  };
  auto assign = DecodeAssignPartition(first.payload);
  if (!assign.ok()) {
    count_outcome("error");
    FailSession(mfc, assign.status());
    return;
  }
  mfc.set_peer(assign->coordinator);
  mfc.MeterReceived(first, MessageTypeTag);
  CountMessage(first.type, "in");
  if (!config_.worker_mode) {
    count_outcome("error");
    FailSession(mfc, Status::FailedPrecondition(
                         "daemon '" + config_.name +
                         "' is not a worker; start it with --worker"));
    return;
  }
  if (assign->protocol_version != kWireProtocolVersion) {
    count_outcome("error");
    FailSession(mfc, Status::ProtocolViolation(
                         "protocol version mismatch on assign-partition"));
    return;
  }

  // The partition compute reads the unit's shipments, so it runs under
  // the session mutex: a coordinator retry can never race a still-arriving
  // re-shipment. Missing shipments shed with kBusy (retryable) — the
  // coordinator may legitimately be re-driving this worker after a fault
  // killed an earlier shipment session.
  PartitionResultMessage reply;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (owner_order_.size() < assign->expected_owners) {
      count_outcome("awaiting-shipments");
      SendBusy(mfc, "awaiting-shipments");
      return;
    }
    MultiPartyLinkageOptions options = config_.link_options;
    if (link_scheduler_) options.scheduler = link_scheduler_.get();
    options.dice_threshold = assign->dice_threshold;
    options.lsh_tables = assign->lsh_tables;
    options.lsh_bits_per_key = assign->lsh_bits_per_key;
    options.lsh_seed = assign->lsh_seed;
    PartitionSpec spec;
    spec.worker_index = assign->worker_index;
    spec.num_workers = assign->num_workers;
    spec.scheme = static_cast<PartitionScheme>(assign->scheme);
    auto partition = unit_.LinkPartition(options, spec);
    if (!partition.ok()) {
      count_outcome("error");
      FailSession(mfc, partition.status());
      return;
    }
    reply.worker_index = assign->worker_index;
    reply.comparisons = partition->comparisons;
    reply.candidate_pairs = partition->candidate_pairs;
    reply.pruned_comparisons = partition->pruned_comparisons;
    reply.edges = std::move(partition->edges);
  }
  count_outcome("ok");
  PPRL_LOG(kInfo) << "worker '" << config_.name << "' computed partition "
                  << reply.worker_index << "/" << assign->num_workers << ": "
                  << reply.comparisons << " comparisons, " << reply.edges.size()
                  << " edges";
  CountMessage(static_cast<uint8_t>(MessageType::kPartitionResult), "out");
  mfc.Send(static_cast<uint8_t>(MessageType::kPartitionResult),
           EncodePartitionResult(reply),
           MessageTypeTag(static_cast<uint8_t>(MessageType::kPartitionResult)));
}

bool LinkageUnitServer::DeliverResults(MeteredFrameConnection& mfc,
                                       uint64_t session_id) {
  OwnerLinkageSummary summary;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    linkage_done_.wait(lock, [this] { return linkage_ran_ || stopping_.load(); });
    if (!linkage_ran_) {
      lock.unlock();
      FailSession(mfc, Status::FailedPrecondition("server stopped before linkage ran"));
      return false;
    }
    if (!linkage_status_.ok()) {
      const Status failed = linkage_status_;
      lock.unlock();
      FailSession(mfc, failed);
      return false;
    }
    auto it = sessions_.find(session_id);
    if (it == sessions_.end() || !it->second.registered) {
      lock.unlock();
      FailSession(mfc, Status::FailedPrecondition(
                           "linkage ran without this owner's shipment"));
      return false;
    }
    summary = SummarizeForOwner(linkage_result_, it->second.database_index);
    summary.owners_linked = static_cast<uint32_t>(linked_owners_);
    summary.owners_expected = static_cast<uint32_t>(config_.expected_owners);
    summary.workers_linked = workers_linked_;
    summary.workers_expected = workers_expected_;
  }
  CountMessage(static_cast<uint8_t>(MessageType::kResults), "out");
  return mfc
      .Send(static_cast<uint8_t>(MessageType::kResults), EncodeResults(summary),
            MessageTypeTag(static_cast<uint8_t>(MessageType::kResults)))
      .ok();
}

Status LinkageUnitServer::WaitUntilDone(int timeout_ms) const {
  std::unique_lock<std::mutex> lock(mutex_);
  const auto done = [this] {
    return linkage_ran_ &&
           (!linkage_status_.ok() || results_delivered_ >= linked_owners_);
  };
  if (timeout_ms > 0) {
    if (!linkage_done_.wait_for(lock, std::chrono::milliseconds(timeout_ms), done)) {
      return Status::IoError("timed out waiting for the linkage run to finish");
    }
  } else {
    linkage_done_.wait(lock, done);
  }
  return linkage_status_;
}

Result<MultiPartyLinkageResult> LinkageUnitServer::result() const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!linkage_ran_) {
    return Status::FailedPrecondition("linkage has not run yet");
  }
  if (!linkage_status_.ok()) return linkage_status_;
  return linkage_result_;
}

std::vector<std::string> LinkageUnitServer::owner_order() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return owner_order_;
}

bool LinkageUnitServer::linkage_degraded() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return linkage_degraded_;
}

uint32_t LinkageUnitServer::workers_linked() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return workers_linked_;
}

uint32_t LinkageUnitServer::workers_expected() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return workers_expected_;
}

}  // namespace pprl
