#ifndef PPRL_SERVICE_CLIENT_H_
#define PPRL_SERVICE_CLIENT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "net/fault_injection.h"
#include "net/retry.h"
#include "net/transport.h"
#include "pipeline/party.h"
#include "service/protocol.h"

namespace pprl {

/// Session-level retry policy: how hard a Deliver() tries before giving
/// up. Connection loss, timeouts, corrupted frames and kBusy shedding are
/// all retried (resuming the server-side session where it left off);
/// errors that retrying cannot fix — kInvalidArgument, kAlreadyExists,
/// kFailedPrecondition, kInternal — end the delivery at once. The policy
/// and the loop that runs it (attempts, backoff, jitter, deadline) live
/// in net/retry.h so the coordinator's worker links share them.
using SessionRetryPolicy = RetryPolicy;

/// The one reply decoder of every client-side exchange: turns a received
/// frame into the `expected` type's payload. A kError frame becomes its
/// transported status (by code), a kBusy frame a retryable kIoError whose
/// retry-after hint lands in `*busy_hint_ms`, and a clean end of stream a
/// kIoError — a lost connection, never the server's "unknown session"
/// kNotFound.
Result<std::vector<uint8_t>> ExpectFrame(Result<Frame> frame, MessageType expected,
                                         int* busy_hint_ms);

/// How a database owner reaches a linkage-unit daemon.
struct RemoteOwnerClientConfig {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  /// Label used for metering routes before the handshake confirms the
  /// server's own name.
  std::string server_label = "linkage-unit";
  ConnectOptions connect;
  /// After shipping, the linkage waits for the slowest owner; results can
  /// take much longer than a normal read.
  int result_wait_timeout_ms = 120000;
  /// When false, Deliver() returns as soon as the server acks the
  /// shipment complete, with an empty summary — the coordinator's
  /// re-shipment mode, where worker daemons never send a results frame.
  bool wait_for_results = true;
  size_t max_frame_payload = kDefaultMaxFramePayload;
  /// Preferred shipment chunk size; the effective size is capped by the
  /// server's advertised max_chunk_bytes.
  size_t chunk_bytes = 4u << 20;
  SessionRetryPolicy retry;
  /// Chaos mode: when enabled(), every dialled connection is wrapped in a
  /// FaultInjectingConnection with a per-attempt derived seed.
  FaultSpec fault;
};

/// A database owner's view of a remote linkage unit.
///
/// Implements `EncodingSink`, so `DatabaseOwner::ShipEncodings(sink)` works
/// identically against an in-process unit or a daemon across the network.
/// One Deliver() call performs a full fault-tolerant session: connect,
/// handshake, chunked shipment with acked offsets, and blocking receipt
/// of the per-owner results — reconnecting and resuming the server-side
/// session (per `retry`) whenever the connection fails along the way.
///
/// Pass a `Channel` to meter traffic with the same route/tag accounting as
/// the in-process path; frame-header and chunk-header overhead is excluded
/// there and available via wire_bytes_sent()/received(). Shipment bytes
/// are metered against a high-water cursor, so retransmitted spans are
/// counted once — mirroring the server's applied-bytes accounting.
class RemoteOwnerClient : public EncodingSink {
 public:
  explicit RemoteOwnerClient(RemoteOwnerClientConfig config, Channel* meter = nullptr);

  /// Full protocol session for `owner`'s shipment; returns the owner's
  /// linkage summary. Server-reported failures come back with the
  /// server's status code and message.
  Result<OwnerLinkageSummary> ShipAndAwait(const std::string& owner,
                                           const EncodedDatabase& encoded);

  /// Same session, shipping a batch-layout shard (the streaming-ingest
  /// type): the wire payload is built straight from the `BitMatrix` rows,
  /// byte-identical to shipping the equivalent `EncodedDatabase`.
  Result<OwnerLinkageSummary> ShipShardAndAwait(const std::string& owner,
                                                const EncodedShard& shard);

  /// EncodingSink: runs ShipAndAwait and stores the summary for
  /// summary().
  Status Deliver(const std::string& owner, const EncodedDatabase& encoded) override;

  /// The summary of the last successful Deliver()/ShipAndAwait().
  const std::optional<OwnerLinkageSummary>& summary() const { return summary_; }

  /// The server's self-reported name (after a successful handshake).
  const std::string& server_name() const { return server_name_; }

  /// Raw socket bytes of the last Deliver(), frame headers included,
  /// summed over every attempt.
  size_t wire_bytes_sent() const { return wire_bytes_sent_; }
  size_t wire_bytes_received() const { return wire_bytes_received_; }

  /// Retries the last Deliver() needed beyond its first attempt.
  size_t retries() const { return retries_; }

 private:
  /// The fault-tolerant delivery loop shared by both Ship* entry points:
  /// `shipment` is a full EncodeShipment payload, `filter_bits` and
  /// `record_count` fill the Hello.
  Result<OwnerLinkageSummary> DeliverPayload(const std::string& owner,
                                             const std::vector<uint8_t>& shipment,
                                             uint32_t filter_bits,
                                             uint32_t record_count);

  RemoteOwnerClientConfig config_;
  Channel* meter_;
  std::optional<OwnerLinkageSummary> summary_;
  std::string server_name_;
  size_t wire_bytes_sent_ = 0;
  size_t wire_bytes_received_ = 0;
  size_t retries_ = 0;
};

/// How an owner reaches an online (protocol v4) linkage unit.
struct OnlineLinkClientConfig {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  /// Label used for metering routes before the handshake confirms the
  /// server's own name.
  std::string server_label = "linkage-unit";
  ConnectOptions connect;
  int io_timeout_ms = 30000;
  size_t max_frame_payload = kDefaultMaxFramePayload;
  SessionRetryPolicy retry;
};

/// An owner's persistent session against an online linkage unit
/// (`LinkageUnitServerConfig::online_mode`): one connection carries any
/// number of kAppendRecords / kQuery round trips.
///
/// Fault tolerance mirrors RemoteOwnerClient: a lost connection is
/// redialled and the server-side session resumed (fresh hello if it was
/// swept). Appends are idempotent by the party's record cursor, queries
/// are stateless, so every operation is safe to retry.
///
/// AppendRows sends its rows at this client's view of the party's cursor
/// (record 0 on a fresh daemon). The server applies every append of a
/// party — from any number of sessions, bulk shipments included — under
/// one lock, from the cursor read through the apply: rows below the
/// cursor are skipped, so concurrent writers re-sending the same rows
/// index each one exactly once, and a base beyond the cursor is rejected
/// as a gap.
class OnlineLinkClient {
 public:
  explicit OnlineLinkClient(OnlineLinkClientConfig config, Channel* meter = nullptr);
  ~OnlineLinkClient();

  OnlineLinkClient(const OnlineLinkClient&) = delete;
  OnlineLinkClient& operator=(const OnlineLinkClient&) = delete;

  /// Opens a session as `party` (hello with record_count = 0 — the online
  /// query-only handshake; appends are still allowed on it).
  Status Connect(const std::string& party, uint32_t filter_bits);

  /// Appends rows [row_begin, row_end) of `shard` and returns the party's
  /// record cursor after the ack.
  Result<uint64_t> AppendRows(const EncodedShard& shard, size_t row_begin,
                              size_t row_end);

  /// Re-derives the party's record cursor from the server: a zero-record
  /// append probe whose ack carries the server-side count. Resyncs
  /// appended() — after a server crash + recovery this is how an owner
  /// learns where its re-drive must continue (registers the party on
  /// first contact, like any append).
  Result<uint64_t> ServerCursor();

  /// Link-queries rows [row_begin, row_end) of `shard`; one result per
  /// row, in row order. `top_k = 0` means the server's default cap.
  Result<QueryResultMessage> QueryRows(const EncodedShard& shard, size_t row_begin,
                                       size_t row_end, bool want_clusters,
                                       uint32_t top_k);

  /// Closes the connection (the server-side session stays resumable).
  void Close();

  /// The party's record cursor as of the last append ack.
  uint64_t appended() const { return appended_; }
  const std::string& server_name() const { return server_name_; }
  size_t retries() const { return retries_; }

 private:
  /// Dials and handshakes (resume when a session exists, else hello); a
  /// BUSY reply leaves its retry-after hint in `*busy_hint_ms`.
  Status EnsureConnected(int* busy_hint_ms);
  /// Sends `make_payload()` and awaits `expected`, redialling per the
  /// retry policy on connection loss or kBusy. The payload is rebuilt per
  /// attempt so it names the session id in effect after any re-handshake.
  Result<std::vector<uint8_t>> Roundtrip(
      MessageType send_type,
      const std::function<std::vector<uint8_t>()>& make_payload,
      MessageType expected);

  OnlineLinkClientConfig config_;
  Channel* meter_;
  std::string party_;
  uint32_t filter_bits_ = 0;
  uint64_t session_id_ = 0;
  uint64_t appended_ = 0;
  uint64_t next_query_id_ = 1;
  std::string server_name_;
  size_t retries_ = 0;

  std::unique_ptr<TcpConnection> conn_;
  std::unique_ptr<MeteredFrameConnection> mfc_;
};

}  // namespace pprl

#endif  // PPRL_SERVICE_CLIENT_H_
