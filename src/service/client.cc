#include "service/client.h"

#include <algorithm>

#include "common/logging.h"
#include "net/frame.h"
#include "net/retry.h"
#include "obs/metrics.h"

namespace pprl {

namespace {

void CountRetry(bool busy) {
  obs::GlobalMetrics()
      .GetCounter("pprl_retries_total", "Client session retries, by trigger",
                  {{"reason", busy ? "busy" : "io"}})
      .Increment();
}

/// What a hello or resume told the owner about its server-side session.
struct OpenedSession {
  uint64_t session_id = 0;
  /// Hello only: the largest chunk the server accepts.
  uint32_t max_chunk_bytes = 0;
  /// Resume only: the server's acked shipment cursor and whether the
  /// shipment is already registered.
  uint64_t acked_bytes = 0;
  bool shipment_complete = false;
};

/// The owner side of the handshake, shared by both clients: a hello
/// declaring `filter_bits` x `record_count` when `session_id` is 0, else a
/// resume of that session. A hello names the server as `mfc`'s peer and
/// stores its name in `*server_name`.
Result<OpenedSession> OpenSession(MeteredFrameConnection& mfc, const std::string& party,
                                  uint64_t session_id, uint32_t filter_bits,
                                  uint32_t record_count, std::string* server_name,
                                  int* busy_hint_ms) {
  OpenedSession opened;
  if (session_id == 0) {
    HelloMessage hello;
    hello.protocol_version = kWireProtocolVersion;
    hello.party = party;
    hello.filter_bits = filter_bits;
    hello.record_count = record_count;
    PPRL_RETURN_IF_ERROR(
        mfc.Send(static_cast<uint8_t>(MessageType::kHello), EncodeHello(hello),
                 MessageTypeTag(static_cast<uint8_t>(MessageType::kHello))));
    auto ack_payload =
        ExpectFrame(mfc.Receive(MessageTypeTag), MessageType::kHelloAck, busy_hint_ms);
    if (!ack_payload.ok()) return ack_payload.status();
    auto ack = DecodeHelloAck(*ack_payload);
    if (!ack.ok()) return ack.status();
    if (ack->protocol_version != kWireProtocolVersion) {
      return Status::ProtocolViolation("server speaks protocol version " +
                                       std::to_string(ack->protocol_version) +
                                       ", client speaks " +
                                       std::to_string(kWireProtocolVersion));
    }
    *server_name = ack->server;
    mfc.set_peer(ack->server);
    opened.session_id = ack->session_id;
    opened.max_chunk_bytes = ack->max_chunk_bytes;
    return opened;
  }
  ResumeMessage resume;
  resume.protocol_version = kWireProtocolVersion;
  resume.party = party;
  resume.session_id = session_id;
  PPRL_RETURN_IF_ERROR(
      mfc.Send(static_cast<uint8_t>(MessageType::kResume), EncodeResume(resume),
               MessageTypeTag(static_cast<uint8_t>(MessageType::kResume))));
  auto rack_payload =
      ExpectFrame(mfc.Receive(MessageTypeTag), MessageType::kResumeAck, busy_hint_ms);
  if (!rack_payload.ok()) return rack_payload.status();
  auto rack = DecodeResumeAck(*rack_payload);
  if (!rack.ok()) return rack.status();
  if (rack->session_id != session_id) {
    return Status::ProtocolViolation("resume-ack does not match the session");
  }
  opened.session_id = session_id;
  opened.acked_bytes = rack->acked_bytes;
  opened.shipment_complete = rack->shipment_complete;
  return opened;
}

/// The owner-side cursor of one delivery, carried across attempts.
struct SessionCursor {
  uint64_t session_id = 0;
  uint64_t acked = 0;
  bool shipment_complete = false;
  /// Shipment bytes already metered into the channel; retransmissions
  /// below this cursor are not metered again.
  uint64_t metered_up_to = 0;
  size_t max_chunk = 0;
};

}  // namespace

Result<std::vector<uint8_t>> ExpectFrame(Result<Frame> frame, MessageType expected,
                                         int* busy_hint_ms) {
  if (!frame.ok()) {
    // The frame reader's kNotFound is a *clean EOF between frames* — the
    // peer hung up mid-session, which is an ordinary connection loss. It
    // must not be confused with a server-sent kError(kNotFound) ("unknown
    // session"), the only kNotFound that should make the client abandon
    // its resume cursor and start over.
    if (frame.status().code() == StatusCode::kNotFound) {
      return Status::IoError("connection closed mid-session (" +
                             frame.status().message() + ")");
    }
    return frame.status();
  }
  if (frame->type == static_cast<uint8_t>(MessageType::kBusy)) {
    auto busy = DecodeBusy(frame->payload);
    if (!busy.ok()) return busy.status();
    *busy_hint_ms = static_cast<int>(busy->retry_after_ms);
    return Status::IoError("server busy: " + busy->reason);
  }
  if (frame->type == static_cast<uint8_t>(MessageType::kError)) {
    auto err = DecodeError(frame->payload);
    if (!err.ok()) return err.status();
    // Reconstruct the server's status by code.
    const std::string msg = "server: " + err->message;
    switch (err->code) {
      case StatusCode::kInvalidArgument: return Status::InvalidArgument(msg);
      case StatusCode::kOutOfRange: return Status::OutOfRange(msg);
      case StatusCode::kNotFound: return Status::NotFound(msg);
      case StatusCode::kAlreadyExists: return Status::AlreadyExists(msg);
      case StatusCode::kFailedPrecondition: return Status::FailedPrecondition(msg);
      case StatusCode::kProtocolViolation: return Status::ProtocolViolation(msg);
      case StatusCode::kIoError: return Status::IoError(msg);
      default: return Status::Internal(msg);
    }
  }
  if (frame->type != static_cast<uint8_t>(expected)) {
    return Status::ProtocolViolation(
        "expected frame type " + std::to_string(static_cast<uint8_t>(expected)) +
        ", got " + std::to_string(frame->type));
  }
  return std::move(frame->payload);
}

RemoteOwnerClient::RemoteOwnerClient(RemoteOwnerClientConfig config, Channel* meter)
    : config_(std::move(config)), meter_(meter) {}

Result<OwnerLinkageSummary> RemoteOwnerClient::ShipAndAwait(
    const std::string& owner, const EncodedDatabase& encoded) {
  if (encoded.ids.size() != encoded.filters.size()) {
    return Status::InvalidArgument("shipment ids/filters size mismatch");
  }
  if (encoded.filters.empty() || encoded.filters[0].empty()) {
    return Status::InvalidArgument("nothing to ship: empty encoding");
  }
  auto shipment_payload = EncodeShipment(encoded);
  if (!shipment_payload.ok()) return shipment_payload.status();
  return DeliverPayload(owner, *shipment_payload,
                        static_cast<uint32_t>(encoded.filters[0].size()),
                        static_cast<uint32_t>(encoded.size()));
}

Result<OwnerLinkageSummary> RemoteOwnerClient::ShipShardAndAwait(
    const std::string& owner, const EncodedShard& shard) {
  if (shard.ids.size() != shard.bits.num_rows()) {
    return Status::InvalidArgument("shipment ids/filters size mismatch");
  }
  if (shard.size() == 0 || shard.bits.num_bits() == 0) {
    return Status::InvalidArgument("nothing to ship: empty encoding");
  }
  auto shipment_payload = EncodeShipment(shard);
  if (!shipment_payload.ok()) return shipment_payload.status();
  return DeliverPayload(owner, *shipment_payload,
                        static_cast<uint32_t>(shard.bits.num_bits()),
                        static_cast<uint32_t>(shard.size()));
}

Result<OwnerLinkageSummary> RemoteOwnerClient::DeliverPayload(
    const std::string& owner, const std::vector<uint8_t>& shipment,
    uint32_t filter_bits, uint32_t record_count) {
  wire_bytes_sent_ = 0;
  wire_bytes_received_ = 0;
  retries_ = 0;

  SessionCursor cursor;
  cursor.max_chunk = std::max<size_t>(config_.chunk_bytes, 1);

  // One attempt = one connection lifetime: handshake (hello or resume),
  // chunk loop from the acked cursor, then the results wait. Returns the
  // summary or the error that ended the connection.
  const auto attempt_session = [&](int attempt,
                                   int* busy_hint_ms) -> Result<OwnerLinkageSummary> {
    auto conn = TcpConnection::Connect(config_.host, config_.port, config_.connect);
    if (!conn.ok()) return conn.status();
    TcpConnection& socket = **conn;
    std::unique_ptr<FaultInjectingConnection> chaos;
    Connection* wire = &socket;
    if (config_.fault.enabled()) {
      chaos = std::make_unique<FaultInjectingConnection>(
          socket, config_.fault.WithSeed(config_.fault.seed +
                                         0x9e3779b97f4a7c15ULL *
                                             static_cast<uint64_t>(attempt + 1)));
      wire = chaos.get();
    }
    MeteredFrameConnection mfc(*wire, meter_, owner, config_.max_frame_payload);
    mfc.set_peer(server_name_.empty() ? config_.server_label : server_name_);

    struct WireTally {
      TcpConnection& socket;
      size_t& sent;
      size_t& received;
      ~WireTally() {
        sent += socket.wire_bytes_sent();
        received += socket.wire_bytes_received();
      }
    } tally{socket, wire_bytes_sent_, wire_bytes_received_};

    // 1. Handshake: a fresh hello, or a resume of the server-side session.
    auto opened = OpenSession(mfc, owner, cursor.session_id, filter_bits, record_count,
                              &server_name_, busy_hint_ms);
    if (!opened.ok()) return opened.status();
    if (cursor.session_id == 0) {
      cursor.session_id = opened->session_id;
      cursor.max_chunk = std::min<size_t>(std::max<size_t>(config_.chunk_bytes, 1),
                                          opened->max_chunk_bytes);
    } else {
      if (opened->acked_bytes > shipment.size()) {
        return Status::ProtocolViolation("resume-ack does not match the session");
      }
      cursor.acked = opened->acked_bytes;
      cursor.shipment_complete = opened->shipment_complete;
      PPRL_LOG(kDebug) << "owner '" << owner << "' resumed session "
                       << cursor.session_id << " at byte " << cursor.acked;
    }

    // 2. Chunked shipment from the acked cursor (stop-and-wait: each
    // chunk is acked before the next, so the resume point is always the
    // server's last ack).
    while (!cursor.shipment_complete) {
      const size_t n =
          std::min<size_t>(cursor.max_chunk, shipment.size() - cursor.acked);
      ShipmentChunkMessage chunk;
      chunk.session_id = cursor.session_id;
      chunk.offset = cursor.acked;
      chunk.last = cursor.acked + n == shipment.size();
      chunk.data.assign(shipment.begin() + static_cast<ptrdiff_t>(cursor.acked),
                        shipment.begin() + static_cast<ptrdiff_t>(cursor.acked + n));
      // Meter only bytes never metered before, mirroring the server's
      // applied-bytes accounting across retransmissions.
      const uint64_t end = cursor.acked + n;
      const size_t fresh =
          end > cursor.metered_up_to
              ? static_cast<size_t>(end - std::max(cursor.acked, cursor.metered_up_to))
              : 0;
      PPRL_RETURN_IF_ERROR(
          mfc.Send(static_cast<uint8_t>(MessageType::kShipmentChunk),
                   EncodeShipmentChunk(chunk),
                   MessageTypeTag(static_cast<uint8_t>(MessageType::kShipmentChunk)),
                   fresh));
      cursor.metered_up_to = std::max<uint64_t>(cursor.metered_up_to, end);
      auto ack_payload = ExpectFrame(mfc.Receive(MessageTypeTag),
                                     MessageType::kShipmentAck, busy_hint_ms);
      if (!ack_payload.ok()) return ack_payload.status();
      auto ack = DecodeShipmentAck(*ack_payload);
      if (!ack.ok()) return ack.status();
      if (ack->session_id != cursor.session_id || ack->acked_bytes < cursor.acked ||
          ack->acked_bytes > shipment.size()) {
        return Status::ProtocolViolation("shipment-ack does not match the session");
      }
      cursor.acked = ack->acked_bytes;
      cursor.shipment_complete = ack->complete;
      if (!ack->complete && cursor.acked >= shipment.size()) {
        return Status::ProtocolViolation(
            "server acked the whole shipment without completing it");
      }
      if (ack->complete) {
        PPRL_LOG(kDebug) << "owner '" << owner << "' shipped ("
                         << ack->owners_shipped << "/" << ack->expected_owners
                         << " owners in)";
      }
    }

    // 3. Results — the linkage waits for the slowest owner, so be patient.
    // Re-shipment mode (coordinator -> worker) ends here: workers never
    // send a results frame for an owner session.
    if (!config_.wait_for_results) return OwnerLinkageSummary{};
    wire->SetIoTimeout(config_.result_wait_timeout_ms);
    auto results_payload = ExpectFrame(mfc.Receive(MessageTypeTag),
                                       MessageType::kResults, busy_hint_ms);
    if (!results_payload.ok()) return results_payload.status();
    return DecodeResults(*results_payload);
  };

  Result<OwnerLinkageSummary> summary = Status::IoError("no delivery attempt made");
  const Status delivered = RunWithRetry(
      config_.retry, "delivery of owner '" + owner + "'",
      [&](int attempt, int* busy_hint_ms) {
        summary = attempt_session(attempt, busy_hint_ms);
        if (summary.status().code() == StatusCode::kNotFound) {
          // The server no longer knows the session (swept, or restarted):
          // start over with a fresh hello and meter the shipment anew.
          PPRL_LOG(kWarning) << "owner '" << owner << "' session " << cursor.session_id
                             << " lost on the server (" << summary.status().message()
                             << "); starting over";
          cursor = SessionCursor{};
          cursor.max_chunk = std::max<size_t>(config_.chunk_bytes, 1);
        }
        return summary.status();
      },
      [this](bool busy, int) {
        CountRetry(busy);
        ++retries_;
      });
  if (!delivered.ok()) return delivered;
  return summary;
}

Status RemoteOwnerClient::Deliver(const std::string& owner,
                                  const EncodedDatabase& encoded) {
  auto summary = ShipAndAwait(owner, encoded);
  if (!summary.ok()) return summary.status();
  summary_ = std::move(*summary);
  return Status::OK();
}

OnlineLinkClient::OnlineLinkClient(OnlineLinkClientConfig config, Channel* meter)
    : config_(std::move(config)), meter_(meter) {}

OnlineLinkClient::~OnlineLinkClient() { Close(); }

void OnlineLinkClient::Close() {
  mfc_.reset();
  if (conn_) conn_->Close();
  conn_.reset();
}

Status OnlineLinkClient::Connect(const std::string& party, uint32_t filter_bits) {
  if (party.empty()) return Status::InvalidArgument("party name missing");
  if (filter_bits == 0) return Status::InvalidArgument("filter bit length missing");
  Close();
  party_ = party;
  filter_bits_ = filter_bits;
  session_id_ = 0;
  appended_ = 0;
  int busy_hint_ms = -1;
  return EnsureConnected(&busy_hint_ms);
}

Status OnlineLinkClient::EnsureConnected(int* busy_hint_ms) {
  if (mfc_) return Status::OK();
  if (party_.empty()) return Status::FailedPrecondition("Connect() first");
  auto conn = TcpConnection::Connect(config_.host, config_.port, config_.connect);
  if (!conn.ok()) return conn.status();
  conn_ = std::move(*conn);
  conn_->SetIoTimeout(config_.io_timeout_ms);
  mfc_ = std::make_unique<MeteredFrameConnection>(*conn_, meter_, party_,
                                                  config_.max_frame_payload);
  mfc_->set_peer(server_name_.empty() ? config_.server_label : server_name_);

  // A fresh session is the online query-only hello (zero records — appends
  // are still allowed, cursored by the engine); an existing one resumes.
  auto opened = OpenSession(*mfc_, party_, session_id_, filter_bits_,
                            /*record_count=*/0, &server_name_, busy_hint_ms);
  if (!opened.ok()) {
    Close();
    if (session_id_ != 0 && opened.status().code() == StatusCode::kNotFound) {
      // Swept on the server: start a fresh session. The record cursor
      // lives in the engine, not the session, so appends stay idempotent.
      session_id_ = 0;
      return EnsureConnected(busy_hint_ms);
    }
    return opened.status();
  }
  session_id_ = opened->session_id;
  return Status::OK();
}

Result<std::vector<uint8_t>> OnlineLinkClient::Roundtrip(
    MessageType send_type,
    const std::function<std::vector<uint8_t>()>& make_payload,
    MessageType expected) {
  Result<std::vector<uint8_t>> reply = Status::IoError("no attempt made");
  const Status done = RunWithRetry(
      config_.retry, "online round trip of owner '" + party_ + "'",
      [&](int, int* busy_hint_ms) {
        Status status = EnsureConnected(busy_hint_ms);
        if (!status.ok()) return status;
        status = mfc_->Send(static_cast<uint8_t>(send_type), make_payload(),
                            MessageTypeTag(static_cast<uint8_t>(send_type)));
        if (status.ok()) {
          reply = ExpectFrame(mfc_->Receive(MessageTypeTag), expected, busy_hint_ms);
          status = reply.status();
        }
        if (!status.ok()) {
          // Failed mid-exchange: drop the connection, redial next attempt.
          Close();
          if (status.code() == StatusCode::kNotFound) {
            session_id_ = 0;  // swept on the server: fresh hello next attempt
          }
        }
        return status;
      },
      [this](bool busy, int) {
        CountRetry(busy);
        ++retries_;
      });
  if (!done.ok()) return done;
  return reply;
}

Result<uint64_t> OnlineLinkClient::AppendRows(const EncodedShard& shard,
                                              size_t row_begin, size_t row_end) {
  if (filter_bits_ == 0) return Status::FailedPrecondition("Connect() first");
  if (shard.bits.num_bits() != filter_bits_) {
    return Status::InvalidArgument("shard filter bits do not match the session");
  }
  auto data = EncodeShipmentRows(shard, row_begin, row_end);
  if (!data.ok()) return data.status();
  const uint32_t count = static_cast<uint32_t>(row_end - row_begin);
  const uint64_t base = appended_;
  auto reply = Roundtrip(
      MessageType::kAppendRecords,
      [&] {
        AppendRecordsMessage msg;
        msg.session_id = session_id_;
        msg.base_index = base;
        msg.filter_bits = filter_bits_;
        msg.count = count;
        msg.data = *data;
        return EncodeAppendRecords(msg);
      },
      MessageType::kShipmentAck);
  if (!reply.ok()) return reply.status();
  auto ack = DecodeShipmentAck(*reply);
  if (!ack.ok()) return ack.status();
  if (ack->session_id != session_id_ || ack->acked_bytes < base + count) {
    return Status::ProtocolViolation("append ack does not cover the batch");
  }
  appended_ = ack->acked_bytes;
  return appended_;
}

Result<uint64_t> OnlineLinkClient::ServerCursor() {
  if (filter_bits_ == 0) return Status::FailedPrecondition("Connect() first");
  auto reply = Roundtrip(
      MessageType::kAppendRecords,
      [&] {
        AppendRecordsMessage msg;
        msg.session_id = session_id_;
        // base_index 0 always passes the server's gap check, and an empty
        // batch appends nothing — the ack is purely the cursor readback.
        msg.base_index = 0;
        msg.filter_bits = filter_bits_;
        msg.count = 0;
        return EncodeAppendRecords(msg);
      },
      MessageType::kShipmentAck);
  if (!reply.ok()) return reply.status();
  auto ack = DecodeShipmentAck(*reply);
  if (!ack.ok()) return ack.status();
  if (ack->session_id != session_id_) {
    return Status::ProtocolViolation("cursor ack names a different session");
  }
  appended_ = ack->acked_bytes;
  return appended_;
}

Result<QueryResultMessage> OnlineLinkClient::QueryRows(
    const EncodedShard& shard, size_t row_begin, size_t row_end,
    bool want_clusters, uint32_t top_k) {
  if (filter_bits_ == 0) return Status::FailedPrecondition("Connect() first");
  if (shard.bits.num_bits() != filter_bits_) {
    return Status::InvalidArgument("shard filter bits do not match the session");
  }
  auto data = EncodeShipmentRows(shard, row_begin, row_end);
  if (!data.ok()) return data.status();
  const uint32_t count = static_cast<uint32_t>(row_end - row_begin);
  const uint64_t query_id = next_query_id_++;
  auto reply = Roundtrip(
      MessageType::kQuery,
      [&] {
        QueryMessage msg;
        msg.session_id = session_id_;
        msg.query_id = query_id;
        msg.want_clusters = want_clusters;
        msg.top_k = top_k;
        msg.filter_bits = filter_bits_;
        msg.count = count;
        msg.data = *data;
        return EncodeQuery(msg);
      },
      MessageType::kQueryResult);
  if (!reply.ok()) return reply.status();
  auto result = DecodeQueryResult(*reply);
  if (!result.ok()) return result.status();
  if (result->query_id != query_id) {
    return Status::ProtocolViolation("query-result answers a different query");
  }
  if (result->records.size() != count) {
    return Status::ProtocolViolation("query-result record count mismatch");
  }
  return result;
}

}  // namespace pprl
