#ifndef PPRL_NET_TRANSPORT_H_
#define PPRL_NET_TRANSPORT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "common/status.h"
#include "net/frame.h"
#include "pipeline/channel.h"

namespace pprl {

/// Connection establishment knobs. Retries use exponential backoff:
/// attempt k sleeps `backoff_initial_ms * 2^k` (capped at
/// `backoff_max_ms`) before re-dialling — the standard pattern for a
/// client racing a daemon that is still binding its port.
struct ConnectOptions {
  int connect_timeout_ms = 5000;
  int io_timeout_ms = 30000;
  int max_retries = 5;
  int backoff_initial_ms = 50;
  int backoff_max_ms = 2000;
};

/// A bidirectional byte-stream endpoint: ByteSource + ByteSink plus the
/// lifecycle and accounting the framed protocol layers need. TcpConnection
/// is the real socket; FaultInjectingConnection (net/fault_injection.h)
/// decorates any Connection with deterministic injected faults, which is
/// how the chaos tests and `pprl_linkd --chaos` exercise the resume path
/// without special-casing the protocol code.
class Connection : public ByteSource, public ByteSink {
 public:
  ~Connection() override = default;

  /// Applies `timeout_ms` to subsequent reads and writes; <= 0 blocks
  /// forever.
  virtual Status SetIoTimeout(int timeout_ms) = 0;

  /// Shuts the stream down (idempotent).
  virtual void Close() = 0;

  virtual bool closed() const = 0;

  /// Raw wire bytes in each direction, frame headers included.
  virtual size_t wire_bytes_sent() const = 0;
  virtual size_t wire_bytes_received() const = 0;
};

/// A blocking TCP byte stream (POSIX sockets) with read/write timeouts.
///
/// Implements ByteSource/ByteSink so FrameReader/FrameWriter run directly
/// on top, and counts raw wire bytes in each direction so framing overhead
/// can be reported separately from the metered protocol payloads.
class TcpConnection : public Connection {
 public:
  /// Takes ownership of a connected socket fd (server side; Accept()).
  explicit TcpConnection(int fd);
  ~TcpConnection() override;

  TcpConnection(const TcpConnection&) = delete;
  TcpConnection& operator=(const TcpConnection&) = delete;

  /// Dials `host:port`, retrying with exponential backoff per `options`.
  static Result<std::unique_ptr<TcpConnection>> Connect(const std::string& host,
                                                        uint16_t port,
                                                        const ConnectOptions& options);

  /// Applies `timeout_ms` to subsequent reads and writes (SO_RCVTIMEO /
  /// SO_SNDTIMEO). <= 0 means block forever.
  Status SetIoTimeout(int timeout_ms) override;

  /// ByteSource: up to `max` bytes; 0 = peer closed. Timeouts surface as
  /// kIoError mentioning "timed out".
  Result<size_t> Read(uint8_t* buf, size_t max) override;

  /// ByteSink: writes all `len` bytes or fails.
  Status Write(const uint8_t* buf, size_t len) override;

  /// Shuts down and closes the socket (idempotent).
  void Close() override;

  /// Shuts the read side down (`shutdown(SHUT_RD)`): a read parked on the
  /// socket returns end of stream, and so does every later read once the
  /// bytes already received are consumed; writes still go out. Safe from
  /// any thread, also against a concurrent Close(): a closed connection is
  /// left alone, so a reused descriptor number is never touched.
  void ShutdownRead();

  bool closed() const override { return fd_ < 0; }

  /// Raw wire bytes, including frame headers — the basis of the
  /// framing-overhead column in benchmarks.
  size_t wire_bytes_sent() const override { return wire_bytes_sent_.load(); }
  size_t wire_bytes_received() const override { return wire_bytes_received_.load(); }

 private:
  /// Guards closing fd_ against ShutdownRead() from another thread. Reads
  /// and writes run on the owning thread and need no lock.
  std::mutex fd_mutex_;
  int fd_ = -1;
  std::atomic<size_t> wire_bytes_sent_{0};
  std::atomic<size_t> wire_bytes_received_{0};
};

/// A listening TCP socket bound to 127.0.0.1 (loopback service) or any
/// interface.
class TcpListener {
 public:
  TcpListener() = default;
  ~TcpListener();

  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  /// Binds and listens. `port` 0 picks an ephemeral port (see port()).
  /// `loopback_only` binds 127.0.0.1, else INADDR_ANY.
  Status Listen(uint16_t port, bool loopback_only = true, int backlog = 16);

  /// Accepts one connection, waiting at most `timeout_ms` (<= 0 = forever).
  /// The error code tells pollers what happened:
  ///   - kNotFound: poll timeout or a transient interruption — poll again;
  ///   - kFailedPrecondition: the listener was shut down (Close() from
  ///     another thread, or never bound) — stop polling;
  ///   - kIoError: a real accept failure.
  Result<std::unique_ptr<TcpConnection>> Accept(int timeout_ms);

  /// The bound port (resolved after Listen, also for ephemeral binds).
  uint16_t port() const { return port_; }

  bool listening() const { return fd_.load() >= 0; }

  /// Stops accepting (unblocks a blocked Accept with an error). Safe to
  /// call from a different thread than the one parked in Accept — that
  /// is how accept loops are torn down.
  void Close();

 private:
  /// Atomic because Close() races a concurrent Accept() by design.
  std::atomic<int> fd_{-1};
  uint16_t port_ = 0;
};

/// A framed, metered protocol connection: FrameReader/FrameWriter over a
/// TcpConnection, metering every frame into a `Channel` with the same
/// (from, to, tag) accounting the in-process pipelines use.
///
/// Metering covers the *payload* bytes under the message-type's tag; the
/// constant 12-byte frame header is deliberately excluded so byte totals
/// line up with the in-process `Channel` path, and is recoverable as
/// wire_bytes() - channel totals.
class MeteredFrameConnection {
 public:
  /// `meter` may be null (no accounting). `self` names this endpoint;
  /// `peer` is set after the handshake identifies the remote party. The
  /// connection must outlive this wrapper (callers own it).
  MeteredFrameConnection(Connection& conn, Channel* meter, std::string self,
                         size_t max_payload = kDefaultMaxFramePayload);

  void set_peer(std::string peer) { peer_ = std::move(peer); }
  const std::string& peer() const { return peer_; }

  /// Sends one frame; meters payload bytes as self -> peer under `tag`.
  /// `metered_bytes` overrides the byte count handed to the channel —
  /// shipment chunks pass only their data length, so the per-chunk session
  /// header stays wire-level overhead (like the frame header) and the
  /// "encoded-filters" cost column matches the in-process path exactly.
  Status Send(uint8_t type, const std::vector<uint8_t>& payload, const std::string& tag,
              size_t metered_bytes = kMeterWholePayload);

  /// Receives one frame; meters payload bytes as peer -> self under the
  /// tag derived from the received type by `tag_of` (may be null).
  Result<Frame> Receive(const char* (*tag_of)(uint8_t));

  /// Receives one frame without metering it — for the server's first read,
  /// where the sender's name is only known once the hello is decoded. Pair
  /// with MeterReceived() after set_peer().
  Result<Frame> ReceiveUnmetered();

  /// Meters an already-received frame as peer -> self (see
  /// ReceiveUnmetered).
  void MeterReceived(const Frame& frame, const char* (*tag_of)(uint8_t));

  /// Meters `bytes` as peer -> self under `tag` — for frames whose metered
  /// size differs from the payload size (applied shipment-chunk data).
  void MeterReceivedBytes(size_t bytes, const std::string& tag);

  Connection& socket() { return conn_; }

  /// Sentinel for Send(): meter payload.size().
  static constexpr size_t kMeterWholePayload = static_cast<size_t>(-1);

 private:
  Connection& conn_;
  FrameReader reader_;
  FrameWriter writer_;
  Channel* meter_;
  std::string self_;
  std::string peer_;
};

}  // namespace pprl

#endif  // PPRL_NET_TRANSPORT_H_
