#include "net/transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "obs/metrics.h"

namespace pprl {

namespace {

Status Errno(const std::string& what) {
  return Status::IoError(what + ": " + std::strerror(errno));
}

Status SetTimeout(int fd, int optname, int timeout_ms) {
  timeval tv{};
  if (timeout_ms > 0) {
    tv.tv_sec = timeout_ms / 1000;
    tv.tv_usec = (timeout_ms % 1000) * 1000;
  }
  if (setsockopt(fd, SOL_SOCKET, optname, &tv, sizeof(tv)) != 0) {
    return Errno("setsockopt timeout");
  }
  return Status::OK();
}

/// One dial attempt with a connect timeout (non-blocking connect + poll).
Result<int> DialOnce(const std::string& host, uint16_t port, int connect_timeout_ms) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad IPv4 address: " + host);
  }
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return Errno("socket");

  // Non-blocking connect so the timeout is ours, not the kernel's.
  const int flags = fcntl(fd, F_GETFL, 0);
  fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  int rc = connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    const Status s = Errno("connect");
    close(fd);
    return s;
  }
  if (rc != 0) {
    pollfd pfd{fd, POLLOUT, 0};
    rc = poll(&pfd, 1, connect_timeout_ms > 0 ? connect_timeout_ms : -1);
    if (rc == 0) {
      close(fd);
      return Status::IoError("connect to " + host + ":" + std::to_string(port) +
                             " timed out");
    }
    if (rc < 0) {
      const Status s = Errno("poll(connect)");
      close(fd);
      return s;
    }
    int err = 0;
    socklen_t err_len = sizeof(err);
    getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &err_len);
    if (err != 0) {
      close(fd);
      return Status::IoError("connect to " + host + ":" + std::to_string(port) + ": " +
                             std::strerror(err));
    }
  }
  fcntl(fd, F_SETFL, flags);  // back to blocking I/O
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

}  // namespace

TcpConnection::TcpConnection(int fd) : fd_(fd) {}

TcpConnection::~TcpConnection() { Close(); }

Result<std::unique_ptr<TcpConnection>> TcpConnection::Connect(
    const std::string& host, uint16_t port, const ConnectOptions& options) {
  Status last = Status::IoError("no connect attempt made");
  int backoff_ms = options.backoff_initial_ms;
  for (int attempt = 0; attempt <= options.max_retries; ++attempt) {
    if (attempt > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
      backoff_ms = std::min(backoff_ms * 2, options.backoff_max_ms);
    }
    auto fd = DialOnce(host, port, options.connect_timeout_ms);
    if (fd.ok()) {
      auto conn = std::make_unique<TcpConnection>(*fd);
      PPRL_RETURN_IF_ERROR(conn->SetIoTimeout(options.io_timeout_ms));
      return conn;
    }
    last = fd.status();
    // Address errors will not improve with retries.
    if (last.code() == StatusCode::kInvalidArgument) return last;
  }
  return Status::IoError("connect failed after " +
                         std::to_string(options.max_retries + 1) +
                         " attempts; last error: " + last.message());
}

Status TcpConnection::SetIoTimeout(int timeout_ms) {
  if (fd_ < 0) return Status::FailedPrecondition("connection is closed");
  PPRL_RETURN_IF_ERROR(SetTimeout(fd_, SO_RCVTIMEO, timeout_ms));
  return SetTimeout(fd_, SO_SNDTIMEO, timeout_ms);
}

Result<size_t> TcpConnection::Read(uint8_t* buf, size_t max) {
  if (fd_ < 0) return Status::FailedPrecondition("connection is closed");
  for (;;) {
    const ssize_t n = recv(fd_, buf, max, 0);
    if (n >= 0) {
      wire_bytes_received_ += static_cast<size_t>(n);
      return static_cast<size_t>(n);
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return Status::IoError("read timed out");
    }
    return Errno("recv");
  }
}

Status TcpConnection::Write(const uint8_t* buf, size_t len) {
  if (fd_ < 0) return Status::FailedPrecondition("connection is closed");
  size_t sent = 0;
  while (sent < len) {
    const ssize_t n = send(fd_, buf + sent, len - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return Status::IoError("write timed out");
      }
      return Errno("send");
    }
    sent += static_cast<size_t>(n);
    wire_bytes_sent_ += static_cast<size_t>(n);
  }
  return Status::OK();
}

void TcpConnection::Close() {
  std::lock_guard<std::mutex> lock(fd_mutex_);
  if (fd_ >= 0) {
    shutdown(fd_, SHUT_RDWR);
    close(fd_);
    fd_ = -1;
  }
}

void TcpConnection::ShutdownRead() {
  std::lock_guard<std::mutex> lock(fd_mutex_);
  if (fd_ >= 0) shutdown(fd_, SHUT_RD);
}

TcpListener::~TcpListener() { Close(); }

Status TcpListener::Listen(uint16_t port, bool loopback_only, int backlog) {
  if (fd_ >= 0) return Status::FailedPrecondition("listener already bound");
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return Errno("socket");
  const int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = loopback_only ? htonl(INADDR_LOOPBACK) : htonl(INADDR_ANY);
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const Status s = Errno("bind port " + std::to_string(port));
    close(fd);
    return s;
  }
  if (listen(fd, backlog) != 0) {
    const Status s = Errno("listen");
    close(fd);
    return s;
  }
  socklen_t addr_len = sizeof(addr);
  if (getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &addr_len) != 0) {
    const Status s = Errno("getsockname");
    close(fd);
    return s;
  }
  fd_ = fd;
  port_ = ntohs(addr.sin_port);
  return Status::OK();
}

Result<std::unique_ptr<TcpConnection>> TcpListener::Accept(int timeout_ms) {
  // Snapshot the fd once: a concurrent Close() swaps fd_ to -1 and shuts
  // the socket down, which makes the poll/accept below fail with the
  // distinct teardown code instead of racing on the member.
  const int fd = fd_.load();
  if (fd < 0) return Status::FailedPrecondition("listener shut down");
  pollfd pfd{fd, POLLIN, 0};
  const int rc = poll(&pfd, 1, timeout_ms > 0 ? timeout_ms : -1);
  if (rc == 0) return Status::NotFound("accept timed out");
  if (rc < 0) {
    if (errno == EINTR) return Status::NotFound("accept interrupted");
    return Errno("poll(accept)");
  }
  // A Close() from another thread shuts the listening socket down, which
  // wakes the poll with an error event rather than a pending connection.
  // Surface that as the distinct teardown code so accept loops can stop
  // polling instead of mistaking it for a timeout.
  if ((pfd.revents & (POLLERR | POLLHUP | POLLNVAL)) != 0) {
    return Status::FailedPrecondition("listener shut down");
  }
  const int conn_fd = accept(fd, nullptr, nullptr);
  if (conn_fd < 0) {
    if (errno == EBADF || errno == EINVAL) {
      return Status::FailedPrecondition("listener shut down");
    }
    return Errno("accept");
  }
  const int one = 1;
  setsockopt(conn_fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return std::make_unique<TcpConnection>(conn_fd);
}

void TcpListener::Close() {
  const int fd = fd_.exchange(-1);
  if (fd >= 0) {
    // shutdown() unblocks any thread parked in poll/accept.
    shutdown(fd, SHUT_RDWR);
    close(fd);
  }
}

namespace {

/// Frame-level traffic counters, both directions, headers included —
/// the wire view the channel's payload accounting deliberately excludes.
struct FrameMetrics {
  obs::Counter& frames_in = obs::GlobalMetrics().GetCounter(
      "pprl_net_frames_total", "Protocol frames by direction", {{"direction", "in"}});
  obs::Counter& frames_out = obs::GlobalMetrics().GetCounter(
      "pprl_net_frames_total", "Protocol frames by direction", {{"direction", "out"}});
  obs::Counter& bytes_in = obs::GlobalMetrics().GetCounter(
      "pprl_net_frame_bytes_total", "Frame bytes (header + payload) by direction",
      {{"direction", "in"}});
  obs::Counter& bytes_out = obs::GlobalMetrics().GetCounter(
      "pprl_net_frame_bytes_total", "Frame bytes (header + payload) by direction",
      {{"direction", "out"}});
};

FrameMetrics& GlobalFrameMetrics() {
  static FrameMetrics* m = new FrameMetrics();
  return *m;
}

}  // namespace

MeteredFrameConnection::MeteredFrameConnection(Connection& conn, Channel* meter,
                                               std::string self, size_t max_payload)
    : conn_(conn),
      reader_(conn, max_payload),
      writer_(conn, max_payload),
      meter_(meter),
      self_(std::move(self)) {}

Status MeteredFrameConnection::Send(uint8_t type, const std::vector<uint8_t>& payload,
                                    const std::string& tag, size_t metered_bytes) {
  PPRL_RETURN_IF_ERROR(writer_.WriteFrame(type, payload));
  GlobalFrameMetrics().frames_out.Increment();
  GlobalFrameMetrics().bytes_out.Increment(kFrameHeaderSize + payload.size());
  if (meter_ != nullptr) {
    const size_t bytes =
        metered_bytes == kMeterWholePayload ? payload.size() : metered_bytes;
    meter_->Send(self_, peer_.empty() ? "peer" : peer_, bytes, tag);
  }
  return Status::OK();
}

Result<Frame> MeteredFrameConnection::Receive(const char* (*tag_of)(uint8_t)) {
  auto frame = ReceiveUnmetered();  // counts the frame; channel metering below
  if (!frame.ok()) return frame.status();
  MeterReceived(*frame, tag_of);
  return frame;
}

Result<Frame> MeteredFrameConnection::ReceiveUnmetered() {
  auto frame = reader_.ReadFrame();
  if (frame.ok()) {
    // Frame counters are independent of the channel's payload metering:
    // even a frame whose sender is still unknown is wire traffic.
    GlobalFrameMetrics().frames_in.Increment();
    GlobalFrameMetrics().bytes_in.Increment(frame->wire_size());
  }
  return frame;
}

void MeteredFrameConnection::MeterReceived(const Frame& frame,
                                           const char* (*tag_of)(uint8_t)) {
  if (meter_ == nullptr) return;
  const char* tag = tag_of != nullptr ? tag_of(frame.type) : "frame";
  meter_->Send(peer_.empty() ? "peer" : peer_, self_, frame.payload.size(), tag);
}

void MeteredFrameConnection::MeterReceivedBytes(size_t bytes, const std::string& tag) {
  if (meter_ == nullptr) return;
  meter_->Send(peer_.empty() ? "peer" : peer_, self_, bytes, tag);
}

}  // namespace pprl
