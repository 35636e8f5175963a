#ifndef PPRL_NET_METRICS_HTTP_H_
#define PPRL_NET_METRICS_HTTP_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>

#include "common/status.h"
#include "net/transport.h"

namespace pprl {

/// Configuration of the side-channel metrics endpoint.
struct MetricsHttpServerConfig {
  /// 0 binds an ephemeral port; read it back via port() after Start().
  uint16_t port = 0;
  /// Loopback-only by default, like the linkage daemon itself.
  bool loopback_only = true;
  /// Per-connection read/write timeout; scrapers are expected to be fast.
  int io_timeout_ms = 2000;
};

/// A deliberately tiny HTTP/1.0 server for Prometheus scrapes: answers
/// `GET /metrics` (and `GET /`) with a text body produced by the caller's
/// provider callback, everything else with 404. One connection at a time,
/// close-after-response — exactly what a scraper needs and nothing more.
///
/// The body provider keeps this class free of a dependency on the obs
/// registry: the daemon passes a lambda that renders the global snapshot,
/// tests can pass a constant.
class MetricsHttpServer {
 public:
  using BodyProvider = std::function<std::string()>;

  MetricsHttpServer(MetricsHttpServerConfig config, BodyProvider provider);
  ~MetricsHttpServer();

  MetricsHttpServer(const MetricsHttpServer&) = delete;
  MetricsHttpServer& operator=(const MetricsHttpServer&) = delete;

  /// Binds, listens and starts the serve loop. Non-blocking.
  Status Start();

  /// Stops accepting and joins the serve thread. Idempotent.
  void Stop();

  /// The bound port (valid after Start()).
  uint16_t port() const { return listener_.port(); }

 private:
  void ServeLoop();
  void ServeOne(TcpConnection& conn);

  MetricsHttpServerConfig config_;
  BodyProvider provider_;
  TcpListener listener_;
  std::thread serve_thread_;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> started_{false};
};

}  // namespace pprl

#endif  // PPRL_NET_METRICS_HTTP_H_
