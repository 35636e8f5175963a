#include "net/metrics_http.h"

#include <chrono>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "net/transport.h"

namespace pprl {
namespace {

using std::chrono::steady_clock;

/// Issues one HTTP/1.0 GET against the server and returns the raw reply.
std::string Get(uint16_t port, const std::string& path) {
  ConnectOptions options;
  options.io_timeout_ms = 2000;
  auto conn = TcpConnection::Connect("127.0.0.1", port, options);
  if (!conn.ok()) return "";
  const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  if (!(*conn)->Write(reinterpret_cast<const uint8_t*>(request.data()),
                      request.size())
           .ok()) {
    return "";
  }
  std::string reply;
  uint8_t buf[512];
  for (;;) {
    auto n = (*conn)->Read(buf, sizeof(buf));
    if (!n.ok() || *n == 0) break;
    reply.append(reinterpret_cast<const char*>(buf), *n);
  }
  return reply;
}

TEST(MetricsHttpTest, ServesScrapesUntilStopped) {
  MetricsHttpServerConfig config;
  config.port = 0;
  MetricsHttpServer server(config, [] { return std::string("pprl_up 1\n"); });
  ASSERT_TRUE(server.Start().ok());

  const std::string reply = Get(server.port(), "/metrics");
  EXPECT_NE(reply.find("200"), std::string::npos) << reply;
  EXPECT_NE(reply.find("pprl_up 1"), std::string::npos) << reply;
  EXPECT_NE(Get(server.port(), "/nope").find("404"), std::string::npos);

  const uint16_t port = server.port();
  server.Stop();
  // After Stop() the port no longer answers (connect may succeed briefly
  // in the kernel backlog, but no response ever arrives).
  ConnectOptions options;
  options.io_timeout_ms = 200;
  options.max_retries = 0;
  options.connect_timeout_ms = 200;
  auto conn = TcpConnection::Connect("127.0.0.1", port, options);
  if (conn.ok()) {
    uint8_t buf[8];
    auto n = (*conn)->Read(buf, sizeof(buf));
    EXPECT_TRUE(!n.ok() || *n == 0);
  }
}

TEST(MetricsHttpTest, StopReturnsPromptlyWithStalledScrapeInFlight) {
  MetricsHttpServerConfig config;
  config.port = 0;
  config.io_timeout_ms = 200;  // bound the stalled read below
  MetricsHttpServer server(config, [] { return std::string("pprl_up 1\n"); });
  ASSERT_TRUE(server.Start().ok());

  // Open a connection but never send the request line: the serve loop is
  // now parked in ReadRequest on this socket.
  ConnectOptions options;
  options.io_timeout_ms = 2000;
  auto stalled = TcpConnection::Connect("127.0.0.1", server.port(), options);
  ASSERT_TRUE(stalled.ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // Stop() must come back once the per-connection io timeout expires — the
  // regression here was the serve loop treating its own teardown (or a poll
  // timeout) as a fatal accept error, or worse, never distinguishing the
  // two and spinning/hanging.
  const auto start = steady_clock::now();
  server.Stop();
  const auto elapsed = steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::seconds(3)) << "Stop() hung on a stalled scrape";
  (*stalled)->Close();

  // Idempotent: a second Stop() is a no-op.
  server.Stop();
}

}  // namespace
}  // namespace pprl
