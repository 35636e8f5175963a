#include "net/metrics_http.h"

#include <cstring>

#include "common/logging.h"

namespace pprl {

namespace {

/// Reads until the end of the request headers ("\r\n\r\n"), a size cap, or
/// EOF; returns what was read. A scrape request is a few hundred bytes, so
/// the cap is generous.
std::string ReadRequest(TcpConnection& conn) {
  constexpr size_t kMaxRequestBytes = 8192;
  std::string request;
  uint8_t buf[1024];
  while (request.size() < kMaxRequestBytes) {
    auto n = conn.Read(buf, sizeof(buf));
    if (!n.ok() || *n == 0) break;
    request.append(reinterpret_cast<const char*>(buf), *n);
    if (request.find("\r\n\r\n") != std::string::npos) break;
  }
  return request;
}

/// First line up to CRLF (or LF), e.g. "GET /metrics HTTP/1.1".
std::string RequestLine(const std::string& request) {
  const size_t eol = request.find_first_of("\r\n");
  return eol == std::string::npos ? request : request.substr(0, eol);
}

Status WriteResponse(TcpConnection& conn, const char* status_line,
                     const std::string& body) {
  std::string response = std::string("HTTP/1.0 ") + status_line +
                         "\r\n"
                         "Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
                         "Content-Length: " +
                         std::to_string(body.size()) +
                         "\r\n"
                         "Connection: close\r\n\r\n" +
                         body;
  return conn.Write(reinterpret_cast<const uint8_t*>(response.data()), response.size());
}

}  // namespace

MetricsHttpServer::MetricsHttpServer(MetricsHttpServerConfig config,
                                     BodyProvider provider)
    : config_(config), provider_(std::move(provider)) {}

MetricsHttpServer::~MetricsHttpServer() { Stop(); }

Status MetricsHttpServer::Start() {
  if (started_.exchange(true)) {
    return Status::FailedPrecondition("metrics server already started");
  }
  PPRL_RETURN_IF_ERROR(listener_.Listen(config_.port, config_.loopback_only));
  serve_thread_ = std::thread([this] { ServeLoop(); });
  PPRL_LOG(kInfo) << "metrics endpoint listening on port " << listener_.port()
                  << " (GET /metrics)";
  return Status::OK();
}

void MetricsHttpServer::Stop() {
  if (stopping_.exchange(true)) {
    if (serve_thread_.joinable()) serve_thread_.join();
    return;
  }
  listener_.Close();
  if (serve_thread_.joinable()) serve_thread_.join();
}

void MetricsHttpServer::ServeLoop() {
  while (!stopping_.load()) {
    // Stop() closing the listener wakes the poll at once; the timeout only
    // bounds how long a missed wake-up can go unnoticed.
    auto conn = listener_.Accept(/*timeout_ms=*/100);
    if (!conn.ok()) {
      // kNotFound is a poll timeout — keep polling. kFailedPrecondition is
      // the listener being torn down (Stop() from another thread) — leave
      // the loop even if the stopping flag write hasn't been observed yet.
      if (conn.status().code() == StatusCode::kNotFound) continue;
      if (conn.status().code() == StatusCode::kFailedPrecondition) break;
      if (stopping_.load()) break;
      PPRL_LOG(kWarning) << "metrics accept failed: " << conn.status().ToString();
      continue;
    }
    // Scrapes are rare and the body is small: serving sequentially on the
    // accept thread keeps the endpoint to a single thread of overhead.
    ServeOne(**conn);
    (*conn)->Close();
  }
}

void MetricsHttpServer::ServeOne(TcpConnection& conn) {
  conn.SetIoTimeout(config_.io_timeout_ms);
  const std::string line = RequestLine(ReadRequest(conn));
  if (line.rfind("GET ", 0) != 0) {
    WriteResponse(conn, "405 Method Not Allowed", "metrics endpoint only serves GET\n");
    return;
  }
  const size_t path_start = 4;
  const size_t path_end = line.find(' ', path_start);
  const std::string path = line.substr(
      path_start, path_end == std::string::npos ? std::string::npos
                                                : path_end - path_start);
  if (path != "/metrics" && path != "/") {
    WriteResponse(conn, "404 Not Found", "try /metrics\n");
    return;
  }
  WriteResponse(conn, "200 OK", provider_());
}

}  // namespace pprl
