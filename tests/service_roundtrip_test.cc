#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <iterator>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/generator.h"
#include "net/transport.h"
#include "obs/metrics.h"
#include "pipeline/party.h"
#include "pipeline/pipeline.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/server.h"

namespace pprl {
namespace {

/// One GET against the daemon's metrics endpoint; returns the raw HTTP
/// response (headers + body).
std::string Scrape(uint16_t port) {
  ConnectOptions options;
  options.io_timeout_ms = 5000;
  auto conn = TcpConnection::Connect("127.0.0.1", port, options);
  if (!conn.ok()) return "connect failed: " + conn.status().ToString();
  const std::string request = "GET /metrics HTTP/1.0\r\n\r\n";
  if (!(*conn)->Write(reinterpret_cast<const uint8_t*>(request.data()), request.size())
           .ok()) {
    return "write failed";
  }
  std::string response;
  uint8_t buf[4096];
  while (true) {
    auto n = (*conn)->Read(buf, sizeof(buf));
    if (!n.ok() || *n == 0) break;
    response.append(reinterpret_cast<const char*>(buf), *n);
  }
  return response;
}

ClkEncoder SharedEncoder() {
  PipelineConfig config;
  return ClkEncoder(config.bloom, PprlPipeline::DefaultFieldConfigs());
}

std::vector<Cluster> Sorted(std::vector<Cluster> clusters) {
  for (Cluster& c : clusters) std::sort(c.begin(), c.end());
  std::sort(clusters.begin(), clusters.end());
  return clusters;
}

/// The acceptance test of the networked subsystem: a 3-owner linkage
/// through LinkageUnitServer over 127.0.0.1 must produce the same clusters
/// and the same metered "encoded-filters" byte totals as the in-process
/// Channel path; framing overhead is accounted for separately.
TEST(ServiceRoundtripTest, ThreeOwnerLoopbackMatchesInProcessPath) {
  DataGenerator gen(GeneratorConfig{});
  LinkageScenarioConfig scenario;
  scenario.records_per_database = 120;
  scenario.num_databases = 3;
  scenario.overlap = 0.4;
  scenario.corruption.mean_corruptions = 1.0;
  auto dbs = gen.GenerateScenario(scenario);
  ASSERT_TRUE(dbs.ok());

  const std::vector<std::string> names = {"hospital-a", "hospital-b", "registry-c"};
  const ClkEncoder encoder = SharedEncoder();
  MultiPartyLinkageOptions options;
  options.dice_threshold = 0.78;

  // Owners encode once; both paths ship the identical encodings.
  std::vector<DatabaseOwner> owners;
  for (size_t d = 0; d < 3; ++d) {
    owners.emplace_back(names[d], (*dbs)[d]);
    ASSERT_TRUE(owners[d].Encode(encoder).ok());
  }

  // ---- Path 1: in-process channel (the reference cost model). ----
  Channel local_channel;
  LinkageUnitService local_unit("lu");
  LocalLinkageUnitSink sink(local_channel, local_unit);
  for (size_t d = 0; d < 3; ++d) {
    ASSERT_TRUE(owners[d].ShipEncodings(sink).ok());
  }
  auto local_result = local_unit.Link(options);
  ASSERT_TRUE(local_result.ok());

  // ---- Path 2: real sockets through the daemon. ----
  LinkageUnitServerConfig server_config;
  server_config.name = "lu";
  server_config.expected_owners = 3;
  server_config.link_options = options;
  server_config.io_timeout_ms = 10000;
  server_config.metrics_port = 0;  // ephemeral Prometheus side endpoint
  LinkageUnitServer server(server_config);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.port(), 0);
  ASSERT_GT(server.metrics_port(), 0);

  Channel client_channel;  // shared by all owners (thread-safe)
  std::vector<std::thread> sessions;
  std::vector<Status> session_status(3, Status::OK());
  std::vector<OwnerLinkageSummary> summaries(3);
  for (size_t d = 0; d < 3; ++d) {
    // Stagger the sessions so shipment order (= database order at the
    // unit) is deterministic and comparable with the in-process run.
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (server.owner_order().size() < d &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    ASSERT_EQ(server.owner_order().size(), d) << "previous owner never registered";
    sessions.emplace_back([&, d] {
      RemoteOwnerClientConfig config;
      config.port = server.port();
      config.server_label = "lu";
      RemoteOwnerClient client(config, &client_channel);
      session_status[d] = owners[d].ShipEncodings(client);
      if (client.summary().has_value()) summaries[d] = *client.summary();
    });
  }
  for (auto& t : sessions) t.join();
  ASSERT_TRUE(server.WaitUntilDone(15000).ok());
  for (size_t d = 0; d < 3; ++d) {
    EXPECT_TRUE(session_status[d].ok()) << names[d] << ": "
                                        << session_status[d].ToString();
  }
  ASSERT_EQ(server.owner_order(), names);

  // Same clusters and edges as the in-process run.
  auto remote_result = server.result();
  ASSERT_TRUE(remote_result.ok());
  EXPECT_EQ(Sorted(remote_result->clusters), Sorted(local_result->clusters));
  EXPECT_EQ(remote_result->edges.size(), local_result->edges.size());
  EXPECT_EQ(remote_result->comparisons, local_result->comparisons);
  EXPECT_GT(remote_result->edges.size(), 30u);

  // Same metered byte totals for the shipments, on both sides of the wire.
  const auto local_bytes = local_channel.bytes_by_tag();
  const auto server_bytes = server.channel().bytes_by_tag();
  const auto client_bytes = client_channel.bytes_by_tag();
  ASSERT_TRUE(local_bytes.count("encoded-filters"));
  EXPECT_EQ(server_bytes.at("encoded-filters"), local_bytes.at("encoded-filters"));
  EXPECT_EQ(client_bytes.at("encoded-filters"), local_bytes.at("encoded-filters"));
  EXPECT_EQ(server.channel().messages_by_tag().at("encoded-filters"), 3u);
  EXPECT_EQ(local_channel.messages_by_tag().at("encoded-filters"), 3u);
  for (const std::string& owner : names) {
    EXPECT_EQ(server.channel().MessagesBetween(owner, "lu"),
              2u);  // hello + one shipment chunk
  }

  // Framing overhead: every inbound frame costs exactly one 12-byte
  // header beyond its metered payload, and every shipment chunk a fixed
  // session/offset/checksum header on top. Report it separately, as a
  // real cost table would.
  size_t inbound_payload = 0;
  for (const auto& [tag, bytes] : server_bytes) {
    if (tag == "hello" || tag == "encoded-filters") inbound_payload += bytes;
  }
  const size_t inbound_frames = 6;  // 3 × (hello + shipment chunk)
  const size_t chunk_headers = 3 * kShipmentChunkOverheadBytes;
  EXPECT_EQ(server.wire_bytes_received(),
            inbound_payload + inbound_frames * 12 + chunk_headers);
  std::printf("[ cost ] shipments %zu B, framing overhead %zu B (%.3f%%)\n",
              server_bytes.at("encoded-filters"),
              server.wire_bytes_received() - inbound_payload,
              100.0 *
                  static_cast<double>(server.wire_bytes_received() - inbound_payload) /
                  static_cast<double>(inbound_payload));

  // Each owner's summary matches a locally computed projection.
  for (uint32_t d = 0; d < 3; ++d) {
    const OwnerLinkageSummary expected = SummarizeForOwner(*local_result, d);
    EXPECT_EQ(summaries[d].matches, expected.matches) << names[d];
    EXPECT_EQ(summaries[d].comparisons, expected.comparisons);
    EXPECT_EQ(summaries[d].total_clusters, expected.total_clusters);
    EXPECT_GT(summaries[d].matches.size(), 10u) << names[d];
    EXPECT_EQ(summaries[d].owners_linked, 3u);
    EXPECT_EQ(summaries[d].owners_expected, 3u);
    EXPECT_FALSE(summaries[d].degraded());
  }

  // The daemon's observability surface: a Prometheus scrape of the side
  // endpoint must expose the per-stage latency histograms and the channel
  // byte counters of the run that just finished.
  const std::string scrape = Scrape(server.metrics_port());
  EXPECT_NE(scrape.find("200 OK"), std::string::npos) << scrape;
  EXPECT_NE(scrape.find("# TYPE pprl_stage_seconds histogram"), std::string::npos);
  for (const char* stage : {"block", "compare", "cluster"}) {
    EXPECT_NE(scrape.find("pprl_stage_seconds_bucket{stage=\"" + std::string(stage) +
                          "\",le=\"+Inf\"}"),
              std::string::npos)
        << "missing stage histogram: " << stage;
  }
  EXPECT_NE(scrape.find("pprl_channel_bytes_total{tag=\"encoded-filters\"}"),
            std::string::npos);
  EXPECT_NE(scrape.find("pprl_service_session_seconds_count"), std::string::npos);

  // And the global registry itself recorded the daemon's work: sessions
  // served, frames moved, pairs compared.
  auto& metrics = obs::GlobalMetrics();
  EXPECT_GE(metrics.GetCounter("pprl_service_sessions_total",
                               "Owner sessions accepted")
                .value(),
            3u);
  EXPECT_GE(metrics
                .GetCounter("pprl_net_frames_total", "Frames moved",
                            {{"direction", "in"}})
                .value(),
            6u);  // 3 × (hello + shipment)
  EXPECT_GT(metrics.GetCounter("pprl_compare_pairs_total", "Pairs compared").value(),
            0u);
  EXPECT_GE(metrics
                .GetCounter("pprl_service_messages_total", "Protocol messages",
                            {{"type", "encoded-filters"}, {"direction", "in"}})
                .value(),
            3u);

  server.Stop();
}

TEST(ServiceRoundtripTest, MismatchedFilterLengthIsRejectedOverTheWire) {
  LinkageUnitServerConfig server_config;
  server_config.expected_owners = 2;
  server_config.io_timeout_ms = 5000;
  LinkageUnitServer server(server_config);
  ASSERT_TRUE(server.Start().ok());

  EncodedDatabase ship_512;
  ship_512.ids = {1, 2};
  ship_512.filters = {BitVector(512), BitVector(512)};
  ship_512.filters[0].Set(3);
  ship_512.filters[1].Set(5);

  EncodedDatabase ship_256;
  ship_256.ids = {7};
  ship_256.filters = {BitVector(256)};

  RemoteOwnerClientConfig config;
  config.port = server.port();

  // First owner fixes 512 bits; run it in the background because it will
  // (correctly) block awaiting results that never come.
  std::thread first([&] {
    RemoteOwnerClient client(config);
    (void)client.ShipAndAwait("owner-a", ship_512);
  });
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server.owner_order().empty() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(server.owner_order().size(), 1u);

  RemoteOwnerClient second(config);
  auto result = second.ShipAndAwait("owner-b", ship_256);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("256"), std::string::npos);

  server.Stop();  // fails owner-a's pending session
  first.join();
}

TEST(ServiceRoundtripTest, DuplicateOwnerNameIsRejectedOverTheWire) {
  LinkageUnitServerConfig server_config;
  server_config.expected_owners = 3;
  server_config.io_timeout_ms = 5000;
  LinkageUnitServer server(server_config);
  ASSERT_TRUE(server.Start().ok());

  EncodedDatabase shipment;
  shipment.ids = {1};
  shipment.filters = {BitVector(64)};
  shipment.filters[0].Set(1);

  RemoteOwnerClientConfig config;
  config.port = server.port();

  std::thread first([&] {
    RemoteOwnerClient client(config);
    (void)client.ShipAndAwait("owner-a", shipment);
  });
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server.owner_order().empty() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(server.owner_order().size(), 1u);

  RemoteOwnerClient duplicate(config);
  auto result = duplicate.ShipAndAwait("owner-a", shipment);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kAlreadyExists);

  server.Stop();
  first.join();
}

TEST(ServiceRoundtripTest, OutOfRangeLshGeometryFailsStart) {
  for (const auto& [tables, bits] : {std::pair<size_t, size_t>{1025, 18}, {20, 65}}) {
    LinkageUnitServerConfig config;
    config.expected_owners = 2;
    config.link_options.lsh_tables = tables;
    config.link_options.lsh_bits_per_key = bits;
    LinkageUnitServer server(config);
    EXPECT_EQ(server.Start().code(), StatusCode::kInvalidArgument)
        << tables << " x " << bits;
  }
}

TEST(ServiceRoundtripTest, OutOfRangeDiceThresholdFailsStart) {
  for (const double threshold : {0.0, -0.1, 1.5, std::nan(""), double{INFINITY}}) {
    for (const bool online : {false, true}) {
      LinkageUnitServerConfig config;
      config.expected_owners = 2;
      config.online_mode = online;
      config.link_options.dice_threshold = threshold;
      LinkageUnitServer server(config);
      EXPECT_EQ(server.Start().code(), StatusCode::kInvalidArgument)
          << threshold << (online ? " online" : " batch");
    }
  }
}

/// Threads of this process (Linux: one /proc/self/task entry each).
size_t ProcessThreadCount() {
  const std::filesystem::directory_iterator tasks("/proc/self/task");
  return static_cast<size_t>(std::distance(begin(tasks), end(tasks)));
}

/// A shard pool larger than ShardScheduler::kMaxThreads is refused before
/// Start() binds or builds anything, so no thread starts. SIZE_MAX runs
/// first: without the check it throws std::length_error from the pool's
/// reserve (how `pprl_linkd --threads -1` aborted) before the 257 case
/// could start a real pool.
TEST(ServiceRoundtripTest, OutOfRangeLinkThreadsFailsStart) {
  for (const size_t threads : {SIZE_MAX, ShardScheduler::kMaxThreads + 1}) {
    LinkageUnitServerConfig config;
    config.expected_owners = 2;
    config.link_threads = threads;
    LinkageUnitServer server(config);
    const size_t threads_before = ProcessThreadCount();
    EXPECT_EQ(server.Start().code(), StatusCode::kInvalidArgument) << threads;
    EXPECT_EQ(ProcessThreadCount(), threads_before) << threads;
    EXPECT_EQ(server.port(), 0) << threads;
  }
}

/// The link pool starts only in the roles that link themselves: at
/// link_threads 4 a batch daemon and a worker start four more threads than
/// at 1, while an online daemon and a daemon whose distributed_linker
/// scatters (a coordinator's front) start none.
TEST(ServiceRoundtripTest, OnlyLinkingRolesStartTheLinkPool) {
  struct Role {
    const char* name;
    bool worker, online, scatters;
    size_t pool_threads;
  };
  for (const Role& role : {Role{"batch", false, false, false, 4},
                           Role{"worker", true, false, false, 4},
                           Role{"online", false, true, false, 0},
                           Role{"coordinator front", false, false, true, 0}}) {
    std::vector<size_t> started;
    for (const size_t threads : {size_t{1}, size_t{4}}) {
      LinkageUnitServerConfig config;
      config.expected_owners = 2;
      config.worker_mode = role.worker;
      config.online_mode = role.online;
      if (role.scatters) {
        config.distributed_linker = [](const LinkageUnitService&,
                                       const MultiPartyLinkageOptions&)
            -> Result<DistributedLinkOutcome> { return Status::Internal("unused"); };
      }
      config.link_threads = threads;
      LinkageUnitServer server(config);
      const size_t threads_before = ProcessThreadCount();
      ASSERT_TRUE(server.Start().ok()) << role.name;
      started.push_back(ProcessThreadCount() - threads_before);
      server.Stop();
    }
    EXPECT_EQ(started[1] - started[0], role.pool_threads) << role.name;
  }
}

}  // namespace
}  // namespace pprl
