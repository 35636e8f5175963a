/// Chaos suite for the fault-tolerant linkage service: every test runs a
/// real daemon over 127.0.0.1 with deterministic injected faults and
/// checks that the *outcome* — clusters, summaries, metered byte totals —
/// is byte-identical to a clean run, that the quorum option degrades
/// gracefully, that overload is shed with kBusy instead of stalls, and
/// that the TTL sweeper reclaims abandoned sessions.

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/generator.h"
#include "net/frame.h"
#include "net/transport.h"
#include "obs/metrics.h"
#include "pipeline/party.h"
#include "pipeline/pipeline.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/server.h"

namespace pprl {
namespace {

ClkEncoder SharedEncoder() {
  PipelineConfig config;
  return ClkEncoder(config.bloom, PprlPipeline::DefaultFieldConfigs());
}

std::vector<Cluster> Sorted(std::vector<Cluster> clusters) {
  for (Cluster& c : clusters) std::sort(c.begin(), c.end());
  std::sort(clusters.begin(), clusters.end());
  return clusters;
}

/// Generates a small multi-owner scenario and encodes each database once,
/// so chaos and clean paths ship identical bytes.
std::vector<DatabaseOwner> MakeOwners(const std::vector<std::string>& names,
                                      size_t records_per_database) {
  DataGenerator gen(GeneratorConfig{});
  LinkageScenarioConfig scenario;
  scenario.records_per_database = records_per_database;
  scenario.num_databases = names.size();
  scenario.overlap = 0.4;
  scenario.corruption.mean_corruptions = 1.0;
  auto dbs = gen.GenerateScenario(scenario);
  EXPECT_TRUE(dbs.ok());
  const ClkEncoder encoder = SharedEncoder();
  std::vector<DatabaseOwner> owners;
  for (size_t d = 0; d < names.size(); ++d) {
    owners.emplace_back(names[d], (*dbs)[d]);
    EXPECT_TRUE(owners[d].Encode(encoder).ok());
  }
  return owners;
}

uint64_t CounterValue(const std::string& name) {
  return obs::GlobalMetrics().GetCounter(name, "").value();
}

uint64_t CounterValue(const std::string& name, const std::string& label,
                      const std::string& value) {
  return obs::GlobalMetrics().GetCounter(name, "", {{label, value}}).value();
}

/// Waits until `server` has registered `count` owners (stagger helper).
void AwaitRegistrations(const LinkageUnitServer& server, size_t count, int timeout_ms) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (server.owner_order().size() < count &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(server.owner_order().size(), count) << "owner never registered";
}

/// The headline chaos test: with the server killing and delaying sockets
/// at random (seeded) and every client connection hard-closed at a byte
/// point that guarantees a mid-shipment cut, the linkage must still
/// converge — producing byte-identical clusters, summaries and metered
/// shipment totals as a clean in-process run, with retransmitted spans
/// counted exactly once on both sides of the wire.
TEST(ServiceChaosTest, ChaosResumeMatchesCleanRun) {
  const std::vector<std::string> names = {"owner-a", "owner-b", "owner-c"};
  std::vector<DatabaseOwner> owners = MakeOwners(names, 80);
  MultiPartyLinkageOptions options;
  options.dice_threshold = 0.78;

  // Clean reference: the in-process channel path.
  Channel local_channel;
  LinkageUnitService local_unit("lu");
  LocalLinkageUnitSink sink(local_channel, local_unit);
  for (auto& owner : owners) ASSERT_TRUE(owner.ShipEncodings(sink).ok());
  auto local_result = local_unit.Link(options);
  ASSERT_TRUE(local_result.ok());

  const uint64_t resumed_before = CounterValue("pprl_session_resumed_total");
  const uint64_t close_faults_before =
      CounterValue("pprl_faults_injected_total", "kind", "close");
  const uint64_t io_retries_before = CounterValue("pprl_retries_total", "reason", "io");

  // Chaos run: server-side random close/delay on every accepted socket,
  // client-side deterministic hard close after 5000 sent bytes — less
  // than any owner's shipment, so every owner is forced through at least
  // one resume.
  LinkageUnitServerConfig server_config;
  server_config.name = "lu";
  server_config.expected_owners = 3;
  server_config.link_options = options;
  server_config.io_timeout_ms = 5000;
  server_config.chaos.seed = 42;
  server_config.chaos.close_rate = 0.02;
  server_config.chaos.delay_rate = 0.05;
  server_config.chaos.delay_ms = 1;
  LinkageUnitServer server(server_config);
  ASSERT_TRUE(server.Start().ok());

  Channel client_channel;
  std::vector<std::thread> sessions;
  std::vector<Status> session_status(3, Status::OK());
  std::vector<OwnerLinkageSummary> summaries(3);
  std::vector<size_t> client_retries(3, 0);
  for (size_t d = 0; d < 3; ++d) {
    AwaitRegistrations(server, d, 30000);
    sessions.emplace_back([&, d] {
      RemoteOwnerClientConfig config;
      config.port = server.port();
      config.server_label = "lu";
      config.chunk_bytes = 1500;
      config.fault.seed = 1000 + d;
      config.fault.close_after_bytes_sent = 5000;
      config.retry.max_attempts = 40;
      config.retry.backoff_initial_ms = 5;
      config.retry.backoff_max_ms = 50;
      config.retry.jitter_seed = 11 + d;
      config.retry.deadline_ms = 60000;
      RemoteOwnerClient client(config, &client_channel);
      session_status[d] = owners[d].ShipEncodings(client);
      if (client.summary().has_value()) summaries[d] = *client.summary();
      client_retries[d] = client.retries();
    });
  }
  for (auto& t : sessions) t.join();
  ASSERT_TRUE(server.WaitUntilDone(30000).ok());
  for (size_t d = 0; d < 3; ++d) {
    EXPECT_TRUE(session_status[d].ok())
        << names[d] << ": " << session_status[d].ToString();
    EXPECT_GT(client_retries[d], 0u)
        << names[d] << " was never cut — the fault injector is not firing";
  }
  ASSERT_EQ(server.owner_order(), names);

  // Byte-identical outcome despite the faults.
  auto remote_result = server.result();
  ASSERT_TRUE(remote_result.ok());
  EXPECT_EQ(Sorted(remote_result->clusters), Sorted(local_result->clusters));
  EXPECT_EQ(remote_result->edges.size(), local_result->edges.size());
  EXPECT_EQ(remote_result->comparisons, local_result->comparisons);
  for (uint32_t d = 0; d < 3; ++d) {
    const OwnerLinkageSummary expected = SummarizeForOwner(*local_result, d);
    EXPECT_EQ(summaries[d].matches, expected.matches) << names[d];
    EXPECT_EQ(summaries[d].comparisons, expected.comparisons);
    EXPECT_EQ(summaries[d].total_clusters, expected.total_clusters);
    EXPECT_EQ(summaries[d].owners_linked, 3u);
    EXPECT_EQ(summaries[d].owners_expected, 3u);
    EXPECT_FALSE(summaries[d].degraded());
  }

  // Retransmitted spans are metered exactly once on both sides: the cost
  // columns under chaos equal the clean in-process totals to the byte.
  const auto local_bytes = local_channel.bytes_by_tag();
  EXPECT_EQ(server.channel().bytes_by_tag().at("encoded-filters"),
            local_bytes.at("encoded-filters"));
  EXPECT_EQ(client_channel.bytes_by_tag().at("encoded-filters"),
            local_bytes.at("encoded-filters"));

  // The fault machinery actually ran: sessions were resumed, faults were
  // injected, retries were counted.
  EXPECT_GT(CounterValue("pprl_session_resumed_total"), resumed_before);
  EXPECT_GT(CounterValue("pprl_faults_injected_total", "kind", "close"),
            close_faults_before);
  EXPECT_GT(CounterValue("pprl_retries_total", "reason", "io"), io_retries_before);

  server.Stop();
}

/// The quorum option: with min_owners = 2 of 3 expected and one owner
/// permanently missing, the unit links after the quiet period and every
/// summary is flagged degraded — matching a clean two-owner run.
TEST(ServiceChaosTest, QuorumProceedsWithoutStraggler) {
  const std::vector<std::string> names = {"owner-a", "owner-b", "owner-c"};
  std::vector<DatabaseOwner> owners = MakeOwners(names, 60);
  MultiPartyLinkageOptions options;
  options.dice_threshold = 0.78;

  // Clean reference: the two present owners, in process.
  Channel local_channel;
  LinkageUnitService local_unit("lu");
  LocalLinkageUnitSink sink(local_channel, local_unit);
  ASSERT_TRUE(owners[0].ShipEncodings(sink).ok());
  ASSERT_TRUE(owners[1].ShipEncodings(sink).ok());
  auto local_result = local_unit.Link(options);
  ASSERT_TRUE(local_result.ok());

  const uint64_t degraded_before = CounterValue("pprl_service_degraded_linkages_total");

  LinkageUnitServerConfig server_config;
  server_config.name = "lu";
  server_config.expected_owners = 3;
  server_config.min_owners = 2;
  server_config.quorum_wait_ms = 300;
  server_config.link_options = options;
  server_config.io_timeout_ms = 5000;
  LinkageUnitServer server(server_config);
  ASSERT_TRUE(server.Start().ok());

  std::vector<std::thread> sessions;
  std::vector<Status> session_status(2, Status::OK());
  std::vector<OwnerLinkageSummary> summaries(2);
  for (size_t d = 0; d < 2; ++d) {
    AwaitRegistrations(server, d, 15000);
    sessions.emplace_back([&, d] {
      RemoteOwnerClientConfig config;
      config.port = server.port();
      config.server_label = "lu";
      RemoteOwnerClient client(config);
      session_status[d] = owners[d].ShipEncodings(client);
      if (client.summary().has_value()) summaries[d] = *client.summary();
    });
  }
  // owner-c never shows up. After quorum_wait_ms of quiet the unit links
  // with the two owners it has.
  for (auto& t : sessions) t.join();
  ASSERT_TRUE(server.WaitUntilDone(15000).ok());
  EXPECT_TRUE(server.linkage_degraded());
  ASSERT_EQ(server.owner_order(),
            (std::vector<std::string>{"owner-a", "owner-b"}));

  auto remote_result = server.result();
  ASSERT_TRUE(remote_result.ok());
  EXPECT_EQ(Sorted(remote_result->clusters), Sorted(local_result->clusters));
  EXPECT_EQ(remote_result->comparisons, local_result->comparisons);
  for (uint32_t d = 0; d < 2; ++d) {
    EXPECT_TRUE(session_status[d].ok()) << session_status[d].ToString();
    const OwnerLinkageSummary expected = SummarizeForOwner(*local_result, d);
    EXPECT_EQ(summaries[d].matches, expected.matches);
    EXPECT_EQ(summaries[d].owners_linked, 2u);
    EXPECT_EQ(summaries[d].owners_expected, 3u);
    EXPECT_TRUE(summaries[d].degraded()) << "partial result must be flagged";
  }
  EXPECT_EQ(CounterValue("pprl_service_degraded_linkages_total"), degraded_before + 1);

  server.Stop();
}

/// Overload shedding: with the session limit exhausted, new arrivals get
/// a typed kBusy frame (counted in pprl_shed_total) instead of a stalled
/// or dropped connection.
TEST(ServiceChaosTest, OverloadShedsWithBusy) {
  LinkageUnitServerConfig server_config;
  server_config.expected_owners = 2;
  server_config.max_sessions = 1;
  server_config.busy_retry_after_ms = 20;
  server_config.io_timeout_ms = 10000;  // the stalled slot stays held
  LinkageUnitServer server(server_config);
  ASSERT_TRUE(server.Start().ok());

  // Occupy the single session slot with a connection that never speaks.
  ConnectOptions stall_options;
  stall_options.io_timeout_ms = 10000;
  auto stall = TcpConnection::Connect("127.0.0.1", server.port(), stall_options);
  ASSERT_TRUE(stall.ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  const uint64_t shed_before = CounterValue("pprl_shed_total", "reason", "sessions");

  EncodedDatabase shipment;
  shipment.ids = {1, 2};
  shipment.filters = {BitVector(64), BitVector(64)};
  shipment.filters[0].Set(3);

  RemoteOwnerClientConfig config;
  config.port = server.port();
  config.retry.max_attempts = 3;
  config.retry.backoff_initial_ms = 5;
  config.retry.deadline_ms = 5000;
  RemoteOwnerClient client(config);
  auto result = client.ShipAndAwait("owner-b", shipment);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
  EXPECT_NE(result.status().message().find("busy"), std::string::npos)
      << result.status().ToString();
  EXPECT_GE(CounterValue("pprl_shed_total", "reason", "sessions"), shed_before + 3)
      << "every shed attempt must be counted";

  (*stall)->Close();
  server.Stop();
}

/// TTL sweep: a session abandoned mid-shipment is reclaimed after its
/// idle TTL — the buffer reservation is released, the expiry is counted,
/// a later kResume gets kNotFound, and the owner can start over.
TEST(ServiceChaosTest, TtlSweepExpiresAbandonedSessions) {
  LinkageUnitServerConfig server_config;
  server_config.name = "lu";
  server_config.expected_owners = 2;
  server_config.session_ttl_ms = 150;
  server_config.io_timeout_ms = 5000;
  LinkageUnitServer server(server_config);
  ASSERT_TRUE(server.Start().ok());

  // ~640-byte shipment, 128-byte chunks; the client is hard-closed after
  // 400 sent bytes with no retry — leaving a partial, unattached session.
  EncodedDatabase shipment;
  for (uint64_t i = 0; i < 40; ++i) {
    shipment.ids.push_back(100 + i);
    BitVector filter(64);
    filter.Set(i % 64);
    shipment.filters.push_back(std::move(filter));
  }

  const uint64_t expired_before = CounterValue("pprl_session_expired_total");
  {
    RemoteOwnerClientConfig config;
    config.port = server.port();
    config.chunk_bytes = 128;
    config.fault.seed = 9;
    config.fault.close_after_bytes_sent = 400;
    config.retry.max_attempts = 1;
    RemoteOwnerClient abandoned(config);
    auto result = abandoned.ShipAndAwait("owner-a", shipment);
    ASSERT_FALSE(result.ok()) << "the injected cut should have failed delivery";
  }

  // The sweeper runs on the accept thread's poll cadence.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (CounterValue("pprl_session_expired_total") == expired_before &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(CounterValue("pprl_session_expired_total"), expired_before + 1)
      << "abandoned session was never swept";

  // Resuming the swept session (the server's first id is 1) is answered
  // with a decodable kNotFound error, telling the owner to start over.
  ConnectOptions options;
  options.io_timeout_ms = 5000;
  auto conn = TcpConnection::Connect("127.0.0.1", server.port(), options);
  ASSERT_TRUE(conn.ok());
  ResumeMessage resume;
  resume.protocol_version = kWireProtocolVersion;
  resume.party = "owner-a";
  resume.session_id = 1;
  Frame frame;
  frame.type = static_cast<uint8_t>(MessageType::kResume);
  frame.payload = EncodeResume(resume);
  const std::vector<uint8_t> bytes = EncodeFrame(frame);
  ASSERT_TRUE((*conn)->Write(bytes.data(), bytes.size()).ok());
  FrameReader reader(**conn);
  auto reply = reader.ReadFrame();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_EQ(reply->type, static_cast<uint8_t>(MessageType::kError));
  auto error = DecodeError(reply->payload);
  ASSERT_TRUE(error.ok());
  EXPECT_EQ(error->code, StatusCode::kNotFound);
  (*conn)->Close();

  // Starting over works: both owners deliver cleanly on fresh sessions.
  std::vector<std::thread> sessions;
  std::vector<Status> session_status(2, Status::OK());
  const std::vector<std::string> names = {"owner-a", "owner-b"};
  for (size_t d = 0; d < 2; ++d) {
    AwaitRegistrations(server, d, 15000);
    sessions.emplace_back([&, d] {
      RemoteOwnerClientConfig config;
      config.port = server.port();
      RemoteOwnerClient client(config);
      auto result = client.ShipAndAwait(names[d], shipment);
      session_status[d] = result.ok() ? Status::OK() : result.status();
    });
  }
  for (auto& t : sessions) t.join();
  ASSERT_TRUE(server.WaitUntilDone(15000).ok());
  for (size_t d = 0; d < 2; ++d) {
    EXPECT_TRUE(session_status[d].ok()) << session_status[d].ToString();
  }

  server.Stop();
}

}  // namespace
}  // namespace pprl
