#include <chrono>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/generator.h"
#include "linkage/distributed.h"
#include "net/transport.h"
#include "obs/metrics.h"
#include "pipeline/party.h"
#include "pipeline/pipeline.h"
#include "service/client.h"
#include "service/coordinator.h"
#include "service/protocol.h"
#include "service/server.h"

namespace pprl {
namespace {

struct Scenario {
  std::vector<DatabaseOwner> owners;
  std::vector<std::string> names;
};

Scenario MakeScenario(size_t num_owners, size_t records) {
  DataGenerator gen(GeneratorConfig{});
  LinkageScenarioConfig scenario;
  scenario.records_per_database = records;
  scenario.num_databases = num_owners;
  scenario.overlap = 0.4;
  scenario.corruption.mean_corruptions = 1.0;
  auto dbs = gen.GenerateScenario(scenario);
  EXPECT_TRUE(dbs.ok());

  PipelineConfig pipeline_config;
  const ClkEncoder encoder(pipeline_config.bloom,
                           PprlPipeline::DefaultFieldConfigs());
  Scenario out;
  for (size_t d = 0; d < num_owners; ++d) {
    out.names.push_back("owner-" + std::to_string(d));
    out.owners.emplace_back(out.names.back(), (*dbs)[d]);
    EXPECT_TRUE(out.owners.back().Encode(encoder).ok());
  }
  return out;
}

/// The reference run: the same encodings linked by an in-process
/// LinkageUnitService, the path every other test in this suite trusts.
Result<MultiPartyLinkageResult> Baseline(Scenario& scenario,
                                         const MultiPartyLinkageOptions& options) {
  Channel channel;
  LinkageUnitService unit("lu");
  LocalLinkageUnitSink sink(channel, unit);
  for (DatabaseOwner& owner : scenario.owners) {
    EXPECT_TRUE(owner.ShipEncodings(sink).ok());
  }
  return unit.Link(options);
}

/// Ships every owner to `port` from staggered background threads (so
/// registration order is deterministic) and returns the summaries. With
/// `statuses_out` set, session outcomes are returned instead of asserted
/// OK — for tests where the linkage is expected to fail.
std::vector<OwnerLinkageSummary> ShipAll(Scenario& scenario, uint16_t port,
                                         const LinkageUnitServer& server,
                                         Channel* channel,
                                         std::vector<Status>* statuses_out = nullptr,
                                         RetryPolicy client_retry = RetryPolicy{}) {
  const size_t n = scenario.owners.size();
  std::vector<std::thread> sessions;
  std::vector<Status> status(n, Status::OK());
  std::vector<OwnerLinkageSummary> summaries(n);
  for (size_t d = 0; d < n; ++d) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (server.owner_order().size() < d &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    EXPECT_EQ(server.owner_order().size(), d) << "previous owner never registered";
    sessions.emplace_back([&scenario, &status, &summaries, channel, port, d,
                           client_retry] {
      RemoteOwnerClientConfig config;
      config.port = port;
      config.connect.io_timeout_ms = 60000;
      config.retry = client_retry;
      RemoteOwnerClient client(config, channel);
      status[d] = scenario.owners[d].ShipEncodings(client);
      if (client.summary().has_value()) summaries[d] = *client.summary();
    });
  }
  for (auto& t : sessions) t.join();
  if (statuses_out != nullptr) {
    *statuses_out = status;
    return summaries;
  }
  for (size_t d = 0; d < n; ++d) {
    EXPECT_TRUE(status[d].ok()) << scenario.names[d] << ": " << status[d].ToString();
  }
  return summaries;
}

/// Bitwise identity, not set equality: same clusters in the same order,
/// same edges in the same order with the same scores, same counters.
void ExpectBitwiseIdentical(const MultiPartyLinkageResult& got,
                            const MultiPartyLinkageResult& want) {
  EXPECT_EQ(got.clusters, want.clusters);
  ASSERT_EQ(got.edges.size(), want.edges.size());
  for (size_t i = 0; i < got.edges.size(); ++i) {
    EXPECT_EQ(got.edges[i].x, want.edges[i].x) << "edge " << i;
    EXPECT_EQ(got.edges[i].y, want.edges[i].y) << "edge " << i;
    EXPECT_EQ(got.edges[i].score, want.edges[i].score) << "edge " << i;
  }
  EXPECT_EQ(got.comparisons, want.comparisons);
  EXPECT_EQ(got.candidate_pairs, want.candidate_pairs);
  EXPECT_EQ(got.pruned_comparisons, want.pruned_comparisons);
}

std::vector<std::unique_ptr<LinkageUnitServer>> StartWorkers(size_t n,
                                                             size_t num_owners) {
  std::vector<std::unique_ptr<LinkageUnitServer>> workers;
  for (size_t w = 0; w < n; ++w) {
    LinkageUnitServerConfig config;
    config.name = "worker-" + std::to_string(w);
    config.expected_owners = num_owners;
    config.worker_mode = true;
    config.io_timeout_ms = 60000;
    workers.push_back(std::make_unique<LinkageUnitServer>(config));
    EXPECT_TRUE(workers.back()->Start().ok());
  }
  return workers;
}

CoordinatorConfig RingOf(const std::vector<std::unique_ptr<LinkageUnitServer>>& workers) {
  CoordinatorConfig config;
  for (const auto& worker : workers) {
    config.workers.push_back(WorkerEndpoint{"127.0.0.1", worker->port()});
  }
  return config;
}

/// The acceptance test of the sharded linkage unit: scattered across 1, 2
/// or 4 workers, the merged result must be bitwise-identical to the
/// in-process single-machine run — same clusters, edges, scores, and the
/// same comparison/candidate/pruned counters (the canonical-key partition
/// rule neither drops nor double-counts any pair).
TEST(CoordinatorTest, ScatterGatherIsBitwiseIdenticalAtAnyWorkerCount) {
  Scenario scenario = MakeScenario(3, 100);
  MultiPartyLinkageOptions options;
  options.dice_threshold = 0.78;
  auto baseline = Baseline(scenario, options);
  ASSERT_TRUE(baseline.ok());
  ASSERT_GT(baseline->edges.size(), 20u);

  for (const size_t num_workers : {1u, 2u, 4u}) {
    auto workers = StartWorkers(num_workers, scenario.owners.size());

    LinkageUnitServerConfig server_config;
    server_config.name = "coord";
    server_config.expected_owners = scenario.owners.size();
    server_config.link_options = options;
    server_config.io_timeout_ms = 60000;
    CoordinatorServer coordinator(server_config, RingOf(workers));
    ASSERT_TRUE(coordinator.Start().ok());

    Channel owner_channel;
    const auto summaries = ShipAll(scenario, coordinator.port(),
                                   coordinator.server(), &owner_channel);
    ASSERT_TRUE(coordinator.WaitUntilDone(60000).ok());

    auto result = coordinator.server().result();
    ASSERT_TRUE(result.ok()) << num_workers << " workers";
    ExpectBitwiseIdentical(*result, *baseline);

    // Not degraded: every worker partition arrived.
    EXPECT_FALSE(coordinator.server().linkage_degraded());
    for (const auto& summary : summaries) {
      EXPECT_FALSE(summary.degraded());
      EXPECT_EQ(summary.workers_linked, num_workers);
      EXPECT_EQ(summary.workers_expected, num_workers);
      EXPECT_EQ(summary.comparisons, baseline->comparisons);
    }

    // Owner-facing byte metering stays identical to a single daemon's —
    // the scatter traffic lives on the coordinator's own worker channel.
    EXPECT_EQ(owner_channel.bytes_by_tag().at("encoded-filters"),
              coordinator.server().channel().bytes_by_tag().at("encoded-filters"));
    // Scatter re-ships every database to every worker.
    EXPECT_EQ(coordinator.worker_channel().messages_by_tag().at("encoded-filters"),
              num_workers * scenario.owners.size());
    EXPECT_GT(coordinator.worker_wire_bytes_sent(), 0u);
    EXPECT_GT(coordinator.worker_wire_bytes_received(), 0u);

    coordinator.Stop();
    for (auto& worker : workers) worker->Stop();
  }
}

/// Chaos on every link — owner connections and worker links alike — must
/// change nothing about the answer: retries and resumed sessions land the
/// exact bytes, and the merged result stays bitwise-identical.
TEST(CoordinatorTest, ChaosOnWorkerLinksPreservesParity) {
  Scenario scenario = MakeScenario(2, 80);
  MultiPartyLinkageOptions options;
  options.dice_threshold = 0.78;
  auto baseline = Baseline(scenario, options);
  ASSERT_TRUE(baseline.ok());

  auto workers = StartWorkers(2, scenario.owners.size());

  LinkageUnitServerConfig server_config;
  server_config.name = "coord";
  server_config.expected_owners = scenario.owners.size();
  server_config.link_options = options;
  server_config.io_timeout_ms = 60000;

  CoordinatorConfig coordinator_config = RingOf(workers);
  coordinator_config.chaos.seed = 1234;
  coordinator_config.chaos.close_rate = 0.01;
  coordinator_config.chaos.delay_rate = 0.02;
  coordinator_config.chaos.truncate_rate = 0.005;
  coordinator_config.chaos.corrupt_rate = 0.005;
  coordinator_config.retry.deadline_ms = 120000;

  CoordinatorServer coordinator(server_config, coordinator_config);
  ASSERT_TRUE(coordinator.Start().ok());

  Channel owner_channel;
  ShipAll(scenario, coordinator.port(), coordinator.server(), &owner_channel);
  ASSERT_TRUE(coordinator.WaitUntilDone(120000).ok());

  auto result = coordinator.server().result();
  ASSERT_TRUE(result.ok());
  ExpectBitwiseIdentical(*result, *baseline);
  EXPECT_FALSE(coordinator.server().linkage_degraded());

  // Metered payload parity survives chaos: the worker channel counts each
  // database's bytes once per worker, retries notwithstanding.
  EXPECT_EQ(coordinator.worker_channel().messages_by_tag().at("encoded-filters"),
            workers.size() * scenario.owners.size());

  coordinator.Stop();
  for (auto& worker : workers) worker->Stop();
}

/// A worker that dies stays dead: with the quorum armed the coordinator
/// merges the partitions it has and flags every summary as degraded; below
/// quorum the run fails outright.
TEST(CoordinatorTest, DeadWorkerDegradesWithinQuorum) {
  Scenario scenario = MakeScenario(2, 60);
  MultiPartyLinkageOptions options;
  options.dice_threshold = 0.78;
  auto baseline = Baseline(scenario, options);
  ASSERT_TRUE(baseline.ok());

  auto workers = StartWorkers(2, scenario.owners.size());
  CoordinatorConfig coordinator_config = RingOf(workers);
  // Kill worker 1 before the coordinator ever dials it; its port stays in
  // the ring (the geometry must not shift or worker 0's partition would
  // be wrong).
  workers[1]->Stop();
  coordinator_config.min_worker_partitions = 1;
  coordinator_config.retry.max_attempts = 2;
  coordinator_config.retry.deadline_ms = 3000;
  coordinator_config.retry.backoff_initial_ms = 10;

  LinkageUnitServerConfig server_config;
  server_config.name = "coord";
  server_config.expected_owners = scenario.owners.size();
  server_config.link_options = options;
  server_config.io_timeout_ms = 60000;
  CoordinatorServer coordinator(server_config, coordinator_config);
  ASSERT_TRUE(coordinator.Start().ok());

  Channel owner_channel;
  const auto summaries = ShipAll(scenario, coordinator.port(),
                                 coordinator.server(), &owner_channel);
  ASSERT_TRUE(coordinator.WaitUntilDone(60000).ok());

  auto result = coordinator.server().result();
  ASSERT_TRUE(result.ok());
  // Partition 1's edges are missing — strictly fewer comparisons than the
  // full run, and at most as many edges/clusters merged.
  EXPECT_LT(result->comparisons, baseline->comparisons);
  EXPECT_LE(result->edges.size(), baseline->edges.size());

  EXPECT_TRUE(coordinator.server().linkage_degraded());
  EXPECT_EQ(coordinator.server().workers_linked(), 1u);
  EXPECT_EQ(coordinator.server().workers_expected(), 2u);
  for (const auto& summary : summaries) {
    EXPECT_TRUE(summary.degraded());
    EXPECT_EQ(summary.workers_linked, 1u);
    EXPECT_EQ(summary.workers_expected, 2u);
    // Owner quorum itself was met — degradation is the workers' doing.
    EXPECT_EQ(summary.owners_linked, summary.owners_expected);
  }

  coordinator.Stop();
  workers[0]->Stop();
}

/// Below the worker quorum the linkage fails loudly instead of returning
/// a silently incomplete result.
TEST(CoordinatorTest, BelowQuorumFailsTheRun) {
  Scenario scenario = MakeScenario(2, 40);
  auto workers = StartWorkers(1, scenario.owners.size());
  CoordinatorConfig coordinator_config = RingOf(workers);
  workers[0]->Stop();  // the only worker is gone; quorum (all) unreachable
  coordinator_config.retry.max_attempts = 2;
  coordinator_config.retry.deadline_ms = 2000;
  coordinator_config.retry.backoff_initial_ms = 10;

  LinkageUnitServerConfig server_config;
  server_config.expected_owners = scenario.owners.size();
  server_config.io_timeout_ms = 30000;
  CoordinatorServer coordinator(server_config, coordinator_config);
  ASSERT_TRUE(coordinator.Start().ok());

  Channel owner_channel;
  std::vector<Status> session_status;
  RetryPolicy client_retry;
  client_retry.max_attempts = 1;
  client_retry.deadline_ms = 10000;
  ShipAll(scenario, coordinator.port(), coordinator.server(), &owner_channel,
          &session_status, client_retry);

  const Status done = coordinator.WaitUntilDone(60000);
  EXPECT_FALSE(done.ok());
  EXPECT_FALSE(coordinator.server().result().ok());

  coordinator.Stop();
}

/// One kAssignPartition -> kPartitionResult exchange with the worker at
/// `port`, as a coordinator drives it (one attempt, no retry).
Result<PartitionResultMessage> AssignPartition(uint16_t port,
                                               const AssignPartitionMessage& assign) {
  ConnectOptions connect;
  connect.io_timeout_ms = 60000;
  auto conn = TcpConnection::Connect("127.0.0.1", port, connect);
  if (!conn.ok()) return conn.status();
  MeteredFrameConnection mfc(**conn, nullptr, assign.coordinator);
  PPRL_RETURN_IF_ERROR(mfc.Send(static_cast<uint8_t>(MessageType::kAssignPartition),
                                EncodeAssignPartition(assign), "assign-partition"));
  int busy_hint_ms = -1;
  auto payload =
      ExpectFrame(mfc.Receive(nullptr), MessageType::kPartitionResult, &busy_hint_ms);
  if (!payload.ok()) return payload.status();
  return DecodePartitionResult(*payload);
}

/// A worker links its partition on its own pool (`--threads`): at
/// link_threads 4 it returns the same partition as at 1 and as the
/// in-process LinkPartition — edges, scores and counters — and only the
/// pooled worker runs its tasks on a shard pool (pprl_shard_seconds).
TEST(CoordinatorTest, WorkerLinksItsPartitionOnItsPool) {
  Scenario scenario = MakeScenario(3, 150);
  MultiPartyLinkageOptions options;
  options.dice_threshold = 0.78;
  LinkageUnitService reference_unit("lu");
  Channel reference_channel;
  LocalLinkageUnitSink sink(reference_channel, reference_unit);
  for (DatabaseOwner& owner : scenario.owners) {
    ASSERT_TRUE(owner.ShipEncodings(sink).ok());
  }
  const PartitionSpec spec{1, 2, PartitionScheme::kAuto};
  const auto reference = reference_unit.LinkPartition(options, spec);
  ASSERT_TRUE(reference.ok());
  ASSERT_FALSE(reference->edges.empty());

  AssignPartitionMessage assign;
  assign.protocol_version = kWireProtocolVersion;
  assign.coordinator = "test-coordinator";
  assign.worker_index = spec.worker_index;
  assign.num_workers = spec.num_workers;
  assign.expected_owners = static_cast<uint32_t>(scenario.owners.size());
  assign.dice_threshold = options.dice_threshold;
  assign.lsh_tables = static_cast<uint32_t>(options.lsh_tables);
  assign.lsh_bits_per_key = static_cast<uint32_t>(options.lsh_bits_per_key);
  assign.lsh_seed = options.lsh_seed;

  obs::Histogram& shard_seconds = obs::GlobalMetrics().GetHistogram(
      "pprl_shard_seconds", "Per-shard execution time on the scheduler",
      obs::DefaultLatencyBuckets());
  for (const size_t threads : {size_t{1}, size_t{4}}) {
    LinkageUnitServerConfig config;
    config.name = "worker";
    config.expected_owners = scenario.owners.size();
    config.worker_mode = true;
    config.io_timeout_ms = 60000;
    config.link_threads = threads;
    LinkageUnitServer worker(config);
    ASSERT_TRUE(worker.Start().ok());
    for (DatabaseOwner& owner : scenario.owners) {
      RemoteOwnerClientConfig ship;
      ship.port = worker.port();
      ship.wait_for_results = false;
      RemoteOwnerClient client(ship);
      ASSERT_TRUE(owner.ShipEncodings(client).ok()) << owner.name();
    }
    ASSERT_EQ(worker.owner_order(), scenario.names);

    const uint64_t tasks_before = shard_seconds.count();
    auto part = AssignPartition(worker.port(), assign);
    const uint64_t pool_tasks = shard_seconds.count() - tasks_before;
    worker.Stop();
    ASSERT_TRUE(part.ok()) << part.status().ToString();
    const std::string label = std::to_string(threads) + " link threads";
    if (threads == 1) {
      EXPECT_EQ(pool_tasks, 0u) << label;
    } else {
      EXPECT_GT(pool_tasks, 0u) << label;
    }
    EXPECT_EQ(part->worker_index, spec.worker_index) << label;
    EXPECT_EQ(part->comparisons, reference->comparisons) << label;
    EXPECT_EQ(part->candidate_pairs, reference->candidate_pairs) << label;
    EXPECT_EQ(part->pruned_comparisons, reference->pruned_comparisons) << label;
    ASSERT_EQ(part->edges.size(), reference->edges.size()) << label;
    for (size_t i = 0; i < part->edges.size(); ++i) {
      EXPECT_EQ(part->edges[i].x, reference->edges[i].x) << label << ", edge " << i;
      EXPECT_EQ(part->edges[i].y, reference->edges[i].y) << label << ", edge " << i;
      EXPECT_EQ(part->edges[i].score, reference->edges[i].score)
          << label << ", edge " << i;
    }
  }
}

/// The coordinator's gathered-edge check: a real partition passes, and
/// each forged edge — databases out of order or unshipped, a record past
/// its database's end, a score that is NaN, infinite or outside [0, 1] —
/// is a ProtocolViolation, which the assignment retries like any fault.
TEST(PartitionEdgeCheckTest, RejectsForgedEdges) {
  const std::vector<size_t> sizes = {10, 20, 5};
  const std::vector<MatchEdge> good = {
      {{0, 0}, {1, 19}, 0.8}, {{0, 9}, {2, 4}, 1.0}, {{1, 3}, {2, 0}, 0.0}};
  EXPECT_TRUE(ValidatePartitionEdges(good, sizes).ok());
  EXPECT_TRUE(ValidatePartitionEdges({}, sizes).ok());

  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<MatchEdge> forged = {
      {{1, 0}, {0, 0}, 0.9},   // databases descending
      {{1, 0}, {1, 1}, 0.9},   // one database on both ends
      {{0, 0}, {3, 0}, 0.9},   // an unshipped database
      {{0, 10}, {1, 0}, 0.9},  // x record past its database
      {{0, 0}, {2, 5}, 0.9},   // y record past its database
      {{0, 0}, {1, 0}, nan},   {{0, 0}, {1, 0}, inf},   {{0, 0}, {1, 0}, -inf},
      {{0, 0}, {1, 0}, -0.25}, {{0, 0}, {1, 0}, 1.5},
  };
  for (size_t i = 0; i < forged.size(); ++i) {
    std::vector<MatchEdge> edges = good;
    edges.insert(edges.begin() + 1, forged[i]);
    const Status checked = ValidatePartitionEdges(edges, sizes);
    EXPECT_EQ(checked.code(), StatusCode::kProtocolViolation) << "forged edge " << i;
    EXPECT_NE(checked.message().find("edge 1 "), std::string::npos) << checked.message();
  }
  EXPECT_EQ(ValidatePartitionEdges(good, {10, 20}).code(),
            StatusCode::kProtocolViolation);
}

/// The --workers flag parser: host:port entries or bare ports, every
/// malformed entry an InvalidArgument — never an exception, whatever the
/// digit count.
TEST(ParseWorkerListTest, AcceptsEndpointsAndRejectsMalformedEntries) {
  auto workers = ParseWorkerList("10.0.0.7:7811,7812");
  ASSERT_TRUE(workers.ok()) << workers.status().ToString();
  ASSERT_EQ(workers->size(), 2u);
  EXPECT_EQ((*workers)[0].host, "10.0.0.7");
  EXPECT_EQ((*workers)[0].port, 7811);
  EXPECT_EQ((*workers)[1].host, "127.0.0.1");
  EXPECT_EQ((*workers)[1].port, 7812);

  auto bare = ParseWorkerList("65535");
  ASSERT_TRUE(bare.ok()) << bare.status().ToString();
  ASSERT_EQ(bare->size(), 1u);
  EXPECT_EQ((*bare)[0].port, 65535);

  for (const char* spec :
       {"7811,,7812", "7811,", ":7811", "127.0.0.1:78a1", "127.0.0.1:", "127.0.0.1:+80",
        "127.0.0.1:-80", "127.0.0.1:0", "127.0.0.1:65536",
        "127.0.0.1:99999999999999999999999"}) {
    EXPECT_EQ(ParseWorkerList(spec).status().code(), StatusCode::kInvalidArgument)
        << spec;
  }
}

}  // namespace
}  // namespace pprl
