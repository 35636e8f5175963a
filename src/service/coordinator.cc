#include "service/coordinator.h"

#include <charconv>
#include <chrono>
#include <thread>
#include <utility>

#include "common/logging.h"
#include "linkage/distributed.h"
#include "obs/metrics.h"
#include "service/client.h"
#include "service/protocol.h"

namespace pprl {

namespace {

/// Coordinator-side metrics of the worker links (docs/OBSERVABILITY.md).
struct CoordinatorMetrics {
  obs::Counter& degraded = obs::GlobalMetrics().GetCounter(
      "pprl_coord_degraded_total",
      "Scatter/gather runs that proceeded without every worker partition");

  static obs::Counter& Partitions(const char* outcome) {
    return obs::GlobalMetrics().GetCounter(
        "pprl_coord_partitions_total",
        "Worker partitions driven by the coordinator, by outcome",
        {{"outcome", outcome}});
  }
  static obs::Histogram& PartitionSeconds(const std::string& worker) {
    return obs::GlobalMetrics().GetHistogram(
        "pprl_coord_partition_seconds",
        "Wall time driving one worker: shipments, assignment, gather",
        obs::DefaultLatencyBuckets(), {{"worker", worker}});
  }
  static obs::Counter& WorkerBytes(const std::string& worker, const char* direction) {
    return obs::GlobalMetrics().GetCounter(
        "pprl_coord_worker_bytes_total",
        "Raw socket bytes on a coordinator->worker link, frame headers included",
        {{"worker", worker}, {"direction", direction}});
  }
  static obs::Counter& WorkerRetries() {
    return obs::GlobalMetrics().GetCounter(
        "pprl_coord_worker_retries_total",
        "Worker-link deliveries retried beyond their first attempt");
  }
};

CoordinatorMetrics& Metrics() {
  static CoordinatorMetrics* m = new CoordinatorMetrics();
  return *m;
}

}  // namespace

Result<WorkerEndpoint> ParseEndpoint(const std::string& entry) {
  WorkerEndpoint endpoint;
  const size_t colon = entry.rfind(':');
  const std::string port_text =
      colon == std::string::npos ? entry : entry.substr(colon + 1);
  if (colon != std::string::npos) {
    if (colon == 0) {
      return Status::InvalidArgument("empty host in endpoint '" + entry + "'");
    }
    endpoint.host = entry.substr(0, colon);
  }
  // std::from_chars reports an over-long digit string as out of range
  // instead of throwing.
  uint64_t port = 0;
  const char* port_end = port_text.data() + port_text.size();
  const auto [parsed_end, error] = std::from_chars(port_text.data(), port_end, port);
  if (port_text.empty() || parsed_end != port_end) {
    return Status::InvalidArgument("bad port in endpoint '" + entry + "'");
  }
  if (error != std::errc() || port == 0 || port > 65535) {
    return Status::InvalidArgument("port out of range [1, 65535] in endpoint '" +
                                   entry + "'");
  }
  endpoint.port = static_cast<uint16_t>(port);
  return endpoint;
}

Result<std::vector<WorkerEndpoint>> ParseWorkerList(const std::string& spec) {
  std::vector<WorkerEndpoint> workers;
  size_t start = 0;
  while (start <= spec.size()) {
    const size_t comma = spec.find(',', start);
    const std::string entry =
        spec.substr(start, comma == std::string::npos ? std::string::npos
                                                      : comma - start);
    if (entry.empty()) {
      return Status::InvalidArgument("empty entry in worker list '" + spec + "'");
    }
    auto worker = ParseEndpoint(entry);
    if (!worker.ok()) return worker.status();
    workers.push_back(std::move(*worker));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return workers;
}

CoordinatorServer::CoordinatorServer(LinkageUnitServerConfig server_config,
                                     CoordinatorConfig coordinator_config)
    : server_config_(std::move(server_config)),
      coordinator_(std::move(coordinator_config)) {}

CoordinatorServer::~CoordinatorServer() { Stop(); }

Status CoordinatorServer::Start() {
  if (server_ != nullptr) {
    return Status::FailedPrecondition("coordinator already started");
  }
  if (coordinator_.workers.empty()) {
    return Status::InvalidArgument("a coordinator needs at least one worker");
  }
  if (coordinator_.min_worker_partitions > coordinator_.workers.size()) {
    return Status::InvalidArgument(
        "worker quorum of " + std::to_string(coordinator_.min_worker_partitions) +
        " exceeds the ring of " + std::to_string(coordinator_.workers.size()));
  }
  server_config_.worker_mode = false;
  server_config_.distributed_linker =
      [this](const LinkageUnitService& unit, const MultiPartyLinkageOptions& options) {
        return ScatterGatherLink(unit, options);
      };
  server_ = std::make_unique<LinkageUnitServer>(server_config_);
  const Status started = server_->Start();
  if (!started.ok()) {
    server_.reset();
    return started;
  }
  const BlockPartitioner geometry(
      static_cast<uint32_t>(coordinator_.workers.size()), coordinator_.scheme);
  PPRL_LOG(kInfo) << "coordinator '" << name() << "' sharding over "
                  << coordinator_.workers.size() << " workers ("
                  << PartitionSchemeName(geometry.effective_scheme())
                  << " partitioning)";
  return Status::OK();
}

void CoordinatorServer::Stop() {
  if (server_) server_->Stop();
}

Status CoordinatorServer::WaitUntilDone(int timeout_ms) const {
  if (!server_) return Status::FailedPrecondition("coordinator not started");
  return server_->WaitUntilDone(timeout_ms);
}

Result<DistributedLinkOutcome> CoordinatorServer::ScatterGatherLink(
    const LinkageUnitService& unit, const MultiPartyLinkageOptions& options) {
  const size_t num_workers = coordinator_.workers.size();
  PPRL_LOG(kInfo) << "coordinator '" << name() << "' scattering "
                  << unit.num_databases() << " databases to " << num_workers
                  << " workers";

  // Every worker is driven end to end on its own thread: shipments,
  // assignment, gather. Threads only write their own slot, so no lock.
  std::vector<Result<PartitionResultMessage>> gathered(
      num_workers, Status::Internal("worker not driven"));
  std::vector<std::thread> drivers;
  drivers.reserve(num_workers);
  for (size_t w = 0; w < num_workers; ++w) {
    drivers.emplace_back([this, w, &unit, &options, &gathered] {
      const auto start = std::chrono::steady_clock::now();
      gathered[w] = DriveWorker(w, unit, options);
      Metrics()
          .PartitionSeconds(coordinator_.workers[w].Label())
          .Observe(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                                 start)
                       .count());
    });
  }
  for (std::thread& t : drivers) t.join();

  std::vector<WorkerPartitionResult> parts;
  parts.reserve(num_workers);
  Status first_failure = Status::OK();
  for (size_t w = 0; w < num_workers; ++w) {
    if (!gathered[w].ok()) {
      Metrics().Partitions("error").Increment();
      PPRL_LOG(kWarning) << "worker " << coordinator_.workers[w].Label()
                         << " failed its partition: "
                         << gathered[w].status().ToString();
      if (first_failure.ok()) first_failure = gathered[w].status();
      continue;
    }
    Metrics().Partitions("ok").Increment();
    WorkerPartitionResult part;
    part.worker_index = gathered[w]->worker_index;
    part.comparisons = gathered[w]->comparisons;
    part.candidate_pairs = gathered[w]->candidate_pairs;
    part.pruned_comparisons = gathered[w]->pruned_comparisons;
    part.edges = std::move(gathered[w]->edges);
    parts.push_back(std::move(part));
  }

  const size_t required = coordinator_.min_worker_partitions == 0
                              ? num_workers
                              : coordinator_.min_worker_partitions;
  if (parts.size() < required) {
    return Status::IoError("only " + std::to_string(parts.size()) + " of " +
                           std::to_string(num_workers) +
                           " worker partitions gathered (quorum " +
                           std::to_string(required) +
                           "); first failure: " + first_failure.message());
  }
  DistributedLinkOutcome outcome;
  outcome.workers_linked = static_cast<uint32_t>(parts.size());
  outcome.workers_expected = static_cast<uint32_t>(num_workers);
  if (outcome.workers_linked < outcome.workers_expected) {
    Metrics().degraded.Increment();
    PPRL_LOG(kWarning) << "straggler quorum: merging " << parts.size() << " of "
                       << num_workers << " partitions (degraded result)";
  }

  MergedPartitions merged = MergeWorkerPartitions(std::move(parts));
  outcome.result.edges = std::move(merged.edges);
  outcome.result.comparisons = merged.comparisons;
  outcome.result.candidate_pairs = merged.candidate_pairs;
  outcome.result.pruned_comparisons = merged.pruned_comparisons;
  // Clustering stays global at the coordinator, over the merged edges —
  // identical inputs to the single-daemon path, so identical clusters.
  outcome.result.clusters =
      ClusterEdges(outcome.result.edges, options.use_star_clustering);
  return outcome;
}

Result<PartitionResultMessage> CoordinatorServer::DriveWorker(
    size_t worker_index, const LinkageUnitService& unit,
    const MultiPartyLinkageOptions& options) {
  const WorkerEndpoint& worker = coordinator_.workers[worker_index];

  // 1. Scatter: re-ship every owner's database over the ordinary
  // fault-tolerant session protocol, stop-and-wait per owner so the
  // worker registers them in the coordinator's owner order.
  for (size_t d = 0; d < unit.num_databases(); ++d) {
    RemoteOwnerClientConfig ship;
    ship.host = worker.host;
    ship.port = worker.port;
    ship.server_label = worker.Label();
    ship.connect = coordinator_.connect;
    ship.retry = coordinator_.retry;
    ship.chunk_bytes = coordinator_.chunk_bytes;
    ship.max_frame_payload = coordinator_.max_frame_payload;
    ship.wait_for_results = false;
    if (coordinator_.chaos.enabled()) {
      ship.fault = coordinator_.chaos.WithSeed(
          coordinator_.chaos.seed +
          0x9e3779b97f4a7c15ULL * (worker_index * 64 + d + 1));
    }
    RemoteOwnerClient client(ship, &worker_channel_);
    auto shipped = client.ShipAndAwait(unit.owners()[d], unit.databases()[d]);
    Metrics().WorkerBytes(worker.Label(), "sent").Increment(client.wire_bytes_sent());
    Metrics()
        .WorkerBytes(worker.Label(), "received")
        .Increment(client.wire_bytes_received());
    worker_wire_bytes_sent_.fetch_add(client.wire_bytes_sent());
    worker_wire_bytes_received_.fetch_add(client.wire_bytes_received());
    if (client.retries() > 0) {
      Metrics().WorkerRetries().Increment(client.retries());
      worker_retries_.fetch_add(client.retries());
    }
    if (!shipped.ok()) {
      // A worker that already holds this shipment from an earlier
      // (retried) drive answers kAlreadyExists — that is success, not
      // failure: the bytes are registered. Any other failure only reaches
      // the run's outcome as text, so its code rides in the message.
      if (shipped.status().code() != StatusCode::kAlreadyExists) {
        return Status::IoError("shipping '" + unit.owners()[d] + "' to worker " +
                               worker.Label() + ": " + shipped.status().ToString());
      }
    }
  }

  // 2. Assign the partition and gather its result.
  AssignPartitionMessage assign;
  assign.protocol_version = kWireProtocolVersion;
  assign.coordinator = name();
  assign.worker_index = static_cast<uint32_t>(worker_index);
  assign.num_workers = static_cast<uint32_t>(coordinator_.workers.size());
  assign.scheme = static_cast<uint8_t>(coordinator_.scheme);
  assign.expected_owners = static_cast<uint32_t>(unit.num_databases());
  assign.dice_threshold = options.dice_threshold;
  assign.lsh_tables = static_cast<uint32_t>(options.lsh_tables);
  assign.lsh_bits_per_key = static_cast<uint32_t>(options.lsh_bits_per_key);
  assign.lsh_seed = options.lsh_seed;
  std::vector<size_t> database_sizes;
  for (const EncodedDatabase& db : unit.databases()) database_sizes.push_back(db.size());
  return AssignWithRetry(worker_index, assign, database_sizes);
}

Result<PartitionResultMessage> CoordinatorServer::AssignWithRetry(
    size_t worker_index, const AssignPartitionMessage& assign,
    const std::vector<size_t>& database_sizes) {
  const WorkerEndpoint& worker = coordinator_.workers[worker_index];
  const auto attempt_assignment = [&](int attempt,
                                      int* busy_hint_ms) -> Result<PartitionResultMessage> {
    auto conn =
        TcpConnection::Connect(worker.host, worker.port, coordinator_.connect);
    if (!conn.ok()) return conn.status();
    TcpConnection& socket = **conn;
    std::unique_ptr<FaultInjectingConnection> chaos;
    Connection* wire = &socket;
    if (coordinator_.chaos.enabled()) {
      chaos = std::make_unique<FaultInjectingConnection>(
          socket, coordinator_.chaos.WithSeed(
                      coordinator_.chaos.seed +
                      0x517cc1b727220a95ULL *
                          (worker_index * 64 + static_cast<uint64_t>(attempt) + 1)));
      wire = chaos.get();
    }
    MeteredFrameConnection mfc(*wire, &worker_channel_, name(),
                               coordinator_.max_frame_payload);
    mfc.set_peer(worker.Label());

    struct WireTally {
      TcpConnection& socket;
      std::atomic<size_t>& sent;
      std::atomic<size_t>& received;
      ~WireTally() {
        sent.fetch_add(socket.wire_bytes_sent());
        received.fetch_add(socket.wire_bytes_received());
      }
    } tally{socket, worker_wire_bytes_sent_, worker_wire_bytes_received_};

    PPRL_RETURN_IF_ERROR(mfc.Send(
        static_cast<uint8_t>(MessageType::kAssignPartition),
        EncodeAssignPartition(assign),
        MessageTypeTag(static_cast<uint8_t>(MessageType::kAssignPartition))));
    // The worker computes its whole partition before replying.
    wire->SetIoTimeout(coordinator_.assign_timeout_ms);
    auto payload = ExpectFrame(mfc.Receive(MessageTypeTag),
                               MessageType::kPartitionResult, busy_hint_ms);
    if (!payload.ok()) return payload.status();
    auto result = DecodePartitionResult(*payload);
    if (!result.ok()) return result.status();
    if (result->worker_index != assign.worker_index) {
      return Status::ProtocolViolation("partition-result names worker " +
                                       std::to_string(result->worker_index) +
                                       ", assigned " +
                                       std::to_string(assign.worker_index));
    }
    PPRL_RETURN_IF_ERROR(ValidatePartitionEdges(result->edges, database_sizes));
    return result;
  };

  Result<PartitionResultMessage> result = Status::IoError("no assignment attempt made");
  const Status assigned = RunWithRetry(
      coordinator_.retry, "assignment to " + worker.Label(),
      [&](int attempt, int* busy_hint_ms) {
        result = attempt_assignment(attempt, busy_hint_ms);
        return result.status();
      },
      [this](bool, int) {
        Metrics().WorkerRetries().Increment();
        worker_retries_.fetch_add(1);
      });
  if (!assigned.ok()) return assigned;
  return result;
}

}  // namespace pprl
