/// pprl_linkd — the linkage unit as a standalone daemon.
///
/// Owners run `pprl_cli encode` locally, then `pprl_cli ship` their
/// interchange files to this process; once the expected number of owners
/// has shipped, the daemon links all databases and answers every owner
/// with its per-owner match summary. One linkage run per invocation.
///
/// Three roles (docs/OPERATIONS.md):
///   default       single daemon: blocks, compares and clusters locally.
///   --workers     coordinator: re-ships every owner database to the given
///                 worker daemons, assigns each its slice of the candidate
///                 space (consistent block-key partitioning), merges the
///                 gathered partitions and clusters globally. Results are
///                 bitwise-identical to a single daemon's at any worker
///                 count.
///   --worker      worker: holds shipments and answers a coordinator's
///                 partition assignments; never links on its own and never
///                 answers owners with results.
///   --online      serving: every shipment feeds an incrementally
///                 maintained LSH index + cluster partition, and sessions
///                 then serve record appends and link queries (protocol
///                 v4, `pprl_cli append` / `pprl_cli query`) until the
///                 daemon is stopped. No batch linkage run.
///
/// With --metrics, a Prometheus text endpoint (GET /metrics) is served on
/// the given port (0 picks an ephemeral one; the bound port is printed).
/// The single daemon and the worker link on a shared pool of --threads
/// workers, one per core by default (--threads 1 links on the session
/// thread); results are identical at any thread count.
///
/// Robustness knobs: --io-timeout-ms bounds every socket read/write;
/// --max-sessions caps concurrent connections (excess is shed with a BUSY
/// frame); --session-ttl-ms sweeps idle partial shipments; --min-owners
/// arms the quorum option (link with fewer owners after a quiet period,
/// flagged as degraded in every summary); --min-worker-quorum is the
/// coordinator-side analogue over worker partitions. --chaos wraps every
/// accepted connection (and, on a coordinator, every worker link) in the
/// seeded fault injector — for drills, never production.
///
/// With --spool, every registered shipment is also persisted to the given
/// (existing) directory as "<party>.pclk" (or ".csv" with --spool-format
/// csv) — an audit/replay trail of exactly what each owner shipped.
///
/// example (three terminals):
///   ./build/examples/pprl_linkd 7001 2
///   ./build/examples/pprl_cli ship /tmp/a_clks.csv hospital-a 127.0.0.1:7001
///   ./build/examples/pprl_cli ship /tmp/b_clks.csv hospital-b 127.0.0.1:7001

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

#include "blocking/lsh_blocking.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "service/coordinator.h"
#include "service/server.h"

#include "parse_number.h"

using namespace pprl;
using pprl::examples::ParseNumber;

namespace {

/// Set by the SIGTERM/SIGINT handler; the serving roles poll it and shut
/// down gracefully (drain sessions, final checkpoint, exit 0).
volatile std::sig_atomic_t g_signal = 0;

void HandleShutdownSignal(int signum) { g_signal = signum; }

/// Blocks until the operator stops the daemon. WaitUntilDone never
/// completes for a serving role (there is no linkage-done state), so wait
/// in short slices and poll the signal flag between them — a handler
/// cannot wake a condition variable safely on its own.
void ServeUntilSignalled(LinkageUnitServer& server) {
  std::signal(SIGTERM, HandleShutdownSignal);
  std::signal(SIGINT, HandleShutdownSignal);
  // Operators (and the check.sh gates) watch the daemon's log file for the
  // startup and recovery lines; push them out before blocking.
  std::fflush(stdout);
  while (g_signal == 0) {
    server.WaitUntilDone(/*timeout_ms=*/200);
  }
  std::printf("pprl_linkd: received %s, draining sessions and stopping\n",
              g_signal == SIGTERM ? "SIGTERM" : "SIGINT");
}

/// Cap on the owner, quorum and session counts: far above any deployment,
/// and low enough that the default session limit 2n + 2 cannot wrap.
constexpr size_t kMaxCount = 65535;
constexpr int kMaxMillis = std::numeric_limits<int>::max();
constexpr uint64_t kMaxU64 = std::numeric_limits<uint64_t>::max();

int Usage(FILE* out) {
  std::fprintf(
      out,
      "usage: pprl_linkd <port> <expected_owners> [dice_threshold] [options]\n"
      "\n"
      "  <port> is 0..65535 (0 picks an ephemeral port), <expected_owners>\n"
      "  1..65535, dice_threshold in (0, 1] (default 0.8). Every numeric\n"
      "  option takes a base-10 integer in the range shown; anything else\n"
      "  exits 2.\n"
      "\n"
      "roles:\n"
      "  (default)                  single daemon: link locally once every\n"
      "                             expected owner has shipped\n"
      "  --workers <host:port,...>  coordinator: shard the compare across the\n"
      "                             listed worker daemons (order matters: it\n"
      "                             is the partition geometry)\n"
      "  --coordinator              explicit coordinator role (implied by\n"
      "                             --workers)\n"
      "  --worker                   worker: answer partition assignments from\n"
      "                             a coordinator; never link alone\n"
      "  --online                   serving: maintain a live LSH index and\n"
      "                             cluster partition; sessions append and\n"
      "                             link-query records until stopped\n"
      "\n"
      "coordinator options:\n"
      "  --partition-scheme <s>     block-key partitioning: auto | rendezvous\n"
      "                             | ring (auto: rendezvous up to 8 workers,\n"
      "                             consistent-hash ring beyond)\n"
      "  --min-worker-quorum <n>    proceed (degraded) once >= n worker\n"
      "                             partitions gathered; 0 = all required\n"
      "                             (0..65535)\n"
      "  --assign-timeout-ms <ms>   socket wait for one worker's partition\n"
      "                             result (default 120000; 0 = no limit)\n"
      "\n"
      "options:\n"
      "  --all-interfaces           bind 0.0.0.0 instead of loopback\n"
      "  --metrics <port>           serve Prometheus text at /metrics\n"
      "                             (0..65535, 0 = ephemeral; -1 = off)\n"
      "  --threads <n>              link threads of the single daemon and\n"
      "                             the worker (1..256, default: one per core)\n"
      "  --io-timeout-ms <ms>       per-socket read/write timeout (default\n"
      "                             30000; 0 = no limit)\n"
      "  --max-sessions <n>         concurrent connection cap, excess shed\n"
      "                             (0..65535; 0 = 2 x owners + 2)\n"
      "  --session-ttl-ms <ms>      idle partial-shipment sweep age (>= 1,\n"
      "                             default 60000)\n"
      "  --min-owners <n>           owner quorum: link with fewer owners\n"
      "                             after a quiet period (degraded; 0..65535)\n"
      "  --clustering star|cc       cluster materialization: star clustering\n"
      "                             (default) or connected components\n"
      "  --chaos <seed>             deterministic fault injection (drills)\n"
      "  --spool <dir>              persist registered shipments to <dir>\n"
      "  --spool-format csv|pclk    spool file format (default pclk)\n"
      "\n"
      "durability (online role, docs/OPERATIONS.md runbook):\n"
      "  --wal-dir <dir>            journal every absorbed record to a WAL\n"
      "                             in <dir> before acking, and recover\n"
      "                             checkpoint + WAL replay on startup\n"
      "  --checkpoint-dir <dir>     checkpoint directory (default: --wal-dir)\n"
      "  --wal-sync-ms <ms>         WAL fsync group-commit window; 0\n"
      "                             fsyncs every append (default 50)\n"
      "  --checkpoint-every-n <n>   checkpoint after n journaled operations;\n"
      "                             0 checkpoints only on shutdown\n"
      "                             (default 100000)\n"
      "  --chaos-crash-after <n>    crash drill: die (SIGKILL-equivalent)\n"
      "                             right after the n-th journaled operation\n"
      "  --help                     this text\n");
  return out == stdout ? 0 : 2;
}

/// The linkage thread count of the roles that link themselves (single
/// daemon and worker): each Link() or LinkPartition() runs its index
/// builds and candidate-range tasks on a pool of this many threads.
void PrintLinkThreads(const LinkageUnitServerConfig& config) {
  std::printf("pprl_linkd: linkage on %zu thread%s\n", config.link_threads,
              config.link_threads == 1 ? "" : "s");
}

void PrintCommonConfig(const LinkageUnitServerConfig& config,
                       size_t effective_max_sessions) {
  std::printf(
      "pprl_linkd: robustness: io timeout %d ms, max %zu sessions, "
      "session ttl %d ms, deadline %d ms, buffer cap %.1f MiB\n",
      config.io_timeout_ms, effective_max_sessions, config.session_ttl_ms,
      config.session_deadline_ms,
      static_cast<double>(config.max_buffered_bytes) / (1024.0 * 1024.0));
  if (config.spool_dir.empty()) {
    std::printf("pprl_linkd: ingest formats: csv, pclk (spooling off)\n");
  } else {
    std::printf("pprl_linkd: ingest formats: csv, pclk; spooling shipments to "
                "%s as %s\n",
                config.spool_dir.c_str(),
                io::ShardFileFormatName(config.spool_format));
  }
  if (config.chaos.enabled()) {
    std::printf("pprl_linkd: CHAOS MODE: injecting faults with seed %llu\n",
                static_cast<unsigned long long>(config.chaos.seed));
  }
}

void PrintTraffic(const LinkageUnitServer& server) {
  std::printf("metered traffic: %zu messages, %.1f KiB payload; wire %.1f KiB\n",
              server.channel().total_messages(),
              static_cast<double>(server.channel().total_bytes()) / 1024.0,
              static_cast<double>(server.wire_bytes_received() +
                                  server.wire_bytes_sent()) /
                  1024.0);
  const auto messages = server.channel().messages_by_tag();
  for (const auto& [tag, bytes] : server.channel().bytes_by_tag()) {
    const auto it = messages.find(tag);
    std::printf("  %-16s %8zu msgs %10.1f KiB\n", tag.c_str(),
                it == messages.end() ? size_t{0} : it->second,
                static_cast<double>(bytes) / 1024.0);
  }
}

void PrintResult(const LinkageUnitServer& server, size_t expected_owners) {
  auto result = server.result();
  if (server.linkage_degraded()) {
    std::printf("\nWARNING: degraded run — linked %zu of %zu expected owners, "
                "%u of %u worker partitions\n",
                server.owner_order().size(), expected_owners,
                server.workers_linked(), server.workers_expected());
  }
  std::printf("\nlinked %zu databases: %zu clusters, %zu edges, %zu comparisons\n",
              server.owner_order().size(), result->clusters.size(),
              result->edges.size(), result->comparisons);
  PrintTraffic(server);
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0 || std::strcmp(argv[i], "-h") == 0) {
      return Usage(stdout);
    }
  }
  if (argc < 3) return Usage(stderr);

  LinkageUnitServerConfig config;
  CoordinatorConfig coordinator_config;
  bool worker_role = false;
  bool coordinator_role = false;
  bool online_role = false;
  config.name = "pprl-linkd";
  if (!ParseNumber("<port>", argv[1], 0, 65535, &config.port) ||
      !ParseNumber("<expected_owners>", argv[2], 1, kMaxCount,
                   &config.expected_owners)) {
    return 2;
  }
  if (argc > 3 && argv[3][0] != '-') {
    char* end = nullptr;
    config.link_options.dice_threshold = std::strtod(argv[3], &end);
    const Status threshold = ValidateDiceThreshold(config.link_options.dice_threshold);
    if (end == argv[3] || *end != '\0' || !threshold.ok()) {
      std::fprintf(stderr, "threshold must be a number in (0, 1], got '%s'\n",
                   argv[3]);
      return 2;
    }
  }
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--all-interfaces") config.loopback_only = false;
    if (arg == "--worker") worker_role = true;
    if (arg == "--coordinator") coordinator_role = true;
    if (arg == "--online") online_role = true;
    if (arg == "--clustering" && i + 1 < argc) {
      const std::string clustering = argv[++i];
      if (clustering == "star") {
        config.link_options.use_star_clustering = true;
      } else if (clustering == "cc") {
        config.link_options.use_star_clustering = false;
      } else {
        std::fprintf(stderr, "--clustering must be star or cc, got %s\n",
                     clustering.c_str());
        return 2;
      }
    }
    if (arg == "--workers" && i + 1 < argc) {
      coordinator_role = true;
      auto workers = ParseWorkerList(argv[++i]);
      if (!workers.ok()) {
        std::fprintf(stderr, "%s\n", workers.status().ToString().c_str());
        return 2;
      }
      coordinator_config.workers = std::move(*workers);
    }
    if (arg == "--partition-scheme" && i + 1 < argc) {
      const std::string scheme = argv[++i];
      if (scheme == "auto") {
        coordinator_config.scheme = PartitionScheme::kAuto;
      } else if (scheme == "rendezvous") {
        coordinator_config.scheme = PartitionScheme::kRendezvous;
      } else if (scheme == "ring") {
        coordinator_config.scheme = PartitionScheme::kConsistentRing;
      } else {
        std::fprintf(stderr,
                     "--partition-scheme must be auto, rendezvous or ring, "
                     "got %s\n",
                     scheme.c_str());
        return 2;
      }
    }
    if (arg == "--min-worker-quorum" && i + 1 < argc &&
        !ParseNumber(arg.c_str(), argv[++i], 0, kMaxCount,
                     &coordinator_config.min_worker_partitions)) {
      return 2;
    }
    if (arg == "--assign-timeout-ms" && i + 1 < argc &&
        !ParseNumber(arg.c_str(), argv[++i], 0, kMaxMillis,
                     &coordinator_config.assign_timeout_ms)) {
      return 2;
    }
    if (arg == "--metrics" && i + 1 < argc &&
        !ParseNumber(arg.c_str(), argv[++i], -1, 65535, &config.metrics_port)) {
      return 2;
    }
    if (arg == "--threads" && i + 1 < argc &&
        !ParseNumber(arg.c_str(), argv[++i], 1, ShardScheduler::kMaxThreads,
                     &config.link_threads)) {
      return 2;
    }
    if (arg == "--io-timeout-ms" && i + 1 < argc &&
        !ParseNumber(arg.c_str(), argv[++i], 0, kMaxMillis, &config.io_timeout_ms)) {
      return 2;
    }
    if (arg == "--max-sessions" && i + 1 < argc &&
        !ParseNumber(arg.c_str(), argv[++i], 0, kMaxCount, &config.max_sessions)) {
      return 2;
    }
    if (arg == "--session-ttl-ms" && i + 1 < argc &&
        !ParseNumber(arg.c_str(), argv[++i], 1, kMaxMillis, &config.session_ttl_ms)) {
      return 2;
    }
    if (arg == "--min-owners" && i + 1 < argc &&
        !ParseNumber(arg.c_str(), argv[++i], 0, kMaxCount, &config.min_owners)) {
      return 2;
    }
    if (arg == "--spool" && i + 1 < argc) {
      config.spool_dir = argv[++i];
    }
    if (arg == "--spool-format" && i + 1 < argc) {
      const std::string format = argv[++i];
      if (format == "csv") {
        config.spool_format = io::ShardFileFormat::kCsv;
      } else if (format == "pclk") {
        config.spool_format = io::ShardFileFormat::kPclk;
      } else {
        std::fprintf(stderr, "--spool-format must be csv or pclk, got %s\n",
                     format.c_str());
        return 2;
      }
    }
    if (arg == "--wal-dir" && i + 1 < argc) {
      config.wal_dir = argv[++i];
    }
    if (arg == "--checkpoint-dir" && i + 1 < argc) {
      config.checkpoint_dir = argv[++i];
    }
    if (arg == "--wal-sync-ms" && i + 1 < argc &&
        !ParseNumber(arg.c_str(), argv[++i], 0, kMaxMillis, &config.wal_sync_ms)) {
      return 2;
    }
    if (arg == "--checkpoint-every-n" && i + 1 < argc &&
        !ParseNumber(arg.c_str(), argv[++i], 0, kMaxU64, &config.checkpoint_every_n)) {
      return 2;
    }
    if (arg == "--chaos-crash-after" && i + 1 < argc &&
        !ParseNumber(arg.c_str(), argv[++i], 0, kMaxU64, &config.chaos.crash_after_ops)) {
      return 2;
    }
    if (arg == "--chaos" && i + 1 < argc) {
      if (!ParseNumber(arg.c_str(), argv[++i], 0, kMaxU64, &config.chaos.seed)) return 2;
      config.chaos.close_rate = 0.01;
      config.chaos.delay_rate = 0.05;
      config.chaos.truncate_rate = 0.005;
      config.chaos.corrupt_rate = 0.005;
    }
  }
  if (worker_role && coordinator_role) {
    std::fprintf(stderr, "--worker and --coordinator are mutually exclusive\n");
    return 2;
  }
  if (online_role && (worker_role || coordinator_role)) {
    std::fprintf(stderr,
                 "--online is a serving role; it combines with neither "
                 "--worker nor --coordinator\n");
    return 2;
  }
  if (coordinator_role && coordinator_config.workers.empty()) {
    std::fprintf(stderr, "--coordinator needs --workers <host:port,...>\n");
    return 2;
  }

  if (online_role) {
    config.name = "pprl-linkd-online";
    config.online_mode = true;
    LinkageUnitServer server(config);
    const Status started = server.Start();
    if (!started.ok()) {
      std::fprintf(stderr, "%s\n", started.ToString().c_str());
      return 1;
    }
    std::printf("pprl_linkd: ONLINE on port %u, serving appends and link "
                "queries (dice >= %.2f, %zu LSH tables x %zu bits, %s)\n",
                server.port(), config.link_options.dice_threshold,
                config.link_options.lsh_tables,
                config.link_options.lsh_bits_per_key,
                config.loopback_only ? "loopback only" : "all interfaces");
    if (server.durable()) {
      const RecoveryReport& rec = server.recovery_report();
      std::printf("pprl_linkd: durable: WAL in %s (fsync window %d ms), "
                  "checkpoint every %llu ops in %s\n",
                  config.wal_dir.c_str(), config.wal_sync_ms,
                  static_cast<unsigned long long>(config.checkpoint_every_n),
                  (config.checkpoint_dir.empty() ? config.wal_dir
                                                 : config.checkpoint_dir)
                      .c_str());
      std::printf("pprl_linkd: recovery: %llu checkpointed + %llu replayed "
                  "records (%llu torn bytes dropped) in %.3f s (checkpoint "
                  "%.3f s, replay %.3f s)\n",
                  static_cast<unsigned long long>(rec.checkpoint_records),
                  static_cast<unsigned long long>(rec.replayed_records),
                  static_cast<unsigned long long>(rec.torn_bytes_dropped),
                  rec.seconds, rec.checkpoint_seconds, rec.replay_seconds);
    }
    PrintCommonConfig(config, server.max_sessions());
    if (server.metrics_port() != 0) {
      std::printf("pprl_linkd: metrics at http://127.0.0.1:%u/metrics\n",
                  server.metrics_port());
    }
    // An online daemon serves until its operator stops it; there is no
    // "done" state of its own.
    ServeUntilSignalled(server);
    server.Stop();
    return 0;
  }

  if (worker_role) {
    config.name = "pprl-linkd-worker";
    config.worker_mode = true;
    LinkageUnitServer server(config);
    const Status started = server.Start();
    if (!started.ok()) {
      std::fprintf(stderr, "%s\n", started.ToString().c_str());
      return 1;
    }
    std::printf("pprl_linkd: WORKER on port %u, holding shipments of %zu owners "
                "for a coordinator (%s)\n",
                server.port(), config.expected_owners,
                config.loopback_only ? "loopback only" : "all interfaces");
    PrintCommonConfig(config, server.max_sessions());
    PrintLinkThreads(config);
    if (server.metrics_port() != 0) {
      std::printf("pprl_linkd: metrics at http://127.0.0.1:%u/metrics\n",
                  server.metrics_port());
    }
    // A worker serves assignments until its operator stops it; there is no
    // "done" state of its own.
    ServeUntilSignalled(server);
    server.Stop();
    return 0;
  }

  if (coordinator_role) {
    config.name = "pprl-linkd-coord";
    // Chaos on a coordinator drills both sides: accepted owner connections
    // (server config) and the outbound worker links.
    coordinator_config.chaos = config.chaos;
    CoordinatorServer coordinator(config, coordinator_config);
    const Status started = coordinator.Start();
    if (!started.ok()) {
      std::fprintf(stderr, "%s\n", started.ToString().c_str());
      return 1;
    }
    std::printf("pprl_linkd: COORDINATOR on port %u for %zu owners, sharding "
                "across %zu workers (dice >= %.2f, %s)\n",
                coordinator.port(), config.expected_owners,
                coordinator.num_workers(), config.link_options.dice_threshold,
                config.loopback_only ? "loopback only" : "all interfaces");
    for (const WorkerEndpoint& worker : coordinator_config.workers) {
      std::printf("pprl_linkd:   worker %s\n", worker.Label().c_str());
    }
    if (coordinator_config.min_worker_partitions > 0) {
      std::printf("pprl_linkd: worker quorum armed: will merge >= %zu of %zu "
                  "partitions (degraded result below %zu)\n",
                  coordinator_config.min_worker_partitions,
                  coordinator.num_workers(), coordinator.num_workers());
    }
    PrintCommonConfig(config, coordinator.server().max_sessions());
    if (coordinator.metrics_port() != 0) {
      std::printf("pprl_linkd: metrics at http://127.0.0.1:%u/metrics\n",
                  coordinator.metrics_port());
    }
    const Status done = coordinator.WaitUntilDone(/*timeout_ms=*/0);
    if (!done.ok()) {
      std::fprintf(stderr, "linkage failed: %s\n", done.ToString().c_str());
      coordinator.Stop();
      return 1;
    }
    PrintResult(coordinator.server(), config.expected_owners);
    std::printf("worker links: %.1f KiB payload, wire %.1f KiB, %zu retries\n",
                static_cast<double>(coordinator.worker_channel().total_bytes()) /
                    1024.0,
                static_cast<double>(coordinator.worker_wire_bytes_sent() +
                                    coordinator.worker_wire_bytes_received()) /
                    1024.0,
                coordinator.worker_retries());
    coordinator.Stop();
    return 0;
  }

  LinkageUnitServer server(config);
  const Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "%s\n", started.ToString().c_str());
    return 1;
  }
  std::printf("pprl_linkd: waiting on port %u for %zu owners (dice >= %.2f, %s)\n",
              server.port(), config.expected_owners,
              config.link_options.dice_threshold,
              config.loopback_only ? "loopback only" : "all interfaces");
  PrintCommonConfig(config, server.max_sessions());
  PrintLinkThreads(config);
  if (config.min_owners >= 2 && config.min_owners < config.expected_owners) {
    std::printf("pprl_linkd: quorum armed: will link with >= %zu owners after "
                "%d ms without a new shipment (degraded result)\n",
                config.min_owners, config.quorum_wait_ms);
  }
  if (server.metrics_port() != 0) {
    std::printf("pprl_linkd: metrics at http://127.0.0.1:%u/metrics\n",
                server.metrics_port());
  }

  const Status done = server.WaitUntilDone(/*timeout_ms=*/0);
  if (!done.ok()) {
    std::fprintf(stderr, "linkage failed: %s\n", done.ToString().c_str());
    server.Stop();
    return 1;
  }
  PrintResult(server, config.expected_owners);
  server.Stop();
  return 0;
}
