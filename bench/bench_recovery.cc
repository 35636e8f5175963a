// The durability layer's cost model, measured at the engine boundary so
// the numbers isolate WAL + checkpoint work from socket framing:
//
//   1. baseline      — plain OnlineLinkageEngine::Append, no durability
//   2. wal append    — the same ingest through OnlineDurability (journal,
//                      fsync group-commit, then apply); the acceptance bar
//                      from the durability issue is within 2x of baseline
//   3. wal replay    — cold-start recovery from segments alone
//   4. checkpoint    — snapshot write (seconds + bytes on disk)
//   5. checkpoint load — cold-start recovery from the snapshot, which is
//                      what bounds restart latency once checkpoints exist
//
// BENCH_recovery.json is the committed baseline. Recovery rates are also
// normalized to seconds-per-million-records so runs of different sizes
// stay comparable.
//
// usage: bench_recovery [out.json [num_records]]

#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "common/timer.h"
#include "encoding/clk_io.h"
#include "linkage/online_linkage.h"
#include "service/durability.h"

namespace pprl::bench {
namespace {

constexpr size_t kFilterBits = 512;
constexpr size_t kDefaultRecords = 200000;
constexpr size_t kAppendBatch = 4096;

/// ~30%-density CLKs with near-duplicate structure: every third record
/// perturbs an earlier base entity, so appends pay for realistic LSH
/// candidate generation and edge acceptance, not just index insertion.
EncodedDatabase MakeRecords(size_t n, uint64_t seed) {
  Rng rng(seed);
  EncodedDatabase db;
  db.ids.reserve(n);
  db.filters.reserve(n);
  for (size_t r = 0; r < n; ++r) {
    db.ids.push_back(r + 1);
    if (r % 3 == 2) {
      BitVector near = db.filters[rng.NextUint64(r)];
      for (int flip = 0; flip < 3; ++flip) near.Flip(rng.NextUint64(kFilterBits));
      db.filters.push_back(std::move(near));
    } else {
      BitVector bv(kFilterBits);
      for (size_t i = 0; i < kFilterBits; ++i) {
        if (rng.NextBool(0.3)) bv.Set(i);
      }
      db.filters.push_back(std::move(bv));
    }
  }
  return db;
}

/// The run's WAL and checkpoint directory: a fresh one under $TMPDIR (or
/// /tmp when it is unset), removed with everything in it when the bench
/// returns, on every path. `path()` is empty if it could not be created.
class ScratchDir {
 public:
  ScratchDir() {
    const char* tmp = std::getenv("TMPDIR");
    std::string pattern = std::string(tmp != nullptr && *tmp != '\0' ? tmp : "/tmp") +
                          "/pprl_bench_recovery-XXXXXX";
    if (::mkdtemp(pattern.data()) != nullptr) path_ = pattern;
  }
  ~ScratchDir() {
    std::error_code ignored;
    if (!path_.empty()) std::filesystem::remove_all(path_, ignored);
  }

  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  auto segments = io::ListWalSegments(dir);
  if (segments.ok()) {
    for (const auto& [seq, path] : *segments) {
      struct stat st;
      if (::stat(path.c_str(), &st) == 0) total += static_cast<uint64_t>(st.st_size);
    }
  }
  auto checkpoints = io::ListCheckpoints(dir);
  if (checkpoints.ok()) {
    for (const auto& [seq, path] : *checkpoints) {
      struct stat st;
      if (::stat(path.c_str(), &st) == 0) total += static_cast<uint64_t>(st.st_size);
    }
  }
  return total;
}

int Main(int argc, char** argv) {
  const size_t records =
      argc > 2 ? static_cast<size_t>(std::stoull(argv[2])) : kDefaultRecords;
  const double millions = static_cast<double>(records) / 1e6;

  std::printf("durability cost model: %zu records x %zu bits\n\n", records,
              kFilterBits);
  const EncodedDatabase db = MakeRecords(records, /*seed=*/42);

  // --- 1. Baseline: the engine alone, no journal in the path.
  double base_rps = 0;
  {
    OnlineLinkageEngine engine(kFilterBits);
    const uint32_t d = engine.RegisterDatabase("warehouse");
    Timer t;
    for (size_t r = 0; r < records; ++r) {
      auto row = engine.Append(d, db.ids[r], db.filters[r]);
      if (!row.ok()) {
        std::fprintf(stderr, "append failed: %s\n", row.status().ToString().c_str());
        return 1;
      }
    }
    base_rps = static_cast<double>(records) / t.ElapsedSeconds();
    std::printf("baseline append: %.0f records/s (%zu edges)\n", base_rps,
                engine.edges());
  }

  // --- 2. Durable ingest: journal + group-commit fsync + apply.
  const ScratchDir scratch;
  if (scratch.path().empty()) {
    std::fprintf(stderr, "cannot create a scratch directory under TMPDIR\n");
    return 1;
  }
  const std::string& dir = scratch.path();
  DurabilityConfig config;
  config.wal_dir = dir;
  config.checkpoint_every_n = 0;  // the bench times the checkpoint itself
  double wal_rps = 0;
  auto engine = std::make_unique<OnlineLinkageEngine>(kFilterBits);
  OnlineDurability durability(config);
  {
    uint32_t d = 0;
    Timer t;
    for (size_t row = 0; row < records; row += kAppendBatch) {
      const size_t end = std::min(records, row + kAppendBatch);
      auto cursor = durability.DurableAppend(*engine, "warehouse", db, row, end, &d);
      if (!cursor.ok()) {
        std::fprintf(stderr, "durable append failed: %s\n",
                     cursor.status().ToString().c_str());
        return 1;
      }
    }
    wal_rps = static_cast<double>(records) / t.ElapsedSeconds();
  }
  const uint64_t wal_bytes = DirBytes(dir);
  const double overhead = base_rps / wal_rps;
  std::printf("durable append:  %.0f records/s with --wal-sync-ms %d "
              "(%.2fx baseline cost, %.1f WAL bytes/record)\n",
              wal_rps, config.wal_sync_ms, overhead,
              static_cast<double>(wal_bytes) / static_cast<double>(records));

  // --- 3. Cold start from WAL segments alone (worst-case restart).
  double replay_seconds = 0;
  {
    OnlineDurability cold(config);
    std::unique_ptr<OnlineLinkageEngine> recovered;
    RecoveryReport report;
    auto status = cold.Recover(&recovered, &report);
    if (!status.ok() || recovered == nullptr || recovered->size() != records) {
      std::fprintf(stderr, "WAL replay recovery failed: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    replay_seconds = report.seconds;
    std::printf("wal replay:      %.3f s for %llu records (%.1f s/million)\n",
                replay_seconds,
                static_cast<unsigned long long>(report.replayed_records),
                replay_seconds / millions);
  }

  // --- 4. Checkpoint write (snapshot + fsync + atomic rename).
  Timer checkpoint_timer;
  auto checkpointed = durability.Checkpoint(*engine);
  const double checkpoint_seconds = checkpoint_timer.ElapsedSeconds();
  if (!checkpointed.ok()) {
    std::fprintf(stderr, "checkpoint failed: %s\n", checkpointed.ToString().c_str());
    return 1;
  }
  const uint64_t checkpoint_bytes = DirBytes(dir);  // WAL was truncated
  std::printf("checkpoint:      %.3f s, %.1f MiB (%.1f bytes/record)\n",
              checkpoint_seconds,
              static_cast<double>(checkpoint_bytes) / (1024.0 * 1024.0),
              static_cast<double>(checkpoint_bytes) / static_cast<double>(records));

  // --- 5. Cold start from the checkpoint (the steady-state restart path).
  double load_seconds = 0;
  {
    OnlineDurability cold(config);
    std::unique_ptr<OnlineLinkageEngine> recovered;
    RecoveryReport report;
    auto status = cold.Recover(&recovered, &report);
    if (!status.ok() || !report.checkpoint_loaded || recovered == nullptr ||
        recovered->size() != records) {
      std::fprintf(stderr, "checkpoint recovery failed: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    load_seconds = report.seconds;
    std::printf("checkpoint load: %.3f s (%.1f s/million)\n\n", load_seconds,
                load_seconds / millions);
  }

  PrintHeader({"metric", "value"});
  PrintRow({"base_append_records_per_sec", Fmt(base_rps, 0)});
  PrintRow({"wal_append_records_per_sec", Fmt(wal_rps, 0)});
  PrintRow({"wal_overhead_ratio", Fmt(overhead, 2)});
  PrintRow({"wal_replay_seconds_per_million", Fmt(replay_seconds / millions, 2)});
  PrintRow({"checkpoint_seconds", Fmt(checkpoint_seconds, 3)});
  PrintRow({"checkpoint_load_seconds_per_million", Fmt(load_seconds / millions, 2)});
  std::printf("\nacceptance: WAL overhead %.2fx (bar: within 2x of baseline)\n",
              overhead);

  if (argc > 1) {
    std::FILE* f = std::fopen(argv[1], "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", argv[1]);
      return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"bench_recovery\",\n");
    std::fprintf(f, "  \"host\": {%s},\n", ProvenanceJsonMembers().c_str());
    std::fprintf(f, "  \"records\": %zu,\n  \"filter_bits\": %zu,\n", records,
                 kFilterBits);
    std::fprintf(f, "  \"wal_sync_ms\": %d,\n", config.wal_sync_ms);
    std::fprintf(f, "  \"base_append_records_per_sec\": %.0f,\n", base_rps);
    std::fprintf(f, "  \"wal_append_records_per_sec\": %.0f,\n", wal_rps);
    std::fprintf(f, "  \"wal_overhead_ratio\": %.2f,\n", overhead);
    std::fprintf(f, "  \"wal_bytes_per_record\": %.1f,\n",
                 static_cast<double>(wal_bytes) / static_cast<double>(records));
    std::fprintf(f, "  \"wal_replay_seconds\": %.3f,\n", replay_seconds);
    std::fprintf(f, "  \"wal_replay_seconds_per_million\": %.2f,\n",
                 replay_seconds / millions);
    std::fprintf(f, "  \"checkpoint_seconds\": %.3f,\n", checkpoint_seconds);
    std::fprintf(f, "  \"checkpoint_bytes\": %llu,\n",
                 static_cast<unsigned long long>(checkpoint_bytes));
    std::fprintf(f, "  \"checkpoint_load_seconds\": %.3f,\n", load_seconds);
    std::fprintf(f, "  \"checkpoint_load_seconds_per_million\": %.2f\n",
                 load_seconds / millions);
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("wrote %s\n", argv[1]);
  }

  DumpMetricsIfRequested();
  return 0;
}

}  // namespace
}  // namespace pprl::bench

int main(int argc, char** argv) { return pprl::bench::Main(argc, argv); }
