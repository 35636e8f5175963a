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
// The records belong to two parties, in alternating runs of kAppendBatch
// records, and every third record is a near-duplicate of an earlier record
// of the other party: ingest and replay both score cross-party candidates
// and accept edges, as an online linkage unit does (records of one party
// alone are never compared). Both ingests and every recovery must end with
// the same edges and comparisons, which the bench prints and records.
//
// Both cold starts run kTimedRuns times (recovery only reads the
// directory) and report the median with the quartiles.
// BENCH_recovery.json is the committed baseline. Recovery rates are also
// normalized to seconds-per-million-records so runs of different sizes
// stay comparable. The WAL and checkpoint live in a scratch directory under
// $TMPDIR that the bench removes on every exit path.
//
// usage: bench_recovery [out.json [num_records]]

#include <sys/stat.h>

#include <cstdio>
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
/// Cold starts timed per recovery path; the report is their spread.
constexpr int kTimedRuns = 5;

constexpr const char* kParties[] = {"warehouse", "registry"};

/// The party of record r: parties alternate in runs of kAppendBatch
/// records, so the durable ingest appends whole batches of one party.
size_t PartyOf(size_t r) { return (r / kAppendBatch) % 2; }

/// ~30%-density CLKs with near-duplicate structure: every third record
/// (once the other party has records) perturbs an earlier record of the
/// other party, so appends pay for realistic LSH candidate generation,
/// scoring and edge acceptance, not just index insertion.
EncodedDatabase MakeRecords(size_t n, uint64_t seed) {
  Rng rng(seed);
  EncodedDatabase db;
  db.ids.reserve(n);
  db.filters.reserve(n);
  for (size_t r = 0; r < n; ++r) {
    db.ids.push_back(r + 1);
    if (r % 3 == 2 && r >= kAppendBatch) {
      // An earlier record of the other party: one of its earlier runs.
      const size_t run = r / kAppendBatch;
      const size_t other_run = run - 1 - 2 * rng.NextUint64((run + 1) / 2);
      const size_t from = other_run * kAppendBatch + rng.NextUint64(kAppendBatch);
      BitVector near = db.filters[from];
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
  uint64_t edges = 0;
  uint64_t comparisons = 0;
  {
    OnlineLinkageEngine engine(kFilterBits);
    for (const char* party : kParties) engine.RegisterDatabase(party);
    Timer t;
    for (size_t r = 0; r < records; ++r) {
      auto row = engine.Append(static_cast<uint32_t>(PartyOf(r)), db.ids[r], db.filters[r]);
      if (!row.ok()) {
        std::fprintf(stderr, "append failed: %s\n", row.status().ToString().c_str());
        return 1;
      }
    }
    base_rps = static_cast<double>(records) / t.ElapsedSeconds();
    edges = engine.edges();
    comparisons = engine.comparisons();
    std::printf("baseline append: %.0f records/s (%llu edges, %llu comparisons)\n",
                base_rps, static_cast<unsigned long long>(edges),
                static_cast<unsigned long long>(comparisons));
  }
  // Every ingest and recovery must reach the baseline's linkage.
  const auto same_linkage = [&](const OnlineLinkageEngine& engine, const char* what) {
    if (engine.size() == records && engine.edges() == edges &&
        engine.comparisons() == comparisons) {
      return true;
    }
    std::fprintf(stderr, "%s: %zu records, %llu edges, %llu comparisons differ from the "
                 "baseline\n", what, engine.size(),
                 static_cast<unsigned long long>(engine.edges()),
                 static_cast<unsigned long long>(engine.comparisons()));
    return false;
  };

  // --- 2. Durable ingest: journal + group-commit fsync + apply.
  const ScratchDir scratch("pprl_bench_recovery");
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
      auto cursor =
          durability.DurableAppend(*engine, kParties[PartyOf(row)], db, row, end, &d);
      if (!cursor.ok()) {
        std::fprintf(stderr, "durable append failed: %s\n",
                     cursor.status().ToString().c_str());
        return 1;
      }
    }
    wal_rps = static_cast<double>(records) / t.ElapsedSeconds();
  }
  if (!same_linkage(*engine, "durable append")) return 1;
  const uint64_t wal_bytes = DirBytes(dir);
  const double overhead = base_rps / wal_rps;
  std::printf("durable append:  %.0f records/s with --wal-sync-ms %d "
              "(%.2fx baseline cost, %.1f WAL bytes/record)\n",
              wal_rps, config.wal_sync_ms, overhead,
              static_cast<double>(wal_bytes) / static_cast<double>(records));

  // --- 3. Cold start from WAL segments alone (worst-case restart).
  const auto cold_starts = [&](bool from_checkpoint, const char* what) {
    std::vector<double> seconds;
    for (int run = 0; run < kTimedRuns; ++run) {
      OnlineDurability cold(config);
      std::unique_ptr<OnlineLinkageEngine> recovered;
      RecoveryReport report;
      auto status = cold.Recover(&recovered, &report);
      if (!status.ok() || report.checkpoint_loaded != from_checkpoint ||
          recovered == nullptr) {
        std::fprintf(stderr, "%s recovery failed: %s\n", what,
                     status.ToString().c_str());
        return std::vector<double>{};
      }
      if (!same_linkage(*recovered, what)) return std::vector<double>{};
      seconds.push_back(report.seconds);
    }
    return seconds;
  };
  const std::vector<double> replay_runs = cold_starts(false, "WAL replay");
  if (replay_runs.empty()) return 1;
  const Spread replay = MedianAndQuartiles(replay_runs);
  std::printf("wal replay:      %.3f s (quartiles %.3f-%.3f over %d runs) for %zu "
              "records (%.1f s/million)\n",
              replay.median, replay.p25, replay.p75, kTimedRuns, records,
              replay.median / millions);

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
  const std::vector<double> load_runs = cold_starts(true, "checkpoint");
  if (load_runs.empty()) return 1;
  const Spread load = MedianAndQuartiles(load_runs);
  std::printf("checkpoint load: %.3f s (quartiles %.3f-%.3f over %d runs, "
              "%.1f s/million)\n\n",
              load.median, load.p25, load.p75, kTimedRuns, load.median / millions);

  PrintHeader({"metric", "value"});
  PrintRow({"edges", std::to_string(edges)});
  PrintRow({"comparisons", std::to_string(comparisons)});
  PrintRow({"base_append_records_per_sec", Fmt(base_rps, 0)});
  PrintRow({"wal_append_records_per_sec", Fmt(wal_rps, 0)});
  PrintRow({"wal_overhead_ratio", Fmt(overhead, 2)});
  PrintRow({"wal_replay_seconds_per_million", Fmt(replay.median / millions, 2)});
  PrintRow({"checkpoint_seconds", Fmt(checkpoint_seconds, 3)});
  PrintRow({"checkpoint_load_seconds_per_million", Fmt(load.median / millions, 2)});
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
    std::fprintf(f, "  \"parties\": 2,\n");
    std::fprintf(f, "  \"edges\": %llu,\n  \"comparisons\": %llu,\n",
                 static_cast<unsigned long long>(edges),
                 static_cast<unsigned long long>(comparisons));
    std::fprintf(f, "  \"wal_sync_ms\": %d,\n", config.wal_sync_ms);
    std::fprintf(f, "  \"base_append_records_per_sec\": %.0f,\n", base_rps);
    std::fprintf(f, "  \"wal_append_records_per_sec\": %.0f,\n", wal_rps);
    std::fprintf(f, "  \"wal_overhead_ratio\": %.2f,\n", overhead);
    std::fprintf(f, "  \"wal_bytes_per_record\": %.1f,\n",
                 static_cast<double>(wal_bytes) / static_cast<double>(records));
    std::fprintf(f, "  \"timed_runs\": %d,\n", kTimedRuns);
    std::fprintf(f, "  \"wal_replay_seconds\": %.3f,\n", replay.median);
    std::fprintf(f, "  \"wal_replay_seconds_p25\": %.3f,\n", replay.p25);
    std::fprintf(f, "  \"wal_replay_seconds_p75\": %.3f,\n", replay.p75);
    std::fprintf(f, "  \"wal_replay_seconds_per_million\": %.2f,\n",
                 replay.median / millions);
    std::fprintf(f, "  \"checkpoint_seconds\": %.3f,\n", checkpoint_seconds);
    std::fprintf(f, "  \"checkpoint_bytes\": %llu,\n",
                 static_cast<unsigned long long>(checkpoint_bytes));
    std::fprintf(f, "  \"checkpoint_load_seconds\": %.3f,\n", load.median);
    std::fprintf(f, "  \"checkpoint_load_seconds_p25\": %.3f,\n", load.p25);
    std::fprintf(f, "  \"checkpoint_load_seconds_p75\": %.3f,\n", load.p75);
    std::fprintf(f, "  \"checkpoint_load_seconds_per_million\": %.2f\n",
                 load.median / millions);
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
