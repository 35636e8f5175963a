// The online serving path end to end: one daemon in online mode, one
// OnlineLinkClient streaming a million records over the v4 session, then
// link queries against the full index — batch-of-1 for round-trip latency
// percentiles, batch-of-64 for sustained QPS. Everything crosses the real
// loopback socket, so the numbers include framing, the protocol codecs and
// the engine's locking, not just the LSH probe and kernel loop.
//
// The latency pass runs kLatencyRuns times; the report gives the median
// p50 and p99 over the passes with their quartiles. BENCH_online.json is
// the committed baseline; the acceptance bar is >= 10k link-queries/s and
// p50 < 1 ms against 1M indexed records on one core.
//
// usage: bench_online [out.json [num_records]]

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "common/timer.h"
#include "encoding/clk_io.h"
#include "service/client.h"
#include "service/server.h"

namespace pprl::bench {
namespace {

constexpr size_t kFilterBits = 512;
constexpr size_t kDefaultRecords = 1u << 20;  // ~1.05M
constexpr size_t kAppendBatch = 8192;
constexpr size_t kLatencyQueries = 512;
/// Latency passes; the report is the spread of their percentiles.
constexpr int kLatencyRuns = 7;
constexpr size_t kThroughputBatch = 64;
constexpr size_t kQueryRows = 4096;
constexpr int kThroughputReps = 3;

/// Synthetic ~50%-density CLK rows — the fill rate a well-tuned Bloom
/// encoder targets — filled word-at-a-time (bit-by-bit generation of half
/// a billion bits would dominate the bench's own setup). 512 bits is
/// exactly 8 words, so no tail masking is needed.
EncodedShard MakeShard(size_t records, uint64_t seed, uint64_t id_base) {
  Rng rng(seed);
  EncodedShard shard;
  shard.bits = BitMatrix(0, kFilterBits);
  shard.bits.ReserveRows(records);
  shard.ids.reserve(records);
  for (size_t r = 0; r < records; ++r) {
    shard.ids.push_back(id_base + r);
    uint64_t* row = shard.bits.mutable_row(shard.bits.AppendRow());
    for (size_t w = 0; w < shard.bits.words_per_row(); ++w) {
      row[w] = rng.NextUint64();
    }
    shard.bits.RecountRow(r);
  }
  return shard;
}

/// The query mix: half near-duplicates of indexed records (3 flipped
/// bits — these should match), half fresh randoms (these should not).
EncodedShard MakeQueries(const EncodedShard& indexed, uint64_t seed) {
  Rng rng(seed);
  EncodedShard q = MakeShard(kQueryRows, seed + 1, /*id_base=*/900000000);
  for (size_t r = 0; r < kQueryRows / 2; ++r) {
    const size_t src = rng.NextUint64(indexed.size());
    uint64_t* dst = q.bits.mutable_row(r);
    std::copy(indexed.bits.row(src),
              indexed.bits.row(src) + indexed.bits.words_per_row(), dst);
    for (int flip = 0; flip < 3; ++flip) {
      const uint64_t bit = rng.NextUint64(kFilterBits);
      dst[bit / 64] ^= uint64_t{1} << (bit % 64);
    }
    q.bits.RecountRow(r);
  }
  return q;
}

int Main(int argc, char** argv) {
  const size_t records =
      argc > 2 ? static_cast<size_t>(std::stoull(argv[2])) : kDefaultRecords;
  const size_t cores = std::thread::hardware_concurrency();

  LinkageUnitServerConfig server_config;
  server_config.name = "bench-online-lu";
  server_config.online_mode = true;
  LinkageUnitServer server(server_config);
  if (!server.Start().ok()) {
    std::fprintf(stderr, "server failed to start\n");
    return 1;
  }
  const MultiPartyLinkageOptions& lsh = server_config.link_options;
  std::printf("online serving path: %zu records x %zu bits, %zu LSH tables x "
              "%zu bits, dice >= %.2f, %zu cores\n\n",
              records, kFilterBits, lsh.lsh_tables, lsh.lsh_bits_per_key,
              lsh.dice_threshold, cores);

  std::printf("generating %zu records...\n", records);
  const EncodedShard shard = MakeShard(records, /*seed=*/42, /*id_base=*/0);
  const EncodedShard queries = MakeQueries(shard, /*seed=*/7);

  OnlineLinkClientConfig client_config;
  client_config.port = server.port();
  OnlineLinkClient writer(client_config);
  if (!writer.Connect("warehouse", kFilterBits).ok()) {
    std::fprintf(stderr, "writer failed to connect\n");
    return 1;
  }

  // --- Appends: the whole population over the wire in cursored batches.
  Timer append_timer;
  for (size_t row = 0; row < records; row += kAppendBatch) {
    const size_t end = std::min(records, row + kAppendBatch);
    auto cursor = writer.AppendRows(shard, row, end);
    if (!cursor.ok()) {
      std::fprintf(stderr, "append failed: %s\n", cursor.status().ToString().c_str());
      return 1;
    }
  }
  const double append_seconds = append_timer.ElapsedSeconds();
  const double appends_per_sec = static_cast<double>(records) / append_seconds;
  std::printf("appended %zu records in %.1f s (%.0f records/s inserted)\n",
              records, append_seconds, appends_per_sec);

  // Queries arrive as a different party so nothing is excluded.
  OnlineLinkClient reader(client_config);
  if (!reader.Connect("clinic", kFilterBits).ok()) {
    std::fprintf(stderr, "reader failed to connect\n");
    return 1;
  }

  // --- Latency: one record per round trip, full percentile curve, over
  // kLatencyRuns passes of the same queries.
  std::vector<double> p50_runs, p90_runs, p99_runs;
  uint64_t candidate_sum = 0;
  size_t matched = 0;
  for (int run = 0; run < kLatencyRuns; ++run) {
    std::vector<double> latency_ms;
    latency_ms.reserve(kLatencyQueries);
    candidate_sum = 0;
    matched = 0;
    for (size_t r = 0; r < kLatencyQueries; ++r) {
      Timer t;
      auto result = reader.QueryRows(queries, r, r + 1, /*want_clusters=*/false,
                                     /*top_k=*/4);
      latency_ms.push_back(t.ElapsedSeconds() * 1e3);
      if (!result.ok()) {
        std::fprintf(stderr, "query failed: %s\n", result.status().ToString().c_str());
        return 1;
      }
      candidate_sum += result->records[0].candidates;
      if (!result->records[0].matches.empty()) ++matched;
    }
    std::sort(latency_ms.begin(), latency_ms.end());
    p50_runs.push_back(latency_ms[kLatencyQueries / 2]);
    p90_runs.push_back(latency_ms[kLatencyQueries * 9 / 10]);
    p99_runs.push_back(latency_ms[kLatencyQueries * 99 / 100]);
  }
  const Spread p50 = MedianAndQuartiles(p50_runs);
  const Spread p90 = MedianAndQuartiles(p90_runs);
  const Spread p99 = MedianAndQuartiles(p99_runs);
  std::printf("single-query latency over %d passes of %zu round trips: p50 %.3f ms "
              "(quartiles %.3f-%.3f), p90 %.3f ms, p99 %.3f ms (quartiles "
              "%.3f-%.3f) (avg %.0f candidates/query, %zu matched)\n",
              kLatencyRuns, kLatencyQueries, p50.median, p50.p25, p50.p75,
              p90.median, p99.median, p99.p25, p99.p75,
              static_cast<double>(candidate_sum) / kLatencyQueries, matched);

  // --- Throughput: 64 records per round trip, best of kThroughputReps.
  double qps = 0;
  for (int rep = 0; rep < kThroughputReps; ++rep) {
    Timer t;
    for (size_t row = 0; row < kQueryRows; row += kThroughputBatch) {
      auto result = reader.QueryRows(queries, row, row + kThroughputBatch,
                                     /*want_clusters=*/false, /*top_k=*/4);
      if (!result.ok()) {
        std::fprintf(stderr, "query failed: %s\n",
                     result.status().ToString().c_str());
        return 1;
      }
    }
    const double rate = static_cast<double>(kQueryRows) / t.ElapsedSeconds();
    if (rate > qps) qps = rate;
  }
  std::printf("batched throughput (%zu records/round trip): %.0f link-queries/s\n",
              kThroughputBatch, qps);

  PrintHeader({"metric", "value"});
  PrintRow({"append_records_per_sec", Fmt(appends_per_sec, 0)});
  PrintRow({"query_p50_ms", Fmt(p50.median, 3)});
  PrintRow({"query_p90_ms", Fmt(p90.median, 3)});
  PrintRow({"query_p99_ms", Fmt(p99.median, 3)});
  PrintRow({"query_qps_batch64", Fmt(qps, 0)});

  if (argc > 1) {
    std::FILE* f = std::fopen(argv[1], "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", argv[1]);
      return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"bench_online\",\n");
    std::fprintf(f, "  \"host\": {%s},\n", ProvenanceJsonMembers().c_str());
    std::fprintf(f, "  \"records\": %zu,\n  \"filter_bits\": %zu,\n", records,
                 kFilterBits);
    std::fprintf(f, "  \"lsh_tables\": %zu,\n  \"lsh_bits_per_key\": %zu,\n",
                 lsh.lsh_tables, lsh.lsh_bits_per_key);
    std::fprintf(f, "  \"append_records_per_sec\": %.0f,\n", appends_per_sec);
    std::fprintf(f, "  \"avg_candidates_per_query\": %.1f,\n",
                 static_cast<double>(candidate_sum) / kLatencyQueries);
    std::fprintf(f, "  \"timed_runs\": %d,\n", kLatencyRuns);
    std::fprintf(f, "  \"query_latency_ms\": {\"p50\": %.3f, \"p90\": %.3f, "
                 "\"p99\": %.3f},\n",
                 p50.median, p90.median, p99.median);
    std::fprintf(f, "  \"query_latency_ms_p25\": {\"p50\": %.3f, \"p99\": %.3f},\n",
                 p50.p25, p99.p25);
    std::fprintf(f, "  \"query_latency_ms_p75\": {\"p50\": %.3f, \"p99\": %.3f},\n",
                 p50.p75, p99.p75);
    std::fprintf(f, "  \"query_batch\": %zu,\n  \"query_qps\": %.0f\n",
                 kThroughputBatch, qps);
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("\nwrote %s\n", argv[1]);
  }

  writer.Close();
  reader.Close();
  server.Stop();
  DumpMetricsIfRequested();
  return 0;
}

}  // namespace
}  // namespace pprl::bench

int main(int argc, char** argv) { return pprl::bench::Main(argc, argv); }
