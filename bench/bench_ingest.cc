/// bench_ingest — throughput of the I/O subsystem (io/): streaming CSV
/// ingest and the PCLK binary columnar shard format, against the legacy
/// materializing text paths they replace.
///
/// Two corpora:
///   * an encoded-CLK shard of `rows` random filters, written as both the
///     interchange CSV (id, bits, clk base64) and PCLK — the shard-load
///     benchmark, where the acceptance gate lives (PCLK must load at >= 5x
///     the records/s of the legacy text reader);
///   * a QID CSV of `rows/10` synthetic person records — the encode-path
///     benchmark (whole-file CsvTable -> Database -> per-record filters
///     versus the fused CsvCursor -> ClkEncoder -> BitMatrix pass), plus
///     the fused pass under the keyed HMAC scheme of the README's
///     shared-secret flow.
///
/// usage: bench_ingest [rows] [filter_bits] [out.json]
///   defaults: 1000000 rows, 1024 bits, BENCH_ingest.json
///
/// The JSON written to out.json is the committed BENCH_ingest.json; it
/// records the host (cores, CPU, cache sizes) and the commit it ran on, so
/// run it from the repository root. The corpus (~325 MB at the defaults)
/// goes to a scratch directory under $TMPDIR that every exit removes.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "datagen/io.h"
#include "encoding/bloom_filter.h"
#include "encoding/clk_io.h"
#include "io/ingest.h"
#include "io/pclk.h"

using namespace pprl;

namespace {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Measurement {
  std::string config;
  uint64_t records = 0;
  uint64_t bytes = 0;
  double seconds = 0;

  double records_per_sec() const {
    return seconds > 0 ? static_cast<double>(records) / seconds : 0;
  }
  double mb_per_sec() const {
    return seconds > 0 ? static_cast<double>(bytes) / 1e6 / seconds : 0;
  }
};

EncodedShard MakeRandomShard(size_t rows, size_t bits) {
  std::mt19937_64 rng(42);
  EncodedShard shard;
  shard.ids.resize(rows);
  shard.bits = BitMatrix(rows, bits);
  for (size_t r = 0; r < rows; ++r) {
    shard.ids[r] = r + 1;
    uint64_t* row = shard.bits.mutable_row(r);
    // ~25% fill, typical of a CLK.
    for (size_t w = 0; w < shard.bits.words_per_row(); ++w) {
      row[w] = rng() & rng();
    }
    const size_t tail = bits % 64;
    if (tail != 0) row[shard.bits.words_per_row() - 1] &= (1ull << tail) - 1;
  }
  shard.bits.RecomputeCounts();
  return shard;
}

std::string MakeQidCsv(size_t rows) {
  std::string csv = "id,first_name,last_name,city\n";
  csv.reserve(rows * 40);
  for (size_t r = 0; r < rows; ++r) {
    csv += std::to_string(r + 1);
    csv += ",name";
    csv += std::to_string(r % 7919);
    csv += ",\"fam, ";
    csv += std::to_string(r % 7919);
    csv += "\",city";
    csv += std::to_string(r % 13);
    csv += "\n";
  }
  return csv;
}

uint64_t FileBytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return 0;
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  return size > 0 ? static_cast<uint64_t>(size) : 0;
}

}  // namespace

int main(int argc, char** argv) {
  const size_t rows = argc > 1 ? static_cast<size_t>(std::atoll(argv[1]))
                               : 1000000;
  const size_t bits =
      argc > 2 ? static_cast<size_t>(std::atoll(argv[2])) : 1024;
  const std::string out_json = argc > 3 ? argv[3] : "BENCH_ingest.json";
  const bench::ScratchDir scratch("pprl_bench_ingest");
  if (scratch.path().empty()) {
    std::fprintf(stderr, "cannot create a scratch directory under TMPDIR\n");
    return 1;
  }
  const std::string clks_csv = scratch.path() + "/clks.csv";
  const std::string clks_pclk = scratch.path() + "/clks.pclk";
  const std::string qid_csv = scratch.path() + "/qids.csv";

  std::printf("bench_ingest: %zu rows, %zu-bit filters\n", rows, bits);
  std::vector<Measurement> results;

  // ---- shard-load corpus -------------------------------------------------
  {
    const EncodedShard shard = MakeRandomShard(rows, bits);
    const EncodedDatabase encoded = EncodedDatabaseFromShard(shard);
    if (!WriteEncodedDatabase(clks_csv, encoded).ok() ||
        !io::WritePclkFile(clks_pclk, shard).ok()) {
      std::fprintf(stderr, "failed to write corpus files\n");
      return 1;
    }
  }
  std::printf("corpus: %s (%.1f MB), %s (%.1f MB)\n", clks_csv.c_str(),
              FileBytes(clks_csv) / 1e6, clks_pclk.c_str(),
              FileBytes(clks_pclk) / 1e6);

  {
    Measurement m{"load-clks-csv-legacy", rows, FileBytes(clks_csv)};
    const double t0 = Now();
    auto encoded = ReadEncodedDatabase(clks_csv);
    m.seconds = Now() - t0;
    if (!encoded.ok() || encoded->size() != rows) {
      std::fprintf(stderr, "legacy load failed: %s\n",
                   encoded.status().ToString().c_str());
      return 1;
    }
    results.push_back(m);
  }
  {
    Measurement m{"load-clks-csv-stream", rows, FileBytes(clks_csv)};
    const double t0 = Now();
    auto shard = io::ReadCsvShard(clks_csv);
    m.seconds = Now() - t0;
    if (!shard.ok() || shard->size() != rows) {
      std::fprintf(stderr, "streaming CSV load failed: %s\n",
                   shard.status().ToString().c_str());
      return 1;
    }
    results.push_back(m);
  }
  {
    Measurement m{"load-clks-pclk", rows, FileBytes(clks_pclk)};
    const double t0 = Now();
    auto shard = io::ReadPclkFile(clks_pclk);
    m.seconds = Now() - t0;
    if (!shard.ok() || shard->size() != rows) {
      std::fprintf(stderr, "PCLK load failed: %s\n",
                   shard.status().ToString().c_str());
      return 1;
    }
    results.push_back(m);
  }

  // ---- encode-path corpus ------------------------------------------------
  const size_t qid_rows = rows / 10 == 0 ? rows : rows / 10;
  {
    const std::string body = MakeQidCsv(qid_rows);
    std::FILE* f = std::fopen(qid_csv.c_str(), "wb");
    if (f == nullptr) return 1;
    std::fwrite(body.data(), 1, body.size(), f);
    std::fclose(f);
  }
  BloomFilterParams params;
  params.num_bits = bits;
  std::vector<ClkFieldConfig> fields;
  for (const char* name : {"first_name", "last_name", "city"}) {
    ClkFieldConfig field;
    field.field_name = name;
    field.num_hashes = 10;
    fields.push_back(field);
  }
  const ClkEncoder encoder(params, fields);

  {
    Measurement m{"encode-qid-csv-legacy", qid_rows, FileBytes(qid_csv)};
    const double t0 = Now();
    auto db = ReadDatabaseCsv(qid_csv);
    if (!db.ok()) return 1;
    auto filters = encoder.EncodeDatabase(*db);
    m.seconds = Now() - t0;
    if (!filters.ok() || filters->size() != qid_rows) return 1;
    results.push_back(m);
  }
  {
    Measurement m{"encode-qid-csv-stream", qid_rows, FileBytes(qid_csv)};
    const double t0 = Now();
    auto shard = io::EncodeCsvToShard(qid_csv, encoder);
    m.seconds = Now() - t0;
    if (!shard.ok() || shard->size() != qid_rows) return 1;
    results.push_back(m);
  }
  {
    BloomFilterParams keyed_params = params;
    keyed_params.scheme = BloomHashScheme::kKeyedHmac;
    keyed_params.secret_key = "shared-secret";
    const ClkEncoder keyed(keyed_params, fields);
    Measurement m{"encode-qid-csv-keyed", qid_rows, FileBytes(qid_csv)};
    const double t0 = Now();
    auto shard = io::EncodeCsvToShard(qid_csv, keyed);
    m.seconds = Now() - t0;
    if (!shard.ok() || shard->size() != qid_rows) return 1;
    results.push_back(m);
  }

  // ---- report ------------------------------------------------------------
  bench::PrintHeader({"config", "records", "seconds", "records/s", "MB/s"});
  for (const Measurement& m : results) {
    bench::PrintRow({m.config, bench::Fmt(size_t{m.records}),
                     bench::Fmt(m.seconds, 3),
                     bench::Fmt(m.records_per_sec(), 0),
                     bench::Fmt(m.mb_per_sec(), 1)});
  }
  const double speedup =
      results[0].records_per_sec() > 0
          ? results[2].records_per_sec() / results[0].records_per_sec()
          : 0;
  std::printf("\nPCLK load vs legacy text CSV load: %.1fx records/s "
              "(acceptance gate: >= 5x)\n",
              speedup);

  std::FILE* out = std::fopen(out_json.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_json.c_str());
    return 1;
  }
  std::fprintf(out,
               "{\n  \"bench\": \"bench_ingest\",\n  \"host\": {%s},\n"
               "  \"rows\": %zu,\n  \"filter_bits\": %zu,\n  \"measurements\": [\n",
               bench::ProvenanceJsonMembers().c_str(), rows, bits);
  for (size_t i = 0; i < results.size(); ++i) {
    const Measurement& m = results[i];
    std::fprintf(out,
                 "    {\"config\": \"%s\", \"records\": %llu, "
                 "\"seconds\": %.3f, \"records_per_sec\": %.0f, "
                 "\"mb_per_sec\": %.1f}%s\n",
                 m.config.c_str(), static_cast<unsigned long long>(m.records),
                 m.seconds, m.records_per_sec(), m.mb_per_sec(),
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n  \"pclk_vs_legacy_csv_speedup\": %.1f\n}\n",
               speedup);
  std::fclose(out);
  std::printf("wrote %s\n", out_json.c_str());
  return speedup >= 5.0 ? 0 : 3;
}
