/// pprl_cli — a small command-line front end for the library, operating on
/// CSV files so the toolkit can be driven without writing C++.
///
/// Subcommands:
///   generate <out_a.csv> <out_b.csv> [n] [corruptions]
///       Writes two overlapping synthetic databases (ground-truth
///       entity_id columns included, as a benchmark would need).
///   link <a.csv> <b.csv> <matches_out.csv> [threshold]
///       Links two CSV databases with the default CLK pipeline and writes
///       the matched (a_id, b_id, dice) triples. If both inputs carry
///       entity_id columns, linkage quality is printed as well.
///   schema <a.csv> <b.csv>
///       Prints the inferred schema correspondences between two files.
///   encode <in.csv> <out_clks.{csv|pclk}> [secret_key]
///       A database owner's local step: stream the CSV through the CLK
///       encoder (one pass, no in-memory Database) and write the encodings
///       — the interchange CSV (id, bits, base64 clk), or the binary
///       columnar PCLK shard when the output ends in ".pclk". With a key,
///       the encoding is HMAC-keyed — this file is what leaves the owner.
///   link-encoded <a_clks> <b_clks> <matches_out.csv> [threshold]
///       The linkage unit's step: match two encoded files (either format,
///       sniffed by content) without ever seeing quasi-identifiers.
///   ship <clks.{csv|pclk}> <party_name> <host:port> [matches_out.csv]
///       Ships an encoded file to a running pprl_linkd daemon, waits for
///       the multi-party linkage to finish, and prints (optionally
///       writes) this owner's matched records.
///   append <clks.{csv|pclk}> <party_name> <host:port>
///       Ships an encoded file to an online daemon (pprl_linkd --online)
///       and returns as soon as it is absorbed into the live index — no
///       batch linkage, no results frame.
///   query <clks.{csv|pclk}> <party_name> <host:port> [matches_out.csv]
///       Link-queries every record of an encoded file against an online
///       daemon's live index (matches of the caller's own party are
///       suppressed) and writes the records found in multi-record
///       clusters as (record_id, cluster_id, cluster_size) — the same
///       rows, in the same order, that `ship` against a batch daemon
///       run with --clustering cc would produce.
///
/// Examples:
///   ./build/examples/pprl_cli generate /tmp/a.csv /tmp/b.csv 1000 1.5
///   ./build/examples/pprl_cli link /tmp/a.csv /tmp/b.csv /tmp/matches.csv 0.8
///   ./build/examples/pprl_cli encode /tmp/a.csv /tmp/a_clks.csv sekrit
///   ./build/examples/pprl_cli encode /tmp/b.csv /tmp/b_clks.csv sekrit
///   ./build/examples/pprl_cli link-encoded /tmp/a_clks.csv /tmp/b_clks.csv
///       out: /tmp/matches.csv at threshold 0.8

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "datagen/generator.h"
#include "datagen/io.h"
#include "encoding/clk_io.h"
#include "eval/metrics.h"
#include "filtering/ppjoin.h"
#include "io/ingest.h"
#include "linkage/matching.h"
#include "obs/export.h"
#include "pipeline/pipeline.h"
#include "pipeline/schema_matching.h"
#include "service/client.h"
#include "service/coordinator.h"

#include "parse_number.h"

using namespace pprl;

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  pprl_cli generate <out_a.csv> <out_b.csv> [n] [corruptions]\n"
               "  pprl_cli link <a.csv> <b.csv> <matches_out.csv> [threshold]\n"
               "  pprl_cli schema <a.csv> <b.csv>\n"
               "  pprl_cli encode <in.csv> <out_clks.{csv|pclk}> [secret_key]\n"
               "  pprl_cli link-encoded <a_clks> <b_clks> <matches_out.csv>"
               " [threshold]\n"
               "  pprl_cli ship <clks.{csv|pclk}> <party_name> <host:port>"
               " [matches_out.csv]\n"
               "  pprl_cli append <clks.{csv|pclk}> <party_name> <host:port>\n"
               "  pprl_cli query <clks.{csv|pclk}> <party_name> <host:port>"
               " [matches_out.csv]\n"
               "  pprl_cli --help\n"
               "generate writes n (1..10000000, default 1000) records per "
               "database.\n");
  return 2;
}

PipelineConfig ConfigForSchema(const Schema& schema, const std::string& secret_key) {
  PipelineConfig config;
  if (!secret_key.empty()) {
    config.bloom.scheme = BloomHashScheme::kKeyedHmac;
    config.bloom.secret_key = secret_key;
  }
  config.fields.clear();
  for (const auto& field : PprlPipeline::DefaultFieldConfigs()) {
    if (schema.FieldIndex(field.field_name) >= 0) config.fields.push_back(field);
  }
  return config;
}

int Encode(int argc, char** argv) {
  if (argc < 4) return Usage();
  // Header-only peek: the encoder's field set depends on the schema.
  auto schema = io::ReadCsvSchema(argv[2]);
  if (!schema.ok()) {
    std::fprintf(stderr, "%s\n", schema.status().ToString().c_str());
    return 1;
  }
  const std::string secret_key = argc > 4 ? argv[4] : "";
  const PipelineConfig config = ConfigForSchema(*schema, secret_key);
  if (config.fields.empty()) {
    std::fprintf(stderr, "no encodable fields in %s\n", argv[2]);
    return 1;
  }
  // One streaming pass: CSV bytes -> field views -> CLK matrix rows.
  const ClkEncoder encoder(config.bloom, config.fields);
  io::IngestStats stats;
  auto shard = io::EncodeCsvToShard(argv[2], encoder, {}, &stats);
  if (!shard.ok()) {
    std::fprintf(stderr, "%s\n", shard.status().ToString().c_str());
    return 1;
  }
  const Status status = io::WriteShardFile(argv[3], *shard);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("encoded %zu records (%s hashing, %s format) -> %s\n",
              shard->size(), secret_key.empty() ? "double" : "keyed HMAC",
              io::ShardFileFormatName(io::DetectShardFileFormat(argv[3])), argv[3]);
  std::printf("  ingest: %.1f MB/s, %.0f records/s\n", stats.mb_per_second(),
              stats.records_per_second());
  return 0;
}

int LinkEncoded(int argc, char** argv) {
  if (argc < 5) return Usage();
  // Either format loads (PCLK magic sniffed); the join below wants
  // per-record vectors, so unpack the batch layout.
  auto a_shard = io::ReadShardAuto(argv[2]);
  auto b_shard = io::ReadShardAuto(argv[3]);
  if (!a_shard.ok() || !b_shard.ok()) {
    std::fprintf(stderr, "failed to read encoded inputs: %s / %s\n",
                 a_shard.status().ToString().c_str(),
                 b_shard.status().ToString().c_str());
    return 1;
  }
  const EncodedDatabase a_db = EncodedDatabaseFromShard(*a_shard);
  const EncodedDatabase b_db = EncodedDatabaseFromShard(*b_shard);
  const EncodedDatabase* a = &a_db;
  const EncodedDatabase* b = &b_db;
  const double threshold = argc > 5 ? std::atof(argv[5]) : 0.8;
  if (a->size() == 0 || b->size() == 0 ||
      a->filters[0].size() != b->filters[0].size()) {
    std::fprintf(stderr, "encoded inputs empty or of different filter lengths\n");
    return 1;
  }
  // Lossless threshold join + greedy one-to-one at the linkage unit.
  const PpjoinIndex index(b->filters, threshold);
  const auto joined = index.Join(a->filters);
  std::vector<ScoredPair> scored;
  scored.reserve(joined.size());
  for (const auto& m : joined) scored.push_back({m.a, m.b, m.dice});
  const auto matches = GreedyOneToOne(std::move(scored));

  CsvTable out;
  out.header = {"a_id", "b_id", "dice"};
  for (const ScoredPair& m : matches) {
    char dice[32];
    std::snprintf(dice, sizeof(dice), "%.4f", m.score);
    out.rows.push_back(
        {std::to_string(a->ids[m.a]), std::to_string(b->ids[m.b]), dice});
  }
  const Status status = WriteCsvFile(argv[4], out);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("%zu matches at dice >= %.2f -> %s (no QIDs were read)\n",
              matches.size(), threshold, argv[4]);
  return 0;
}

/// The <host:port> argument of ship, append and query, parsed by the
/// coordinator's endpoint rule; unlike a worker entry it needs the host.
Result<WorkerEndpoint> ParseServerEndpoint(const std::string& endpoint) {
  if (endpoint.rfind(':') == std::string::npos) {
    return Status::InvalidArgument("endpoint must be host:port, got " + endpoint);
  }
  return ParseEndpoint(endpoint);
}

int Ship(int argc, char** argv) {
  if (argc < 5) return Usage();
  const std::string party = argv[3];
  const std::string endpoint = argv[4];
  auto server = ParseServerEndpoint(endpoint);
  if (!server.ok()) {
    std::fprintf(stderr, "%s\n", server.status().ToString().c_str());
    return 1;
  }
  // Loads either shard format; the wire payload is built from the batch
  // rows directly, so no per-record vectors exist on this path.
  auto encoded = io::ReadShardAuto(argv[2]);
  if (!encoded.ok()) {
    std::fprintf(stderr, "%s\n", encoded.status().ToString().c_str());
    return 1;
  }
  RemoteOwnerClientConfig config;
  config.host = server->host;
  config.port = server->port;

  Channel meter;
  RemoteOwnerClient client(config, &meter);
  std::printf("shipping %zu encodings as '%s' to %s ...\n", encoded->size(),
              party.c_str(), endpoint.c_str());
  auto summary = client.ShipShardAndAwait(party, *encoded);
  if (!summary.ok()) {
    std::fprintf(stderr, "%s\n", summary.status().ToString().c_str());
    return 1;
  }
  std::printf(
      "linkage done at '%s': %llu clusters over all parties, %llu comparisons\n",
      client.server_name().c_str(),
      static_cast<unsigned long long>(summary->total_clusters),
      static_cast<unsigned long long>(summary->comparisons));
  std::printf("%zu of our %zu records matched records elsewhere\n",
              summary->matches.size(), encoded->size());
  // The hello is metered against the configured label, everything after
  // the handshake against the server's self-reported name.
  const size_t payload_bytes = meter.BytesBetween(party, config.server_label) +
                               meter.BytesBetween(party, client.server_name());
  std::printf("sent %.1f KiB payload (%.1f KiB on the wire with framing)\n",
              static_cast<double>(payload_bytes) / 1024.0,
              static_cast<double>(client.wire_bytes_sent()) / 1024.0);
  if (argc > 5) {
    CsvTable out;
    out.header = {"record_id", "cluster_id", "cluster_size"};
    for (const MatchedRecordSummary& m : summary->matches) {
      out.rows.push_back({std::to_string(encoded->ids[m.record]),
                          std::to_string(m.cluster_id),
                          std::to_string(m.cluster_size)});
    }
    const Status status = WriteCsvFile(argv[5], out);
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("matched records -> %s\n", argv[5]);
  }
  return 0;
}

int Append(int argc, char** argv) {
  if (argc < 5) return Usage();
  const std::string party = argv[3];
  const std::string endpoint = argv[4];
  auto server = ParseServerEndpoint(endpoint);
  if (!server.ok()) {
    std::fprintf(stderr, "%s\n", server.status().ToString().c_str());
    return 1;
  }
  auto encoded = io::ReadShardAuto(argv[2]);
  if (!encoded.ok()) {
    std::fprintf(stderr, "%s\n", encoded.status().ToString().c_str());
    return 1;
  }
  RemoteOwnerClientConfig config;
  config.host = server->host;
  config.port = server->port;
  // An online daemon absorbs the shipment into its live index and never
  // sends a results frame: return at the shipment-complete ack.
  config.wait_for_results = false;

  RemoteOwnerClient client(config);
  std::printf("appending %zu encodings as '%s' to %s ...\n", encoded->size(),
              party.c_str(), endpoint.c_str());
  auto summary = client.ShipShardAndAwait(party, *encoded);
  if (!summary.ok()) {
    std::fprintf(stderr, "%s\n", summary.status().ToString().c_str());
    return 1;
  }
  std::printf("appended %zu records at '%s' (%.1f KiB on the wire)\n",
              encoded->size(), client.server_name().c_str(),
              static_cast<double>(client.wire_bytes_sent()) / 1024.0);
  return 0;
}

int Query(int argc, char** argv) {
  if (argc < 5) return Usage();
  const std::string party = argv[3];
  auto server = ParseServerEndpoint(argv[4]);
  if (!server.ok()) {
    std::fprintf(stderr, "%s\n", server.status().ToString().c_str());
    return 1;
  }
  auto encoded = io::ReadShardAuto(argv[2]);
  if (!encoded.ok()) {
    std::fprintf(stderr, "%s\n", encoded.status().ToString().c_str());
    return 1;
  }
  if (encoded->size() == 0) {
    std::fprintf(stderr, "nothing to query: empty encoding\n");
    return 1;
  }
  OnlineLinkClientConfig config;
  config.host = server->host;
  config.port = server->port;

  OnlineLinkClient client(config);
  const Status connected =
      client.Connect(party, static_cast<uint32_t>(encoded->bits.num_bits()));
  if (!connected.ok()) {
    std::fprintf(stderr, "%s\n", connected.ToString().c_str());
    return 1;
  }
  std::printf("querying %zu records as '%s' against %s ...\n", encoded->size(),
              party.c_str(), client.server_name().c_str());

  // Wire-batched queries: one round trip per batch, one result per record.
  constexpr size_t kBatch = 512;
  struct Row {
    uint32_t cluster_id;
    size_t record;  ///< row index in the queried shard
    uint32_t cluster_size;
  };
  std::vector<Row> rows;
  size_t matched_records = 0;
  uint64_t index_size = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (size_t begin = 0; begin < encoded->size(); begin += kBatch) {
    const size_t end = std::min(encoded->size(), begin + kBatch);
    auto result = client.QueryRows(*encoded, begin, end,
                                   /*want_clusters=*/true, /*top_k=*/0);
    if (!result.ok()) {
      std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
      return 1;
    }
    index_size = result->index_size;
    for (size_t i = 0; i < result->records.size(); ++i) {
      const QueryRecordResult& record = result->records[i];
      if (!record.matches.empty()) ++matched_records;
      if (record.cluster_size >= 2) {
        rows.push_back(Row{record.cluster_id, begin + i, record.cluster_size});
      }
    }
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  std::printf("queried %zu records against %llu indexed in %.3f s "
              "(%.0f link-queries/s)\n",
              encoded->size(), static_cast<unsigned long long>(index_size),
              seconds, static_cast<double>(encoded->size()) / seconds);
  std::printf("%zu of our %zu records matched records elsewhere\n",
              matched_records, encoded->size());

  if (argc > 5) {
    // Same row order as a batch `ship` summary: clusters ascending, then
    // our records ascending within a cluster — byte-for-byte comparable.
    std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
      return a.cluster_id != b.cluster_id ? a.cluster_id < b.cluster_id
                                          : a.record < b.record;
    });
    CsvTable out;
    out.header = {"record_id", "cluster_id", "cluster_size"};
    for (const Row& row : rows) {
      out.rows.push_back({std::to_string(encoded->ids[row.record]),
                          std::to_string(row.cluster_id),
                          std::to_string(row.cluster_size)});
    }
    const Status status = WriteCsvFile(argv[5], out);
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("matched records -> %s\n", argv[5]);
  }
  return 0;
}

/// Records per database `generate` writes at most: a few GB of CSV, far
/// beyond any demo, and well inside what one process can hold.
constexpr size_t kMaxGenerateRecords = 10'000'000;

int Generate(int argc, char** argv) {
  if (argc < 4) return Usage();
  size_t n = 1000;
  if (argc > 4 && !examples::ParseNumber("[n]", argv[4], 1, kMaxGenerateRecords, &n)) {
    return 2;
  }
  const double corruptions = argc > 5 ? std::atof(argv[5]) : 1.5;
  DataGenerator gen(GeneratorConfig{});
  LinkageScenarioConfig scenario;
  scenario.records_per_database = n;
  scenario.overlap = 0.5;
  scenario.corruption.mean_corruptions = corruptions;
  auto dbs = gen.GenerateScenario(scenario);
  if (!dbs.ok()) {
    std::fprintf(stderr, "%s\n", dbs.status().ToString().c_str());
    return 1;
  }
  for (int i = 0; i < 2; ++i) {
    const Status status = WriteDatabaseCsv(argv[2 + i], (*dbs)[static_cast<size_t>(i)]);
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
  }
  std::printf("wrote %zu records each to %s and %s (overlap 50%%, ~%.1f errors/dup)\n",
              n, argv[2], argv[3], corruptions);
  return 0;
}

int Link(int argc, char** argv) {
  if (argc < 5) return Usage();
  auto a = ReadDatabaseCsv(argv[2]);
  auto b = ReadDatabaseCsv(argv[3]);
  if (!a.ok() || !b.ok()) {
    std::fprintf(stderr, "failed to read inputs: %s / %s\n",
                 a.status().ToString().c_str(), b.status().ToString().c_str());
    return 1;
  }
  PipelineConfig config;
  config.match_threshold = argc > 5 ? std::atof(argv[5]) : 0.8;
  // Only use fields both schemas actually have.
  config.fields.clear();
  for (const auto& field : PprlPipeline::DefaultFieldConfigs()) {
    if (a->schema.FieldIndex(field.field_name) >= 0 &&
        b->schema.FieldIndex(field.field_name) >= 0) {
      config.fields.push_back(field);
    }
  }
  if (config.fields.empty()) {
    std::fprintf(stderr, "no shared linkable fields (need first_name/last_name/...)\n");
    return 1;
  }
  auto output = PprlPipeline(config).Link(*a, *b);
  if (!output.ok()) {
    std::fprintf(stderr, "%s\n", output.status().ToString().c_str());
    return 1;
  }

  CsvTable matches;
  matches.header = {"a_id", "b_id", "dice"};
  for (const ScoredPair& m : output->matches) {
    char dice[32];
    std::snprintf(dice, sizeof(dice), "%.4f", m.score);
    matches.rows.push_back({std::to_string(a->records[m.a].id),
                            std::to_string(b->records[m.b].id), dice});
  }
  const Status status = WriteCsvFile(argv[4], matches);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("%zu matches (of %zu x %zu records, %zu comparisons) -> %s\n",
              output->matches.size(), a->size(), b->size(), output->comparisons,
              argv[4]);

  // Quality report when ground truth is available.
  bool have_truth = false;
  for (const Record& r : a->records) {
    if (r.entity_id != 0) have_truth = true;
  }
  if (have_truth) {
    const GroundTruth truth(*a, *b);
    const ConfusionCounts counts = EvaluateMatches(output->matches, truth);
    std::printf("ground truth present: precision %.3f recall %.3f F1 %.3f\n",
                counts.Precision(), counts.Recall(), counts.F1());
  }
  return 0;
}

int SchemaCmd(int argc, char** argv) {
  if (argc < 4) return Usage();
  auto a = ReadDatabaseCsv(argv[2]);
  auto b = ReadDatabaseCsv(argv[3]);
  if (!a.ok() || !b.ok()) {
    std::fprintf(stderr, "failed to read inputs\n");
    return 1;
  }
  const auto aligned = MatchSchemas(*a, *b);
  std::printf("%-20s %-20s %-10s %-10s %-10s\n", "column A", "column B", "name-sim",
              "value-sim", "confidence");
  for (const auto& corr : aligned) {
    std::printf("%-20s %-20s %-10.3f %-10.3f %-10.3f\n",
                a->schema.fields[static_cast<size_t>(corr.a_field)].name.c_str(),
                b->schema.fields[static_cast<size_t>(corr.b_field)].name.c_str(),
                corr.name_similarity, corr.value_similarity, corr.confidence);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  if (command == "--help" || command == "-h") {
    Usage();
    return 0;
  }
  int rc = 2;
  if (command == "generate") rc = Generate(argc, argv);
  else if (command == "link") rc = Link(argc, argv);
  else if (command == "schema") rc = SchemaCmd(argc, argv);
  else if (command == "encode") rc = Encode(argc, argv);
  else if (command == "link-encoded") rc = LinkEncoded(argc, argv);
  else if (command == "ship") rc = Ship(argc, argv);
  else if (command == "append") rc = Append(argc, argv);
  else if (command == "query") rc = Query(argc, argv);
  else return Usage();
  // With PPRL_METRICS_JSON=<path|-> set, dump everything the run recorded.
  obs::MaybeDumpMetricsJson();
  return rc;
}
