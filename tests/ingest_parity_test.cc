/// End-to-end parity of the I/O subsystem: the streaming ingest path and
/// the legacy materializing path must produce byte-identical CLK matrices,
/// the CSV and PCLK shard files must load to byte-identical matrices, and
/// a linkage run over either must produce identical clusters.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/csv.h"
#include "datagen/io.h"
#include "encoding/bloom_filter.h"
#include "encoding/clk_io.h"
#include "filtering/ppjoin.h"
#include "io/ingest.h"
#include "io/pclk.h"
#include "linkage/clustering.h"
#include "linkage/matching.h"

namespace pprl {
namespace {

/// A small population with deliberate dialect hazards (quoted commas,
/// escaped quotes, empty values) and cross-party overlap.
std::string MakeQidCsv(int party, int rows) {
  std::string csv = "id,first_name,last_name,city\n";
  for (int r = 0; r < rows; ++r) {
    // Entities 0..rows-1 for party 0; party 1 shifts by rows/2, so half of
    // its records name the same people.
    const int entity = party == 0 ? r : r + rows / 2;
    csv += std::to_string(1000 * (party + 1) + r) + ",";
    csv += "\"name" + std::to_string(entity) + ", jr\",";
    if (entity % 7 == 0) {
      csv += "\"o\"\"hara" + std::to_string(entity) + "\",";
    } else {
      csv += "fam" + std::to_string(entity) + ",";
    }
    csv += (entity % 5 == 0) ? "\n" : "city" + std::to_string(entity % 3) + "\n";
  }
  return csv;
}

std::string WriteTempFile(const std::string& name, const std::string& body) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::FILE* f = std::fopen(path.c_str(), "wb");
  EXPECT_NE(f, nullptr);
  std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
  return path;
}

ClkEncoder MakeEncoder() {
  BloomFilterParams params;
  params.num_bits = 512;
  std::vector<ClkFieldConfig> fields;
  for (const char* name : {"first_name", "last_name", "city"}) {
    ClkFieldConfig field;
    field.field_name = name;
    field.num_hashes = 10;
    fields.push_back(field);
  }
  return ClkEncoder(std::move(params), std::move(fields));
}

void ExpectShardsBitIdentical(const EncodedShard& a, const EncodedShard& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.ids, b.ids);
  ASSERT_EQ(a.bits.num_bits(), b.bits.num_bits());
  for (size_t r = 0; r < a.size(); ++r) {
    ASSERT_EQ(std::memcmp(a.bits.row(r), b.bits.row(r),
                          a.bits.words_per_row() * 8),
              0)
        << "row " << r << " differs";
  }
}

/// The legacy materializing chain: whole-file CsvTable -> Database ->
/// per-record BitVectors -> shard.
EncodedShard LegacyEncode(const std::string& path, const ClkEncoder& encoder) {
  auto table = ReadCsvFile(path);
  EXPECT_TRUE(table.ok()) << table.status().ToString();
  auto db = DatabaseFromCsv(*table);
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  EncodedDatabase encoded;
  for (const Record& record : db->records) {
    auto filter = encoder.Encode(db->schema, record);
    EXPECT_TRUE(filter.ok()) << filter.status().ToString();
    encoded.ids.push_back(record.id);
    encoded.filters.push_back(std::move(*filter));
  }
  return ShardFromEncodedDatabase(encoded);
}

std::vector<Cluster> LinkToClusters(const EncodedShard& a,
                                    const EncodedShard& b) {
  const EncodedDatabase a_db = EncodedDatabaseFromShard(a);
  const EncodedDatabase b_db = EncodedDatabaseFromShard(b);
  const PpjoinIndex index(b_db.filters, /*dice_threshold=*/0.8);
  const auto joined = index.Join(a_db.filters);
  std::vector<ScoredPair> scored;
  for (const auto& m : joined) scored.push_back({m.a, m.b, m.dice});
  std::vector<MatchEdge> edges;
  for (const ScoredPair& m : GreedyOneToOne(std::move(scored))) {
    edges.push_back({{0, static_cast<uint32_t>(m.a)},
                     {1, static_cast<uint32_t>(m.b)},
                     m.score});
  }
  return ConnectedComponents(edges);
}

class IngestParityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    a_csv_ = WriteTempFile("parity_a.csv", MakeQidCsv(0, 120));
    b_csv_ = WriteTempFile("parity_b.csv", MakeQidCsv(1, 120));
  }
  void TearDown() override {
    for (const std::string& p : cleanup_) std::remove(p.c_str());
    std::remove(a_csv_.c_str());
    std::remove(b_csv_.c_str());
  }
  std::string Track(const std::string& path) {
    cleanup_.push_back(path);
    return path;
  }

  std::string a_csv_, b_csv_;
  std::vector<std::string> cleanup_;
};

TEST_F(IngestParityTest, StreamingEncodeMatchesLegacyEncodeBitwise) {
  const ClkEncoder encoder = MakeEncoder();
  auto streamed = io::EncodeCsvToShard(a_csv_, encoder);
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
  const EncodedShard legacy = LegacyEncode(a_csv_, encoder);
  ExpectShardsBitIdentical(legacy, *streamed);
}

TEST_F(IngestParityTest, StreamingDatabaseMatchesLegacyDatabase) {
  auto table = ReadCsvFile(a_csv_);
  ASSERT_TRUE(table.ok());
  auto legacy = DatabaseFromCsv(*table);
  ASSERT_TRUE(legacy.ok());
  auto streamed = io::ReadDatabaseCsvStream(a_csv_);
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
  ASSERT_EQ(legacy->size(), streamed->size());
  ASSERT_EQ(legacy->schema.size(), streamed->schema.size());
  for (size_t i = 0; i < legacy->schema.size(); ++i) {
    EXPECT_EQ(legacy->schema.fields[i].name, streamed->schema.fields[i].name);
    EXPECT_EQ(legacy->schema.fields[i].type, streamed->schema.fields[i].type);
  }
  for (size_t r = 0; r < legacy->size(); ++r) {
    EXPECT_EQ(legacy->records[r].id, streamed->records[r].id);
    EXPECT_EQ(legacy->records[r].entity_id, streamed->records[r].entity_id);
    EXPECT_EQ(legacy->records[r].values, streamed->records[r].values);
  }
}

TEST_F(IngestParityTest, CsvAndPclkShardFilesLoadBitIdentical) {
  const ClkEncoder encoder = MakeEncoder();
  auto shard = io::EncodeCsvToShard(a_csv_, encoder);
  ASSERT_TRUE(shard.ok());

  const std::string csv_path = Track(::testing::TempDir() + "/parity_a_clks.csv");
  const std::string pclk_path = Track(::testing::TempDir() + "/parity_a_clks.pclk");
  ASSERT_TRUE(io::WriteShardFile(csv_path, *shard).ok());
  ASSERT_TRUE(io::WriteShardFile(pclk_path, *shard).ok());

  EXPECT_EQ(io::DetectShardFileFormat(csv_path), io::ShardFileFormat::kCsv);
  EXPECT_EQ(io::DetectShardFileFormat(pclk_path), io::ShardFileFormat::kPclk);

  auto from_csv = io::ReadShardAuto(csv_path);
  auto from_pclk = io::ReadShardAuto(pclk_path);
  ASSERT_TRUE(from_csv.ok()) << from_csv.status().ToString();
  ASSERT_TRUE(from_pclk.ok()) << from_pclk.status().ToString();
  ExpectShardsBitIdentical(*shard, *from_csv);
  ExpectShardsBitIdentical(*shard, *from_pclk);

  // The legacy interchange reader sees the same database the new writer
  // produced (cross-compatibility of the CSV side).
  auto legacy_read = ReadEncodedDatabase(csv_path);
  ASSERT_TRUE(legacy_read.ok()) << legacy_read.status().ToString();
  ExpectShardsBitIdentical(*shard, ShardFromEncodedDatabase(*legacy_read));
}

TEST_F(IngestParityTest, ClustersIdenticalAcrossFormats) {
  const ClkEncoder encoder = MakeEncoder();
  auto a = io::EncodeCsvToShard(a_csv_, encoder);
  auto b = io::EncodeCsvToShard(b_csv_, encoder);
  ASSERT_TRUE(a.ok() && b.ok());

  const std::string a_csv = Track(::testing::TempDir() + "/parity_link_a.csv");
  const std::string b_csv = Track(::testing::TempDir() + "/parity_link_b.csv");
  const std::string a_pclk = Track(::testing::TempDir() + "/parity_link_a.pclk");
  const std::string b_pclk = Track(::testing::TempDir() + "/parity_link_b.pclk");
  ASSERT_TRUE(io::WriteShardFile(a_csv, *a).ok());
  ASSERT_TRUE(io::WriteShardFile(b_csv, *b).ok());
  ASSERT_TRUE(io::WriteShardFile(a_pclk, *a).ok());
  ASSERT_TRUE(io::WriteShardFile(b_pclk, *b).ok());

  auto a_from_csv = io::ReadShardAuto(a_csv);
  auto b_from_csv = io::ReadShardAuto(b_csv);
  auto a_from_pclk = io::ReadShardAuto(a_pclk);
  auto b_from_pclk = io::ReadShardAuto(b_pclk);
  ASSERT_TRUE(a_from_csv.ok() && b_from_csv.ok());
  ASSERT_TRUE(a_from_pclk.ok() && b_from_pclk.ok());

  const std::vector<Cluster> via_csv = LinkToClusters(*a_from_csv, *b_from_csv);
  const std::vector<Cluster> via_pclk =
      LinkToClusters(*a_from_pclk, *b_from_pclk);
  ASSERT_GT(via_csv.size(), 0u) << "corpus produced no matches at all";
  EXPECT_EQ(via_csv, via_pclk);
}

TEST_F(IngestParityTest, IngestStatsAreReported) {
  const ClkEncoder encoder = MakeEncoder();
  io::IngestStats stats;
  auto shard = io::EncodeCsvToShard(a_csv_, encoder, {}, &stats);
  ASSERT_TRUE(shard.ok());
  EXPECT_EQ(stats.records, shard->size());
  EXPECT_GT(stats.input_bytes, 0u);
  EXPECT_GE(stats.seconds, 0.0);
}

TEST_F(IngestParityTest, SchemaPeekMatchesFullIngest) {
  auto schema = io::ReadCsvSchema(a_csv_);
  ASSERT_TRUE(schema.ok()) << schema.status().ToString();
  auto db = io::ReadDatabaseCsvStream(a_csv_);
  ASSERT_TRUE(db.ok());
  ASSERT_EQ(schema->size(), db->schema.size());
  for (size_t i = 0; i < schema->size(); ++i) {
    EXPECT_EQ(schema->fields[i].name, db->schema.fields[i].name);
    EXPECT_EQ(schema->fields[i].type, db->schema.fields[i].type);
  }
  // "id" is bookkeeping, not a QID.
  EXPECT_EQ(schema->FieldIndex("id"), -1);
  EXPECT_NE(schema->FieldIndex("first_name"), -1);
}

/// The status every QID reader returns for `body`: the fused encoder, the
/// streaming database reader (and ReadDatabaseCsv on top of it), and the
/// legacy whole-file DatabaseFromCsv. Entity ids are evaluation-only, so
/// only the database readers look at them.
struct ReaderStatuses {
  Status encode, stream, read, legacy;
};

ReaderStatuses ReadAllWays(const std::string& path, const ClkEncoder& encoder) {
  ReaderStatuses out;
  out.encode = io::EncodeCsvToShard(path, encoder).status();
  out.stream = io::ReadDatabaseCsvStream(path).status();
  out.read = ReadDatabaseCsv(path).status();
  auto table = ReadCsvFile(path);
  out.legacy = table.ok() ? DatabaseFromCsv(*table).status() : table.status();
  return out;
}

/// Integer-looking ids that are negative or past 2^64 - 1 used to wrap
/// silently: -5 and -6 both became 0 in the streaming readers, and
/// 18446744073709551621 became 5, colliding with a real id 5, while
/// DatabaseFromCsv produced different values again. Every reader must now
/// refuse them with one error that names the row.
TEST_F(IngestParityTest, NegativeAndOverflowingIdsFailAlikeInEveryReader) {
  const ClkEncoder encoder = MakeEncoder();
  const std::string header = "id,first_name,last_name,city\n";
  const std::vector<std::pair<std::string, std::string>> cases = {
      {header + "5,ann,lee,york\n-5,bob,kay,leeds\n-6,cat,ray,hull\n",
       "CSV row 2: id '-5' is not an unsigned 64-bit integer"},
      {header + "5,ann,lee,york\n18446744073709551621,bob,kay,leeds\n",
       "CSV row 2: id '18446744073709551621' is not an unsigned 64-bit integer"},
      {header + "1,ann,lee,york\n2,bob,kay,leeds\n-0,cat,ray,hull\n",
       "CSV row 3: id '-0' is not an unsigned 64-bit integer"},
  };
  for (size_t i = 0; i < cases.size(); ++i) {
    const std::string path =
        Track(WriteTempFile("bad_ids_" + std::to_string(i) + ".csv", cases[i].first));
    const ReaderStatuses got = ReadAllWays(path, encoder);
    for (const Status* status : {&got.encode, &got.stream, &got.read, &got.legacy}) {
      EXPECT_EQ(status->code(), StatusCode::kInvalidArgument) << status->ToString();
      EXPECT_EQ(status->message(), cases[i].second);
    }
  }

  const std::string entity_path = Track(WriteTempFile(
      "bad_entity_ids.csv",
      "id,entity_id,first_name,last_name,city\n1,7,ann,lee,york\n"
      "2,99999999999999999999,bob,kay,leeds\n"));
  const ReaderStatuses got = ReadAllWays(entity_path, encoder);
  EXPECT_TRUE(got.encode.ok()) << got.encode.ToString();
  for (const Status* status : {&got.stream, &got.read, &got.legacy}) {
    EXPECT_EQ(status->message(),
              "CSV row 2: entity_id '99999999999999999999' is not an unsigned 64-bit "
              "integer");
  }
}

/// The encoded interchange CSV (id, bits, clk) has two readers, the
/// streaming io::ReadCsvShard and the legacy ReadEncodedDatabase. The
/// legacy one used to read id -5 as 18446744073709551611; both must refuse
/// a negative or overflowing id or bits with the same error.
TEST_F(IngestParityTest, EncodedCsvIdsFailAlikeInBothReaders) {
  const std::string header = "id,bits,clk\n";
  const std::vector<std::pair<std::string, std::string>> cases = {
      {header + "1,16,CAA=\n-5,16,CAA=\n",
       "CSV row 2: id '-5' is not an unsigned 64-bit integer"},
      {header + "18446744073709551616,16,CAA=\n",
       "CSV row 1: id '18446744073709551616' is not an unsigned 64-bit integer"},
      {header + "1,16,CAA=\n2,16,CAA=\n3,-16,CAA=\n",
       "CSV row 3: bits '-16' is not an unsigned 64-bit integer"},
  };
  for (size_t i = 0; i < cases.size(); ++i) {
    const std::string path = Track(
        WriteTempFile("bad_encoded_ids_" + std::to_string(i) + ".csv", cases[i].first));
    const Status streamed = io::ReadCsvShard(path).status();
    const Status legacy = ReadEncodedDatabase(path).status();
    for (const Status* status : {&streamed, &legacy}) {
      EXPECT_EQ(status->code(), StatusCode::kInvalidArgument) << status->ToString();
      EXPECT_EQ(status->message(), cases[i].second);
    }
  }
}

/// The largest id still parses exactly, and non-integer text keeps the
/// row-index fallback, identically in every reader.
TEST_F(IngestParityTest, IdEdgesParseAlikeInEveryReader) {
  const std::string path = Track(WriteTempFile(
      "id_edges.csv",
      "id,entity_id,first_name,last_name,city\n"
      "18446744073709551615,18446744073709551615,ann,lee,york\n"
      "x7,+3,bob,kay,leeds\n"
      "0,,cat,ray,hull\n"));
  const std::vector<uint64_t> ids = {18446744073709551615ull, 1, 0};
  const std::vector<uint64_t> entity_ids = {18446744073709551615ull, 0, 0};

  auto shard = io::EncodeCsvToShard(path, MakeEncoder());
  ASSERT_TRUE(shard.ok()) << shard.status().ToString();
  EXPECT_EQ(shard->ids, ids);
  auto table = ReadCsvFile(path);
  ASSERT_TRUE(table.ok());
  auto legacy = DatabaseFromCsv(*table);
  auto streamed = io::ReadDatabaseCsvStream(path);
  for (const Result<Database>* db : {&legacy, &streamed}) {
    ASSERT_TRUE(db->ok()) << db->status().ToString();
    ASSERT_EQ((*db)->size(), ids.size());
    for (size_t r = 0; r < ids.size(); ++r) {
      EXPECT_EQ((*db)->records[r].id, ids[r]) << "row " << r;
      EXPECT_EQ((*db)->records[r].entity_id, entity_ids[r]) << "row " << r;
    }
  }
}

}  // namespace
}  // namespace pprl
