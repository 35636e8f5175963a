/// Pins the exact bytes of every wire and disk encoder: PCLK shards, WAL
/// segments, checkpoint files, shipment and WAL batch payloads, every
/// protocol message, the frame layout and the LSH band checksum that every
/// checkpoint stores. Each entry is the first 8 bytes (16 hex digits) of
/// the SHA-256 of one encoder's output on fixed, seeded inputs, at filter
/// widths that exercise every tail case of the packed-row codec: 1, 7, 63,
/// 65 and 1000 bits. A refactor of the byte layer must leave every digest
/// unchanged; a digest that moves means a format changed.
///
/// On a mismatch the test prints the whole actual table in source form.

#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "blocking/lsh_index.h"
#include "common/random.h"
#include "crypto/hash.h"
#include "encoding/clk_io.h"
#include "io/checkpoint.h"
#include "io/pclk.h"
#include "io/wal.h"
#include "net/frame.h"
#include "service/protocol.h"

namespace pprl {
namespace {

constexpr size_t kWidths[] = {1, 7, 63, 65, 1000};

using Digests = std::map<std::string, std::string>;

std::string Digest(const std::vector<uint8_t>& bytes) {
  const std::string_view view(reinterpret_cast<const char*>(bytes.data()),
                              bytes.size());
  return DigestToHex(Sha256(view)).substr(0, 16);
}

std::string Hex64(uint64_t v) {
  static const char* kHex = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i, v >>= 4) out[static_cast<size_t>(i)] = kHex[v & 0xf];
  return out;
}

std::vector<uint8_t> Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

/// Five records of `bits`-bit filters with ~40 % of the bits set and
/// full-width ids, all drawn from one seeded Rng.
EncodedDatabase FixedDatabase(size_t bits) {
  Rng rng(1000 + bits);
  EncodedDatabase db;
  for (size_t i = 0; i < 5; ++i) {
    db.ids.push_back(rng.NextUint64());
    BitVector filter(bits);
    for (size_t b = 0; b < bits; ++b) {
      if (rng.NextBool(0.4)) filter.Set(b);
    }
    db.filters.push_back(std::move(filter));
  }
  return db;
}

std::string Width(size_t bits) { return "@" + std::to_string(bits); }

/// Compares `actual` against `expected` entry by entry, and prints the
/// actual table when anything differs.
void ExpectDigests(const Digests& actual, const Digests& expected) {
  EXPECT_EQ(actual.size(), expected.size());
  for (const auto& [name, digest] : actual) {
    const auto it = expected.find(name);
    if (it == expected.end()) {
      ADD_FAILURE() << "no pinned digest for " << name;
    } else {
      EXPECT_EQ(digest, it->second) << name;
    }
  }
  if (::testing::Test::HasFailure()) {
    std::string table;
    for (const auto& [name, digest] : actual) {
      table += "      {\"" + name + "\", \"" + digest + "\"},\n";
    }
    std::printf("actual digests:\n%s", table.c_str());
  }
}

TEST(GoldenBytesTest, PclkShards) {
  Digests actual;
  for (const size_t bits : kWidths) {
    const EncodedShard shard = ShardFromEncodedDatabase(FixedDatabase(bits));
    actual["pclk" + Width(bits)] = Digest(io::EncodePclk(shard, true));
    actual["pclk-nopop" + Width(bits)] = Digest(io::EncodePclk(shard, false));
  }
  ExpectDigests(actual, {
      {"pclk-nopop@1", "fc3f5be556be8970"},
      {"pclk-nopop@1000", "3e91dfa6435da6d5"},
      {"pclk-nopop@63", "01cdca2363a77291"},
      {"pclk-nopop@65", "173e26893c4235fb"},
      {"pclk-nopop@7", "a7ea2f9bbd7dbeb4"},
      {"pclk@1", "5e8fe31be201235d"},
      {"pclk@1000", "50d20d8c774886d9"},
      {"pclk@63", "4356c69967e84b77"},
      {"pclk@65", "1c7226146a0e0f10"},
      {"pclk@7", "534f787a3829a910"},
  });
}

TEST(GoldenBytesTest, WalSegments) {
  Digests actual;
  for (const size_t bits : kWidths) {
    const EncodedDatabase db = FixedDatabase(bits);
    const std::string path =
        ::testing::TempDir() + "/golden_wal_" + std::to_string(bits) + ".pwal";
    {
      auto writer = io::WalWriter::Create(path, static_cast<uint32_t>(bits),
                                          /*start_sequence=*/11, {});
      ASSERT_TRUE(writer.ok()) << writer.status().ToString();
      const std::vector<uint8_t> hello = io::EncodeWalHello("clinic-a");
      const std::vector<uint8_t> first = io::EncodeWalAppendBatch(0, db, 0, 3);
      const std::vector<uint8_t> second = io::EncodeWalAppendBatch(0, db, 3, 5);
      ASSERT_TRUE((*writer)->Append(io::WalRecordType::kHello, hello.data(),
                                    hello.size()).ok());
      ASSERT_TRUE((*writer)->Append(io::WalRecordType::kAppendBatch, first.data(),
                                    first.size()).ok());
      ASSERT_TRUE((*writer)->Append(io::WalRecordType::kAppendBatch,
                                    second.data(), second.size()).ok());
    }
    actual["wal-segment" + Width(bits)] = Digest(Slurp(path));
    actual["wal-batch" + Width(bits)] = Digest(io::EncodeWalAppendBatch(7, db, 1, 5));
  }
  actual["wal-hello"] = Digest(io::EncodeWalHello("registry"));
  ExpectDigests(actual, {
      {"wal-batch@1", "e0a4b63081a71fc8"},
      {"wal-batch@1000", "5ff5f332374c5960"},
      {"wal-batch@63", "13e83dec3ea2f378"},
      {"wal-batch@65", "be57b895ea7221e2"},
      {"wal-batch@7", "b3fef0cda69bdd8c"},
      {"wal-hello", "a84c8047309609e9"},
      {"wal-segment@1", "91a57ddae8918326"},
      {"wal-segment@1000", "a3db7e8d1bf77bb1"},
      {"wal-segment@63", "3bea231830573cd4"},
      {"wal-segment@65", "338cdfb5b1df3fce"},
      {"wal-segment@7", "b2bc78ba89711452"},
  });
}

TEST(GoldenBytesTest, CheckpointFiles) {
  Digests actual;
  for (const size_t bits : kWidths) {
    io::OnlineSnapshot snapshot;
    snapshot.filter_bits = static_cast<uint32_t>(bits);
    snapshot.lsh_tables = 6;
    snapshot.lsh_bits_per_key = 5;
    snapshot.lsh_seed = 0x5eed5eed5eedull;
    snapshot.dice_threshold = 0.8;
    snapshot.wal_sequence = 9;
    snapshot.database_names = {"db-a", "db-b"};
    snapshot.database_sizes = {3, 2};
    snapshot.rows = ShardFromEncodedDatabase(FixedDatabase(bits));
    snapshot.row_database = {0, 0, 0, 1, 1};
    snapshot.parent = {0, 0, 2, 0, 3};
    snapshot.linked = {1, 1, 0, 1, 1};
    snapshot.edges = 3;
    snapshot.comparisons = 7;
    snapshot.band_checksum = 0x0123456789abcdefull;
    const std::string dir = ::testing::TempDir();
    std::string path;
    ASSERT_TRUE(io::WriteCheckpointFile(dir, snapshot, &path).ok());
    actual["checkpoint" + Width(bits)] = Digest(Slurp(path));
  }
  ExpectDigests(actual, {
      {"checkpoint@1", "4abc2ed7d8f2f204"},
      {"checkpoint@1000", "3c5729ac37cb2064"},
      {"checkpoint@63", "36681241cced110b"},
      {"checkpoint@65", "cbfd34598646dbc4"},
      {"checkpoint@7", "838590aea4615b8a"},
  });
}

TEST(GoldenBytesTest, ShipmentPayloads) {
  Digests actual;
  for (const size_t bits : kWidths) {
    const EncodedDatabase db = FixedDatabase(bits);
    const EncodedShard shard = ShardFromEncodedDatabase(db);
    auto from_db = EncodeShipment(db);
    auto from_shard = EncodeShipment(shard);
    auto rows = EncodeShipmentRows(shard, 1, 4);
    ASSERT_TRUE(from_db.ok() && from_shard.ok() && rows.ok());
    actual["shipment-db" + Width(bits)] = Digest(*from_db);
    actual["shipment-shard" + Width(bits)] = Digest(*from_shard);
    actual["shipment-rows" + Width(bits)] = Digest(*rows);

    ShipmentChunkMessage chunk;
    chunk.session_id = 0x1122334455667788ull;
    chunk.offset = 3;
    chunk.last = true;
    chunk.data.assign(from_db->begin() + 3, from_db->end());
    actual["chunk" + Width(bits)] = Digest(EncodeShipmentChunk(chunk));

    AppendRecordsMessage append;
    append.session_id = 42;
    append.base_index = 17;
    append.filter_bits = static_cast<uint32_t>(bits);
    append.count = 3;
    append.data = *rows;
    actual["append-records" + Width(bits)] = Digest(EncodeAppendRecords(append));

    QueryMessage query;
    query.session_id = 42;
    query.query_id = 0xfeedull;
    query.want_clusters = true;
    query.top_k = 4;
    query.filter_bits = static_cast<uint32_t>(bits);
    query.count = 3;
    query.data = *rows;
    actual["query" + Width(bits)] = Digest(EncodeQuery(query));
  }
  ExpectDigests(actual, {
      {"append-records@1", "f34013caa8e78f71"},
      {"append-records@1000", "bde51d20a01d8b06"},
      {"append-records@63", "29ef54a4a09e6d7b"},
      {"append-records@65", "84f381ac32fb1995"},
      {"append-records@7", "db9220ab1269d9af"},
      {"chunk@1", "5f5de45c5730b055"},
      {"chunk@1000", "45c877a694a1d5c9"},
      {"chunk@63", "45eb002450a45a1a"},
      {"chunk@65", "d6827c9796303547"},
      {"chunk@7", "7681dfcb0e1952c8"},
      {"query@1", "feaeafdb3efa33b2"},
      {"query@1000", "52413a9d3bade204"},
      {"query@63", "46321aabbf79ef1c"},
      {"query@65", "b24481a01d9c4496"},
      {"query@7", "408da3464502d0d5"},
      {"shipment-db@1", "695550d3c49faca5"},
      {"shipment-db@1000", "0b2c7c02cbc9c540"},
      {"shipment-db@63", "1d131b7bd6f5388c"},
      {"shipment-db@65", "92b30a29820087b3"},
      {"shipment-db@7", "f3dacb06bcdcb2ba"},
      {"shipment-rows@1", "5cb8a0447e03b751"},
      {"shipment-rows@1000", "6017f110a5feddfb"},
      {"shipment-rows@63", "9e4da04efaa71333"},
      {"shipment-rows@65", "d861970b020505c1"},
      {"shipment-rows@7", "e549f0d472afee8b"},
      {"shipment-shard@1", "695550d3c49faca5"},
      {"shipment-shard@1000", "0b2c7c02cbc9c540"},
      {"shipment-shard@63", "1d131b7bd6f5388c"},
      {"shipment-shard@65", "92b30a29820087b3"},
      {"shipment-shard@7", "f3dacb06bcdcb2ba"},
  });
}

TEST(GoldenBytesTest, ProtocolMessagesAndFrames) {
  Digests actual;
  actual["hello"] = Digest(EncodeHello({4, "clinic-a", 1000, 5000}));
  actual["hello-ack"] = Digest(EncodeHelloAck({4, "pprl-linkd", 3, 0xabcdef01ull, 4u << 20}));
  actual["shipment-ack"] = Digest(EncodeShipmentAck({9, 123456, true, 2, 3}));
  actual["resume"] = Digest(EncodeResume({4, "clinic-b", 0x99ull}));
  actual["resume-ack"] = Digest(EncodeResumeAck({0x99ull, 4096, false}));
  actual["busy"] = Digest(EncodeBusy({250, "session limit"}));

  AssignPartitionMessage assign;
  assign.protocol_version = 4;
  assign.coordinator = "coord";
  assign.worker_index = 1;
  assign.num_workers = 3;
  assign.scheme = 2;
  assign.expected_owners = 3;
  assign.dice_threshold = 0.8;
  assign.lsh_tables = 20;
  assign.lsh_bits_per_key = 18;
  assign.lsh_seed = 0x5eedull;
  actual["assign-partition"] = Digest(EncodeAssignPartition(assign));

  PartitionResultMessage partition;
  partition.worker_index = 1;
  partition.comparisons = 1000;
  partition.candidate_pairs = 1200;
  partition.pruned_comparisons = 200;
  partition.edges = {{{0, 1}, {1, 5}, 0.8125}, {{0, 7}, {2, 3}, 1.0 / 3.0}};
  actual["partition-result"] = Digest(EncodePartitionResult(partition));

  OwnerLinkageSummary summary;
  summary.matches = {{0, 4, 2}, {3, 9, 3}};
  summary.comparisons = 77;
  summary.candidate_pairs = 91;
  summary.total_edges = 12;
  summary.total_clusters = 40;
  summary.owners_linked = 2;
  summary.owners_expected = 3;
  summary.workers_linked = 1;
  summary.workers_expected = 2;
  actual["results"] = Digest(EncodeResults(summary));

  QueryResultMessage result;
  result.query_id = 0xfeedull;
  result.index_size = 3000;
  QueryRecordResult hit;
  hit.id = 0x1234567890ull;
  hit.cluster_id = 17;
  hit.cluster_size = 2;
  hit.candidates = 5;
  hit.matches = {{1, 44, 0x77ull, 0.9}, {0, 3, 0x78ull, 2.0 / 3.0}};
  QueryRecordResult miss;
  miss.id = 5;
  result.records = {hit, miss};
  actual["query-result"] = Digest(EncodeQueryResult(result));

  actual["error"] = Digest(EncodeError(Status::ProtocolViolation("bad frame")));

  Frame frame;
  frame.type = static_cast<uint8_t>(MessageType::kHello);
  frame.payload = EncodeHello({4, "clinic-a", 1000, 5000});
  actual["frame"] = Digest(EncodeFrame(frame));
  ExpectDigests(actual, {
      {"assign-partition", "3c58ead7869b2489"},
      {"busy", "0e3b09ecc8325a9b"},
      {"error", "9d23ba71c44e554c"},
      {"frame", "fa2e9b866d08c2e1"},
      {"hello", "b41c2caa90ad09df"},
      {"hello-ack", "0f6ade67b5d179af"},
      {"partition-result", "8fc11340f973b181"},
      {"query-result", "b0cc7bcc402e80e9"},
      {"results", "f73b9ff4c915c504"},
      {"resume", "9c5d3714f0eaf4bd"},
      {"resume-ack", "34f6c160d74b98b1"},
      {"shipment-ack", "f35a31ba923d1048"},
  });
}

TEST(GoldenBytesTest, LshBandChecksum) {
  Digests actual;
  for (const size_t bits : kWidths) {
    const EncodedDatabase db = FixedDatabase(bits);
    LshBandIndex index(bits, /*num_tables=*/6, /*bits_per_key=*/5, /*seed=*/2024);
    for (const BitVector& filter : db.filters) index.Append(filter);
    actual["band-checksum" + Width(bits)] = Hex64(index.band_checksum());
  }
  ExpectDigests(actual, {
      {"band-checksum@1", "fd027c7cdd85ad83"},
      {"band-checksum@1000", "e9ed2bfaff5bfb74"},
      {"band-checksum@63", "6eac3f3880a47c80"},
      {"band-checksum@65", "6a82c97809c9097b"},
      {"band-checksum@7", "fe96046b561cffa7"},
  });
}

}  // namespace
}  // namespace pprl
