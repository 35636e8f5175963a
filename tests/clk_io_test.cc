#include "encoding/clk_io.h"

#include <cstdio>

#include <gtest/gtest.h>

#include "common/random.h"
#include "datagen/generator.h"
#include "encoding/bloom_filter.h"
#include "io/ingest.h"
#include "io/wal.h"
#include "pipeline/pipeline.h"
#include "service/protocol.h"

namespace pprl {
namespace {

// ---------------------------------------------------------------------------
// The packed-row codec against a per-bit reference. Every filter that
// crosses the wire, the WAL or a CSV file loads and stores through
// LoadPackedRow / StorePackedRow; these tests pin each caller to the rule
// "byte b holds bits 8b..8b+7, lowest first; bits past the length are
// ignored on load and zero on store".

constexpr size_t kCodecWidths[] = {1, 7, 8, 9, 63, 64, 65, 127, 128, 500, 1000, 1024};
constexpr size_t kCodecRows = 17;

/// Reference store: one bit at a time.
std::vector<uint8_t> RefStore(const BitVector& bv) {
  std::vector<uint8_t> out((bv.size() + 7) / 8, 0);
  for (size_t i = 0; i < bv.size(); ++i) {
    if (bv.Get(i)) out[i / 8] |= static_cast<uint8_t>(1u << (i % 8));
  }
  return out;
}

/// Reference load: one bit at a time, reading only the first `num_bits`.
BitVector RefLoad(const uint8_t* bytes, size_t num_bits) {
  BitVector bv(num_bits);
  for (size_t i = 0; i < num_bits; ++i) {
    if ((bytes[i / 8] >> (i % 8)) & 1u) bv.Set(i);
  }
  return bv;
}

/// A random packed row whose last byte's padding bits are all 1.
std::vector<uint8_t> DirtyRow(Rng& rng, size_t num_bits) {
  std::vector<uint8_t> row((num_bits + 7) / 8);
  for (uint8_t& b : row) b = static_cast<uint8_t>(rng.NextUint64(256));
  if (num_bits % 8 != 0) row.back() |= static_cast<uint8_t>(0xffu << (num_bits % 8));
  return row;
}

/// `rows` random records of `num_bits`: the dirty wire form, the filters
/// the reference decodes from it, and the ids.
struct CodecCase {
  size_t num_bits = 0;
  std::vector<std::vector<uint8_t>> dirty;
  EncodedDatabase ref;
};

CodecCase MakeCodecCase(size_t num_bits, uint64_t seed) {
  Rng rng(seed);
  CodecCase c;
  c.num_bits = num_bits;
  for (size_t i = 0; i < kCodecRows; ++i) {
    c.dirty.push_back(DirtyRow(rng, num_bits));
    c.ref.ids.push_back(rng.NextUint64());
    c.ref.filters.push_back(RefLoad(c.dirty.back().data(), num_bits));
  }
  return c;
}

void AppendLe64(std::vector<uint8_t>& out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

/// Shipment layout of rows [begin, end): u64 id + packed row each, with
/// the dirty rows or the reference's clean ones.
std::vector<uint8_t> ShipmentBytes(const CodecCase& c, size_t begin, size_t end,
                                   bool dirty) {
  std::vector<uint8_t> out;
  for (size_t i = begin; i < end; ++i) {
    AppendLe64(out, c.ref.ids[i]);
    const std::vector<uint8_t> row = dirty ? c.dirty[i] : RefStore(c.ref.filters[i]);
    out.insert(out.end(), row.begin(), row.end());
  }
  return out;
}

TEST(PackedRowCodecTest, LoadAndStoreFollowThePerBitRule) {
  for (size_t bits : kCodecWidths) {
    Rng rng(bits);
    for (size_t i = 0; i < kCodecRows; ++i) {
      const std::vector<uint8_t> dirty = DirtyRow(rng, bits);
      const BitVector ref = RefLoad(dirty.data(), bits);
      // Garbage in every word the row covers: the load must overwrite it.
      std::vector<uint64_t> words(RowWords(bits), ~uint64_t{0});
      LoadPackedRow(dirty.data(), bits, words.data());
      EXPECT_EQ(words, ref.words()) << bits << " bits, row " << i;
      // Stray bits past the length in the words: the store must zero them.
      if (bits % 64 != 0) words.back() |= ~uint64_t{0} << (bits % 64);
      std::vector<uint8_t> stored(PackedRowBytes(bits), 0xa5);
      StorePackedRow(words.data(), bits, stored.data());
      EXPECT_EQ(stored, RefStore(ref)) << bits << " bits, row " << i;
    }
  }
}

TEST(PackedRowCodecTest, FromWordsAdoptsAndClearsTheTail) {
  for (size_t bits : kCodecWidths) {
    std::vector<uint64_t> words(RowWords(bits), ~uint64_t{0});
    const BitVector bv = BitVector::FromWords(bits, words);
    EXPECT_EQ(bv.size(), bits);
    EXPECT_EQ(bv.Count(), bits);
    BitVector ref(bits);
    for (size_t i = 0; i < bits; ++i) ref.Set(i);
    EXPECT_EQ(bv, ref) << bits << " bits";
  }
}

TEST(PackedRowCodecTest, BitVectorBytesMaskStrayBitsAndStoreZeroPadding) {
  for (size_t bits : kCodecWidths) {
    const CodecCase c = MakeCodecCase(bits, 100 + bits);
    for (size_t i = 0; i < kCodecRows; ++i) {
      auto loaded = BitVectorFromBytes(c.dirty[i], bits);
      ASSERT_TRUE(loaded.ok());
      EXPECT_EQ(*loaded, c.ref.filters[i]) << bits << " bits, row " << i;
      EXPECT_EQ(loaded->Count(), c.ref.filters[i].Count());
      EXPECT_EQ(BitVectorFromPackedRow(c.dirty[i].data(), bits), c.ref.filters[i]);
      EXPECT_EQ(BitVectorToBytes(*loaded), RefStore(c.ref.filters[i]))
          << bits << " bits, row " << i;
    }
  }
}

TEST(PackedRowCodecTest, ShardBuilderAppendBytesAndToVectorsMatchTheReference) {
  for (size_t bits : kCodecWidths) {
    const CodecCase c = MakeCodecCase(bits, 200 + bits);
    io::ShardBuilder builder(bits);
    for (size_t i = 0; i < kCodecRows; ++i) {
      ASSERT_TRUE(builder.AppendBytes(c.ref.ids[i], c.dirty[i].data(),
                                      c.dirty[i].size())
                      .ok());
    }
    const EncodedShard shard = builder.Finish();
    ASSERT_EQ(shard.size(), kCodecRows);
    EXPECT_EQ(shard.ids, c.ref.ids);
    const std::vector<BitVector> vectors = shard.bits.ToVectors();
    for (size_t i = 0; i < kCodecRows; ++i) {
      const std::vector<uint64_t>& ref_words = c.ref.filters[i].words();
      EXPECT_TRUE(std::equal(ref_words.begin(), ref_words.end(), shard.bits.row(i)))
          << bits << " bits, row " << i;
      EXPECT_EQ(shard.bits.row_count(i), c.ref.filters[i].Count());
      EXPECT_EQ(vectors[i], c.ref.filters[i]) << bits << " bits, row " << i;
    }
    EXPECT_EQ(BitMatrix::FromVectors(c.ref.filters).ToVectors(), c.ref.filters);
  }
}

TEST(PackedRowCodecTest, ShipmentCodecsMatchTheReference) {
  for (size_t bits : kCodecWidths) {
    const CodecCase c = MakeCodecCase(bits, 300 + bits);
    const std::vector<uint8_t> clean = ShipmentBytes(c, 0, kCodecRows, false);

    auto decoded = DecodeShipment(ShipmentBytes(c, 0, kCodecRows, true),
                                  static_cast<uint32_t>(bits));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->ids, c.ref.ids);
    EXPECT_EQ(decoded->filters, c.ref.filters) << bits << " bits";

    auto from_db = EncodeShipment(*decoded);
    ASSERT_TRUE(from_db.ok());
    EXPECT_EQ(*from_db, clean) << bits << " bits";

    const EncodedShard shard = ShardFromEncodedDatabase(c.ref);
    auto from_shard = EncodeShipment(shard);
    ASSERT_TRUE(from_shard.ok());
    EXPECT_EQ(*from_shard, clean) << bits << " bits";

    auto rows = EncodeShipmentRows(shard, 3, 11);
    ASSERT_TRUE(rows.ok());
    EXPECT_EQ(*rows, ShipmentBytes(c, 3, 11, false)) << bits << " bits";
  }
}

/// A shard with fewer ids than rows is refused by every shard encoder,
/// also by the row-range one the append and query paths call directly.
TEST(PackedRowCodecTest, ShipmentRowsRejectShortIds) {
  const CodecCase c = MakeCodecCase(500, 17);
  EncodedShard shard = ShardFromEncodedDatabase(c.ref);
  shard.ids.resize(shard.size() - 3);
  for (const auto& encoded :
       {EncodeShipment(shard), EncodeShipmentRows(shard, 0, shard.size()),
        EncodeShipmentRows(shard, 0, 2)}) {
    EXPECT_EQ(encoded.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(PackedRowCodecTest, WalAppendBatchCodecsMatchTheReference) {
  for (size_t bits : kCodecWidths) {
    const CodecCase c = MakeCodecCase(bits, 400 + bits);
    const uint32_t database = 3;
    std::vector<uint8_t> header;
    for (uint32_t v : {database, uint32_t{9}, static_cast<uint32_t>(bits), uint32_t{0}}) {
      for (int i = 0; i < 4; ++i) header.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
    std::vector<uint8_t> clean = header;
    std::vector<uint8_t> dirty = header;
    const std::vector<uint8_t> clean_rows = ShipmentBytes(c, 4, 13, false);
    const std::vector<uint8_t> dirty_rows = ShipmentBytes(c, 4, 13, true);
    clean.insert(clean.end(), clean_rows.begin(), clean_rows.end());
    dirty.insert(dirty.end(), dirty_rows.begin(), dirty_rows.end());

    EXPECT_EQ(io::EncodeWalAppendBatch(database, c.ref, 4, 13), clean) << bits << " bits";
    auto batch = io::DecodeWalAppendBatch(dirty);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    EXPECT_EQ(batch->database, database);
    ASSERT_EQ(batch->rows.size(), 9u);
    for (size_t i = 0; i < 9; ++i) {
      EXPECT_EQ(batch->rows.ids[i], c.ref.ids[4 + i]);
      EXPECT_EQ(batch->rows.filters[i], c.ref.filters[4 + i]) << bits << " bits, row " << i;
    }
  }
}

TEST(BitVectorBytesTest, RoundTrip) {
  Rng rng(1);
  for (size_t bits : {1, 7, 8, 9, 63, 64, 65, 1000}) {
    BitVector bv(bits);
    for (size_t i = 0; i < bits; ++i) {
      if (rng.NextBool(0.4)) bv.Set(i);
    }
    auto restored = BitVectorFromBytes(BitVectorToBytes(bv), bits);
    ASSERT_TRUE(restored.ok());
    EXPECT_EQ(restored.value(), bv) << bits << " bits";
  }
}

TEST(BitVectorBytesTest, LayoutIsLittleEndianPerByte) {
  BitVector bv(16);
  bv.Set(0);
  bv.Set(9);
  const auto bytes = BitVectorToBytes(bv);
  ASSERT_EQ(bytes.size(), 2u);
  EXPECT_EQ(bytes[0], 0x01);
  EXPECT_EQ(bytes[1], 0x02);
}

TEST(BitVectorBytesTest, RejectsShortBuffer) {
  EXPECT_FALSE(BitVectorFromBytes({0xff}, 9).ok());
}

TEST(EncodedDatabaseIoTest, FileRoundTrip) {
  DataGenerator gen(GeneratorConfig{});
  const Database db = gen.GenerateClean(20);
  PipelineConfig config;
  const ClkEncoder encoder(config.bloom, PprlPipeline::DefaultFieldConfigs());
  EncodedDatabase encoded;
  encoded.filters = encoder.EncodeDatabase(db).value();
  for (const Record& r : db.records) encoded.ids.push_back(r.id);

  const std::string path = ::testing::TempDir() + "/pprl_clk_io_test.csv";
  ASSERT_TRUE(WriteEncodedDatabase(path, encoded).ok());
  auto restored = ReadEncodedDatabase(path);
  ASSERT_TRUE(restored.ok());
  ASSERT_EQ(restored->size(), encoded.size());
  for (size_t i = 0; i < encoded.size(); ++i) {
    EXPECT_EQ(restored->ids[i], encoded.ids[i]);
    EXPECT_EQ(restored->filters[i], encoded.filters[i]);
  }
  std::remove(path.c_str());
}

TEST(EncodedDatabaseIoTest, ValidatesShape) {
  EncodedDatabase bad;
  bad.ids = {1, 2};
  bad.filters = {BitVector(8)};
  EXPECT_FALSE(WriteEncodedDatabase("/tmp/never-written.csv", bad).ok());
  EncodedDatabase mixed;
  mixed.ids = {1, 2};
  mixed.filters = {BitVector(8), BitVector(16)};
  EXPECT_FALSE(WriteEncodedDatabase("/tmp/never-written.csv", mixed).ok());
}

TEST(EncodedDatabaseIoTest, RejectsBadFiles) {
  const std::string path = ::testing::TempDir() + "/pprl_clk_io_bad.csv";
  {
    FILE* f = fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("id,bits,clk\n1,16,@@@@\n", f);
    std::fclose(f);
  }
  EXPECT_FALSE(ReadEncodedDatabase(path).ok());
  {
    FILE* f = fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("id,clk\n1,Zg==\n", f);  // missing bits column
    std::fclose(f);
  }
  EXPECT_FALSE(ReadEncodedDatabase(path).ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace pprl
