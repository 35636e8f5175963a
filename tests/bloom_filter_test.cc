#include "encoding/bloom_filter.h"

#include <gtest/gtest.h>

#include "crypto/hash.h"
#include "datagen/generator.h"
#include "encoding/clk_io.h"
#include "pipeline/pipeline.h"
#include "similarity/similarity.h"

namespace pprl {
namespace {

BloomFilterParams SmallParams() {
  BloomFilterParams params;
  params.num_bits = 500;
  params.num_hashes = 15;
  return params;
}

TEST(BloomFilterParamsTest, Validation) {
  EXPECT_TRUE(SmallParams().Validate().ok());
  BloomFilterParams zero_bits = SmallParams();
  zero_bits.num_bits = 0;
  EXPECT_FALSE(zero_bits.Validate().ok());
  BloomFilterParams zero_hashes = SmallParams();
  zero_hashes.num_hashes = 0;
  EXPECT_FALSE(zero_hashes.Validate().ok());
  BloomFilterParams keyed = SmallParams();
  keyed.scheme = BloomHashScheme::kKeyedHmac;
  EXPECT_FALSE(keyed.Validate().ok());  // missing key
  keyed.secret_key = "k";
  EXPECT_TRUE(keyed.Validate().ok());
}

TEST(BloomFilterEncoderTest, DeterministicEncoding) {
  const BloomFilterEncoder encoder(SmallParams());
  EXPECT_EQ(encoder.EncodeString("smith"), encoder.EncodeString("smith"));
  EXPECT_NE(encoder.EncodeString("smith"), encoder.EncodeString("jones"));
}

TEST(BloomFilterEncoderTest, TokenPositionsWithinRange) {
  const BloomFilterEncoder encoder(SmallParams());
  const auto positions = encoder.TokenPositions("ab");
  EXPECT_EQ(positions.size(), SmallParams().num_hashes);
  for (uint32_t pos : positions) EXPECT_LT(pos, SmallParams().num_bits);
}

TEST(BloomFilterEncoderTest, AllTokenBitsAreSet) {
  const BloomFilterEncoder encoder(SmallParams());
  const std::vector<std::string> tokens = {"ab", "bc", "cd"};
  const BitVector filter = encoder.EncodeTokens(tokens);
  for (const std::string& token : tokens) {
    for (uint32_t pos : encoder.TokenPositions(token)) {
      EXPECT_TRUE(filter.Get(pos));
    }
  }
}

TEST(BloomFilterEncoderTest, KeyedSchemeDiffersByKey) {
  BloomFilterParams p1 = SmallParams();
  p1.scheme = BloomHashScheme::kKeyedHmac;
  p1.secret_key = "key-one";
  BloomFilterParams p2 = p1;
  p2.secret_key = "key-two";
  const BloomFilterEncoder e1(p1), e2(p2);
  EXPECT_NE(e1.EncodeString("smith"), e2.EncodeString("smith"));
}

std::string CloneLabel(Sha256Clone clone) {
  return clone == Sha256Clone::kShaNi ? "sha-ni" : "portable";
}

/// The keyed mapping spelled out: position j of a token is the first 8
/// bytes (little-endian) of HMAC-SHA-256(key, token || 0x1f || decimal j)
/// modulo the filter length, under every SHA-256 clone. The token lengths
/// put the token's partial block, the suffix and the padding in one block
/// (0, 2), at the one/two-block edge (53), in two blocks (54, 60), across
/// a block boundary (62, 63), or after whole token blocks (64, 107, 108,
/// 119, 128, 300).
TEST(BloomFilterEncoderTest, KeyedPositionsFollowTheHmacDefinition) {
  BloomFilterParams params = SmallParams();
  params.scheme = BloomHashScheme::kKeyedHmac;
  params.secret_key = "key-one";
  params.num_hashes = 12;  // j = 10 and 11 take two digits
  for (const Sha256Clone clone : SupportedSha256Clones()) {
    const ScopedSha256Clone scope(clone);
    const BloomFilterEncoder encoder(params);
    for (size_t len : {0, 2, 53, 54, 60, 62, 63, 64, 107, 108, 119, 128, 300}) {
      std::string token;
      for (size_t i = 0; i < len; ++i) token += static_cast<char>('a' + i % 26);
      const std::vector<uint32_t> positions = encoder.TokenPositions(token);
      ASSERT_EQ(positions.size(), params.num_hashes);
      for (size_t j = 0; j < params.num_hashes; ++j) {
        const auto mac = HmacSha256(params.secret_key, token + "\x1f" + std::to_string(j));
        EXPECT_EQ(positions[j], DigestToUint64(mac) % params.num_bits)
            << CloneLabel(clone) << ", token of " << len << " bytes, j = " << j;
      }
    }
  }
}

TEST(BloomFilterEncoderTest, NormalizationBeforeEncoding) {
  const BloomFilterEncoder encoder(SmallParams());
  EXPECT_EQ(encoder.EncodeString("  SMITH "), encoder.EncodeString("smith"));
}

/// The core Figure-2 property: Dice of encoded filters tracks the Dice of
/// the underlying q-gram sets for similar and dissimilar names.
TEST(BloomFilterEncoderTest, DicePreservation) {
  const BloomFilterEncoder encoder(SmallParams());
  const BitVector smith = encoder.EncodeString("smith");
  const BitVector smyth = encoder.EncodeString("smyth");
  const BitVector jones = encoder.EncodeString("jones");
  const double sim_close = DiceSimilarity(smith, smyth);
  const double sim_far = DiceSimilarity(smith, jones);
  const double raw_close = QGramDiceSimilarity("smith", "smyth");
  EXPECT_GT(sim_close, sim_far);
  EXPECT_NEAR(sim_close, raw_close, 0.15);  // collisions bias upward slightly
  EXPECT_EQ(DiceSimilarity(smith, smith), 1.0);
}

TEST(ClkEncoderTest, EncodesStandardRecord) {
  const Schema schema = DataGenerator::StandardSchema();
  Record record;
  record.values = {"mary", "smith", "f", "1980-02-29", "springfield",
                   "12 main st", "2000", "0412345678"};
  BloomFilterParams params;
  params.num_bits = 1000;
  std::vector<ClkFieldConfig> fields;
  ClkFieldConfig first;
  first.field_name = "first_name";
  fields.push_back(first);
  ClkFieldConfig dob;
  dob.field_name = "dob";
  fields.push_back(dob);
  const ClkEncoder encoder(params, fields);
  auto clk = encoder.Encode(schema, record);
  ASSERT_TRUE(clk.ok());
  EXPECT_GT(clk->Count(), 0u);
  EXPECT_EQ(clk->size(), 1000u);
}

TEST(ClkEncoderTest, UnknownFieldFails) {
  const Schema schema = DataGenerator::StandardSchema();
  Record record;
  record.values.assign(schema.size(), "x");
  ClkFieldConfig bogus;
  bogus.field_name = "no_such_field";
  const ClkEncoder encoder(SmallParams(), {bogus});
  EXPECT_FALSE(encoder.Encode(schema, record).ok());
}

TEST(ClkEncoderTest, ShortRecordFails) {
  const Schema schema = DataGenerator::StandardSchema();
  Record record;  // no values at all
  ClkFieldConfig first;
  first.field_name = "first_name";
  const ClkEncoder encoder(SmallParams(), {first});
  EXPECT_FALSE(encoder.Encode(schema, record).ok());
}

TEST(ClkEncoderTest, FieldSeparationPreventsCrossFieldCollisions) {
  // Identical value in different fields must produce different positions.
  const Schema schema = DataGenerator::StandardSchema();
  Record r1, r2;
  r1.values = {"jo", "", "", "", "", "", "", ""};
  r2.values = {"", "jo", "", "", "", "", "", ""};
  ClkFieldConfig first, last;
  first.field_name = "first_name";
  last.field_name = "last_name";
  const ClkEncoder encoder(SmallParams(), {first, last});
  auto c1 = encoder.Encode(schema, r1);
  auto c2 = encoder.Encode(schema, r2);
  ASSERT_TRUE(c1.ok() && c2.ok());
  EXPECT_NE(c1.value(), c2.value());
}

TEST(ClkEncoderTest, NumericFieldUsesNeighborhoodTokens) {
  Schema schema;
  schema.fields = {{"age", FieldType::kNumeric}};
  Record r30, r31, r60;
  r30.values = {"30"};
  r31.values = {"31"};
  r60.values = {"60"};
  ClkFieldConfig age;
  age.field_name = "age";
  age.numeric_step = 1.0;
  age.numeric_neighbors = 5;
  BloomFilterParams params;
  params.num_bits = 1000;
  const ClkEncoder encoder(params, {age});
  const BitVector f30 = encoder.Encode(schema, r30).value();
  const BitVector f31 = encoder.Encode(schema, r31).value();
  const BitVector f60 = encoder.Encode(schema, r60).value();
  EXPECT_GT(DiceSimilarity(f30, f31), 0.8);
  // Far-apart values share no tokens; only hash collisions remain.
  EXPECT_LT(DiceSimilarity(f30, f60), 0.3);
}

TEST(ClkEncoderTest, NonNumericValueInNumericFieldFails) {
  Schema schema;
  schema.fields = {{"age", FieldType::kNumeric}};
  Record bad;
  bad.values = {"not-a-number"};
  ClkFieldConfig age;
  age.field_name = "age";
  age.numeric_step = 1.0;
  const ClkEncoder encoder(SmallParams(), {age});
  EXPECT_FALSE(encoder.Encode(schema, bad).ok());
}

TEST(ClkEncoderTest, EncodeDatabaseMatchesPerRecord) {
  DataGenerator gen(GeneratorConfig{});
  const Database db = gen.GenerateClean(20);
  BloomFilterParams params;
  params.num_bits = 800;
  ClkFieldConfig first;
  first.field_name = "first_name";
  const ClkEncoder encoder(params, {first});
  auto all = encoder.EncodeDatabase(db);
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->size(), db.records.size());
  for (size_t i = 0; i < db.records.size(); ++i) {
    EXPECT_EQ((*all)[i], encoder.Encode(db.schema, db.records[i]).value());
  }
}

// --- Golden CLK bytes -------------------------------------------------------
// CLKs written by earlier builds must keep linking with new ones, so the
// encoder's output is pinned byte for byte. Each digest is the SHA-256 of the
// concatenated BitVectorToBytes of every literal record below; the expected
// values were captured once and must never change.

// 50 characters: "name\x1e" + bigram + "\x1f" + j is 55 bytes for j < 10 and
// 56 bytes from j = 10 on, the last length whose padding fits one block and
// the first that needs a second one.
constexpr char kName50[] = "maiden_name_as_recorded_at_the_registration_office";
// 60 characters: every HMAC message is longer than one SHA-256 block's
// worth of tail, so the inner hash compresses a full message block.
constexpr char kName60[] = "patient_registry_surname_recorded_at_first_registration_unit";
static_assert(sizeof(kName50) - 1 == 50 && sizeof(kName60) - 1 == 60);

Schema GoldenSchema() {
  return Schema{{
      {"first_name", FieldType::kString},
      {"last_name", FieldType::kString},
      {"sex", FieldType::kCategorical},
      {"dob", FieldType::kDate},
      {"city", FieldType::kString},
      {"street", FieldType::kString},
      {"age", FieldType::kNumeric},
      {kName50, FieldType::kString},
      {kName60, FieldType::kString},
  }};
}

std::vector<Record> GoldenRecords() {
  const std::vector<std::vector<std::string>> rows = {
      {"mary", "smith", "f", "1980-02-29", "springfield", "12 main st", "44", "jones",
       "registry value"},
      {"  JOHN ", "O'Brien-Smythe", "m", "1975-11-03", "New  York", "1 broadway",
       "61.5", "", "x"},
      {"", "", "", "", "", "", "0", "", ""},
      {"zo\xc3\xab", "m\xc3\xbcller", "f", "2001-01-01", "z\xc3\xbcrich",
       "bahnhofstrasse 1", "-3", "ab", "a considerably longer free-text value"},
      {"maximilian-alexander", "von der heydt-kuenstler", "m", "1999-12-31",
       "llanfairpwllgwyngyll", "flat 3b, 221 baker street", "107", "smyth",
       "q"},
  };
  std::vector<Record> records;
  for (size_t i = 0; i < rows.size(); ++i) {
    Record r;
    r.id = i;
    r.values = rows[i];
    records.push_back(std::move(r));
  }
  return records;
}

/// DefaultFieldConfigs plus a q = 3 field, a numeric-neighbourhood field and
/// the two long-named fields.
std::vector<ClkFieldConfig> ExtendedFieldConfigs() {
  std::vector<ClkFieldConfig> fields = PprlPipeline::DefaultFieldConfigs();
  ClkFieldConfig street;
  street.field_name = "street";
  street.num_hashes = 15;
  street.q = 3;
  fields.push_back(street);
  ClkFieldConfig age;
  age.field_name = "age";
  age.num_hashes = 12;
  age.numeric_step = 1.0;
  age.numeric_neighbors = 3;
  fields.push_back(age);
  ClkFieldConfig name50;
  name50.field_name = kName50;
  name50.num_hashes = 12;
  fields.push_back(name50);
  ClkFieldConfig name60;
  name60.field_name = kName60;
  name60.num_hashes = 25;
  fields.push_back(name60);
  return fields;
}

std::string GoldenClkDigest(BloomHashScheme scheme, const std::string& key,
                            std::vector<ClkFieldConfig> fields) {
  BloomFilterParams params;
  params.num_bits = 1000;
  params.scheme = scheme;
  params.secret_key = key;
  const ClkEncoder encoder(params, std::move(fields));
  const Schema schema = GoldenSchema();
  std::string bytes;
  for (const Record& record : GoldenRecords()) {
    auto clk = encoder.Encode(schema, record);
    EXPECT_TRUE(clk.ok()) << clk.status().ToString();
    if (!clk.ok()) return "";
    const std::vector<uint8_t> row = BitVectorToBytes(clk.value());
    bytes.append(reinterpret_cast<const char*>(row.data()), row.size());
  }
  return DigestToHex(Sha256(bytes));
}

constexpr char kKey13[] = "shared-secret";
const std::string kKey64(64, '\x5a');
constexpr char kKey100[] =
    "a hundred-byte secret key, longer than one SHA-256 block, so HMAC "
    "hashes it down to 32 bytes first..";
static_assert(sizeof(kKey13) - 1 == 13 && sizeof(kKey100) - 1 == 100);

// Every golden test runs under each SHA-256 clone the CPU supports, with
// the encoders (and so their keys) built inside the clone's scope.

TEST(ClkGoldenTest, DoubleHashingDefaultFields) {
  for (const Sha256Clone clone : SupportedSha256Clones()) {
    const ScopedSha256Clone scope(clone);
    EXPECT_EQ(GoldenClkDigest(BloomHashScheme::kDoubleHashing, "",
                              PprlPipeline::DefaultFieldConfigs()),
              "6d176ec6f60411d9da6f9f35f1be592867f0fa6c2325bf54ce244aedad199077")
        << CloneLabel(clone);
  }
}

TEST(ClkGoldenTest, DoubleHashingExtendedFields) {
  for (const Sha256Clone clone : SupportedSha256Clones()) {
    const ScopedSha256Clone scope(clone);
    EXPECT_EQ(GoldenClkDigest(BloomHashScheme::kDoubleHashing, "", ExtendedFieldConfigs()),
              "9cf879233ae168bf45d5dfa5fb78061a4baac23be41901b7432c625af706a5c2")
        << CloneLabel(clone);
  }
}

TEST(ClkGoldenTest, KeyedDefaultFields) {
  for (const Sha256Clone clone : SupportedSha256Clones()) {
    const ScopedSha256Clone scope(clone);
    SCOPED_TRACE(CloneLabel(clone));
    EXPECT_EQ(GoldenClkDigest(BloomHashScheme::kKeyedHmac, kKey13,
                              PprlPipeline::DefaultFieldConfigs()),
              "75d14d4ad847f107d1d2daa8d355b5bcb0e659abb8d1fb659ff48884342d33f9");
    EXPECT_EQ(GoldenClkDigest(BloomHashScheme::kKeyedHmac, kKey64,
                              PprlPipeline::DefaultFieldConfigs()),
              "f5f5996aa41188c4409dbed2cb8487630ebfdcea2ffbf225d1a357e7c78104e3");
    EXPECT_EQ(GoldenClkDigest(BloomHashScheme::kKeyedHmac, kKey100,
                              PprlPipeline::DefaultFieldConfigs()),
              "b5340d07626c623ea4117505ce22c959608fa8a474e2e710320218dc343a3b15");
  }
}

TEST(ClkGoldenTest, KeyedExtendedFields) {
  for (const Sha256Clone clone : SupportedSha256Clones()) {
    const ScopedSha256Clone scope(clone);
    SCOPED_TRACE(CloneLabel(clone));
    EXPECT_EQ(GoldenClkDigest(BloomHashScheme::kKeyedHmac, kKey13, ExtendedFieldConfigs()),
              "11cf961a0e1a1c032269c4c97eb573020e16bad127332829e0d5fb8c9cfb7efc");
    EXPECT_EQ(GoldenClkDigest(BloomHashScheme::kKeyedHmac, kKey64, ExtendedFieldConfigs()),
              "ec0327270e9625f8b3996b0398d202de10e91e1328c88036cb403e9d041e4088");
    EXPECT_EQ(GoldenClkDigest(BloomHashScheme::kKeyedHmac, kKey100, ExtendedFieldConfigs()),
              "9c1436b69a914fd15c88f5dec3d5ae71be024831f39c979ef333274fdd12b03c");
  }
}

/// The attack module reads positions through TokenPositions; pin them too.
TEST(ClkGoldenTest, TokenPositions) {
  for (const Sha256Clone clone : SupportedSha256Clones()) {
    const ScopedSha256Clone scope(clone);
    std::string listing;
    for (BloomHashScheme scheme :
         {BloomHashScheme::kDoubleHashing, BloomHashScheme::kKeyedHmac}) {
      BloomFilterParams params;
      params.num_bits = 1000;
      params.num_hashes = 30;
      params.scheme = scheme;
      params.secret_key = kKey13;
      const BloomFilterEncoder encoder(params);
      for (const std::string& token :
           {std::string(), std::string("ab"), std::string("first_name\x1e_m"),
            std::string(kName60) + "\x1e" + "xy"}) {
        for (uint32_t pos : encoder.TokenPositions(token)) {
          listing += std::to_string(pos) + ",";
        }
        listing += ";";
      }
    }
    EXPECT_EQ(DigestToHex(Sha256(listing)),
              "06fe54327b90b04fbaf7b94d91cd57539314c7f9db5f7d7b5dfc47a1d06ca575")
        << CloneLabel(clone);
  }
}

class BloomLengthSweep : public ::testing::TestWithParam<size_t> {};

/// Property: longer filters reduce collision bias, so encoded Dice converges
/// to raw q-gram Dice from above as l grows.
TEST_P(BloomLengthSweep, CollisionBiasShrinksWithLength) {
  BloomFilterParams params;
  params.num_bits = GetParam();
  params.num_hashes = 10;
  const BloomFilterEncoder encoder(params);
  const double raw = QGramDiceSimilarity("katherine", "catherine");
  const double encoded = DiceSimilarity(encoder.EncodeString("katherine"),
                                        encoder.EncodeString("catherine"));
  const double bias = std::abs(encoded - raw);
  // At l = 4000 the bias must be tiny; at 250 it may be sizable.
  if (GetParam() >= 4000) {
    EXPECT_LT(bias, 0.05);
  } else {
    EXPECT_LT(bias, 0.4);
  }
}

INSTANTIATE_TEST_SUITE_P(Lengths, BloomLengthSweep,
                         ::testing::Values(250, 500, 1000, 2000, 4000));

}  // namespace
}  // namespace pprl
