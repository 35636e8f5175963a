#include "encoding/rbf.h"

#include <gtest/gtest.h>

#include "crypto/hash.h"
#include "datagen/generator.h"
#include "encoding/clk_io.h"
#include "similarity/similarity.h"

namespace pprl {
namespace {

std::vector<RbfFieldConfig> TwoFields(double first_weight, double last_weight) {
  RbfFieldConfig first;
  first.field_name = "first_name";
  first.weight = first_weight;
  RbfFieldConfig last;
  last.field_name = "last_name";
  last.weight = last_weight;
  return {first, last};
}

Record MakeRecord(const std::string& first, const std::string& last) {
  Record r;
  r.values = {first, last, "f", "1980-01-01", "springfield", "1 main st", "2000",
              "0400000000"};
  return r;
}

TEST(RbfEncoderTest, CreateValidatesInput) {
  RbfParams params;
  EXPECT_FALSE(RbfEncoder::Create(params, {}).ok());
  EXPECT_FALSE(RbfEncoder::Create(params, TwoFields(0.0, 1.0)).ok());
  RbfParams zero_len;
  zero_len.output_bits = 0;
  EXPECT_FALSE(RbfEncoder::Create(zero_len, TwoFields(1, 1)).ok());
  RbfParams keyed;
  keyed.scheme = BloomHashScheme::kKeyedHmac;
  EXPECT_FALSE(RbfEncoder::Create(keyed, TwoFields(1, 1)).ok());
  EXPECT_TRUE(RbfEncoder::Create(params, TwoFields(1, 1)).ok());
}

TEST(RbfEncoderTest, WeightsControlSampling) {
  RbfParams params;
  params.output_bits = 10000;
  auto encoder = RbfEncoder::Create(params, TwoFields(3.0, 1.0));
  ASSERT_TRUE(encoder.ok());
  const double from_first = static_cast<double>(encoder->BitsSampledFrom(0));
  const double from_last = static_cast<double>(encoder->BitsSampledFrom(1));
  EXPECT_EQ(from_first + from_last, 10000);
  EXPECT_NEAR(from_first / 10000, 0.75, 0.02);
}

TEST(RbfEncoderTest, DeterministicPerSeed) {
  const Schema schema = DataGenerator::StandardSchema();
  RbfParams params;
  auto e1 = RbfEncoder::Create(params, TwoFields(1, 1));
  auto e2 = RbfEncoder::Create(params, TwoFields(1, 1));
  params.sampling_seed = 99;
  auto e3 = RbfEncoder::Create(params, TwoFields(1, 1));
  ASSERT_TRUE(e1.ok() && e2.ok() && e3.ok());
  const Record r = MakeRecord("mary", "smith");
  EXPECT_EQ(e1->Encode(schema, r).value(), e2->Encode(schema, r).value());
  EXPECT_NE(e1->Encode(schema, r).value(), e3->Encode(schema, r).value());
}

TEST(RbfEncoderTest, SimilarRecordsScoreHigher) {
  const Schema schema = DataGenerator::StandardSchema();
  RbfParams params;
  auto encoder = RbfEncoder::Create(params, TwoFields(1, 1));
  ASSERT_TRUE(encoder.ok());
  const BitVector smith = encoder->Encode(schema, MakeRecord("mary", "smith")).value();
  const BitVector smyth = encoder->Encode(schema, MakeRecord("mary", "smyth")).value();
  const BitVector other = encoder->Encode(schema, MakeRecord("john", "nguyen")).value();
  EXPECT_GT(DiceSimilarity(smith, smyth), DiceSimilarity(smith, other));
  EXPECT_DOUBLE_EQ(DiceSimilarity(smith, smith), 1.0);
}

TEST(RbfEncoderTest, WeightingShiftsFieldInfluence) {
  // With nearly all weight on last_name, a first-name mismatch barely
  // moves the similarity; with the weight on first_name it dominates.
  const Schema schema = DataGenerator::StandardSchema();
  RbfParams params;
  auto last_heavy = RbfEncoder::Create(params, TwoFields(0.05, 0.95));
  auto first_heavy = RbfEncoder::Create(params, TwoFields(0.95, 0.05));
  ASSERT_TRUE(last_heavy.ok() && first_heavy.ok());
  const Record base = MakeRecord("mary", "smith");
  const Record diff_first = MakeRecord("john", "smith");
  const double sim_last_heavy =
      DiceSimilarity(last_heavy->Encode(schema, base).value(),
                     last_heavy->Encode(schema, diff_first).value());
  const double sim_first_heavy =
      DiceSimilarity(first_heavy->Encode(schema, base).value(),
                     first_heavy->Encode(schema, diff_first).value());
  EXPECT_GT(sim_last_heavy, 0.85);
  EXPECT_LT(sim_first_heavy, 0.4);
}

TEST(RbfEncoderTest, UnknownFieldFails) {
  RbfParams params;
  RbfFieldConfig bogus;
  bogus.field_name = "nope";
  auto encoder = RbfEncoder::Create(params, {bogus});
  ASSERT_TRUE(encoder.ok());
  const Schema schema = DataGenerator::StandardSchema();
  EXPECT_FALSE(encoder->Encode(schema, MakeRecord("a", "b")).ok());
}

TEST(RbfEncoderTest, EncodeDatabase) {
  DataGenerator gen(GeneratorConfig{});
  const Database db = gen.GenerateClean(10);
  RbfParams params;
  auto encoder = RbfEncoder::Create(params, TwoFields(1, 1));
  ASSERT_TRUE(encoder.ok());
  auto filters = encoder->EncodeDatabase(db);
  ASSERT_TRUE(filters.ok());
  EXPECT_EQ(filters->size(), 10u);
  for (const auto& f : *filters) EXPECT_EQ(f.size(), params.output_bits);
}

/// Golden RBF bytes for both hash schemes: SHA-256 of the concatenated
/// BitVectorToBytes of literal records, captured once and never changed, so
/// filters written by earlier builds keep linking.
std::string GoldenRbfDigest(BloomHashScheme scheme) {
  RbfParams params;
  params.scheme = scheme;
  params.secret_key = "shared-secret";
  std::vector<RbfFieldConfig> fields = TwoFields(2, 1);
  RbfFieldConfig city;
  city.field_name = "city";
  city.field_bits = 300;
  city.num_hashes = 10;
  city.q = 3;
  fields.push_back(city);
  auto encoder = RbfEncoder::Create(params, fields);
  EXPECT_TRUE(encoder.ok());
  if (!encoder.ok()) return "";
  const Schema schema = DataGenerator::StandardSchema();
  std::string bytes;
  for (const auto& [first, last] :
       std::vector<std::pair<std::string, std::string>>{
           {"mary", "smith"}, {"JOHN", "o'brien"}, {"", ""}, {"zo\xc3\xab", "nguyen"}}) {
    const std::vector<uint8_t> row =
        BitVectorToBytes(encoder->Encode(schema, MakeRecord(first, last)).value());
    bytes.append(reinterpret_cast<const char*>(row.data()), row.size());
  }
  return DigestToHex(Sha256(bytes));
}

/// Under every SHA-256 clone the CPU supports, with the encoder and its
/// key built inside the clone's scope.
TEST(RbfEncoderTest, GoldenBytes) {
  for (const Sha256Clone clone : SupportedSha256Clones()) {
    const ScopedSha256Clone scope(clone);
    SCOPED_TRACE(clone == Sha256Clone::kShaNi ? "sha-ni" : "portable");
    EXPECT_EQ(GoldenRbfDigest(BloomHashScheme::kDoubleHashing),
              "b7e7fa09563d25e00bfc412ad401b700151b7ea95d52c3460bac1a520e2958d7");
    EXPECT_EQ(GoldenRbfDigest(BloomHashScheme::kKeyedHmac),
              "8f88a7b565a1332be37759277619d88cdb1ddff2965cd141928392731ecfc3e8");
  }
}

}  // namespace
}  // namespace pprl
