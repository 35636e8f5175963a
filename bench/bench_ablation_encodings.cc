/// Ablation: record-level encoding choices. DESIGN.md calls out the CLK's
/// implicit field weighting (per-field hash counts) and the RBF's explicit
/// bit sampling [12] as the key design alternatives; this bench measures
/// what each buys on the same workload, plus the cost of the keyed hash
/// scheme that E7 shows is necessary against dictionary attacks.

#include "bench/bench_util.h"
#include "common/timer.h"
#include "encoding/bloom_filter.h"
#include "encoding/rbf.h"
#include "eval/metrics.h"
#include "linkage/classifier.h"
#include "linkage/comparison.h"
#include "linkage/matching.h"
#include "pipeline/pipeline.h"
#include "similarity/similarity.h"

using namespace pprl;
using namespace pprl::bench;

namespace {

double LinkF1(const std::vector<BitVector>& fa, const std::vector<BitVector>& fb,
              const GroundTruth& truth, double threshold) {
  const ComparisonEngine engine(SimilarityMeasure::kDice);
  auto scored = engine.Compare(fa, fb, FullPairs(fa.size(), fb.size()), threshold);
  auto matches = GreedyOneToOne(ThresholdClassifier(threshold, threshold).SelectMatches(scored));
  return EvaluateMatches(matches, truth).F1();
}

std::vector<RbfFieldConfig> RbfFields(bool weighted) {
  std::vector<RbfFieldConfig> fields;
  for (const char* name : {"first_name", "last_name", "dob", "city"}) {
    RbfFieldConfig field;
    field.field_name = name;
    field.weight = 1.0;
    fields.push_back(field);
  }
  if (weighted) {
    // Names and DOB discriminate more than city.
    fields[0].weight = 2.0;
    fields[1].weight = 2.0;
    fields[2].weight = 2.0;
    fields[3].weight = 0.5;
  }
  return fields;
}

}  // namespace

int main() {
  const size_t n = 400;
  std::printf("# Ablation: record-level encodings (n=%zu per db)\n\n", n);
  std::printf("## (a) linkage quality by encoding and corruption\n\n");
  PrintHeader({"corruption", "CLK weighted", "CLK flat", "RBF weighted", "RBF flat"});
  for (double corruption : {0.5, 1.5, 2.5}) {
    auto [a, b] = TwoDatabases(n, corruption);
    const GroundTruth truth(a, b);
    PipelineConfig config;

    // CLK with the default per-field hash weighting.
    const ClkEncoder clk_weighted(config.bloom, PprlPipeline::DefaultFieldConfigs());
    // CLK with equal hash counts (no weighting).
    auto flat_fields = PprlPipeline::DefaultFieldConfigs();
    for (auto& field : flat_fields) field.num_hashes = 18;
    const ClkEncoder clk_flat(config.bloom, flat_fields);

    auto rbf_weighted = RbfEncoder::Create(RbfParams{}, RbfFields(true));
    auto rbf_flat = RbfEncoder::Create(RbfParams{}, RbfFields(false));

    const double f1_clk_w = LinkF1(clk_weighted.EncodeDatabase(a).value(),
                                   clk_weighted.EncodeDatabase(b).value(), truth, 0.78);
    const double f1_clk_f = LinkF1(clk_flat.EncodeDatabase(a).value(),
                                   clk_flat.EncodeDatabase(b).value(), truth, 0.78);
    const double f1_rbf_w = LinkF1(rbf_weighted->EncodeDatabase(a).value(),
                                   rbf_weighted->EncodeDatabase(b).value(), truth, 0.70);
    const double f1_rbf_f = LinkF1(rbf_flat->EncodeDatabase(a).value(),
                                   rbf_flat->EncodeDatabase(b).value(), truth, 0.70);
    PrintRow({Fmt(corruption, 1), Fmt(f1_clk_w), Fmt(f1_clk_f), Fmt(f1_rbf_w),
              Fmt(f1_rbf_f)});
  }
  std::printf(
      "\nExpected shape: weighting helps both encodings (city noise gets\n"
      "less influence); RBF's explicit sampling tracks the CLK within a\n"
      "few points while giving exact weight control [12].\n\n");

  std::printf("## (b) encoding throughput: unkeyed vs keyed hashing\n\n");
  PrintHeader({"scheme", "records/second"});
  auto [a, b] = TwoDatabases(500, 1.0);
  {
    PipelineConfig config;
    const ClkEncoder encoder(config.bloom, PprlPipeline::DefaultFieldConfigs());
    Timer timer;
    (void)encoder.EncodeDatabase(a);
    PrintRow({"CLK double-hash", Fmt(500.0 / timer.ElapsedSeconds(), 0)});
  }
  {
    PipelineConfig config;
    config.bloom.scheme = BloomHashScheme::kKeyedHmac;
    config.bloom.secret_key = "key";
    const ClkEncoder encoder(config.bloom, PprlPipeline::DefaultFieldConfigs());
    Timer timer;
    (void)encoder.EncodeDatabase(a);
    PrintRow({"CLK keyed HMAC", Fmt(500.0 / timer.ElapsedSeconds(), 0)});
  }
  std::printf(
      "\nExpected shape: the keyed scheme costs one HMAC per (token, hash)\n"
      "pair, two SHA-256 compressions — about 3x slower on a CPU with the\n"
      "SHA extensions and an order of magnitude without them, the price of\n"
      "dictionary-attack immunity (E7). Encoding runs once per record, so\n"
      "this is usually acceptable.\n");
  return 0;
}
