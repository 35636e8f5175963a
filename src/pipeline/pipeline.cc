#include "pipeline/pipeline.h"

#include <deque>
#include <optional>
#include <utility>

#include "blocking/blocking.h"
#include "blocking/lsh_index.h"
#include "eval/quality_estimation.h"
#include "encoding/hardening.h"
#include "common/thread_pool.h"
#include "linkage/classifier.h"
#include "linkage/matching.h"
#include "linkage/parallel_linkage.h"
#include "obs/metrics.h"
#include "obs/stage_timer.h"
#include "similarity/similarity.h"

namespace pprl {

PprlPipeline::PprlPipeline(PipelineConfig config) : config_(std::move(config)) {
  if (config_.fields.empty()) config_.fields = DefaultFieldConfigs();
}

std::vector<ClkFieldConfig> PprlPipeline::DefaultFieldConfigs() {
  // Hash-count weighting roughly by discriminating power: names highest,
  // then date of birth, then location fields.
  std::vector<ClkFieldConfig> fields;
  ClkFieldConfig first;
  first.field_name = "first_name";
  first.num_hashes = 20;
  fields.push_back(first);
  ClkFieldConfig last;
  last.field_name = "last_name";
  last.num_hashes = 20;
  fields.push_back(last);
  ClkFieldConfig dob;
  dob.field_name = "dob";
  dob.num_hashes = 20;
  dob.q = 2;
  fields.push_back(dob);
  ClkFieldConfig city;
  city.field_name = "city";
  city.num_hashes = 10;
  fields.push_back(city);
  return fields;
}

Result<double> PprlPipeline::CalibrateThreshold(const PipelineConfig& config,
                                                const Database& a, const Database& b,
                                                double floor) {
  PipelineConfig probe = config;
  probe.match_threshold = floor;
  probe.one_to_one = false;  // the mixture needs the raw score sample
  auto output = PprlPipeline(probe).Link(a, b);
  if (!output.ok()) return output.status();
  auto model = FitScoreMixture(output->matches);
  if (!model.ok()) return model.status();
  return model->SuggestThreshold();
}

Result<std::vector<BitVector>> PprlPipeline::EncodeDatabase(const Database& db,
                                                            uint64_t party_seed) const {
  const ClkEncoder encoder(config_.bloom, config_.fields);
  auto encoded = encoder.EncodeDatabase(db);
  if (!encoded.ok()) return encoded.status();
  std::vector<BitVector> filters = std::move(encoded).value();

  // Hardening must be identical across parties, so keys/flip decisions are
  // derived from the shared configuration (BLIP noise is per record but its
  // rng must differ per record, not per party run, so seed on record index).
  switch (config_.hardening) {
    case HardeningScheme::kNone:
      break;
    case HardeningScheme::kBalance:
      for (BitVector& f : filters) f = Balance(f, config_.hardening_key);
      break;
    case HardeningScheme::kXorFold:
      for (BitVector& f : filters) f = XorFold(f);
      break;
    case HardeningScheme::kRule90:
      for (BitVector& f : filters) f = Rule90(f);
      break;
    case HardeningScheme::kBlip: {
      for (size_t i = 0; i < filters.size(); ++i) {
        Rng rng(party_seed ^ (i * 0x9e3779b97f4a7c15ull));
        filters[i] = Blip(filters[i], config_.blip_flip_prob, rng);
      }
      break;
    }
  }
  return filters;
}

Result<LinkageOutput> PprlPipeline::Link(const Database& a, const Database& b) const {
  PPRL_RETURN_IF_ERROR(config_.bloom.Validate());
  if (config_.blocking == BlockingScheme::kHammingLsh) {
    PPRL_RETURN_IF_ERROR(
        ValidateLshGeometry(config_.lsh_tables, config_.lsh_bits_per_key));
  }
  LinkageOutput out;
  Channel channel;
  obs::GlobalMetrics()
      .GetCounter("pprl_pipeline_runs_total", "End-to-end PprlPipeline::Link runs")
      .Increment();

  // --- Each database owner encodes locally. -------------------------------
  obs::StageTimer encode_span("encode");
  auto a_encoded = EncodeDatabase(a, config_.seed ^ 0xA);
  if (!a_encoded.ok()) return a_encoded.status();
  auto b_encoded = EncodeDatabase(b, config_.seed ^ 0xB);
  if (!b_encoded.ok()) return b_encoded.status();
  const std::vector<BitVector>& fa = a_encoded.value();
  const std::vector<BitVector>& fb = b_encoded.value();
  out.encode_seconds = encode_span.Stop();

  const size_t filter_bytes = fa.empty() ? 0 : PackedRowBytes(fa[0].size());
  const std::string matcher =
      config_.model == LinkageModel::kTwoPartyDirect ? "party-a" : "lu-match";

  // --- Ship encodings according to the linkage model. ----------------------
  switch (config_.model) {
    case LinkageModel::kTwoPartyLinkageUnit:
    case LinkageModel::kDualLinkageUnit:
      channel.Send("party-a", matcher, fa.size() * filter_bytes, "encoded-filters");
      channel.Send("party-b", matcher, fb.size() * filter_bytes, "encoded-filters");
      break;
    case LinkageModel::kTwoPartyDirect:
      channel.Send("party-b", matcher, fb.size() * filter_bytes, "encoded-filters");
      break;
  }

  // --- Blocking and comparison at the matcher. -----------------------------
  // One definition at every thread count, the linkage unit's: `block` is
  // the key or band-index build, `compare` the candidate walks plus the
  // Dice kernels. The walk and the kernels run as CompareRanges'
  // candidate-range tasks, inline at one thread, else on the pool that
  // also builds the band indexes; matches are the same either way.
  std::optional<ShardScheduler> owned;
  ShardScheduler* scheduler = CallPool(nullptr, config_.num_threads, owned);
  obs::StageTimer block_span("block");
  BlockIndex index_a;
  BlockIndex index_b;
  // Hamming-LSH only: the two band indexes, whose row matrices the compare
  // kernels read directly.
  std::deque<LshBandIndex> lsh;
  switch (config_.blocking) {
    case BlockingScheme::kNone:
      break;
    case BlockingScheme::kSoundex: {
      const StandardBlocker blocker(SoundexNameKey(config_.secret_key));
      index_a = blocker.BuildIndex(a);
      index_b = blocker.BuildIndex(b);
      // In the dual-LU model the blocking keys go to a separate LU that
      // never sees the encodings.
      if (config_.model == LinkageModel::kDualLinkageUnit) {
        channel.Send("party-a", "lu-block", a.records.size() * 16, "blocking-keys");
        channel.Send("party-b", "lu-block", b.records.size() * 16, "blocking-keys");
      }
      break;
    }
    case BlockingScheme::kHammingLsh: {
      const size_t filter_bits = !fa.empty()   ? fa[0].size()
                                 : !fb.empty() ? fb[0].size()
                                               : config_.bloom.num_bits;
      if (config_.model == LinkageModel::kDualLinkageUnit) {
        const size_t key_bytes = (config_.lsh_bits_per_key + 7) / 8 + 2;
        channel.Send("party-a", "lu-block", a.records.size() * config_.lsh_tables * key_bytes,
                     "lsh-keys");
        channel.Send("party-b", "lu-block", b.records.size() * config_.lsh_tables * key_bytes,
                     "lsh-keys");
      }
      lsh = BuildBandIndexes({&fa, &fb}, filter_bits, config_.lsh_tables,
                             config_.lsh_bits_per_key, config_.seed, scheduler);
      break;
    }
  }
  out.block_seconds = block_span.Stop();

  // The devirtualized Dice kernel over contiguous bit-matrix storage;
  // scores are bitwise identical to DiceSimilarity(), and pairs whose
  // cardinality bound already falls below the threshold skip the word loop.
  // The LSH indexes already hold the packed rows; other schemes pack here.
  obs::StageTimer compare_span("compare");
  BitMatrix packed_a, packed_b;
  std::vector<CandidatePair> blocked;
  const BlockPartitioner whole(1);
  CandidateSource source;
  if (lsh.empty()) {
    packed_a = BitMatrix::FromVectors(fa);
    packed_b = BitMatrix::FromVectors(fb);
    if (config_.blocking == BlockingScheme::kSoundex) {
      blocked = StandardBlocker::CandidatePairs(index_a, index_b);
      source = CandidateSource::Listed(packed_a, packed_b, blocked);
    } else {
      source = CandidateSource::AllPairs(packed_a, packed_b);
    }
  } else {
    source = CandidateSource::LshBands(lsh[0], lsh[1], whole, 0);
  }
  const DiceCutoffs cutoffs(config_.match_threshold, source.a->num_bits());
  SourceHits scored = std::move(CompareRanges(cutoffs, {source}, 1, scheduler)[0]);
  out.comparisons = scored.comparisons;
  out.pruned_comparisons = scored.pruned;
  out.candidate_pairs = scored.comparisons;
  if (config_.model == LinkageModel::kDualLinkageUnit) {
    channel.Send("lu-block", matcher, out.candidate_pairs * 8, "candidate-pairs");
  }
  obs::GlobalMetrics()
      .GetCounter("pprl_pipeline_candidate_pairs_total",
                  "Candidate pairs produced by the blocking stage")
      .Increment(out.candidate_pairs);
  const double compare_seconds = compare_span.Stop();

  obs::StageTimer classify_span("classify");
  const ThresholdClassifier classifier(config_.match_threshold, config_.match_threshold);
  std::vector<ScoredPair> matches = classifier.SelectMatches(scored.hits);
  if (config_.one_to_one) matches = GreedyOneToOne(std::move(matches));
  // compare_seconds keeps its historical meaning: comparison + classification.
  out.compare_seconds = compare_seconds + classify_span.Stop();
  obs::GlobalMetrics()
      .GetCounter("pprl_pipeline_matches_total",
                  "Matches emitted by the classification stage")
      .Increment(matches.size());

  // Matcher announces the linked pair ids back to the owners.
  channel.Send(matcher, "party-a", matches.size() * 8, "match-ids");
  channel.Send(matcher, "party-b", matches.size() * 8, "match-ids");

  out.matches = std::move(matches);
  out.messages = channel.total_messages();
  out.bytes = channel.total_bytes();
  return out;
}

}  // namespace pprl
