#ifndef PPRL_PIPELINE_PIPELINE_H_
#define PPRL_PIPELINE_PIPELINE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/record.h"
#include "common/status.h"
#include "encoding/bloom_filter.h"
#include "linkage/comparison.h"
#include "pipeline/channel.h"

namespace pprl {

/// Which parties participate and who performs the matching — the linkage-
/// model dimension of the survey's taxonomy (§3.1).
enum class LinkageModel {
  /// Both database owners send encodings to one trusted linkage unit.
  kTwoPartyLinkageUnit,
  /// No linkage unit: owner B sends its encodings to owner A, who matches.
  /// Cheaper but reveals B's encodings to a database owner.
  kTwoPartyDirect,
  /// Separation of duties across two linkage units: LU-1 sees only blocking
  /// keys and plans candidates; LU-2 sees only the encodings of candidate
  /// records. Reduces what any single party learns.
  kDualLinkageUnit,
};

/// Hardening applied to every record encoding before it leaves its owner.
enum class HardeningScheme { kNone, kBalance, kXorFold, kRule90, kBlip };

/// Blocking technique used by the pipeline.
enum class BlockingScheme {
  kNone,        ///< all |A| x |B| pairs
  kSoundex,     ///< keyed phonetic blocking on names
  kHammingLsh,  ///< LSH over the Bloom filters
};

/// End-to-end pipeline configuration. The defaults are a reasonable CLK
/// setup for the standard generator schema.
struct PipelineConfig {
  // --- encoding -----------------------------------------------------------
  BloomFilterParams bloom;                  ///< filter length + hash scheme
  std::vector<ClkFieldConfig> fields;       ///< empty -> DefaultFieldConfigs()
  HardeningScheme hardening = HardeningScheme::kNone;
  double blip_flip_prob = 0.05;             ///< for kBlip
  uint64_t hardening_key = 0x5eedULL;       ///< for kBalance permutation

  // --- blocking ------------------------------------------------------------
  BlockingScheme blocking = BlockingScheme::kHammingLsh;
  size_t lsh_tables = 20;
  size_t lsh_bits_per_key = 18;

  // --- matching ------------------------------------------------------------
  double match_threshold = 0.8;             ///< Dice threshold for a match
  bool one_to_one = true;                   ///< de-duplicated databases

  // --- execution ------------------------------------------------------------
  /// Threads for the band-index builds and the candidate-range compare
  /// tasks (linkage/parallel_linkage.h). 0 or 1 runs every task inline on
  /// the calling thread; >1 runs them on one shard pool for the call.
  /// Matches are identical at any thread count.
  size_t num_threads = 1;

  // --- protocol ------------------------------------------------------------
  LinkageModel model = LinkageModel::kTwoPartyLinkageUnit;
  std::string secret_key = "shared-secret"; ///< HMAC key shared by the DOs
  uint64_t seed = 42;
};

/// Everything a pipeline run reports. Matches refer to record indices of the
/// two input databases.
struct LinkageOutput {
  std::vector<ScoredPair> matches;
  size_t candidate_pairs = 0;
  size_t comparisons = 0;
  /// Of `comparisons`, pairs the Dice cardinality bound rejected without
  /// running the word loop.
  size_t pruned_comparisons = 0;
  size_t messages = 0;
  size_t bytes = 0;
  double encode_seconds = 0;
  double block_seconds = 0;
  double compare_seconds = 0;
};

/// The end-to-end PPRL pipeline of the survey's overview section:
/// pre-process -> encode -> block -> compare -> classify, wired through the
/// metered `Channel` according to the configured linkage model.
class PprlPipeline {
 public:
  explicit PprlPipeline(PipelineConfig config);

  /// Per-field CLK configuration for DataGenerator::StandardSchema().
  static std::vector<ClkFieldConfig> DefaultFieldConfigs();

  /// Links two databases end to end.
  Result<LinkageOutput> Link(const Database& a, const Database& b) const;

  const PipelineConfig& config() const { return config_; }

  /// Calibrates the match threshold without ground truth (§5.2): runs one
  /// pass at the loose `floor` threshold, fits a two-component mixture to
  /// the candidate scores (eval/quality_estimation.h) and returns the
  /// F1-optimal threshold the fitted model suggests. Use the result as
  /// `config.match_threshold` for the production run.
  static Result<double> CalibrateThreshold(const PipelineConfig& config,
                                           const Database& a, const Database& b,
                                           double floor = 0.5);

 private:
  /// A database owner's local work: CLK encoding plus hardening.
  Result<std::vector<BitVector>> EncodeDatabase(const Database& db,
                                                uint64_t party_seed) const;

  PipelineConfig config_;
};

}  // namespace pprl

#endif  // PPRL_PIPELINE_PIPELINE_H_
