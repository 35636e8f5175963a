#ifndef PPRL_LINKAGE_CLASSIFIER_H_
#define PPRL_LINKAGE_CLASSIFIER_H_

#include <cstddef>
#include <vector>

#include "common/status.h"
#include "linkage/comparison.h"

namespace pprl {

/// Match decision for one compared pair.
enum class MatchDecision { kNonMatch = 0, kPossibleMatch = 1, kMatch = 2 };

/// Simple threshold classification (survey §3.4 "Classification"): a pair is
/// a match when its score reaches `upper`, a possible match between `lower`
/// and `upper` (for the manual-review step of non-PPRL pipelines), and a
/// non-match below `lower`. Setting lower == upper removes the review band.
class ThresholdClassifier {
 public:
  ThresholdClassifier(double lower, double upper);

  MatchDecision Classify(double score) const;

  /// Convenience: keeps the pairs classified kMatch.
  std::vector<ScoredPair> SelectMatches(const std::vector<ScoredPair>& scored) const;

 private:
  double lower_;
  double upper_;
};

/// One conjunctive rule over per-field similarities: the rule fires when
/// every listed field reaches its minimum similarity.
struct MatchRule {
  /// (field index, minimum similarity) conjuncts.
  std::vector<std::pair<size_t, double>> conditions;
};

/// Rule-based classification: a pair matches when any rule fires (a
/// disjunction of conjunctions, the form domain experts write).
class RuleBasedClassifier {
 public:
  explicit RuleBasedClassifier(std::vector<MatchRule> rules);

  bool Matches(const std::vector<double>& field_scores) const;

  std::vector<FieldwiseScoredPair> SelectMatches(
      const std::vector<FieldwiseScoredPair>& pairs) const;

 private:
  std::vector<MatchRule> rules_;
};

/// Fellegi-Sunter probabilistic linkage with EM-estimated m/u parameters.
///
/// Per-field similarities are binarised at `agreement_threshold`; the EM
/// algorithm estimates, without any labels, the probability m_f of field f
/// agreeing among true matches and u_f among non-matches, plus the match
/// prevalence. Pairs are then scored by the classic log2(m/u) agreement
/// weights, giving the unsupervised probabilistic classifier the survey
/// lists between threshold and ML classification.
class FellegiSunterClassifier {
 public:
  struct Params {
    double agreement_threshold = 0.8;  ///< binarisation of field similarities
    size_t em_iterations = 50;
    double initial_m = 0.9;
    double initial_u = 0.1;
    double initial_prevalence = 0.05;
  };

  FellegiSunterClassifier();
  explicit FellegiSunterClassifier(Params params);

  /// Runs EM on the (unlabelled) compared pairs. Needs at least one pair and
  /// one field.
  Status Fit(const std::vector<FieldwiseScoredPair>& pairs);

  /// Total match weight (sum of per-field log2(m/u) or log2((1-m)/(1-u))).
  double Weight(const std::vector<double>& field_scores) const;

  /// Posterior match probability for a pair given the fitted model.
  double MatchProbability(const std::vector<double>& field_scores) const;

  /// Pairs whose weight reaches `weight_threshold`.
  std::vector<FieldwiseScoredPair> SelectMatches(
      const std::vector<FieldwiseScoredPair>& pairs, double weight_threshold) const;

  const std::vector<double>& m() const { return m_; }
  const std::vector<double>& u() const { return u_; }
  double prevalence() const { return prevalence_; }

 private:
  std::vector<bool> Agreements(const std::vector<double>& field_scores) const;

  Params params_;
  std::vector<double> m_;
  std::vector<double> u_;
  double prevalence_ = 0.05;
  bool fitted_ = false;
};

/// A tiny supervised baseline: online logistic regression over per-field
/// similarities. Stands in for the "machine learning classifiers need
/// ground-truth labels" branch of the survey's discussion.
class LogisticClassifier {
 public:
  struct Params {
    double learning_rate = 0.1;
    size_t epochs = 200;
    double l2 = 1e-4;
  };

  LogisticClassifier();
  explicit LogisticClassifier(Params params);

  /// Trains on labelled similarity vectors. Sizes must agree and be nonzero.
  Status Fit(const std::vector<std::vector<double>>& features,
             const std::vector<int>& labels);

  /// P(match | field_scores).
  double Predict(const std::vector<double>& field_scores) const;

  const std::vector<double>& weights() const { return weights_; }
  double bias() const { return bias_; }

 private:
  Params params_;
  std::vector<double> weights_;
  double bias_ = 0;
};

}  // namespace pprl

#endif  // PPRL_LINKAGE_CLASSIFIER_H_
