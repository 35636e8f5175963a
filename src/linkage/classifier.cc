#include "linkage/classifier.h"

#include <algorithm>
#include <cmath>

namespace pprl {

ThresholdClassifier::ThresholdClassifier(double lower, double upper)
    : lower_(std::min(lower, upper)), upper_(std::max(lower, upper)) {}

MatchDecision ThresholdClassifier::Classify(double score) const {
  if (score >= upper_) return MatchDecision::kMatch;
  if (score >= lower_) return MatchDecision::kPossibleMatch;
  return MatchDecision::kNonMatch;
}

std::vector<ScoredPair> ThresholdClassifier::SelectMatches(
    const std::vector<ScoredPair>& scored) const {
  std::vector<ScoredPair> out;
  for (const ScoredPair& pair : scored) {
    if (Classify(pair.score) == MatchDecision::kMatch) out.push_back(pair);
  }
  return out;
}

RuleBasedClassifier::RuleBasedClassifier(std::vector<MatchRule> rules)
    : rules_(std::move(rules)) {}

bool RuleBasedClassifier::Matches(const std::vector<double>& field_scores) const {
  for (const MatchRule& rule : rules_) {
    bool fires = !rule.conditions.empty();
    for (const auto& [field, min_sim] : rule.conditions) {
      if (field >= field_scores.size() || field_scores[field] < min_sim) {
        fires = false;
        break;
      }
    }
    if (fires) return true;
  }
  return false;
}

std::vector<FieldwiseScoredPair> RuleBasedClassifier::SelectMatches(
    const std::vector<FieldwiseScoredPair>& pairs) const {
  std::vector<FieldwiseScoredPair> out;
  for (const FieldwiseScoredPair& pair : pairs) {
    if (Matches(pair.field_scores)) out.push_back(pair);
  }
  return out;
}

FellegiSunterClassifier::FellegiSunterClassifier()
    : FellegiSunterClassifier(Params()) {}

FellegiSunterClassifier::FellegiSunterClassifier(Params params) : params_(params) {}

std::vector<bool> FellegiSunterClassifier::Agreements(
    const std::vector<double>& field_scores) const {
  std::vector<bool> agree(field_scores.size());
  for (size_t f = 0; f < field_scores.size(); ++f) {
    agree[f] = field_scores[f] >= params_.agreement_threshold;
  }
  return agree;
}

Status FellegiSunterClassifier::Fit(const std::vector<FieldwiseScoredPair>& pairs) {
  if (pairs.empty()) return Status::InvalidArgument("EM needs at least one pair");
  const size_t num_fields = pairs[0].field_scores.size();
  if (num_fields == 0) return Status::InvalidArgument("EM needs at least one field");

  // Precompute agreement patterns.
  std::vector<std::vector<bool>> patterns;
  patterns.reserve(pairs.size());
  for (const auto& pair : pairs) {
    if (pair.field_scores.size() != num_fields) {
      return Status::InvalidArgument("inconsistent field count across pairs");
    }
    patterns.push_back(Agreements(pair.field_scores));
  }

  m_.assign(num_fields, params_.initial_m);
  u_.assign(num_fields, params_.initial_u);
  prevalence_ = params_.initial_prevalence;
  constexpr double kClamp = 1e-6;

  std::vector<double> responsibility(patterns.size());
  for (size_t iter = 0; iter < params_.em_iterations; ++iter) {
    // E-step: posterior probability each pair is a match.
    for (size_t i = 0; i < patterns.size(); ++i) {
      double log_match = std::log(prevalence_);
      double log_non = std::log(1.0 - prevalence_);
      for (size_t f = 0; f < num_fields; ++f) {
        if (patterns[i][f]) {
          log_match += std::log(m_[f]);
          log_non += std::log(u_[f]);
        } else {
          log_match += std::log(1.0 - m_[f]);
          log_non += std::log(1.0 - u_[f]);
        }
      }
      const double max_log = std::max(log_match, log_non);
      const double pm = std::exp(log_match - max_log);
      const double pn = std::exp(log_non - max_log);
      responsibility[i] = pm / (pm + pn);
    }
    // M-step.
    double total_resp = 0;
    for (double r : responsibility) total_resp += r;
    const double total_non = static_cast<double>(patterns.size()) - total_resp;
    prevalence_ = std::clamp(total_resp / static_cast<double>(patterns.size()),
                             kClamp, 1.0 - kClamp);
    for (size_t f = 0; f < num_fields; ++f) {
      double agree_match = 0, agree_non = 0;
      for (size_t i = 0; i < patterns.size(); ++i) {
        if (patterns[i][f]) {
          agree_match += responsibility[i];
          agree_non += 1.0 - responsibility[i];
        }
      }
      m_[f] = std::clamp(agree_match / std::max(total_resp, kClamp), kClamp,
                         1.0 - kClamp);
      u_[f] = std::clamp(agree_non / std::max(total_non, kClamp), kClamp,
                         1.0 - kClamp);
    }
  }
  fitted_ = true;
  return Status::OK();
}

double FellegiSunterClassifier::Weight(const std::vector<double>& field_scores) const {
  const std::vector<bool> agree = Agreements(field_scores);
  double weight = 0;
  for (size_t f = 0; f < agree.size() && f < m_.size(); ++f) {
    if (agree[f]) {
      weight += std::log2(m_[f] / u_[f]);
    } else {
      weight += std::log2((1.0 - m_[f]) / (1.0 - u_[f]));
    }
  }
  return weight;
}

double FellegiSunterClassifier::MatchProbability(
    const std::vector<double>& field_scores) const {
  const std::vector<bool> agree = Agreements(field_scores);
  double log_match = std::log(prevalence_);
  double log_non = std::log(1.0 - prevalence_);
  for (size_t f = 0; f < agree.size() && f < m_.size(); ++f) {
    if (agree[f]) {
      log_match += std::log(m_[f]);
      log_non += std::log(u_[f]);
    } else {
      log_match += std::log(1.0 - m_[f]);
      log_non += std::log(1.0 - u_[f]);
    }
  }
  const double max_log = std::max(log_match, log_non);
  const double pm = std::exp(log_match - max_log);
  const double pn = std::exp(log_non - max_log);
  return pm / (pm + pn);
}

std::vector<FieldwiseScoredPair> FellegiSunterClassifier::SelectMatches(
    const std::vector<FieldwiseScoredPair>& pairs, double weight_threshold) const {
  std::vector<FieldwiseScoredPair> out;
  for (const FieldwiseScoredPair& pair : pairs) {
    if (Weight(pair.field_scores) >= weight_threshold) out.push_back(pair);
  }
  return out;
}

LogisticClassifier::LogisticClassifier() : LogisticClassifier(Params()) {}

LogisticClassifier::LogisticClassifier(Params params) : params_(params) {}

Status LogisticClassifier::Fit(const std::vector<std::vector<double>>& features,
                               const std::vector<int>& labels) {
  if (features.empty() || features.size() != labels.size()) {
    return Status::InvalidArgument("features and labels must be nonempty and equal-sized");
  }
  const size_t dim = features[0].size();
  for (const auto& row : features) {
    if (row.size() != dim) {
      return Status::InvalidArgument("inconsistent feature dimensionality");
    }
  }
  weights_.assign(dim, 0.0);
  bias_ = 0;
  for (size_t epoch = 0; epoch < params_.epochs; ++epoch) {
    for (size_t i = 0; i < features.size(); ++i) {
      const double p = Predict(features[i]);
      const double err = static_cast<double>(labels[i]) - p;
      for (size_t d = 0; d < dim; ++d) {
        weights_[d] += params_.learning_rate *
                       (err * features[i][d] - params_.l2 * weights_[d]);
      }
      bias_ += params_.learning_rate * err;
    }
  }
  return Status::OK();
}

double LogisticClassifier::Predict(const std::vector<double>& field_scores) const {
  double z = bias_;
  for (size_t d = 0; d < field_scores.size() && d < weights_.size(); ++d) {
    z += weights_[d] * field_scores[d];
  }
  return 1.0 / (1.0 + std::exp(-z));
}

}  // namespace pprl
