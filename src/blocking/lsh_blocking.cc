#include "blocking/lsh_blocking.h"

#include <cmath>

namespace pprl {

Status ValidateLshGeometry(uint64_t num_tables, uint64_t bits_per_key) {
  if (num_tables < 1 || num_tables > kMaxLshTables) {
    return Status::InvalidArgument("LSH tables " + std::to_string(num_tables) +
                                   " outside [1, " + std::to_string(kMaxLshTables) +
                                   "]");
  }
  if (bits_per_key < 1 || bits_per_key > kMaxLshBitsPerKey) {
    return Status::InvalidArgument("LSH bits per key " + std::to_string(bits_per_key) +
                                   " outside [1, " +
                                   std::to_string(kMaxLshBitsPerKey) + "]");
  }
  return Status::OK();
}

Status ValidateFilterBits(uint64_t filter_bits) {
  if (filter_bits < 1 || filter_bits > kMaxFilterBits) {
    return Status::InvalidArgument("filter length " + std::to_string(filter_bits) +
                                   " bits outside [1, " +
                                   std::to_string(kMaxFilterBits) + "]");
  }
  return Status::OK();
}

Status ValidateDiceThreshold(double threshold) {
  // Written so NaN fails too.
  if (!(threshold > 0.0 && threshold <= 1.0)) {
    return Status::InvalidArgument("Dice threshold " + std::to_string(threshold) +
                                   " outside (0, 1]");
  }
  return Status::OK();
}

HammingLshBlocker::HammingLshBlocker(size_t filter_bits, size_t num_tables,
                                     size_t bits_per_key, Rng& rng)
    : filter_bits_(filter_bits) {
  positions_.resize(num_tables);
  for (auto& table : positions_) {
    table.reserve(bits_per_key);
    for (size_t i = 0; i < bits_per_key; ++i) {
      table.push_back(static_cast<uint32_t>(rng.NextUint64(filter_bits)));
    }
  }
}

std::vector<std::string> HammingLshBlocker::Keys(const BitVector& bf) const {
  std::vector<std::string> keys;
  keys.reserve(positions_.size());
  for (size_t t = 0; t < positions_.size(); ++t) {
    std::string key = "t" + std::to_string(t) + ":";
    key.reserve(key.size() + positions_[t].size());
    for (uint32_t pos : positions_[t]) key += bf.Get(pos) ? '1' : '0';
    keys.push_back(std::move(key));
  }
  return keys;
}

uint64_t HammingLshBlocker::Fingerprint(const uint64_t* words, size_t table) const {
  const std::vector<uint32_t>& positions = positions_[table];
  uint64_t fp = 0;
  // Last sampled position first, so each step shifts by one, not by i.
  for (size_t i = positions.size(); i-- > 0;) {
    const uint32_t pos = positions[i];
    fp = (fp << 1) | ((words[pos >> 6] >> (pos & 63)) & 1);
  }
  return fp;
}

BlockIndex HammingLshBlocker::BuildIndex(const std::vector<BitVector>& filters) const {
  BlockIndex index;
  for (uint32_t i = 0; i < filters.size(); ++i) {
    for (std::string& key : Keys(filters[i])) {
      index[std::move(key)].push_back(i);
    }
  }
  return index;
}

std::vector<CandidatePair> HammingLshBlocker::CandidatePairs(const BlockIndex& a,
                                                             const BlockIndex& b) {
  return StandardBlocker::CandidatePairs(a, b);
}

double HammingLshBlocker::CollisionProbability(size_t hamming_distance) const {
  if (filter_bits_ == 0 || positions_.empty()) return 0;
  const double agree =
      1.0 - static_cast<double>(hamming_distance) / static_cast<double>(filter_bits_);
  const double per_table = std::pow(agree, static_cast<double>(bits_per_key()));
  return 1.0 - std::pow(1.0 - per_table, static_cast<double>(num_tables()));
}

MinHashLshBlocker::MinHashLshBlocker(size_t bands, size_t rows_per_band)
    : bands_(bands), rows_per_band_(rows_per_band) {}

std::vector<std::string> MinHashLshBlocker::Keys(const MinHashSignature& signature) const {
  std::vector<std::string> keys;
  keys.reserve(bands_);
  for (size_t band = 0; band < bands_; ++band) {
    std::string key = "b" + std::to_string(band) + ":";
    for (size_t r = 0; r < rows_per_band_; ++r) {
      const size_t idx = band * rows_per_band_ + r;
      if (idx >= signature.size()) break;
      key += std::to_string(signature[idx]);
      key += ',';
    }
    keys.push_back(std::move(key));
  }
  return keys;
}

BlockIndex MinHashLshBlocker::BuildIndex(
    const std::vector<MinHashSignature>& signatures) const {
  BlockIndex index;
  for (uint32_t i = 0; i < signatures.size(); ++i) {
    for (std::string& key : Keys(signatures[i])) {
      index[std::move(key)].push_back(i);
    }
  }
  return index;
}

std::vector<CandidatePair> MinHashLshBlocker::CandidatePairs(const BlockIndex& a,
                                                             const BlockIndex& b) {
  return StandardBlocker::CandidatePairs(a, b);
}

double MinHashLshBlocker::CollisionProbability(double jaccard) const {
  const double per_band = std::pow(jaccard, static_cast<double>(rows_per_band_));
  return 1.0 - std::pow(1.0 - per_band, static_cast<double>(bands_));
}

}  // namespace pprl
