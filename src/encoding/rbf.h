#ifndef PPRL_ENCODING_RBF_H_
#define PPRL_ENCODING_RBF_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/bitvector.h"
#include "common/record.h"
#include "common/status.h"
#include "encoding/bloom_filter.h"

namespace pprl {

/// One field's contribution to a record-level Bloom filter.
struct RbfFieldConfig {
  std::string field_name;
  /// Length of this field's intermediate field-level filter.
  size_t field_bits = 500;
  /// Hash functions for this field's tokens.
  size_t num_hashes = 15;
  /// Sampling weight: the fraction of output bits drawn from this field is
  /// weight / sum(weights). Durham's RBF weights fields by discriminating
  /// power (e.g. Fellegi-Sunter agreement weights).
  double weight = 1.0;
  /// q-gram length for string fields.
  size_t q = 2;
};

/// Parameters of a record-level Bloom filter encoding.
struct RbfParams {
  size_t output_bits = 1000;
  /// Seed of the shared bit-sampling permutation. All parties must use the
  /// same seed (it is part of the shared secret).
  uint64_t sampling_seed = 7;
  BloomHashScheme scheme = BloomHashScheme::kDoubleHashing;
  std::string secret_key;
};

/// Record-level Bloom filter (RBF) of Durham [12]: each QID is first
/// encoded into its own field-level filter, then the record filter is
/// assembled by sampling bits from the field filters in proportion to
/// per-field weights, under a keyed permutation shared by the parties.
///
/// Compared with the CLK (all fields ORed into one filter), the RBF gives
/// exact control over each field's influence on the similarity and hides
/// field boundaries from an attacker who knows the schema.
class RbfEncoder {
 public:
  /// Validates and freezes the sampling layout. Fails on empty configs,
  /// zero weights, or an unkeyed scheme with a missing key.
  static Result<RbfEncoder> Create(RbfParams params, std::vector<RbfFieldConfig> fields);

  /// Encodes one record under `schema`.
  Result<BitVector> Encode(const Schema& schema, const Record& record) const;

  /// Encodes a whole database; stops at the first error.
  Result<std::vector<BitVector>> EncodeDatabase(const Database& db) const;

  /// Number of output bits drawn from field `i` (testing/introspection).
  size_t BitsSampledFrom(size_t field_index) const;

  const RbfParams& params() const { return params_; }

 private:
  struct SampledBit {
    uint32_t field = 0;     ///< index into fields_
    uint32_t position = 0;  ///< bit position within that field's filter
  };

  RbfEncoder(RbfParams params, std::vector<RbfFieldConfig> fields,
             std::vector<SampledBit> layout);

  RbfParams params_;
  std::vector<RbfFieldConfig> fields_;
  /// encoders_[i] builds fields_[i]'s field-level filter.
  std::vector<BloomFilterEncoder> encoders_;
  /// layout_[i] tells which (field, bit) feeds output bit i.
  std::vector<SampledBit> layout_;
};

}  // namespace pprl

#endif  // PPRL_ENCODING_RBF_H_
