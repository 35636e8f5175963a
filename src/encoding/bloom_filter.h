#ifndef PPRL_ENCODING_BLOOM_FILTER_H_
#define PPRL_ENCODING_BLOOM_FILTER_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/bitvector.h"
#include "common/record.h"
#include "common/status.h"
#include "common/strings.h"
#include "crypto/hash.h"

namespace pprl {

/// How token -> bit positions are derived.
enum class BloomHashScheme {
  /// Classic double hashing h_j = MD5(t) + j * SHA1(t) mod l [33]. Fast but
  /// famously attackable when unkeyed.
  kDoubleHashing,
  /// k positions from HMAC-SHA256(secret_key, token || j): the keyed variant
  /// that defeats dictionary attacks as long as the key stays secret.
  kKeyedHmac,
};

/// Parameters of a Bloom-filter encoding (Figure 2 of the survey).
struct BloomFilterParams {
  size_t num_bits = 1000;        ///< l, the filter length
  size_t num_hashes = 30;        ///< k, hash functions per token
  BloomHashScheme scheme = BloomHashScheme::kDoubleHashing;
  std::string secret_key;        ///< required for kKeyedHmac

  /// Validates the parameter combination.
  Status Validate() const;
};

/// Encodes token sets into Bloom filters.
///
/// This is the survey's flagship probabilistic privacy technology (§3.4,
/// Figure 2 left): the q-gram set of a string QID is hash-mapped into a bit
/// array, and Dice similarity on the bit arrays approximates Dice similarity
/// on the q-gram sets.
///
/// Under kKeyedHmac the key's HMAC midstates are computed once, here, and
/// each token is absorbed once (HmacSha256Key::Absorb); each bit position
/// then costs two SHA-256 compressions (Mac64), on the SHA extensions when
/// the CPU has them. An encoder holds no mutable state: one const instance
/// may encode on many threads.
class BloomFilterEncoder {
 public:
  explicit BloomFilterEncoder(BloomFilterParams params);

  /// Maps an explicit token set into a filter.
  BitVector EncodeTokens(const std::vector<std::string>& tokens) const;

  /// Convenience: q-gram tokenisation (after QID normalisation) followed by
  /// EncodeTokens.
  BitVector EncodeString(const std::string& value, const QGramOptions& qgrams = {}) const;

  /// Bit positions a single token maps to (exposed for the cryptanalysis
  /// attack module, which needs the same mapping the encoder uses).
  std::vector<uint32_t> TokenPositions(const std::string& token) const;

  const BloomFilterParams& params() const { return params_; }

 private:
  /// Calls `emit(position)` for each of `token`'s num_hashes positions;
  /// the one mapping behind both EncodeTokens and TokenPositions.
  template <typename Emit>
  void ForEachPosition(std::string_view token, Emit emit) const;

  BloomFilterParams params_;
  std::optional<HmacSha256Key> key_;  ///< engaged for kKeyedHmac
};

/// Per-field configuration of a record-level encoding.
struct ClkFieldConfig {
  std::string field_name;
  /// Hash functions used for this field's tokens; fields with higher
  /// discriminating power get more (weighted CLK).
  size_t num_hashes = 20;
  /// q-gram length for string fields; ignored for numeric fields.
  size_t q = 2;
  /// For numeric fields: tokens are generated for value, value +- step, ...
  /// (see NumericNeighborhoodTokens). 0 marks the field as a string field.
  double numeric_step = 0;
  size_t numeric_neighbors = 0;
};

/// Cryptographic Long-term Key (CLK): all QIDs of a record hashed into one
/// filter, the standard record-level encoding of Schnell et al. [33].
class ClkEncoder {
 public:
  /// `params.num_hashes` is ignored; per-field counts come from `fields`.
  /// Builds one BloomFilterEncoder per field, once.
  ClkEncoder(BloomFilterParams params, std::vector<ClkFieldConfig> fields);

  /// Encodes the configured fields of `record` under `schema` into one CLK.
  /// Fields missing from the schema are reported as InvalidArgument.
  Result<BitVector> Encode(const Schema& schema, const Record& record) const;

  /// Encodes every record of `db`; stops at the first error.
  Result<std::vector<BitVector>> EncodeDatabase(const Database& db) const;

  const BloomFilterParams& params() const { return params_; }
  const std::vector<ClkFieldConfig>& fields() const { return fields_; }

 private:
  BloomFilterParams params_;
  std::vector<ClkFieldConfig> fields_;
  std::vector<BloomFilterEncoder> encoders_;  ///< encoders_[i] hashes fields_[i]
};

}  // namespace pprl

#endif  // PPRL_ENCODING_BLOOM_FILTER_H_
