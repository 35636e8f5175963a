#ifndef PPRL_BLOCKING_BLOCKING_H_
#define PPRL_BLOCKING_BLOCKING_H_

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/record.h"
#include "common/status.h"

namespace pprl {

/// A candidate record pair: indices into database A and database B.
struct CandidatePair {
  uint32_t a = 0;
  uint32_t b = 0;

  friend bool operator==(const CandidatePair& x, const CandidatePair& y) {
    return x.a == y.a && x.b == y.b;
  }
  friend bool operator<(const CandidatePair& x, const CandidatePair& y) {
    return x.a != y.a ? x.a < y.a : x.b < y.b;
  }
};

/// Blocking-key -> record indices for one database.
using BlockIndex = std::unordered_map<std::string, std::vector<uint32_t>>;

/// A function deriving the blocking-key values (possibly several) of one
/// record. Privacy-aware key functions return encoded values (phonetic
/// codes, HMACs of prefixes) rather than raw QIDs.
using BlockingKeyFunction =
    std::function<std::vector<std::string>(const Schema&, const Record&)>;

/// Standard blocking (survey §3.4 "Blocking"): partition records by their
/// blocking-key values; only same-key records are compared.
class StandardBlocker {
 public:
  explicit StandardBlocker(BlockingKeyFunction key_function);

  /// Builds the key -> records index of `db`.
  BlockIndex BuildIndex(const Database& db) const;

  /// Candidate pairs between two indexed databases: the cross product within
  /// every shared key, deduplicated.
  static std::vector<CandidatePair> CandidatePairs(const BlockIndex& a,
                                                   const BlockIndex& b);

 private:
  BlockingKeyFunction key_function_;
};

/// A ready-made privacy-aware key function: HMAC(secret, Soundex(last_name)
/// + first letter of first_name). Requires the standard generator schema
/// field names. The HMAC key is built once, here, not per record.
BlockingKeyFunction SoundexNameKey(const std::string& secret_key);

/// Keyed blocking on an exact attribute value (e.g. postcode); the HMAC
/// key is built once, as in SoundexNameKey.
BlockingKeyFunction ExactAttributeKey(const std::string& field_name,
                                      const std::string& secret_key);

/// Sorted-neighbourhood blocking: records of both databases are merged,
/// sorted by key, and every pair within a sliding window of size `window`
/// becomes a candidate.
class SortedNeighborhoodBlocker {
 public:
  SortedNeighborhoodBlocker(BlockingKeyFunction key_function, size_t window);

  /// Candidate pairs between `a` and `b`.
  std::vector<CandidatePair> CandidatePairs(const Database& a, const Database& b) const;

 private:
  BlockingKeyFunction key_function_;
  size_t window_;
};

/// All |A| x |B| pairs — the naive baseline blocking is measured against.
std::vector<CandidatePair> FullPairs(size_t size_a, size_t size_b);

/// One a-record's candidates: `bs` ascending, distinct and non-empty
/// (the consumer of ForEachLshCandidateRow, blocking/lsh_index.h).
using CandidateRowFn =
    std::function<void(uint32_t a, const std::vector<uint32_t>& bs)>;

}  // namespace pprl

#endif  // PPRL_BLOCKING_BLOCKING_H_
