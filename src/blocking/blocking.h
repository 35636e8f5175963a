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

// --- Streaming candidate generation ---------------------------------------
//
// The materializing CandidatePairs() functions above build (and sort) one
// global pair vector — O(candidates) memory before the first comparison
// runs. The streaming API below instead emits bounded shards of pairs in a
// deterministic order, so the comparison stage can consume candidates while
// blocking is still producing them and memory stays O(shard), not O(pairs).

/// A dense run of candidate pairs: record `a` of database A against every
/// b in [b_begin, b_end) of database B. Streaming producers emit runs
/// instead of pairs wherever candidates are contiguous — 12 bytes per
/// run instead of 8 bytes per pair is what keeps a single producer thread
/// from serializing 8 consumer threads behind pair materialization.
struct PairRun {
  uint32_t a = 0;
  uint32_t b_begin = 0;
  uint32_t b_end = 0;

  friend bool operator==(const PairRun& x, const PairRun& y) {
    return x.a == y.a && x.b_begin == y.b_begin && x.b_end == y.b_end;
  }
};

/// A contiguous run of candidate pairs, carried as dense runs. Shard ids
/// are dense and ascending in emission order; concatenating the shards'
/// expanded sequences by id reproduces exactly the sorted, deduplicated
/// list the materializing functions return. A shard's candidate sequence
/// is its runs expanded in order: for each run, (a, b) for b in
/// [b_begin, b_end). Producers guarantee that sequence is ascending
/// (a, b), which the tiled comparison path relies on to restore candidate
/// order after cache-blocked execution.
struct CandidateShard {
  uint32_t shard_id = 0;
  std::vector<PairRun> runs;

  /// Candidate pairs this shard covers.
  size_t num_pairs() const;
};

/// Consumes one shard (ownership moves to the consumer).
using CandidateShardFn = std::function<void(CandidateShard)>;

/// Streams the candidate pairs of two block indexes in shards of at most
/// `shard_size` pairs (the final shard may be shorter; a shard_size of 0
/// means one shard per a-record). Pair order is ascending (a, b) with
/// duplicates removed — the sequence of StandardBlocker::CandidatePairs(a,
/// b) — but peak memory is O(index + densest a-record's candidates +
/// shard) instead of O(total pairs), and producer work is O(runs), so
/// candidate generation stops being the serial stage of the parallel
/// compare path; consumers expand (or tile) runs on their own workers.
void StreamBlockedPairRuns(const BlockIndex& a, const BlockIndex& b,
                           size_t shard_size, const CandidateShardFn& emit);

/// One a-record's candidates: `bs` ascending, distinct and non-empty.
using CandidateRowFn =
    std::function<void(uint32_t a, const std::vector<uint32_t>& bs)>;

/// A per-record candidate generator: calls its argument once for every
/// a-record that has candidates, in ascending a.
using CandidateRowSource = std::function<void(const CandidateRowFn&)>;

/// The run-shard emitter behind StreamBlockedPairRuns, for any per-record
/// generator (the LSH band index's among them): each record's b list is
/// compressed into maximal consecutive runs and cut into shards exactly
/// as StreamBlockedPairRuns cuts them.
void StreamCandidateRowRuns(const CandidateRowSource& rows, size_t shard_size,
                            const CandidateShardFn& emit);

/// Streams all |A| x |B| pairs in ascending (a, b) order, one run per
/// a-record — the streaming counterpart of FullPairs(), with the same
/// shard boundaries as StreamBlockedPairRuns.
void StreamFullPairRuns(size_t size_a, size_t size_b, size_t shard_size,
                        const CandidateShardFn& emit);

}  // namespace pprl

#endif  // PPRL_BLOCKING_BLOCKING_H_
