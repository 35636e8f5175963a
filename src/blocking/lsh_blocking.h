#ifndef PPRL_BLOCKING_LSH_BLOCKING_H_
#define PPRL_BLOCKING_LSH_BLOCKING_H_

#include <cstdint>
#include <vector>

#include "common/bitvector.h"
#include "common/random.h"
#include "common/status.h"
#include "blocking/blocking.h"
#include "encoding/minhash.h"

namespace pprl {

/// Largest band geometry any linkage entry point accepts. A band
/// fingerprint packs one table's sampled bits into a u64, hence the 64; a
/// thousand tables is already far past any useful recall curve, and the
/// bound keeps a hostile assignment from sizing the tables to exhaustion.
inline constexpr uint64_t kMaxLshTables = 1024;
inline constexpr uint64_t kMaxLshBitsPerKey = 64;

/// InvalidArgument unless 1 <= num_tables <= kMaxLshTables and
/// 1 <= bits_per_key <= kMaxLshBitsPerKey. Every place LSH geometry enters
/// the process checks it here: the linkage entry points, the daemon's
/// start-up, and the assign-partition and checkpoint decoders (which
/// report it as a ProtocolViolation).
Status ValidateLshGeometry(uint64_t num_tables, uint64_t bits_per_key);

/// Widest Bloom filter any linkage entry point accepts. The Dice cutoff
/// table (linkage/compare_kernels.h) holds one entry per |a| + |b| in
/// [0, 2 * bits], so the bound caps one table at 131,073 entries
/// (512 KiB); the widest filter any shipped config uses is 10,000 bits.
inline constexpr uint64_t kMaxFilterBits = 65536;

/// InvalidArgument unless 1 <= filter_bits <= kMaxFilterBits, and unless
/// the Dice threshold is finite and in (0, 1]. Checked wherever these
/// values enter the process, beside ValidateLshGeometry(): the linkage
/// entry points, the daemon's start-up and hello handler, and the WAL,
/// checkpoint and assign-partition decoders.
Status ValidateFilterBits(uint64_t filter_bits);
Status ValidateDiceThreshold(double threshold);

/// Hamming-LSH blocking over Bloom filters (Karapiperis & Verykios [18],
/// Durham [12]).
///
/// Each of `num_tables` tables samples `bits_per_key` random positions of
/// the filter; two records collide in a table when they agree on all sampled
/// positions. A pair at Hamming distance d collides in one table with
/// probability (1 - d/l)^bits_per_key, so with mu tables the recall for
/// similar pairs is 1 - (1 - p)^mu — tunable to any target with high
/// probability, which is the "theoretical guarantee" the survey credits LSH
/// blocking with.
class HammingLshBlocker {
 public:
  /// `filter_bits` is the Bloom-filter length l; seeds are drawn from `rng`.
  HammingLshBlocker(size_t filter_bits, size_t num_tables, size_t bits_per_key,
                    Rng& rng);

  /// Bucket keys of one filter, one per table (table id is baked into the
  /// key so tables do not mix).
  std::vector<std::string> Keys(const BitVector& bf) const;

  /// The integer form of Keys()[table] after its "t<table>:" prefix: bit i
  /// is the filter's bit at the table's i-th sampled position (the key's
  /// i-th '0'/'1'). `words` is the filter in BitVector/BitMatrix word
  /// layout. Injective, so equal fingerprints are exactly equal keys;
  /// needs bits_per_key <= kMaxLshBitsPerKey.
  uint64_t Fingerprint(const uint64_t* words, size_t table) const;

  /// Builds the multi-table index of a database's filters.
  BlockIndex BuildIndex(const std::vector<BitVector>& filters) const;

  /// Candidate pairs that collide in at least one table.
  static std::vector<CandidatePair> CandidatePairs(const BlockIndex& a,
                                                   const BlockIndex& b);

  /// Probability that a pair at Hamming distance `d` (filters of length l)
  /// becomes a candidate: 1 - (1 - (1 - d/l)^lambda)^mu.
  double CollisionProbability(size_t hamming_distance) const;

  size_t num_tables() const { return positions_.size(); }
  size_t bits_per_key() const { return positions_.empty() ? 0 : positions_[0].size(); }
  size_t filter_bits() const { return filter_bits_; }

  /// The sampled bit positions, [table][sampled bit]: two blockers with
  /// equal positions collide identically.
  const std::vector<std::vector<uint32_t>>& positions() const { return positions_; }

 private:
  size_t filter_bits_;
  std::vector<std::vector<uint32_t>> positions_;  // [table][sampled bit]
};

/// MinHash-LSH blocking: the signature is cut into bands of `rows_per_band`
/// components; records sharing any full band become candidates. Collision
/// probability for Jaccard similarity s is 1 - (1 - s^rows)^bands.
class MinHashLshBlocker {
 public:
  /// `bands * rows_per_band` must equal the signature length used.
  MinHashLshBlocker(size_t bands, size_t rows_per_band);

  std::vector<std::string> Keys(const MinHashSignature& signature) const;

  BlockIndex BuildIndex(const std::vector<MinHashSignature>& signatures) const;

  static std::vector<CandidatePair> CandidatePairs(const BlockIndex& a,
                                                   const BlockIndex& b);

  double CollisionProbability(double jaccard) const;

 private:
  size_t bands_;
  size_t rows_per_band_;
};

}  // namespace pprl

#endif  // PPRL_BLOCKING_LSH_BLOCKING_H_
