#ifndef PPRL_COMMON_BITVECTOR_H_
#define PPRL_COMMON_BITVECTOR_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace pprl {

/// A fixed-length bit vector backed by 64-bit words.
///
/// This is the storage type for Bloom-filter encodings (Figure 2 of the
/// survey). It provides the word-parallel population-count operations that
/// Dice/Jaccard/Hamming similarity computations (and their PPJoin-style
/// filters) are built on.
class BitVector {
 public:
  /// Creates an all-zero vector of `num_bits` bits.
  explicit BitVector(size_t num_bits = 0);

  // The count cache is atomic (see below), so copies and moves are spelled
  // out; they transfer the cached value.
  BitVector(const BitVector& other);
  BitVector(BitVector&& other) noexcept;
  BitVector& operator=(const BitVector& other);
  BitVector& operator=(BitVector&& other) noexcept;

  /// Number of addressable bits.
  size_t size() const { return num_bits_; }

  /// Whether the vector has zero bits.
  bool empty() const { return num_bits_ == 0; }

  /// Sets bit `pos` to `value`. `pos` must be < size().
  void Set(size_t pos, bool value = true);

  /// Flips bit `pos`. `pos` must be < size().
  void Flip(size_t pos);

  /// Returns bit `pos`. `pos` must be < size().
  bool Get(size_t pos) const;

  /// Sets all bits to zero without changing the length.
  void Clear();

  /// Number of set bits (the Hamming weight); cached after first call until
  /// the vector is mutated. Safe to call concurrently on a shared vector:
  /// the cache is a relaxed atomic, so racing readers at worst both compute
  /// the same value.
  size_t Count() const;

  /// Number of positions set in both `this` and `other`. Sizes must match.
  size_t AndCount(const BitVector& other) const;

  /// Number of positions set in `this` or `other`. Sizes must match.
  size_t OrCount(const BitVector& other) const;

  /// Number of positions that differ (Hamming distance). Sizes must match.
  size_t XorCount(const BitVector& other) const;

  /// In-place bitwise AND. Sizes must match.
  BitVector& operator&=(const BitVector& other);

  /// In-place bitwise OR. Sizes must match.
  BitVector& operator|=(const BitVector& other);

  /// In-place bitwise XOR. Sizes must match.
  BitVector& operator^=(const BitVector& other);

  /// Appends `other` to the end of this vector (used by record-level
  /// concatenated encodings).
  void Concat(const BitVector& other);

  /// Returns the positions of all set bits in increasing order.
  std::vector<uint32_t> SetPositions() const;

  /// Renders as a '0'/'1' string, bit 0 first (test/debug aid).
  std::string ToString() const;

  /// Parses a '0'/'1' string produced by ToString(). Other characters are
  /// rejected by returning an empty vector.
  static BitVector FromString(const std::string& bits);

  /// Adopts `words` (ceil(num_bits / 64) of them, the layout words()
  /// returns) as a vector of `num_bits` bits, without copying. Bits past
  /// `num_bits` in the last word are cleared.
  static BitVector FromWords(size_t num_bits, std::vector<uint64_t> words);

  /// Underlying words, little-endian bit order within each word. The last
  /// word's bits past size() are guaranteed zero.
  const std::vector<uint64_t>& words() const { return words_; }

  friend bool operator==(const BitVector& a, const BitVector& b) {
    return a.num_bits_ == b.num_bits_ && a.words_ == b.words_;
  }

 private:
  void InvalidateCount() { cached_count_.store(kNoCount, std::memory_order_relaxed); }

  static constexpr size_t kNoCount = static_cast<size_t>(-1);

  size_t num_bits_;
  std::vector<uint64_t> words_;
  // Concurrent Count() calls on a shared filter (concurrent sessions)
  // may race to fill the cache; relaxed atomicity makes that benign — both
  // threads store the same value. Mutation is single-threaded by contract.
  mutable std::atomic<size_t> cached_count_{kNoCount};
};

/// The packed-row rule: how a filter of `num_bits` bits travels as bytes
/// on the wire, in the WAL and in the `clk` column of the CSV interchange
/// file. Byte b holds bits 8b..8b+7, lowest bit first, so a row is
/// PackedRowBytes(num_bits) bytes and, on a little-endian host, exactly
/// the leading bytes of its 64-bit words.
inline size_t PackedRowBytes(size_t num_bits) { return (num_bits + 7) / 8; }

/// 64-bit words that carry a filter of `num_bits` bits.
inline size_t RowWords(size_t num_bits) { return (num_bits + 63) / 64; }

/// Loads one packed row from `bytes` (PackedRowBytes(num_bits) readable)
/// into `words` (RowWords(num_bits) writable). Bits past `num_bits` in the
/// input are ignored: they come out zero.
void LoadPackedRow(const uint8_t* bytes, size_t num_bits, uint64_t* words);

/// Stores `words` as one packed row of PackedRowBytes(num_bits) bytes;
/// the last byte's bits past `num_bits` are written as zero.
void StorePackedRow(const uint64_t* words, size_t num_bits, uint8_t* bytes);

}  // namespace pprl

#endif  // PPRL_COMMON_BITVECTOR_H_
