#ifndef PPRL_COMMON_BIT_MATRIX_H_
#define PPRL_COMMON_BIT_MATRIX_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/bitvector.h"

namespace pprl {

/// A set of equal-length bit vectors stored as one contiguous row-major
/// matrix of 64-bit words.
///
/// This is the batch-comparison counterpart of `BitVector`: where a
/// `std::vector<BitVector>` scatters every filter across the heap (one
/// allocation per record, pointer-chase per comparison), a `BitMatrix`
/// packs them back to back with a fixed row stride so the comparison
/// kernels in linkage/compare_kernels.h stream through candidate pairs at
/// memory bandwidth. Rows start on 64-byte boundaries (one cache line,
/// also the widest vector register) and per-row popcounts are taken once
/// at construction, which is what makes the Dice/Jaccard cardinality
/// bounds in the kernels free to evaluate.
///
/// Conversion from and back to `std::vector<BitVector>` is lossless, so
/// encoders, hardening, and the wire paths keep their per-record type.
class BitMatrix {
 public:
  /// An empty matrix (0 rows, 0 bits).
  BitMatrix() = default;

  /// An all-zero matrix of `num_rows` rows of `num_bits` bits each.
  BitMatrix(size_t num_rows, size_t num_bits);

  BitMatrix(const BitMatrix& other);
  BitMatrix& operator=(const BitMatrix& other);
  BitMatrix(BitMatrix&&) noexcept = default;
  BitMatrix& operator=(BitMatrix&&) noexcept = default;

  /// Packs `rows` (all of equal length) into a matrix. Row i of the result
  /// holds exactly the bits of rows[i].
  static BitMatrix FromVectors(const std::vector<BitVector>& rows);

  /// Unpacks back into individually allocated vectors; inverse of
  /// FromVectors().
  std::vector<BitVector> ToVectors() const;

  size_t num_rows() const { return num_rows_; }

  /// Bits per row (the filter length).
  size_t num_bits() const { return num_bits_; }

  /// Words actually carrying bits in each row: ceil(num_bits / 64).
  size_t words_per_row() const { return words_per_row_; }

  /// Row stride in words — words_per_row() rounded up to a 64-byte
  /// multiple; the padding words are always zero.
  size_t stride_words() const { return stride_words_; }

  /// Pointer to row `i`'s words; 64-byte aligned. Bits past num_bits() in
  /// the last carrying word (and all padding words) are zero.
  const uint64_t* row(size_t i) const { return data_.get() + i * stride_words_; }
  uint64_t* mutable_row(size_t i) { return data_.get() + i * stride_words_; }

  /// Popcount of row `i`, precomputed at construction. Callers that write
  /// through mutable_row() must call RecomputeCounts() afterwards.
  size_t row_count(size_t i) const { return counts_[i]; }

  /// All per-row popcounts, row order.
  const std::vector<size_t>& row_counts() const { return counts_; }

  /// Re-derives every per-row popcount from the current words.
  void RecomputeCounts();

  /// Re-derives the popcount of row `i` only; for callers that wrote a
  /// single row through mutable_row() and want to keep appends O(row).
  void RecountRow(size_t i);

  /// Ensures capacity for at least `rows` rows without changing num_rows().
  /// Grows by copy; existing row pointers are invalidated.
  void ReserveRows(size_t rows);

  /// Rows the current allocation can hold without growing.
  size_t row_capacity() const {
    return stride_words_ == 0 ? 0 : capacity_words_ / stride_words_;
  }

  /// Appends one all-zero row (amortized O(row) via geometric growth) and
  /// returns its index. Callers fill it through mutable_row() and then
  /// call RecountRow().
  size_t AppendRow();

  /// Appends a row holding `row`'s bits; `row.size()` must equal
  /// num_bits(). Returns the new row's index. The popcount is taken from
  /// the vector's cached count, so the append is O(words_per_row()).
  size_t AppendRow(const BitVector& row);

 private:
  struct AlignedFree {
    void operator()(uint64_t* p) const;
  };
  using AlignedWords = std::unique_ptr<uint64_t[], AlignedFree>;

  static AlignedWords Allocate(size_t total_words);

  size_t num_rows_ = 0;
  size_t num_bits_ = 0;
  size_t words_per_row_ = 0;
  size_t stride_words_ = 0;
  AlignedWords data_;
  /// Words actually allocated behind data_ — exceeds
  /// num_rows_ * stride_words_ after ReserveRows() or AppendRow() growth.
  size_t capacity_words_ = 0;
  std::vector<size_t> counts_;
};

}  // namespace pprl

#endif  // PPRL_COMMON_BIT_MATRIX_H_
