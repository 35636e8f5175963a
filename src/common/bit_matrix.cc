#include "common/bit_matrix.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdlib>
#include <cstring>
#include <new>

namespace pprl {

namespace {

constexpr size_t kAlignBytes = 64;
constexpr size_t kAlignWords = kAlignBytes / sizeof(uint64_t);

size_t StrideWords(size_t num_bits) {
  const size_t words = RowWords(num_bits);
  return (words + kAlignWords - 1) / kAlignWords * kAlignWords;
}

}  // namespace

void BitMatrix::AlignedFree::operator()(uint64_t* p) const {
  ::operator delete[](p, std::align_val_t{kAlignBytes});
}

BitMatrix::AlignedWords BitMatrix::Allocate(size_t total_words) {
  if (total_words == 0) return nullptr;
  auto* p = static_cast<uint64_t*>(
      ::operator new[](total_words * sizeof(uint64_t), std::align_val_t{kAlignBytes}));
  std::memset(p, 0, total_words * sizeof(uint64_t));
  return AlignedWords(p);
}

BitMatrix::BitMatrix(size_t num_rows, size_t num_bits)
    : num_rows_(num_rows),
      num_bits_(num_bits),
      words_per_row_(RowWords(num_bits)),
      stride_words_(StrideWords(num_bits)),
      data_(Allocate(num_rows * StrideWords(num_bits))),
      capacity_words_(num_rows * StrideWords(num_bits)),
      counts_(num_rows, 0) {}

BitMatrix::BitMatrix(const BitMatrix& other)
    : num_rows_(other.num_rows_),
      num_bits_(other.num_bits_),
      words_per_row_(other.words_per_row_),
      stride_words_(other.stride_words_),
      data_(Allocate(other.num_rows_ * other.stride_words_)),
      capacity_words_(other.num_rows_ * other.stride_words_),
      counts_(other.counts_) {
  if (data_ != nullptr) {
    std::memcpy(data_.get(), other.data_.get(),
                num_rows_ * stride_words_ * sizeof(uint64_t));
  }
}

BitMatrix& BitMatrix::operator=(const BitMatrix& other) {
  if (this != &other) *this = BitMatrix(other);
  return *this;
}

BitMatrix BitMatrix::FromVectors(const std::vector<BitVector>& rows) {
  const size_t num_bits = rows.empty() ? 0 : rows[0].size();
  BitMatrix out(rows.size(), num_bits);
  for (size_t i = 0; i < rows.size(); ++i) {
    assert(rows[i].size() == num_bits);
    const std::vector<uint64_t>& words = rows[i].words();
    std::copy(words.begin(), words.end(), out.mutable_row(i));
    out.counts_[i] = rows[i].Count();
  }
  return out;
}

std::vector<BitVector> BitMatrix::ToVectors() const {
  std::vector<BitVector> out;
  out.reserve(num_rows_);
  for (size_t i = 0; i < num_rows_; ++i) {
    out.push_back(BitVector::FromWords(
        num_bits_, std::vector<uint64_t>(row(i), row(i) + words_per_row_)));
  }
  return out;
}

void BitMatrix::RecountRow(size_t i) {
  assert(i < num_rows_);
  const uint64_t* r = row(i);
  size_t count = 0;
  for (size_t w = 0; w < words_per_row_; ++w) count += std::popcount(r[w]);
  counts_[i] = count;
}

void BitMatrix::ReserveRows(size_t rows) {
  assert(stride_words_ > 0 || rows == 0);
  const size_t needed = rows * stride_words_;
  if (needed <= capacity_words_) return;
  AlignedWords grown = Allocate(needed);
  if (num_rows_ > 0) {
    std::memcpy(grown.get(), data_.get(),
                num_rows_ * stride_words_ * sizeof(uint64_t));
  }
  data_ = std::move(grown);
  capacity_words_ = needed;
  counts_.reserve(rows);
}

size_t BitMatrix::AppendRow() {
  assert(stride_words_ > 0 && "append needs a fixed row width; construct with BitMatrix(0, bits)");
  if ((num_rows_ + 1) * stride_words_ > capacity_words_) {
    ReserveRows(std::max<size_t>(num_rows_ * 2, 1024));
  }
  const size_t i = num_rows_++;
  std::memset(mutable_row(i), 0, stride_words_ * sizeof(uint64_t));
  counts_.push_back(0);
  return i;
}

size_t BitMatrix::AppendRow(const BitVector& row) {
  assert(row.size() == num_bits_);
  const size_t i = AppendRow();
  const std::vector<uint64_t>& words = row.words();
  std::memcpy(mutable_row(i), words.data(), words.size() * sizeof(uint64_t));
  counts_[i] = row.Count();
  return i;
}

void BitMatrix::RecomputeCounts() {
  for (size_t i = 0; i < num_rows_; ++i) {
    const uint64_t* r = row(i);
    size_t count = 0;
    for (size_t w = 0; w < words_per_row_; ++w) count += std::popcount(r[w]);
    counts_[i] = count;
  }
}

}  // namespace pprl
