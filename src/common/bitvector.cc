#include "common/bitvector.h"

#include <bit>
#include <cassert>
#include <cstring>

namespace pprl {

namespace {
constexpr size_t kWordBits = 64;

/// Clears the bits past `num_bits` in the last of the row's words.
void ClearTail(size_t num_bits, uint64_t* words) {
  if (num_bits % kWordBits != 0) {
    words[num_bits / kWordBits] &= (uint64_t{1} << (num_bits % kWordBits)) - 1;
  }
}
}  // namespace

BitVector::BitVector(size_t num_bits)
    : num_bits_(num_bits), words_(RowWords(num_bits), 0), cached_count_(0) {}

BitVector::BitVector(const BitVector& other)
    : num_bits_(other.num_bits_),
      words_(other.words_),
      cached_count_(other.cached_count_.load(std::memory_order_relaxed)) {}

BitVector::BitVector(BitVector&& other) noexcept
    : num_bits_(other.num_bits_),
      words_(std::move(other.words_)),
      cached_count_(other.cached_count_.load(std::memory_order_relaxed)) {
  other.num_bits_ = 0;
  other.words_.clear();
  other.cached_count_.store(0, std::memory_order_relaxed);
}

BitVector& BitVector::operator=(const BitVector& other) {
  if (this != &other) {
    num_bits_ = other.num_bits_;
    words_ = other.words_;
    cached_count_.store(other.cached_count_.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
  }
  return *this;
}

BitVector& BitVector::operator=(BitVector&& other) noexcept {
  if (this != &other) {
    num_bits_ = other.num_bits_;
    words_ = std::move(other.words_);
    cached_count_.store(other.cached_count_.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
    other.num_bits_ = 0;
    other.words_.clear();
    other.cached_count_.store(0, std::memory_order_relaxed);
  }
  return *this;
}

void BitVector::Set(size_t pos, bool value) {
  assert(pos < num_bits_);
  const uint64_t mask = uint64_t{1} << (pos % kWordBits);
  if (value) {
    words_[pos / kWordBits] |= mask;
  } else {
    words_[pos / kWordBits] &= ~mask;
  }
  InvalidateCount();
}

void BitVector::Flip(size_t pos) {
  assert(pos < num_bits_);
  words_[pos / kWordBits] ^= uint64_t{1} << (pos % kWordBits);
  InvalidateCount();
}

bool BitVector::Get(size_t pos) const {
  assert(pos < num_bits_);
  return (words_[pos / kWordBits] >> (pos % kWordBits)) & 1u;
}

void BitVector::Clear() {
  words_.assign(words_.size(), 0);
  cached_count_.store(0, std::memory_order_relaxed);
}

size_t BitVector::Count() const {
  const size_t cached = cached_count_.load(std::memory_order_relaxed);
  if (cached != kNoCount) return cached;
  size_t count = 0;
  for (uint64_t w : words_) count += std::popcount(w);
  cached_count_.store(count, std::memory_order_relaxed);
  return count;
}

size_t BitVector::AndCount(const BitVector& other) const {
  assert(num_bits_ == other.num_bits_);
  size_t count = 0;
  for (size_t i = 0; i < words_.size(); ++i) {
    count += std::popcount(words_[i] & other.words_[i]);
  }
  return count;
}

size_t BitVector::OrCount(const BitVector& other) const {
  assert(num_bits_ == other.num_bits_);
  size_t count = 0;
  for (size_t i = 0; i < words_.size(); ++i) {
    count += std::popcount(words_[i] | other.words_[i]);
  }
  return count;
}

size_t BitVector::XorCount(const BitVector& other) const {
  assert(num_bits_ == other.num_bits_);
  size_t count = 0;
  for (size_t i = 0; i < words_.size(); ++i) {
    count += std::popcount(words_[i] ^ other.words_[i]);
  }
  return count;
}

BitVector& BitVector::operator&=(const BitVector& other) {
  assert(num_bits_ == other.num_bits_);
  for (size_t i = 0; i < words_.size(); ++i) words_[i] &= other.words_[i];
  InvalidateCount();
  return *this;
}

BitVector& BitVector::operator|=(const BitVector& other) {
  assert(num_bits_ == other.num_bits_);
  for (size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
  InvalidateCount();
  return *this;
}

BitVector& BitVector::operator^=(const BitVector& other) {
  assert(num_bits_ == other.num_bits_);
  for (size_t i = 0; i < words_.size(); ++i) words_[i] ^= other.words_[i];
  InvalidateCount();
  return *this;
}

void BitVector::Concat(const BitVector& other) {
  BitVector result(num_bits_ + other.num_bits_);
  for (size_t i = 0; i < num_bits_; ++i) {
    if (Get(i)) result.Set(i);
  }
  for (size_t i = 0; i < other.num_bits_; ++i) {
    if (other.Get(i)) result.Set(num_bits_ + i);
  }
  *this = std::move(result);
}

std::vector<uint32_t> BitVector::SetPositions() const {
  std::vector<uint32_t> positions;
  positions.reserve(Count());
  for (size_t w = 0; w < words_.size(); ++w) {
    uint64_t word = words_[w];
    while (word != 0) {
      const int bit = std::countr_zero(word);
      positions.push_back(static_cast<uint32_t>(w * kWordBits + bit));
      word &= word - 1;
    }
  }
  return positions;
}

std::string BitVector::ToString() const {
  std::string out(num_bits_, '0');
  for (size_t i = 0; i < num_bits_; ++i) {
    if (Get(i)) out[i] = '1';
  }
  return out;
}

BitVector BitVector::FromString(const std::string& bits) {
  BitVector out(bits.size());
  for (size_t i = 0; i < bits.size(); ++i) {
    if (bits[i] == '1') {
      out.Set(i);
    } else if (bits[i] != '0') {
      return BitVector();
    }
  }
  return out;
}

BitVector BitVector::FromWords(size_t num_bits, std::vector<uint64_t> words) {
  assert(words.size() == RowWords(num_bits));
  ClearTail(num_bits, words.data());
  BitVector out;
  out.num_bits_ = num_bits;
  out.words_ = std::move(words);
  out.InvalidateCount();
  return out;
}

void LoadPackedRow(const uint8_t* bytes, size_t num_bits, uint64_t* words) {
  const size_t num_words = RowWords(num_bits);
  const size_t num_bytes = PackedRowBytes(num_bits);
  if (num_words == 0) return;
  if constexpr (std::endian::native == std::endian::little) {
    words[num_words - 1] = 0;  // the bytes past the row's last one
    std::memcpy(words, bytes, num_bytes);
  } else {
    std::memset(words, 0, num_words * sizeof(uint64_t));
    for (size_t b = 0; b < num_bytes; ++b) {
      words[b / 8] |= static_cast<uint64_t>(bytes[b]) << (8 * (b % 8));
    }
  }
  ClearTail(num_bits, words);
}

void StorePackedRow(const uint64_t* words, size_t num_bits, uint8_t* bytes) {
  const size_t num_bytes = PackedRowBytes(num_bits);
  if (num_bytes == 0) return;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(bytes, words, num_bytes);
  } else {
    for (size_t b = 0; b < num_bytes; ++b) {
      bytes[b] = static_cast<uint8_t>(words[b / 8] >> (8 * (b % 8)));
    }
  }
  if (num_bits % 8 != 0) {
    bytes[num_bytes - 1] &= static_cast<uint8_t>((1u << (num_bits % 8)) - 1);
  }
}

}  // namespace pprl
