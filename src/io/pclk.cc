#include "io/pclk.h"

#include <sys/stat.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <memory>

#include "common/wire.h"

namespace pprl::io {

namespace {

/// Geometry sanity caps: far above any real shard (a 2^32-row shard of
/// 64-Mbit filters would be a 32-PB file) but low enough that a fuzzed
/// header can never overflow the offset arithmetic below.
constexpr uint64_t kMaxRows = 1ull << 32;
constexpr uint32_t kMaxFilterBits = 1u << 26;
constexpr uint32_t kMaxStrideBytes = 1u << 24;

constexpr size_t kHeaderChecksumOffset = 56;

/// Copies one file row's carrying words into matrix row `r`. False when
/// the file's stride padding past them is nonzero.
bool LoadRow(BitMatrix& bits, size_t r, const uint8_t* row_bytes, size_t stride) {
  const size_t carry = bits.words_per_row() * 8;
  LoadLeSpan(bits.mutable_row(r), row_bytes, bits.words_per_row());
  return std::all_of(row_bytes + carry, row_bytes + stride,
                     [](uint8_t b) { return b == 0; });
}

Status StridePaddingError(uint64_t r) {
  return Status::ProtocolViolation("PCLK row " + std::to_string(r) +
                                   " has nonzero stride padding");
}

/// Validates the loaded matrix against the format contract: no stray bits
/// past filter_bits, and the popcount column (when present) agreeing with
/// the rows. Fills the matrix's count cache as a side effect.
Status ValidateRows(BitMatrix& bits, const PclkInfo& info, const uint8_t* popcounts) {
  const size_t tail_bits = info.filter_bits % 64;
  const uint64_t tail_mask =
      tail_bits == 0 ? ~0ull : (1ull << tail_bits) - 1;
  for (size_t r = 0; r < bits.num_rows(); ++r) {
    const uint64_t* row = bits.row(r);
    if (bits.words_per_row() > 0 &&
        (row[bits.words_per_row() - 1] & ~tail_mask) != 0) {
      return Status::ProtocolViolation("PCLK row " + std::to_string(r) +
                                       " has bits set past filter_bits");
    }
  }
  bits.RecomputeCounts();
  if (popcounts != nullptr) {
    for (size_t r = 0; r < bits.num_rows(); ++r) {
      if (LoadLeU32(popcounts + r * 4) != bits.row_count(r)) {
        return Status::IoError("PCLK popcount column disagrees with row " +
                               std::to_string(r) + " (corrupted shard)");
      }
    }
  }
  return Status::OK();
}

/// A shard of `size` bytes must be exactly as long as its header says.
/// Checked before anything is allocated, so a header that declares more
/// rows than the bytes hold costs nothing.
Status CheckSize(const PclkInfo& info, uint64_t size) {
  if (size < info.total_bytes()) {
    return Status::OutOfRange("PCLK shard truncated: " + std::to_string(size) +
                              " of " + std::to_string(info.total_bytes()) +
                              " bytes");
  }
  if (size > info.total_bytes()) {
    return Status::ProtocolViolation("PCLK shard has trailing bytes");
  }
  return Status::OK();
}

/// The one decode body of DecodePclk and ReadPclkFile, run once the
/// header is decoded and the size checked. `header` is the raw header,
/// `mid` the span between it and the rows section (ids, popcounts, zero
/// padding), and `read_rows(dst, n)` copies the next `n` bytes of the rows
/// section into `dst`, false when they are missing. When the stored
/// stride is the matrix's own, the whole rows section lands in the matrix
/// in one read, with no re-packing. Checks run in a fixed order: the ids
/// and popcount checksums, section padding, the rows checksum, stride
/// padding, stray bits, popcounts.
template <typename ReadRows>
Result<EncodedShard> DecodeSections(const uint8_t* header, const PclkInfo& info,
                                    const uint8_t* mid, ReadRows&& read_rows) {
  const uint64_t n = info.row_count;
  if (LoadLeU64(header + 32) != Fnv1a64(mid, n * 8)) {
    return Status::IoError("PCLK ids section checksum mismatch");
  }
  const uint8_t* pop = info.has_popcounts() ? mid + n * 8 : nullptr;
  if (pop != nullptr && LoadLeU64(header + 40) != Fnv1a64(pop, n * 4)) {
    return Status::IoError("PCLK popcount section checksum mismatch");
  }
  const uint64_t mid_bytes = info.rows_offset() - info.ids_offset();
  if (!std::all_of(mid + n * 8 + (pop != nullptr ? n * 4 : 0), mid + mid_bytes,
                   [](uint8_t b) { return b == 0; })) {
    return Status::ProtocolViolation("PCLK section padding is nonzero");
  }

  EncodedShard shard;
  shard.ids.resize(n);
  LoadLeSpan(shard.ids.data(), mid, n);
  shard.bits = BitMatrix(n, info.filter_bits);
  BitMatrix& bits = shard.bits;
  const size_t stride = info.row_stride_bytes;
  uint64_t rows_checksum = kFnv1a64Basis;
  uint64_t padded_row = n;  // first row with nonzero stride padding
  if (n > 0 && stride == bits.stride_words() * 8 &&
      std::endian::native == std::endian::little) {
    uint8_t* dst = reinterpret_cast<uint8_t*>(bits.mutable_row(0));
    if (!read_rows(dst, n * stride)) return Status::OutOfRange("PCLK rows truncated");
    rows_checksum = Fnv1a64(dst, n * stride);
    for (uint64_t r = 0; r < n && padded_row == n; ++r) {
      const uint64_t* words = bits.row(r);
      if (!std::all_of(words + bits.words_per_row(), words + bits.stride_words(),
                       [](uint64_t w) { return w == 0; })) {
        padded_row = r;
      }
    }
  } else {
    std::vector<uint8_t> row(stride);
    for (uint64_t r = 0; r < n; ++r) {
      if (!read_rows(row.data(), stride)) return Status::OutOfRange("PCLK rows truncated");
      rows_checksum = Fnv1a64(row.data(), stride, rows_checksum);
      if (!LoadRow(bits, r, row.data(), stride) && padded_row == n) padded_row = r;
    }
  }
  if (LoadLeU64(header + 48) != rows_checksum) {
    return Status::IoError("PCLK rows section checksum mismatch");
  }
  if (padded_row < n) return StridePaddingError(padded_row);
  PPRL_RETURN_IF_ERROR(ValidateRows(bits, info, pop));
  return shard;
}

bool ReadExact(std::FILE* f, void* out, size_t n) {
  return n == 0 || std::fread(out, 1, n, f) == n;
}

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using File = std::unique_ptr<std::FILE, FileCloser>;

/// Size of an open file; 0 when it cannot be read, which every size check
/// then reports as truncation.
uint64_t FileSize(std::FILE* f) {
  struct stat st {};
  return ::fstat(::fileno(f), &st) == 0 ? static_cast<uint64_t>(st.st_size) : 0;
}

/// Reads the header at the start of `f` into `raw` and decodes it.
Result<PclkInfo> ReadHeaderFrom(std::FILE* f, const std::string& path, uint8_t* raw) {
  const size_t got = std::fread(raw, 1, kPclkHeaderBytes, f);
  auto info = DecodePclkHeader(raw, got);
  if (!info.ok() && got < kPclkHeaderBytes) {
    return Status::OutOfRange(path + ": PCLK header truncated");
  }
  return info;
}

}  // namespace

uint64_t PclkInfo::rows_offset() const {
  const uint64_t after_pop =
      popcounts_offset() + (has_popcounts() ? row_count * 4 : 0);
  return (after_pop + 63) / 64 * 64;
}

Result<PclkInfo> DecodePclkHeader(const uint8_t* data, size_t size) {
  if (size < kPclkHeaderBytes) {
    return Status::OutOfRange("PCLK header truncated: " + std::to_string(size) +
                              " of " + std::to_string(kPclkHeaderBytes) + " bytes");
  }
  if (LoadLeU32(data) != kPclkMagic) {
    return Status::InvalidArgument("not a PCLK shard (bad magic)");
  }
  PclkInfo info;
  info.version = LoadLeU32(data + 4);
  if (info.version != kPclkVersion) {
    return Status::InvalidArgument("unsupported PCLK version " +
                                   std::to_string(info.version));
  }
  info.flags = LoadLeU32(data + 8);
  info.filter_bits = LoadLeU32(data + 12);
  info.row_count = LoadLeU64(data + 16);
  info.row_stride_bytes = LoadLeU32(data + 24);
  if (LoadLeU32(data + 28) != 0) {
    return Status::ProtocolViolation("PCLK reserved header field is nonzero");
  }
  if ((info.flags & ~kPclkFlagPopcounts) != 0) {
    return Status::ProtocolViolation("PCLK header has unknown flag bits");
  }
  if (LoadLeU64(data + kHeaderChecksumOffset) !=
      Fnv1a64(data, kHeaderChecksumOffset)) {
    return Status::IoError("PCLK header checksum mismatch");
  }
  if (info.row_count > kMaxRows || info.filter_bits > kMaxFilterBits ||
      info.row_stride_bytes > kMaxStrideBytes) {
    return Status::InvalidArgument("PCLK header declares implausible geometry");
  }
  if (info.row_count > 0) {
    if (info.filter_bits == 0) {
      return Status::InvalidArgument("PCLK shard with rows but zero filter bits");
    }
    if (info.row_stride_bytes % 64 != 0 ||
        info.row_stride_bytes < PackedRowBytes(info.filter_bits)) {
      return Status::InvalidArgument(
          "PCLK row stride must be a 64-byte multiple covering filter_bits");
    }
  }
  return info;
}

std::vector<uint8_t> EncodePclk(const EncodedShard& shard, bool include_popcounts) {
  const BitMatrix& bits = shard.bits;
  const uint64_t n = bits.num_rows();
  PclkInfo info;
  info.version = kPclkVersion;
  info.flags = include_popcounts ? kPclkFlagPopcounts : 0;
  info.filter_bits = static_cast<uint32_t>(bits.num_bits());
  info.row_count = n;
  info.row_stride_bytes = static_cast<uint32_t>(bits.stride_words() * 8);
  std::vector<uint8_t> out(info.total_bytes(), 0);

  // Sections first, so their checksums exist before the header is sealed.
  StoreLeSpan(out.data() + info.ids_offset(), shard.ids.data(), n);
  if (include_popcounts) {
    uint8_t* pop = out.data() + info.popcounts_offset();
    for (uint64_t r = 0; r < n; ++r) {
      StoreLeU32(pop + r * 4, static_cast<uint32_t>(bits.row_count(r)));
    }
  }
  uint8_t* rows = out.data() + info.rows_offset();
  if (n > 0) {
    // Matrix rows are contiguous at exactly the file stride.
    StoreLeSpan(rows, bits.row(0), n * bits.stride_words());
  }

  uint8_t* h = out.data();
  StoreLeU32(h, kPclkMagic);
  StoreLeU32(h + 4, info.version);
  StoreLeU32(h + 8, info.flags);
  StoreLeU32(h + 12, info.filter_bits);
  StoreLeU64(h + 16, info.row_count);
  StoreLeU32(h + 24, info.row_stride_bytes);  // bytes 28..31 reserved, zero
  StoreLeU64(h + 32, Fnv1a64(out.data() + info.ids_offset(), n * 8));
  StoreLeU64(h + 40, include_popcounts
                         ? Fnv1a64(out.data() + info.popcounts_offset(), n * 4)
                         : 0);
  StoreLeU64(h + 48, Fnv1a64(rows, n * info.row_stride_bytes));
  StoreLeU64(h + kHeaderChecksumOffset, Fnv1a64(h, kHeaderChecksumOffset));
  return out;
}

Result<EncodedShard> DecodePclk(const uint8_t* data, size_t size) {
  auto info = DecodePclkHeader(data, size);
  if (!info.ok()) return info.status();
  PPRL_RETURN_IF_ERROR(CheckSize(*info, size));
  const uint8_t* rows = data + info->rows_offset();
  return DecodeSections(data, *info, data + info->ids_offset(),
                        [&rows](uint8_t* dst, size_t n) {
                          std::memcpy(dst, rows, n);
                          rows += n;
                          return true;
                        });
}

Status WritePclkFile(const std::string& path, const EncodedShard& shard,
                     bool include_popcounts) {
  const std::vector<uint8_t> bytes = EncodePclk(shard, include_popcounts);
  File f(std::fopen(path.c_str(), "wb"));
  if (f == nullptr) return Status::IoError("cannot open " + path + " for writing");
  if (!bytes.empty() &&
      std::fwrite(bytes.data(), 1, bytes.size(), f.get()) != bytes.size()) {
    return Status::IoError("write to " + path + " failed");
  }
  if (std::fflush(f.get()) != 0) {
    return Status::IoError("write to " + path + " failed");
  }
  return Status::OK();
}

Result<PclkInfo> ReadPclkInfo(const std::string& path) {
  File f(std::fopen(path.c_str(), "rb"));
  if (f == nullptr) return Status::IoError("cannot open " + path);
  uint8_t header[kPclkHeaderBytes];
  return ReadHeaderFrom(f.get(), path, header);
}

Result<EncodedShard> ReadPclkFile(const std::string& path) {
  File f(std::fopen(path.c_str(), "rb"));
  if (f == nullptr) return Status::IoError("cannot open " + path);
  uint8_t header[kPclkHeaderBytes];
  auto info = ReadHeaderFrom(f.get(), path, header);
  if (!info.ok()) return info.status();
  PPRL_RETURN_IF_ERROR(CheckSize(*info, FileSize(f.get())).WithContext(path));
  // The ids, popcounts and padding arrive as one span; the rows then
  // stream from the file straight into the matrix.
  std::vector<uint8_t> mid(info->rows_offset() - info->ids_offset());
  if (!ReadExact(f.get(), mid.data(), mid.size())) {
    return Status::OutOfRange(path + ": PCLK sections truncated");
  }
  auto shard = DecodeSections(header, *info, mid.data(), [&f](uint8_t* dst, size_t n) {
    return ReadExact(f.get(), dst, n);
  });
  if (!shard.ok()) return shard.status().WithContext(path);
  return shard;
}

Result<EncodedShard> ReadPclkSlice(const std::string& path, uint64_t row_begin,
                                   uint64_t row_count) {
  File f(std::fopen(path.c_str(), "rb"));
  if (f == nullptr) return Status::IoError("cannot open " + path);
  uint8_t raw[kPclkHeaderBytes];
  auto header = ReadHeaderFrom(f.get(), path, raw);
  if (!header.ok()) return header.status();
  const PclkInfo& info = *header;
  if (row_begin > info.row_count || row_count > info.row_count - row_begin) {
    return Status::OutOfRange("PCLK slice [" + std::to_string(row_begin) + ", " +
                              std::to_string(row_begin + row_count) +
                              ") out of range for " +
                              std::to_string(info.row_count) + " rows");
  }

  // Nothing is allocated for rows the file does not hold.
  if (FileSize(f.get()) < info.total_bytes()) {
    return Status::OutOfRange(path + ": PCLK shard truncated");
  }
  EncodedShard shard;
  shard.ids.resize(row_count);
  shard.bits = BitMatrix(row_count, info.filter_bits);
  if (row_count == 0) return shard;

  if (std::fseek(f.get(), static_cast<long>(info.ids_offset() + row_begin * 8),
                 SEEK_SET) != 0) {
    return Status::IoError(path + ": seek failed");
  }
  std::vector<uint8_t> id_bytes(row_count * 8);
  if (!ReadExact(f.get(), id_bytes.data(), id_bytes.size())) {
    return Status::OutOfRange(path + ": PCLK ids truncated");
  }
  LoadLeSpan(shard.ids.data(), id_bytes.data(), row_count);

  std::vector<uint8_t> pop_bytes;
  if (info.has_popcounts()) {
    if (std::fseek(f.get(),
                   static_cast<long>(info.popcounts_offset() + row_begin * 4),
                   SEEK_SET) != 0) {
      return Status::IoError(path + ": seek failed");
    }
    pop_bytes.resize(row_count * 4);
    if (!ReadExact(f.get(), pop_bytes.data(), pop_bytes.size())) {
      return Status::OutOfRange(path + ": PCLK popcounts truncated");
    }
  }

  if (std::fseek(f.get(),
                 static_cast<long>(info.rows_offset() +
                                   row_begin * info.row_stride_bytes),
                 SEEK_SET) != 0) {
    return Status::IoError(path + ": seek failed");
  }
  std::vector<uint8_t> row(info.row_stride_bytes);
  for (uint64_t r = 0; r < row_count; ++r) {
    if (!ReadExact(f.get(), row.data(), row.size())) {
      return Status::OutOfRange(path + ": PCLK rows truncated");
    }
    if (!LoadRow(shard.bits, r, row.data(), row.size())) return StridePaddingError(r);
  }
  PPRL_RETURN_IF_ERROR(ValidateRows(
      shard.bits, info, pop_bytes.empty() ? nullptr : pop_bytes.data()));
  return shard;
}

bool LooksLikePclkFile(const std::string& path) {
  File f(std::fopen(path.c_str(), "rb"));
  if (f == nullptr) return false;
  uint8_t magic[4];
  return ReadExact(f.get(), magic, sizeof(magic)) && LoadLeU32(magic) == kPclkMagic;
}

}  // namespace pprl::io
