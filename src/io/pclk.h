#ifndef PPRL_IO_PCLK_H_
#define PPRL_IO_PCLK_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "encoding/clk_io.h"

namespace pprl::io {

/// PCLK — the binary columnar shard format for encoded CLKs.
///
/// The interchange CSV (`clk_io.h`) spends ~10 bytes of text, a base64
/// round-trip and a per-bit unpack loop on every filter byte; PCLK stores
/// the same shipment as sections a reader can fread straight into a
/// `BitMatrix`. Bit rows are laid out at the matrix's own 64-byte-aligned
/// stride, so loading a shard is one contiguous read with no re-packing,
/// and any row range can be addressed by offset arithmetic (head/tail/
/// sample without touching the rest of the file).
///
/// File layout (all integers little-endian):
///
///   offset  size  field
///   0       4     magic 0x4B4C4350 ("PCLK")
///   4       4     version (currently 1)
///   8       4     flags (bit 0: popcount section present)
///   12      4     filter_bits — bit length of every row
///   16      8     row_count
///   24      4     row_stride_bytes — multiple of 64, >= ceil(filter_bits/8)
///   28      4     reserved, must be 0
///   32      8     ids-section checksum (FNV-1a-64)
///   40      8     popcount-section checksum (0 when absent)
///   48      8     rows-section checksum
///   56      8     header checksum — FNV-1a-64 over bytes [0, 56)
///   64      8n    ids section: row_count u64 record ids
///   ...     4n    popcount section (optional): row_count u32 popcounts
///   ...           zero padding to the next 64-byte file offset
///   ...     sn    rows section: row_count rows of row_stride_bytes each;
///                 bits past filter_bits within a row must be 0
///
/// The checksum is the one FNV-1a-64 of the byte layer (common/wire.h),
/// which the protocol-v2 shipment chunks use too, so a spooled shard and a
/// wire chunk corrupt the same way and are caught the same way.
/// DecodePclk and ReadPclkFile run one validation body. Decoder errors
/// are typed:
///   kInvalidArgument   bad magic / unsupported version / bad geometry
///   kOutOfRange        truncated header or sections
///   kProtocolViolation reserved bits set, trailing garbage, stray bits
///                      past filter_bits
///   kIoError           a checksum mismatch (corruption in flight/at rest)
inline constexpr uint32_t kPclkMagic = 0x4B4C4350u;
inline constexpr uint32_t kPclkVersion = 1;
inline constexpr uint32_t kPclkFlagPopcounts = 1u << 0;
inline constexpr size_t kPclkHeaderBytes = 64;

/// A decoded PCLK header: the shard's geometry without its data.
struct PclkInfo {
  uint32_t version = 0;
  uint32_t flags = 0;
  uint32_t filter_bits = 0;
  uint32_t row_stride_bytes = 0;
  uint64_t row_count = 0;

  bool has_popcounts() const { return (flags & kPclkFlagPopcounts) != 0; }
  uint64_t ids_offset() const { return kPclkHeaderBytes; }
  uint64_t popcounts_offset() const { return ids_offset() + row_count * 8; }
  uint64_t rows_offset() const;
  uint64_t total_bytes() const {
    return rows_offset() + row_count * row_stride_bytes;
  }
};

/// Serialises a shard. With `include_popcounts`, the per-row popcount
/// column is written so readers can cross-check row integrity without
/// recounting.
std::vector<uint8_t> EncodePclk(const EncodedShard& shard,
                                bool include_popcounts = true);

/// Full decode with checksum verification (see error taxonomy above).
Result<EncodedShard> DecodePclk(const uint8_t* data, size_t size);

/// Header-only decode (verifies the header checksum and geometry).
Result<PclkInfo> DecodePclkHeader(const uint8_t* data, size_t size);

/// Writes `shard` to `path`, replacing any existing file.
Status WritePclkFile(const std::string& path, const EncodedShard& shard,
                     bool include_popcounts = true);

/// Reads and fully verifies a shard file.
Result<EncodedShard> ReadPclkFile(const std::string& path);

/// Reads only the header of a shard file.
Result<PclkInfo> ReadPclkInfo(const std::string& path);

/// Reads rows [row_begin, row_begin + row_count) by seeking to their
/// section offsets. Section checksums cover whole sections and are NOT
/// verified for a slice (the header checksum still is).
Result<EncodedShard> ReadPclkSlice(const std::string& path, uint64_t row_begin,
                                   uint64_t row_count);

/// True when the file starts with the PCLK magic (format sniffing for the
/// auto-detecting loaders; a missing/short file is just "not PCLK").
bool LooksLikePclkFile(const std::string& path);

}  // namespace pprl::io

#endif  // PPRL_IO_PCLK_H_
