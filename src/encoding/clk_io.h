#ifndef PPRL_ENCODING_CLK_IO_H_
#define PPRL_ENCODING_CLK_IO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/bit_matrix.h"
#include "common/bitvector.h"
#include "common/status.h"

namespace pprl {

/// Interchange format for encoded databases (the artefact a database owner
/// actually ships to a linkage unit): a CSV with columns
///   id, bits, clk
/// where `clk` is the base64-encoded little-endian byte serialisation of
/// the filter and `bits` its exact bit length. No quasi-identifiers leave
/// the owner — this is the file-level equivalent of the clkhash/anonlink
/// workflow.

/// An encoded database ready for file exchange.
struct EncodedDatabase {
  std::vector<uint64_t> ids;
  std::vector<BitVector> filters;

  size_t size() const { return filters.size(); }
};

/// The batch-layout twin of `EncodedDatabase`: the same ids, with the
/// filters packed as contiguous `BitMatrix` rows instead of one heap
/// allocation per record. This is the type the streaming ingest path
/// (io/ingest.h) produces, the PCLK shard format (io/pclk.h) stores, and
/// the comparison kernels consume — a million-record shipment never has
/// to exist as a million `BitVector`s.
struct EncodedShard {
  std::vector<uint64_t> ids;
  BitMatrix bits;

  size_t size() const { return bits.num_rows(); }
};

/// Packs per-record filters into the batch layout (lossless).
EncodedShard ShardFromEncodedDatabase(const EncodedDatabase& encoded);

/// Unpacks back into per-record filters; inverse of ShardFromEncodedDatabase.
EncodedDatabase EncodedDatabaseFromShard(const EncodedShard& shard);

/// Serialises a filter to its packed row (common/bitvector.h: bit 0 is
/// the LSB of byte 0; trailing bits zero).
std::vector<uint8_t> BitVectorToBytes(const BitVector& bv);

/// Inverse of BitVectorToBytes; `num_bits` trims the final byte.
Result<BitVector> BitVectorFromBytes(const std::vector<uint8_t>& bytes, size_t num_bits);

/// Loads a filter from the packed row at `bytes`, which must hold
/// PackedRowBytes(num_bits) bytes; stray bits past `num_bits` are dropped.
BitVector BitVectorFromPackedRow(const uint8_t* bytes, size_t num_bits);

/// The packed record: a little-endian u64 id, then the filter's packed
/// row. Shipments, online append and query batches and WAL append
/// batches are runs of it (docs/PROTOCOLS.md, "Byte layer"), and it is
/// the byte count the in-process channel meters for a shipment.
inline size_t PackedRecordBytes(size_t filter_bits) {
  return 8 + PackedRowBytes(filter_bits);
}

/// Stores records [begin, end) as packed records from `out` on, which
/// must hold (end - begin) * PackedRecordBytes(filter_bits) bytes. Every
/// filter must be `filter_bits` long.
void StorePackedRecords(const EncodedDatabase& encoded, size_t begin, size_t end,
                        size_t filter_bits, uint8_t* out);
void StorePackedRecords(const EncodedShard& shard, size_t begin, size_t end,
                        uint8_t* out);

/// Appends the `count` packed records at `data` to `out`, each record
/// read in place; stray bits past `filter_bits` are dropped.
void LoadPackedRecords(const uint8_t* data, size_t count, size_t filter_bits,
                       EncodedDatabase* out);

/// Writes an encoded database to `path`. `ids` and `filters` must have the
/// same length and all filters one common bit length.
Status WriteEncodedDatabase(const std::string& path, const EncodedDatabase& encoded);

/// Reads an encoded database written by WriteEncodedDatabase.
Result<EncodedDatabase> ReadEncodedDatabase(const std::string& path);

}  // namespace pprl

#endif  // PPRL_ENCODING_CLK_IO_H_
