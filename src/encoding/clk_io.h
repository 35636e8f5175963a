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
/// The decoders read each record in place with it.
BitVector BitVectorFromPackedRow(const uint8_t* bytes, size_t num_bits);

/// Writes an encoded database to `path`. `ids` and `filters` must have the
/// same length and all filters one common bit length.
Status WriteEncodedDatabase(const std::string& path, const EncodedDatabase& encoded);

/// Reads an encoded database written by WriteEncodedDatabase.
Result<EncodedDatabase> ReadEncodedDatabase(const std::string& path);

}  // namespace pprl

#endif  // PPRL_ENCODING_CLK_IO_H_
