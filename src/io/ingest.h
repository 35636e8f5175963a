#ifndef PPRL_IO_INGEST_H_
#define PPRL_IO_INGEST_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/bit_matrix.h"
#include "common/record.h"
#include "common/status.h"
#include "encoding/bloom_filter.h"
#include "encoding/clk_io.h"
#include "io/csv_stream.h"

namespace pprl::io {

/// The back half of the I/O subsystem: everything that turns files into
/// `EncodedShard`s (and back) without materializing per-record
/// intermediates. A million-record owner upload goes
///   CSV bytes -> CsvCursor field views -> ClkEncoder -> ShardBuilder rows
/// with one `Record` object reused for every row and the filters written
/// straight into `BitMatrix` storage — no `Database`, no
/// `std::vector<BitVector>`, no `CsvTable` ever exists.
///
/// Every loader reports into the ingest metric family
/// (docs/OBSERVABILITY.md):
///   pprl_ingest_bytes_total{format=...}    input bytes consumed
///   pprl_ingest_records_total{format=...}  records materialized
///   pprl_ingest_seconds{format=...}        wall time per ingest call

/// On-disk representations of an encoded shard.
enum class ShardFileFormat {
  kAuto,  ///< read: sniff the PCLK magic; write: by ".pclk" extension
  kCsv,   ///< the interchange CSV of clk_io.h (id, bits, clk)
  kPclk,  ///< the binary columnar format of pclk.h
};

/// "auto" / "csv" / "pclk" (stable; used in flags and config printouts).
const char* ShardFileFormatName(ShardFileFormat format);

/// Throughput accounting for one ingest call, for benchmarks and logs
/// (metrics are reported independently of whether this is requested).
struct IngestStats {
  uint64_t input_bytes = 0;
  uint64_t records = 0;
  double seconds = 0;

  double mb_per_second() const {
    return seconds > 0 ? static_cast<double>(input_bytes) / 1e6 / seconds : 0;
  }
  double records_per_second() const {
    return seconds > 0 ? static_cast<double>(records) / seconds : 0;
  }
};

/// Incrementally assembles an `EncodedShard`, writing each appended filter
/// directly into `BitMatrix` rows (geometric growth, one memcpy per
/// doubling — never one allocation per record).
class ShardBuilder {
 public:
  /// All appended filters must have exactly `filter_bits` bits.
  explicit ShardBuilder(size_t filter_bits);

  size_t filter_bits() const { return filter_bits_; }
  size_t size() const { return ids_.size(); }

  /// Appends one record; the filter's words are copied into the next row.
  Status Append(uint64_t id, const BitVector& filter);

  /// Appends one record from its packed row (LoadPackedRow in
  /// common/bitvector.h). `len` must cover filter_bits; stray bits past
  /// filter_bits in the final byte are masked off, as in
  /// BitVectorFromBytes.
  Status AppendBytes(uint64_t id, const uint8_t* bytes, size_t len);

  /// Returns the finished shard (row popcounts computed) and resets the
  /// builder to empty.
  EncodedShard Finish();

 private:
  size_t filter_bits_;
  std::vector<uint64_t> ids_;
  BitMatrix bits_;  ///< grows geometrically via BitMatrix::AppendRow
};

/// Reads only the header row of a QID CSV and returns the schema the
/// streaming ingest would use (bookkeeping columns excluded, types by
/// GuessFieldTypeFromName). Lets a caller configure an encoder before the
/// single full pass of EncodeCsvToShard.
Result<Schema> ReadCsvSchema(const std::string& path,
                             CsvCursorOptions options = {});

/// Streams a QID CSV (datagen/io layout: optional "id"/"entity_id"
/// bookkeeping columns, remaining columns QID fields typed by
/// GuessFieldTypeFromName) through `encoder` into a shard. This is the
/// fused ingest path: the file is parsed and encoded in one pass.
Result<EncodedShard> EncodeCsvToShard(const std::string& path,
                                      const ClkEncoder& encoder,
                                      CsvCursorOptions options = {},
                                      IngestStats* stats = nullptr);

/// Streams a QID CSV into a materialized `Database` (datagen/io layout and
/// semantics — same schema guessing, same id/entity_id handling). Unlike
/// the legacy ReadCsvFile path this never builds a `CsvTable`, so every
/// byte is copied once, from the read buffer into its record value.
Result<Database> ReadDatabaseCsvStream(const std::string& path,
                                       CsvCursorOptions options = {},
                                       IngestStats* stats = nullptr);

/// Streams an interchange CSV (id, bits, clk — clk_io.h layout) into a
/// shard, decoding base64 rows straight into matrix rows.
Result<EncodedShard> ReadCsvShard(const std::string& path,
                                  CsvCursorOptions options = {},
                                  IngestStats* stats = nullptr);

/// Loads a shard file in either format, sniffing the PCLK magic (or
/// honouring an explicit `format`).
Result<EncodedShard> ReadShardAuto(const std::string& path,
                                   ShardFileFormat format = ShardFileFormat::kAuto,
                                   IngestStats* stats = nullptr);

/// Writes a shard in `format`; kAuto picks PCLK when `path` ends in
/// ".pclk", the interchange CSV otherwise.
Status WriteShardFile(const std::string& path, const EncodedShard& shard,
                      ShardFileFormat format = ShardFileFormat::kAuto);

/// The format ReadShardAuto would pick for an existing file (by content),
/// or for a new file by extension when it does not exist.
ShardFileFormat DetectShardFileFormat(const std::string& path);

}  // namespace pprl::io

#endif  // PPRL_IO_INGEST_H_
