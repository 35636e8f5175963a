#ifndef PPRL_COMMON_CSV_H_
#define PPRL_COMMON_CSV_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace pprl {

/// An in-memory CSV table: a header row plus data rows.
///
/// Used to load/store the synthetic person databases produced by
/// `pprl::datagen` and to export benchmark result series.
struct CsvTable {
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;

  /// Index of `column` in the header, or -1 when absent.
  int ColumnIndex(const std::string& column) const;
};

/// Parses RFC-4180-style CSV text (quoted fields, embedded commas/quotes and
/// newlines inside quotes; records end at LF or CRLF — a CR not followed by
/// LF is field data). The first record is treated as the header. The
/// streaming reader in io/csv_stream.h parses the identical dialect.
Result<CsvTable> ParseCsv(const std::string& text);

/// Serialises `table` to CSV, quoting fields that contain separators.
std::string WriteCsv(const CsvTable& table);

/// Reads and parses the file at `path`.
Result<CsvTable> ReadCsvFile(const std::string& path);

/// Writes `table` to `path`, replacing any existing file.
Status WriteCsvFile(const std::string& path, const CsvTable& table);

/// Parses the integer bookkeeping cell `column` ("id", "entity_id", "bits")
/// of 1-based CSV data row `row` into `out`, with the rule every CSV reader
/// shares: text that is not an integer leaves `out` untouched (the caller's
/// row-index fallback); an integer that is negative or does not fit in 64
/// bits is an InvalidArgument naming the row, never a wrapped value.
Status ParseCsvRecordId(std::string_view text, std::string_view column, uint64_t row,
                        uint64_t& out);

}  // namespace pprl

#endif  // PPRL_COMMON_CSV_H_
