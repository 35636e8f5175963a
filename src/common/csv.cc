#include "common/csv.h"

#include <charconv>
#include <fstream>
#include <sstream>

#include "common/strings.h"

namespace pprl {

int CsvTable::ColumnIndex(const std::string& column) const {
  for (size_t i = 0; i < header.size(); ++i) {
    if (header[i] == column) return static_cast<int>(i);
  }
  return -1;
}

Result<CsvTable> ParseCsv(const std::string& text) {
  std::vector<std::vector<std::string>> records;
  std::vector<std::string> record;
  std::string field;
  bool in_quotes = false;
  bool field_started = false;

  auto end_field = [&]() {
    record.push_back(std::move(field));
    field.clear();
    field_started = false;
  };
  auto end_record = [&]() {
    end_field();
    records.push_back(std::move(record));
    record.clear();
  };

  for (size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          field += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        field += c;
      }
    } else {
      if (c == '"' && !field_started) {
        in_quotes = true;
        field_started = true;
      } else if (c == ',') {
        end_field();
      } else if (c == '\n') {
        end_record();
      } else if (c == '\r' && i + 1 < text.size() && text[i + 1] == '\n') {
        // CRLF record terminator; the LF on the next iteration ends the
        // record. A CR not followed by LF falls through as literal data.
      } else {
        field += c;
        field_started = true;
      }
    }
  }
  if (in_quotes) {
    return Status::InvalidArgument("unterminated quoted CSV field");
  }
  if (field_started || !record.empty() || !field.empty()) {
    end_record();
  }
  if (records.empty()) {
    return Status::InvalidArgument("CSV input has no header row");
  }

  CsvTable table;
  table.header = std::move(records[0]);
  for (size_t r = 1; r < records.size(); ++r) {
    if (records[r].size() != table.header.size()) {
      return Status::InvalidArgument(
          "CSV row " + std::to_string(r) + " has " + std::to_string(records[r].size()) +
          " fields, expected " + std::to_string(table.header.size()));
    }
    table.rows.push_back(std::move(records[r]));
  }
  return table;
}

namespace {

std::string EscapeField(const std::string& field) {
  const bool needs_quotes = field.find_first_of(",\"\n\r") != std::string::npos;
  if (!needs_quotes) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

void WriteRecord(std::string& out, const std::vector<std::string>& record) {
  for (size_t i = 0; i < record.size(); ++i) {
    if (i > 0) out += ',';
    out += EscapeField(record[i]);
  }
  out += '\n';
}

}  // namespace

std::string WriteCsv(const CsvTable& table) {
  std::string out;
  WriteRecord(out, table.header);
  for (const auto& row : table.rows) WriteRecord(out, row);
  return out;
}

Result<CsvTable> ReadCsvFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ParseCsv(buffer.str());
}

Status WriteCsvFile(const std::string& path, const CsvTable& table) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  out << WriteCsv(table);
  if (!out) return Status::IoError("write to " + path + " failed");
  return Status::OK();
}

Status ParseCsvRecordId(std::string_view text, std::string_view column, uint64_t row,
                        uint64_t& out) {
  if (!IsInteger(text)) return Status::OK();
  uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) {
    return Status::InvalidArgument("CSV row " + std::to_string(row) + ": " +
                                   std::string(column) + " '" + std::string(text) +
                                   "' is not an unsigned 64-bit integer");
  }
  out = value;
  return Status::OK();
}

}  // namespace pprl
