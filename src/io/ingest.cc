#include "io/ingest.h"

#include <chrono>
#include <cstdio>

#include "common/base64.h"
#include "common/csv.h"
#include "common/record.h"
#include "common/strings.h"
#include "io/pclk.h"
#include "obs/metrics.h"

namespace pprl::io {

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Reports one finished ingest into the pprl_ingest_* family. The
/// instrument lookups are cached per format, so per-call cost is three
/// relaxed atomics.
void ReportIngest(const char* format, const IngestStats& stats) {
  auto& registry = obs::GlobalMetrics();
  const obs::Labels labels = {{"format", format}};
  registry
      .GetCounter("pprl_ingest_bytes_total",
                  "Input bytes consumed by shard ingest", labels)
      .Increment(stats.input_bytes);
  registry
      .GetCounter("pprl_ingest_records_total",
                  "Records materialized by shard ingest", labels)
      .Increment(stats.records);
  registry
      .GetHistogram("pprl_ingest_seconds", "Wall time of one ingest call",
                    obs::DefaultLatencyBuckets(), labels)
      .Observe(stats.seconds);
}

uint64_t FileSizeBytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return 0;
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  return size > 0 ? static_cast<uint64_t>(size) : 0;
}

bool HasPclkExtension(const std::string& path) {
  constexpr std::string_view kExt = ".pclk";
  return path.size() >= kExt.size() &&
         std::string_view(path).substr(path.size() - kExt.size()) == kExt;
}

bool FileExists(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::fclose(f);
  return true;
}

/// The parsed header row of a QID CSV: where the bookkeeping columns are
/// and which columns are QID fields (datagen/io rules).
struct QidHeader {
  int id_col = -1;
  int entity_col = -1;
  Schema schema;
  std::vector<size_t> qid_cols;
  size_t width = 0;
};

Status ParseQidHeader(CsvCursor& cursor, QidHeader& out) {
  if (!cursor.Next()) {
    if (!cursor.status().ok()) return cursor.status();
    return Status::InvalidArgument("CSV input has no header row");
  }
  out.width = cursor.field_count();
  for (size_t c = 0; c < out.width; ++c) {
    const std::string name(cursor.field(c));
    if (name == "id" && out.id_col < 0) {
      out.id_col = static_cast<int>(c);
    } else if (name == "entity_id" && out.entity_col < 0) {
      out.entity_col = static_cast<int>(c);
    } else {
      out.schema.fields.push_back({name, GuessFieldTypeFromName(name)});
      out.qid_cols.push_back(c);
    }
  }
  if (out.schema.fields.empty()) {
    return Status::InvalidArgument("CSV has no QID columns");
  }
  return Status::OK();
}

}  // namespace

const char* ShardFileFormatName(ShardFileFormat format) {
  switch (format) {
    case ShardFileFormat::kAuto:
      return "auto";
    case ShardFileFormat::kCsv:
      return "csv";
    case ShardFileFormat::kPclk:
      return "pclk";
  }
  return "auto";
}

ShardBuilder::ShardBuilder(size_t filter_bits)
    : filter_bits_(filter_bits), bits_(0, filter_bits) {}

Status ShardBuilder::Append(uint64_t id, const BitVector& filter) {
  if (filter.size() != filter_bits_) {
    return Status::InvalidArgument(
        "filter has " + std::to_string(filter.size()) + " bits, shard takes " +
        std::to_string(filter_bits_));
  }
  bits_.AppendRow(filter);
  ids_.push_back(id);
  return Status::OK();
}

Status ShardBuilder::AppendBytes(uint64_t id, const uint8_t* bytes, size_t len) {
  if (len < PackedRowBytes(filter_bits_)) {
    return Status::InvalidArgument("byte buffer shorter than declared bit length");
  }
  const size_t r = bits_.AppendRow();
  LoadPackedRow(bytes, filter_bits_, bits_.mutable_row(r));
  bits_.RecountRow(r);
  ids_.push_back(id);
  return Status::OK();
}

EncodedShard ShardBuilder::Finish() {
  EncodedShard shard;
  shard.bits = std::move(bits_);
  shard.ids = std::move(ids_);
  ids_ = {};
  bits_ = BitMatrix(0, filter_bits_);
  return shard;
}

Result<EncodedShard> EncodeCsvToShard(const std::string& path,
                                      const ClkEncoder& encoder,
                                      CsvCursorOptions options,
                                      IngestStats* stats) {
  const Clock::time_point start = Clock::now();
  auto cursor = CsvCursor::OpenFile(path, options);
  if (!cursor.ok()) return cursor.status();

  QidHeader header;
  PPRL_RETURN_IF_ERROR(ParseQidHeader(*cursor, header));

  // One Record reused for every row: the values vector keeps its string
  // capacity, so steady state does no per-row allocation.
  ShardBuilder builder(encoder.params().num_bits);
  Record record;
  record.values.resize(header.qid_cols.size());
  uint64_t row = 0;
  while (cursor->Next()) {
    if (cursor->field_count() != header.width) {
      return Status::InvalidArgument(
          "CSV row " + std::to_string(row + 1) + " has " +
          std::to_string(cursor->field_count()) + " fields, expected " +
          std::to_string(header.width));
    }
    record.id = row;
    if (header.id_col >= 0) {
      PPRL_RETURN_IF_ERROR(ParseCsvRecordId(
          cursor->field(static_cast<size_t>(header.id_col)), "id", row + 1, record.id));
    }
    for (size_t k = 0; k < header.qid_cols.size(); ++k) {
      const std::string_view v = cursor->field(header.qid_cols[k]);
      record.values[k].assign(v.data(), v.size());
    }
    auto filter = encoder.Encode(header.schema, record);
    if (!filter.ok()) return filter.status();
    PPRL_RETURN_IF_ERROR(builder.Append(record.id, filter.value()));
    ++row;
  }
  if (!cursor->status().ok()) return cursor->status();

  IngestStats local;
  local.input_bytes = cursor->bytes_consumed();
  local.records = row;
  local.seconds = SecondsSince(start);
  ReportIngest("csv", local);
  if (stats != nullptr) *stats = local;
  return builder.Finish();
}

Result<Schema> ReadCsvSchema(const std::string& path, CsvCursorOptions options) {
  auto cursor = CsvCursor::OpenFile(path, options);
  if (!cursor.ok()) return cursor.status();
  QidHeader header;
  PPRL_RETURN_IF_ERROR(ParseQidHeader(*cursor, header));
  return header.schema;
}

Result<Database> ReadDatabaseCsvStream(const std::string& path,
                                       CsvCursorOptions options,
                                       IngestStats* stats) {
  const Clock::time_point start = Clock::now();
  auto cursor = CsvCursor::OpenFile(path, options);
  if (!cursor.ok()) return cursor.status();

  QidHeader header;
  PPRL_RETURN_IF_ERROR(ParseQidHeader(*cursor, header));
  Database db;
  db.schema = header.schema;

  uint64_t row = 0;
  while (cursor->Next()) {
    if (cursor->field_count() != header.width) {
      return Status::InvalidArgument(
          "CSV row " + std::to_string(row + 1) + " has " +
          std::to_string(cursor->field_count()) + " fields, expected " +
          std::to_string(header.width));
    }
    Record record;
    record.id = row;
    if (header.id_col >= 0) {
      PPRL_RETURN_IF_ERROR(ParseCsvRecordId(
          cursor->field(static_cast<size_t>(header.id_col)), "id", row + 1, record.id));
    }
    if (header.entity_col >= 0) {
      PPRL_RETURN_IF_ERROR(
          ParseCsvRecordId(cursor->field(static_cast<size_t>(header.entity_col)),
                           "entity_id", row + 1, record.entity_id));
    }
    record.values.reserve(header.qid_cols.size());
    for (size_t qid_col : header.qid_cols) {
      const std::string_view v = cursor->field(qid_col);
      record.values.emplace_back(v.data(), v.size());
    }
    db.records.push_back(std::move(record));
    ++row;
  }
  if (!cursor->status().ok()) return cursor->status();

  IngestStats local;
  local.input_bytes = cursor->bytes_consumed();
  local.records = row;
  local.seconds = SecondsSince(start);
  ReportIngest("csv", local);
  if (stats != nullptr) *stats = local;
  return db;
}

Result<EncodedShard> ReadCsvShard(const std::string& path,
                                  CsvCursorOptions options, IngestStats* stats) {
  const Clock::time_point start = Clock::now();
  auto cursor = CsvCursor::OpenFile(path, options);
  if (!cursor.ok()) return cursor.status();

  if (!cursor->Next()) {
    if (!cursor->status().ok()) return cursor->status();
    return Status::InvalidArgument("CSV input has no header row");
  }
  int id_col = -1;
  int bits_col = -1;
  int clk_col = -1;
  const size_t header_width = cursor->field_count();
  for (size_t c = 0; c < header_width; ++c) {
    const std::string_view name = cursor->field(c);
    if (name == "id") id_col = static_cast<int>(c);
    if (name == "bits") bits_col = static_cast<int>(c);
    if (name == "clk") clk_col = static_cast<int>(c);
  }
  if (id_col < 0 || bits_col < 0 || clk_col < 0) {
    return Status::InvalidArgument("encoded file needs id, bits, clk columns");
  }

  ShardBuilder builder(0);
  bool saw_row = false;
  std::string clk_text;  // reused base64 buffer
  uint64_t row = 0;
  while (cursor->Next()) {
    if (cursor->field_count() != header_width) {
      return Status::InvalidArgument(
          "CSV row " + std::to_string(row + 1) + " has " +
          std::to_string(cursor->field_count()) + " fields, expected " +
          std::to_string(header_width));
    }
    const std::string_view id_text = cursor->field(static_cast<size_t>(id_col));
    const std::string_view bits_text = cursor->field(static_cast<size_t>(bits_col));
    if (!IsInteger(id_text) || !IsInteger(bits_text)) {
      return Status::InvalidArgument("bad id/bits in row " + std::to_string(row));
    }
    uint64_t id = 0;
    uint64_t bits = 0;
    PPRL_RETURN_IF_ERROR(ParseCsvRecordId(id_text, "id", row + 1, id));
    PPRL_RETURN_IF_ERROR(ParseCsvRecordId(bits_text, "bits", row + 1, bits));
    if (!saw_row) {
      builder = ShardBuilder(bits);
      saw_row = true;
    } else if (bits != builder.filter_bits()) {
      return Status::InvalidArgument("inconsistent filter lengths in encoded file");
    }
    const std::string_view clk_view = cursor->field(static_cast<size_t>(clk_col));
    clk_text.assign(clk_view.data(), clk_view.size());
    auto bytes = Base64Decode(clk_text);
    if (!bytes.ok()) return bytes.status();
    PPRL_RETURN_IF_ERROR(builder.AppendBytes(id, bytes->data(), bytes->size()));
    ++row;
  }
  if (!cursor->status().ok()) return cursor->status();

  IngestStats local;
  local.input_bytes = cursor->bytes_consumed();
  local.records = row;
  local.seconds = SecondsSince(start);
  ReportIngest("csv", local);
  if (stats != nullptr) *stats = local;
  return builder.Finish();
}

ShardFileFormat DetectShardFileFormat(const std::string& path) {
  if (FileExists(path)) {
    return LooksLikePclkFile(path) ? ShardFileFormat::kPclk : ShardFileFormat::kCsv;
  }
  return HasPclkExtension(path) ? ShardFileFormat::kPclk : ShardFileFormat::kCsv;
}

Result<EncodedShard> ReadShardAuto(const std::string& path,
                                   ShardFileFormat format, IngestStats* stats) {
  if (format == ShardFileFormat::kAuto) format = DetectShardFileFormat(path);
  if (format == ShardFileFormat::kCsv) return ReadCsvShard(path, {}, stats);

  const Clock::time_point start = Clock::now();
  auto shard = ReadPclkFile(path);
  if (!shard.ok()) return shard.status();
  IngestStats local;
  local.input_bytes = FileSizeBytes(path);
  local.records = shard->size();
  local.seconds = SecondsSince(start);
  ReportIngest("pclk", local);
  if (stats != nullptr) *stats = local;
  return shard;
}

Status WriteShardFile(const std::string& path, const EncodedShard& shard,
                      ShardFileFormat format) {
  if (format == ShardFileFormat::kAuto) {
    format = HasPclkExtension(path) ? ShardFileFormat::kPclk : ShardFileFormat::kCsv;
  }
  if (format == ShardFileFormat::kPclk) return WritePclkFile(path, shard);
  return WriteEncodedDatabase(path, EncodedDatabaseFromShard(shard));
}

}  // namespace pprl::io
