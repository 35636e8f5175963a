#include "encoding/clk_io.h"

#include "common/base64.h"
#include "common/csv.h"
#include "common/strings.h"
#include "common/wire.h"

namespace pprl {

EncodedShard ShardFromEncodedDatabase(const EncodedDatabase& encoded) {
  EncodedShard shard;
  shard.ids = encoded.ids;
  shard.bits = BitMatrix::FromVectors(encoded.filters);
  return shard;
}

EncodedDatabase EncodedDatabaseFromShard(const EncodedShard& shard) {
  EncodedDatabase encoded;
  encoded.ids = shard.ids;
  encoded.filters = shard.bits.ToVectors();
  return encoded;
}

std::vector<uint8_t> BitVectorToBytes(const BitVector& bv) {
  std::vector<uint8_t> out(PackedRowBytes(bv.size()));
  StorePackedRow(bv.words().data(), bv.size(), out.data());
  return out;
}

BitVector BitVectorFromPackedRow(const uint8_t* bytes, size_t num_bits) {
  std::vector<uint64_t> words(RowWords(num_bits));
  LoadPackedRow(bytes, num_bits, words.data());
  return BitVector::FromWords(num_bits, std::move(words));
}

namespace {

void StorePackedRecord(uint64_t id, const uint64_t* words, size_t filter_bits,
                       uint8_t* out) {
  StoreLeU64(out, id);
  StorePackedRow(words, filter_bits, out + 8);
}

}  // namespace

void StorePackedRecords(const EncodedDatabase& encoded, size_t begin, size_t end,
                        size_t filter_bits, uint8_t* out) {
  for (size_t i = begin; i < end; ++i, out += PackedRecordBytes(filter_bits)) {
    StorePackedRecord(encoded.ids[i], encoded.filters[i].words().data(),
                      filter_bits, out);
  }
}

void StorePackedRecords(const EncodedShard& shard, size_t begin, size_t end,
                        uint8_t* out) {
  const size_t filter_bits = shard.bits.num_bits();
  for (size_t i = begin; i < end; ++i, out += PackedRecordBytes(filter_bits)) {
    StorePackedRecord(shard.ids[i], shard.bits.row(i), filter_bits, out);
  }
}

void LoadPackedRecords(const uint8_t* data, size_t count, size_t filter_bits,
                       EncodedDatabase* out) {
  out->ids.reserve(out->ids.size() + count);
  out->filters.reserve(out->filters.size() + count);
  for (size_t i = 0; i < count; ++i, data += PackedRecordBytes(filter_bits)) {
    out->ids.push_back(LoadLeU64(data));
    out->filters.push_back(BitVectorFromPackedRow(data + 8, filter_bits));
  }
}

Result<BitVector> BitVectorFromBytes(const std::vector<uint8_t>& bytes,
                                     size_t num_bits) {
  if (bytes.size() < PackedRowBytes(num_bits)) {
    return Status::InvalidArgument("byte buffer shorter than declared bit length");
  }
  return BitVectorFromPackedRow(bytes.data(), num_bits);
}

Status WriteEncodedDatabase(const std::string& path, const EncodedDatabase& encoded) {
  if (encoded.ids.size() != encoded.filters.size()) {
    return Status::InvalidArgument("ids and filters must have equal length");
  }
  CsvTable table;
  table.header = {"id", "bits", "clk"};
  table.rows.reserve(encoded.size());
  for (size_t i = 0; i < encoded.size(); ++i) {
    if (!encoded.filters.empty() &&
        encoded.filters[i].size() != encoded.filters[0].size()) {
      return Status::InvalidArgument("all filters must share one bit length");
    }
    table.rows.push_back({std::to_string(encoded.ids[i]),
                          std::to_string(encoded.filters[i].size()),
                          Base64Encode(BitVectorToBytes(encoded.filters[i]))});
  }
  return WriteCsvFile(path, table);
}

Result<EncodedDatabase> ReadEncodedDatabase(const std::string& path) {
  auto table = ReadCsvFile(path);
  if (!table.ok()) return table.status();
  const int id_col = table->ColumnIndex("id");
  const int bits_col = table->ColumnIndex("bits");
  const int clk_col = table->ColumnIndex("clk");
  if (id_col < 0 || bits_col < 0 || clk_col < 0) {
    return Status::InvalidArgument("encoded file needs id, bits, clk columns");
  }
  EncodedDatabase out;
  out.ids.reserve(table->rows.size());
  out.filters.reserve(table->rows.size());
  for (size_t r = 0; r < table->rows.size(); ++r) {
    const auto& row = table->rows[r];
    if (!IsInteger(row[static_cast<size_t>(id_col)]) ||
        !IsInteger(row[static_cast<size_t>(bits_col)])) {
      return Status::InvalidArgument("bad id/bits in row " + std::to_string(r));
    }
    uint64_t id = 0;
    uint64_t bits = 0;
    PPRL_RETURN_IF_ERROR(
        ParseCsvRecordId(row[static_cast<size_t>(id_col)], "id", r + 1, id));
    PPRL_RETURN_IF_ERROR(
        ParseCsvRecordId(row[static_cast<size_t>(bits_col)], "bits", r + 1, bits));
    auto bytes = Base64Decode(row[static_cast<size_t>(clk_col)]);
    if (!bytes.ok()) return bytes.status();
    auto filter = BitVectorFromBytes(bytes.value(), bits);
    if (!filter.ok()) return filter.status();
    if (!out.filters.empty() && filter->size() != out.filters[0].size()) {
      return Status::InvalidArgument("inconsistent filter lengths in encoded file");
    }
    out.ids.push_back(id);
    out.filters.push_back(std::move(filter).value());
  }
  return out;
}

}  // namespace pprl
