#include "datagen/io.h"

#include "io/ingest.h"

namespace pprl {

Result<Database> DatabaseFromCsv(const CsvTable& table) {
  const int id_col = table.ColumnIndex("id");
  const int entity_col = table.ColumnIndex("entity_id");

  Database db;
  for (size_t c = 0; c < table.header.size(); ++c) {
    if (static_cast<int>(c) == id_col || static_cast<int>(c) == entity_col) continue;
    db.schema.fields.push_back(
        {table.header[c], GuessFieldTypeFromName(table.header[c])});
  }
  if (db.schema.fields.empty()) {
    return Status::InvalidArgument("CSV has no QID columns");
  }

  db.records.reserve(table.rows.size());
  for (size_t r = 0; r < table.rows.size(); ++r) {
    const auto& row = table.rows[r];
    Record record;
    record.id = r;
    if (id_col >= 0) {
      PPRL_RETURN_IF_ERROR(
          ParseCsvRecordId(row[static_cast<size_t>(id_col)], "id", r + 1, record.id));
    }
    if (entity_col >= 0) {
      PPRL_RETURN_IF_ERROR(ParseCsvRecordId(row[static_cast<size_t>(entity_col)],
                                            "entity_id", r + 1, record.entity_id));
    }
    record.values.reserve(db.schema.size());
    for (size_t c = 0; c < table.header.size(); ++c) {
      if (static_cast<int>(c) == id_col || static_cast<int>(c) == entity_col) continue;
      record.values.push_back(row[c]);
    }
    db.records.push_back(std::move(record));
  }
  return db;
}

Result<Database> ReadDatabaseCsv(const std::string& path) {
  // The streaming reader parses the identical dialect and applies the
  // identical schema/bookkeeping rules as DatabaseFromCsv, one buffered
  // window at a time (io/ingest.h); datagen_io_test holds the two paths to
  // identical results.
  return io::ReadDatabaseCsvStream(path);
}

CsvTable DatabaseToCsv(const Database& db, bool include_entity_ids) {
  CsvTable table;
  if (include_entity_ids) {
    table.header = {"id", "entity_id"};
  } else {
    table.header = {"id"};
  }
  for (const FieldSpec& field : db.schema.fields) table.header.push_back(field.name);
  table.rows.reserve(db.records.size());
  for (const Record& record : db.records) {
    std::vector<std::string> row;
    row.push_back(std::to_string(record.id));
    if (include_entity_ids) row.push_back(std::to_string(record.entity_id));
    for (size_t c = 0; c < db.schema.size(); ++c) {
      row.push_back(c < record.values.size() ? record.values[c] : "");
    }
    table.rows.push_back(std::move(row));
  }
  return table;
}

Status WriteDatabaseCsv(const std::string& path, const Database& db,
                        bool include_entity_ids) {
  return WriteCsvFile(path, DatabaseToCsv(db, include_entity_ids));
}

}  // namespace pprl
