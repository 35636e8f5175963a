#include "blocking/blocking.h"

#include <algorithm>
#include <set>

#include "common/strings.h"
#include "crypto/hash.h"
#include "encoding/phonetic.h"

namespace pprl {

StandardBlocker::StandardBlocker(BlockingKeyFunction key_function)
    : key_function_(std::move(key_function)) {}

BlockIndex StandardBlocker::BuildIndex(const Database& db) const {
  BlockIndex index;
  for (uint32_t i = 0; i < db.records.size(); ++i) {
    for (const std::string& key : key_function_(db.schema, db.records[i])) {
      index[key].push_back(i);
    }
  }
  return index;
}

std::vector<CandidatePair> StandardBlocker::CandidatePairs(const BlockIndex& a,
                                                           const BlockIndex& b) {
  std::vector<CandidatePair> pairs;
  for (const auto& [key, a_records] : a) {
    const auto it = b.find(key);
    if (it == b.end()) continue;
    for (uint32_t ra : a_records) {
      for (uint32_t rb : it->second) pairs.push_back({ra, rb});
    }
  }
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  return pairs;
}

BlockingKeyFunction SoundexNameKey(const std::string& secret_key) {
  return [key = HmacSha256Key(secret_key)](const Schema& schema, const Record& record) {
    std::vector<std::string> keys;
    const int last_idx = schema.FieldIndex("last_name");
    const int first_idx = schema.FieldIndex("first_name");
    std::string material = "snk\x1f";
    if (last_idx >= 0 && static_cast<size_t>(last_idx) < record.values.size()) {
      material += Soundex(record.values[static_cast<size_t>(last_idx)]);
    }
    material += '\x1f';
    if (first_idx >= 0 && static_cast<size_t>(first_idx) < record.values.size() &&
        !record.values[static_cast<size_t>(first_idx)].empty()) {
      material += ToLower(record.values[static_cast<size_t>(first_idx)].substr(0, 1));
    }
    keys.push_back(DigestToHex(key.Mac(material)).substr(0, 16));
    return keys;
  };
}

BlockingKeyFunction ExactAttributeKey(const std::string& field_name,
                                      const std::string& secret_key) {
  return [field_name, key = HmacSha256Key(secret_key)](const Schema& schema,
                                                       const Record& record) {
    std::vector<std::string> keys;
    const int idx = schema.FieldIndex(field_name);
    if (idx >= 0 && static_cast<size_t>(idx) < record.values.size()) {
      const std::string material = "eak\x1f" + field_name + "\x1f" +
                                   NormalizeQid(record.values[static_cast<size_t>(idx)]);
      keys.push_back(DigestToHex(key.Mac(material)).substr(0, 16));
    }
    return keys;
  };
}

SortedNeighborhoodBlocker::SortedNeighborhoodBlocker(BlockingKeyFunction key_function,
                                                     size_t window)
    : key_function_(std::move(key_function)), window_(window < 2 ? 2 : window) {}

std::vector<CandidatePair> SortedNeighborhoodBlocker::CandidatePairs(
    const Database& a, const Database& b) const {
  struct Entry {
    std::string key;
    uint32_t index;
    bool from_a;
  };
  std::vector<Entry> entries;
  entries.reserve(a.records.size() + b.records.size());
  for (uint32_t i = 0; i < a.records.size(); ++i) {
    for (const std::string& key : key_function_(a.schema, a.records[i])) {
      entries.push_back({key, i, true});
    }
  }
  for (uint32_t i = 0; i < b.records.size(); ++i) {
    for (const std::string& key : key_function_(b.schema, b.records[i])) {
      entries.push_back({key, i, false});
    }
  }
  std::sort(entries.begin(), entries.end(),
            [](const Entry& x, const Entry& y) { return x.key < y.key; });

  std::set<CandidatePair> pairs;
  for (size_t i = 0; i < entries.size(); ++i) {
    for (size_t j = i + 1; j < entries.size() && j < i + window_; ++j) {
      if (entries[i].from_a == entries[j].from_a) continue;
      const Entry& ea = entries[i].from_a ? entries[i] : entries[j];
      const Entry& eb = entries[i].from_a ? entries[j] : entries[i];
      pairs.insert({ea.index, eb.index});
    }
  }
  return std::vector<CandidatePair>(pairs.begin(), pairs.end());
}

std::vector<CandidatePair> FullPairs(size_t size_a, size_t size_b) {
  std::vector<CandidatePair> pairs;
  pairs.reserve(size_a * size_b);
  for (uint32_t i = 0; i < size_a; ++i) {
    for (uint32_t j = 0; j < size_b; ++j) pairs.push_back({i, j});
  }
  return pairs;
}

}  // namespace pprl
