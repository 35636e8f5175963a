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

size_t CandidateShard::num_pairs() const {
  size_t n = 0;
  for (const PairRun& run : runs) n += run.b_end - run.b_begin;
  return n;
}

namespace {

/// Accumulates PairRuns, splitting them at shard boundaries so every
/// emitted shard covers exactly `shard_size` candidate pairs (the final
/// one fewer). shard_size 0 keeps the unsharded semantics: one shard per
/// Append'ed run group.
class ShardCutter {
 public:
  ShardCutter(size_t shard_size, const CandidateShardFn& emit)
      : shard_size_(shard_size), emit_(emit) {}

  /// Adds the run (a, [b_begin, b_end)) to the current shard.
  void Append(uint32_t a, uint32_t b_begin, uint32_t b_end) {
    while (b_begin < b_end) {
      const size_t width = b_end - b_begin;
      const size_t room =
          shard_size_ == 0 ? width : shard_size_ - buffered_pairs_;
      const uint32_t take = static_cast<uint32_t>(std::min(width, room));
      runs_.push_back({a, b_begin, b_begin + take});
      buffered_pairs_ += take;
      b_begin += take;
      if (shard_size_ != 0 && buffered_pairs_ >= shard_size_) EmitShard();
    }
  }

  /// Ends one unsharded group (one a-record's candidates); no-op when a
  /// fixed shard_size drives the boundaries.
  void EndGroup() {
    if (shard_size_ == 0) EmitShard();
  }

  void Flush() { EmitShard(); }

 private:
  void EmitShard() {
    if (runs_.empty()) return;
    CandidateShard shard;
    shard.shard_id = next_id_++;
    shard.runs = std::move(runs_);
    runs_ = {};
    buffered_pairs_ = 0;
    emit_(std::move(shard));
  }

  size_t shard_size_;
  const CandidateShardFn& emit_;
  std::vector<PairRun> runs_;
  size_t buffered_pairs_ = 0;
  uint32_t next_id_ = 0;
};

/// Shared driver for the blocked streams: ascending a-record, each
/// record's b-candidates sorted and deduplicated locally (duplicates only
/// arise within one a-record, so local dedup equals the global
/// sort+unique), handed to `consume_run(a, bs)` one a-record at a time.
template <typename ConsumeRun>
void ForEachBlockedRun(const BlockIndex& a, const BlockIndex& b,
                       const ConsumeRun& consume_run) {
  // Invert `a` into per-record lists of b-side collision lists: one
  // b.find() per distinct shared key (exactly what the materializing path
  // pays), O(a-side key occurrences) memory, no pair materialized yet.
  uint32_t max_record = 0;
  for (const auto& [key, a_records] : a) {
    for (uint32_t r : a_records) max_record = std::max(max_record, r);
  }
  std::vector<std::vector<const std::vector<uint32_t>*>> hits_of(
      a.empty() ? 0 : size_t{max_record} + 1);
  for (const auto& [key, a_records] : a) {
    const auto it = b.find(key);
    if (it == b.end()) continue;
    for (uint32_t r : a_records) hits_of[r].push_back(&it->second);
  }

  std::vector<uint32_t> bs;
  for (uint32_t ra = 0; ra < hits_of.size(); ++ra) {
    if (hits_of[ra].empty()) continue;
    bs.clear();
    for (const std::vector<uint32_t>* b_records : hits_of[ra]) {
      bs.insert(bs.end(), b_records->begin(), b_records->end());
    }
    std::sort(bs.begin(), bs.end());
    bs.erase(std::unique(bs.begin(), bs.end()), bs.end());
    consume_run(ra, bs);
  }
}

}  // namespace

void StreamBlockedPairRuns(const BlockIndex& a, const BlockIndex& b,
                           size_t shard_size, const CandidateShardFn& emit) {
  StreamCandidateRowRuns(
      [&](const CandidateRowFn& row) { ForEachBlockedRun(a, b, row); }, shard_size,
      emit);
}

void StreamCandidateRowRuns(const CandidateRowSource& rows, size_t shard_size,
                            const CandidateShardFn& emit) {
  ShardCutter shards(shard_size, emit);
  rows([&](uint32_t ra, const std::vector<uint32_t>& bs) {
    // Compress the sorted, deduplicated b list into maximal consecutive
    // intervals. Blocked candidates are clustered (whole blocks of
    // adjacent record ids), so runs are usually much shorter than pairs;
    // a degenerate stride-2 list merely degrades to one run per pair.
    size_t i = 0;
    while (i < bs.size()) {
      size_t j = i + 1;
      while (j < bs.size() && bs[j] == bs[j - 1] + 1) ++j;
      shards.Append(ra, bs[i], bs[j - 1] + 1);
      i = j;
    }
    shards.EndGroup();
  });
  shards.Flush();
}

void StreamFullPairRuns(size_t size_a, size_t size_b, size_t shard_size,
                        const CandidateShardFn& emit) {
  if (size_a == 0 || size_b == 0) return;
  ShardCutter shards(shard_size, emit);
  for (uint32_t i = 0; i < size_a; ++i) {
    shards.Append(i, 0, static_cast<uint32_t>(size_b));
    shards.EndGroup();
  }
  shards.Flush();
}

}  // namespace pprl
