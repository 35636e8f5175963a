#include "blocking/lsh_index.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <string>
#include <string_view>

#include "common/wire.h"

namespace pprl {

namespace {

/// splitmix64 finalizer — full-avalanche mix of a band fingerprint into a
/// table slot. Fingerprints are highly structured (packed filter bits), so
/// the raw value would cluster badly under power-of-two masking.
uint64_t MixHash(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Where the band-checksum fold starts. This is not the FNV-1a-64 offset
/// basis (14695981039346656037 has one more digit), but every checkpoint
/// stores the fold's result, so the value is part of the PCKP format.
constexpr uint64_t kBandChecksumStart = 1469598103934665603ull;

}  // namespace

uint32_t LshBandIndex::BandTable::Find(uint64_t fp) const {
  if (heads.empty()) return kNoRow;
  const size_t mask = heads.size() - 1;
  size_t i = MixHash(fp) & mask;
  while (heads[i] != kNoRow) {
    if (fingerprints[i] == fp) return heads[i];
    i = (i + 1) & mask;
  }
  return kNoRow;
}

void LshBandIndex::BandTable::Insert(uint64_t fp, uint32_t row) {
  assert(next.size() == row && "rows must be inserted in order");
  next.push_back(kNoRow);
  if (heads.empty() || (used + 1) * 2 > heads.size()) Grow();
  const size_t mask = heads.size() - 1;
  size_t i = MixHash(fp) & mask;
  while (heads[i] != kNoRow) {
    if (fingerprints[i] == fp) {
      next[row] = heads[i];
      heads[i] = row;
      return;
    }
    i = (i + 1) & mask;
  }
  fingerprints[i] = fp;
  heads[i] = row;
  ++used;
}

void LshBandIndex::BandTable::Grow() {
  const size_t capacity = heads.empty() ? 1024 : heads.size() * 2;
  std::vector<uint64_t> old_fps = std::move(fingerprints);
  std::vector<uint32_t> old_heads = std::move(heads);
  fingerprints.assign(capacity, 0);
  heads.assign(capacity, kNoRow);
  const size_t mask = capacity - 1;
  for (size_t s = 0; s < old_heads.size(); ++s) {
    if (old_heads[s] == kNoRow) continue;
    size_t i = MixHash(old_fps[s]) & mask;
    while (heads[i] != kNoRow) i = (i + 1) & mask;
    fingerprints[i] = old_fps[s];
    heads[i] = old_heads[s];
  }
}

LshBandIndex::LshBandIndex(size_t filter_bits, size_t num_tables,
                           size_t bits_per_key, uint64_t seed)
    : rng_(seed),
      blocker_(filter_bits, num_tables, bits_per_key, rng_),
      tables_(num_tables),
      rows_(0, filter_bits),
      band_checksum_(kBandChecksumStart) {
  assert(ValidateLshGeometry(num_tables, bits_per_key).ok());
}

uint64_t LshBandIndex::BandFingerprint(const BitVector& bf,
                                       size_t table) const {
  assert(bf.size() == filter_bits());
  return blocker_.Fingerprint(bf.words().data(), table);
}

void LshBandIndex::IndexRow(uint32_t row) {
  const uint64_t* words = rows_.row(row);
  for (size_t t = 0; t < tables_.size(); ++t) {
    const uint64_t fp = blocker_.Fingerprint(words, t);
    tables_[t].Insert(fp, row);
    uint8_t le[8];
    StoreLeU64(le, fp);
    band_checksum_ = Fnv1a64(le, sizeof(le), band_checksum_);
  }
}

uint32_t LshBandIndex::Append(const BitVector& filter) {
  assert(filter.size() == filter_bits());
  const uint32_t row = static_cast<uint32_t>(rows_.AppendRow(filter));
  IndexRow(row);
  return row;
}

void LshBandIndex::Reserve(size_t rows) {
  rows_.ReserveRows(rows);
  for (BandTable& table : tables_) table.next.reserve(rows);
}

void LshBandIndex::AppendRows(const BitMatrix& src, size_t begin, size_t end,
                              ShardScheduler* scheduler) {
  assert(src.num_bits() == rows_.num_bits());
  assert(begin <= end && end <= src.num_rows());
  const size_t num_tables = tables_.size();
  std::vector<uint64_t> fingerprints;  // [table][row of the block]
  for (size_t block = begin; block < end; block += kBulkBlockRows) {
    const size_t n = std::min(kBulkBlockRows, end - block);
    const uint32_t first = static_cast<uint32_t>(rows_.num_rows());
    for (size_t r = block; r < block + n; ++r) {
      const size_t row = rows_.AppendRow();
      std::memcpy(rows_.mutable_row(row), src.row(r),
                  rows_.words_per_row() * sizeof(uint64_t));
      rows_.RecountRow(row);
    }
    fingerprints.resize(num_tables * n);
    constexpr size_t kTaskRows = 512;
    RunTasks(scheduler, (n + kTaskRows - 1) / kTaskRows, [&](size_t task) {
      const size_t task_end = std::min(n, (task + 1) * kTaskRows);
      for (size_t r = task * kTaskRows; r < task_end; ++r) {
        const uint64_t* words = rows_.row(first + r);
        for (size_t t = 0; t < num_tables; ++t) {
          fingerprints[t * n + r] = blocker_.Fingerprint(words, t);
        }
      }
    });
    // The checksum keeps the (row, table) order of row-by-row appends;
    // each table's chains only depend on its own rows' order.
    const auto fold = [&] {
      uint8_t le[8];
      for (size_t r = 0; r < n; ++r) {
        for (size_t t = 0; t < num_tables; ++t) {
          StoreLeU64(le, fingerprints[t * n + r]);
          band_checksum_ = Fnv1a64(le, sizeof(le), band_checksum_);
        }
      }
    };
    const auto fill = [&] {
      for (size_t t = 0; t < num_tables; ++t) {
        for (size_t r = 0; r < n; ++r) {
          tables_[t].Insert(fingerprints[t * n + r], first + static_cast<uint32_t>(r));
        }
      }
    };
    if (scheduler == nullptr) {
      fold();
      fill();
    } else {
      TaskGroup group(*scheduler);
      group.Submit(fold);
      fill();
      group.Wait();
    }
  }
}

void LshBandIndex::Probe(const BitVector& probe,
                         std::vector<uint32_t>* out) const {
  assert(probe.size() == filter_bits());
  ProbeRows(probe.words().data(), size(), [](uint32_t) { return true; }, out);
}

std::deque<LshBandIndex> BuildBandIndexes(
    const std::vector<const std::vector<BitVector>*>& databases, size_t filter_bits,
    size_t num_tables, size_t bits_per_key, uint64_t seed, ShardScheduler* scheduler) {
  std::deque<LshBandIndex> indexes;
  for (size_t d = 0; d < databases.size(); ++d) {
    indexes.emplace_back(filter_bits, num_tables, bits_per_key, seed);
  }
  RunTasks(scheduler, databases.size(), [&](size_t d) {
    indexes[d].Reserve(databases[d]->size());
    for (const BitVector& filter : *databases[d]) indexes[d].Append(filter);
  });
  return indexes;
}

void ForEachLshCandidateRow(const LshBandIndex& a_index, const LshBandIndex& b_index,
                            const BlockPartitioner& partitioner, uint32_t worker,
                            size_t a_begin, size_t a_end, const CandidateRowFn& consume) {
  assert(a_index.blocker().positions() == b_index.blocker().positions());
  assert(a_begin <= a_end && a_end <= a_index.size());
  const size_t num_tables = b_index.tables_.size();
  const size_t bits_per_key = b_index.blocker().bits_per_key();

  // Table visiting order and each table's key-prefix hash, from the
  // prefixes HammingLshBlocker::Keys writes. Prefixes end in ':', which
  // sorts after every digit, so no prefix is a prefix of another and the
  // order of two keys from different tables is their prefixes' order.
  std::vector<std::string> prefixes(num_tables);
  std::vector<uint64_t> prefix_hash(num_tables);
  std::vector<uint32_t> order(num_tables);
  for (uint32_t t = 0; t < num_tables; ++t) {
    // Built in place: GCC 12 raises a false -Wrestrict on "t" + ... + ":".
    prefixes[t] = std::to_string(t);
    prefixes[t].insert(0, 1, 't');
    prefixes[t] += ':';
    prefix_hash[t] = HashBlockKey(prefixes[t]);
    order[t] = t;
  }
  std::sort(order.begin(), order.end(),
            [&](uint32_t x, uint32_t y) { return prefixes[x] < prefixes[y]; });
  const bool partitioned = partitioner.num_workers() > 1;

  // seen[b] == a + 1 once row b turned up for row a: the first sighting
  // is in the pair's owning table, later ones are repeats.
  std::vector<uint32_t> seen(b_index.size(), 0);
  std::vector<uint32_t> bs;
  char key_bits[kMaxLshBitsPerKey];
  for (uint32_t a = static_cast<uint32_t>(a_begin); a < a_end; ++a) {
    const uint64_t* words = a_index.rows_.row(a);
    const uint32_t stamp = a + 1;
    bs.clear();
    for (const uint32_t t : order) {
      const uint64_t fp = b_index.blocker().Fingerprint(words, t);
      const LshBandIndex::BandTable& table = b_index.tables_[t];
      uint32_t row = table.Find(fp);
      if (row == LshBandIndex::kNoRow) continue;
      bool owned = true;
      if (partitioned) {
        // The rest of the HammingLshBlocker key: one '0'/'1' per sampled
        // bit.
        for (size_t i = 0; i < bits_per_key; ++i) {
          key_bits[i] = ((fp >> i) & 1) != 0 ? '1' : '0';
        }
        owned = partitioner.WorkerForHash(HashBlockKey(
                    std::string_view(key_bits, bits_per_key), prefix_hash[t])) ==
                worker;
      }
      for (; row != LshBandIndex::kNoRow; row = table.next[row]) {
        if (seen[row] == stamp) continue;
        seen[row] = stamp;
        if (owned) bs.push_back(row);
      }
    }
    if (bs.empty()) continue;
    std::sort(bs.begin(), bs.end());
    consume(a, bs);
  }
}

std::vector<CandidatePair> LshCandidatePairs(const LshBandIndex& a_index,
                                             const LshBandIndex& b_index,
                                             const BlockPartitioner& partitioner,
                                             uint32_t worker) {
  std::vector<CandidatePair> pairs;
  ForEachLshCandidateRow(a_index, b_index, partitioner, worker, 0, a_index.size(),
                         [&](uint32_t a, const std::vector<uint32_t>& bs) {
                           for (const uint32_t b : bs) pairs.push_back({a, b});
                         });
  return pairs;
}

}  // namespace pprl
