#include "blocking/partitioner.h"

#include <algorithm>

namespace pprl {

namespace {

/// splitmix64 finalizer: decorrelates the per-worker / per-vnode seeds
/// from their small dense indices.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

constexpr size_t kRendezvousMaxWorkers = 8;

}  // namespace

const char* PartitionSchemeName(PartitionScheme scheme) {
  switch (scheme) {
    case PartitionScheme::kAuto: return "auto";
    case PartitionScheme::kRendezvous: return "rendezvous";
    case PartitionScheme::kConsistentRing: return "consistent-ring";
  }
  return "unknown";
}

BlockPartitioner::BlockPartitioner(size_t num_workers, PartitionScheme scheme,
                                   size_t vnodes_per_worker)
    : num_workers_(std::max<size_t>(num_workers, 1)), scheme_(scheme) {
  if (scheme_ == PartitionScheme::kAuto) {
    scheme_ = num_workers_ <= kRendezvousMaxWorkers
                  ? PartitionScheme::kRendezvous
                  : PartitionScheme::kConsistentRing;
  }
  if (scheme_ == PartitionScheme::kRendezvous) {
    worker_seeds_.reserve(num_workers_);
    for (size_t w = 0; w < num_workers_; ++w) {
      worker_seeds_.push_back(Mix(0x5eedu + w));
    }
  } else {
    const size_t vnodes = std::max<size_t>(vnodes_per_worker, 1);
    ring_.reserve(num_workers_ * vnodes);
    for (size_t w = 0; w < num_workers_; ++w) {
      for (size_t v = 0; v < vnodes; ++v) {
        // Vnode positions depend only on (worker, vnode), so growing the
        // ring adds positions without moving existing ones — that is the
        // whole point of consistent hashing.
        ring_.emplace_back(Mix(Mix(0x5eedu + w) ^ (0xabcdULL + v)),
                           static_cast<uint32_t>(w));
      }
    }
    std::sort(ring_.begin(), ring_.end());
  }
}

uint32_t BlockPartitioner::WorkerForHash(uint64_t hash) const {
  if (num_workers_ == 1) return 0;
  if (scheme_ == PartitionScheme::kRendezvous) {
    uint32_t best = 0;
    uint64_t best_score = 0;
    for (uint32_t w = 0; w < num_workers_; ++w) {
      const uint64_t score = Mix(hash ^ worker_seeds_[w]);
      if (w == 0 || score > best_score) {
        best = w;
        best_score = score;
      }
    }
    return best;
  }
  // First vnode clockwise of the key's hash; wrap to the ring's start.
  auto it = std::lower_bound(ring_.begin(), ring_.end(),
                             std::make_pair(hash, uint32_t{0}));
  if (it == ring_.end()) it = ring_.begin();
  return it->second;
}

namespace {

/// record index -> its keys, each list sorted lexicographically, so the
/// canonical (smallest common) key of a pair is the first match of a
/// sorted merge walk. Key strings are borrowed from the index.
std::vector<std::vector<const std::string*>> KeysPerRecord(const BlockIndex& index) {
  uint32_t max_record = 0;
  bool any = false;
  for (const auto& [key, records] : index) {
    for (const uint32_t r : records) {
      max_record = std::max(max_record, r);
      any = true;
    }
  }
  std::vector<std::vector<const std::string*>> keys(any ? max_record + 1 : 0);
  for (const auto& [key, records] : index) {
    for (const uint32_t r : records) keys[r].push_back(&key);
  }
  for (auto& list : keys) {
    std::sort(list.begin(), list.end(),
              [](const std::string* x, const std::string* y) { return *x < *y; });
  }
  return keys;
}

/// The lexicographically smallest key present in both sorted lists.
const std::string* FirstCommonKey(const std::vector<const std::string*>& x,
                                  const std::vector<const std::string*>& y) {
  size_t i = 0, j = 0;
  while (i < x.size() && j < y.size()) {
    if (*x[i] == *y[j]) return x[i];
    if (*x[i] < *y[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return nullptr;
}

}  // namespace

std::vector<CandidatePair> OwnedCandidatePairs(const BlockIndex& a,
                                               const BlockIndex& b,
                                               const BlockPartitioner& partitioner,
                                               uint32_t worker) {
  const auto keys_a = KeysPerRecord(a);
  const auto keys_b = KeysPerRecord(b);
  std::vector<CandidatePair> owned;
  for (const auto& [key, a_records] : a) {
    if (partitioner.WorkerForKey(key) != worker) continue;
    const auto it = b.find(key);
    if (it == b.end()) continue;
    for (const uint32_t a_rec : a_records) {
      for (const uint32_t b_rec : it->second) {
        // The pair is ours only when this key is its canonical key;
        // otherwise the canonical key's owner emits it. Exactly one key
        // wins per pair, so the global union has no duplicates.
        const std::string* canonical = FirstCommonKey(keys_a[a_rec], keys_b[b_rec]);
        if (canonical != nullptr && *canonical == key) {
          owned.push_back({a_rec, b_rec});
        }
      }
    }
  }
  std::sort(owned.begin(), owned.end());
  return owned;
}

}  // namespace pprl
