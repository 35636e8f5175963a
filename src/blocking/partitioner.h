#ifndef PPRL_BLOCKING_PARTITIONER_H_
#define PPRL_BLOCKING_PARTITIONER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "blocking/blocking.h"
#include "common/wire.h"

namespace pprl {

/// How block ids map onto workers of a sharded linkage unit.
enum class PartitionScheme {
  /// Rendezvous hashing for small rings (<= 8 workers), consistent-hash
  /// ring above — the crossover where a vnode ring's balance overtakes
  /// rendezvous's O(workers)-per-key cost.
  kAuto,
  /// Highest-random-weight hashing: every key scores every worker, the
  /// top score wins. Perfectly uniform and minimally disruptive under
  /// resize, at O(workers) per lookup.
  kRendezvous,
  /// Classic consistent-hash ring with virtual nodes: O(log vnodes) per
  /// lookup, ~1/W of keys move when a worker joins or leaves.
  kConsistentRing,
};

const char* PartitionSchemeName(PartitionScheme scheme);

/// FNV-1a-64 over `bytes`, continuing from `hash` — so a key hashed in
/// pieces (a prefix once, then each suffix) hashes exactly like the whole
/// key. Key assignment only needs determinism and spread, not collision
/// resistance: keys are already HMAC/LSH outputs, not attacker-chosen.
inline uint64_t HashBlockKey(std::string_view bytes, uint64_t hash = kFnv1a64Basis) {
  return Fnv1a64(bytes.data(), bytes.size(), hash);
}

/// Deterministically assigns block ids (blocking keys) to workers
/// 0..num_workers-1. Workers are identified by dense index, so any two
/// processes that agree on (num_workers, scheme) agree on every
/// assignment — the coordinator and its workers never exchange the map
/// itself, only the ring size.
class BlockPartitioner {
 public:
  explicit BlockPartitioner(size_t num_workers,
                            PartitionScheme scheme = PartitionScheme::kAuto,
                            size_t vnodes_per_worker = 64);

  uint32_t WorkerForKey(std::string_view key) const {
    return WorkerForHash(HashBlockKey(key));
  }

  /// The worker of a key whose HashBlockKey() is `key_hash`.
  uint32_t WorkerForHash(uint64_t key_hash) const;

  size_t num_workers() const { return num_workers_; }
  /// The scheme actually in use (kAuto resolved).
  PartitionScheme effective_scheme() const { return scheme_; }

 private:
  size_t num_workers_;
  PartitionScheme scheme_;
  /// Ring of (vnode hash, worker), sorted by hash. Empty for rendezvous.
  std::vector<std::pair<uint64_t, uint32_t>> ring_;
  /// Per-worker seeds for rendezvous scoring. Empty for the ring scheme.
  std::vector<uint64_t> worker_seeds_;
};

/// The candidate pairs of two block indexes owned by `worker` under the
/// canonical-key rule: a pair belongs to the worker that owns its
/// *canonical* block id — the lexicographically smallest key under which
/// the two records collide. Every deduplicated candidate of
/// StandardBlocker/HammingLshBlocker::CandidatePairs(a, b) has exactly one
/// canonical key, so the per-worker sets are disjoint and their union over
/// all workers is exactly the single-machine candidate list — which is
/// what makes a scattered compare's comparison and pruning counters sum to
/// the single-daemon totals instead of double-counting cross-block
/// duplicates.
///
/// Pairs come back in ascending (a, b) order, matching the order the
/// single-machine paths score them in.
std::vector<CandidatePair> OwnedCandidatePairs(const BlockIndex& a,
                                               const BlockIndex& b,
                                               const BlockPartitioner& partitioner,
                                               uint32_t worker);

}  // namespace pprl

#endif  // PPRL_BLOCKING_PARTITIONER_H_
