#ifndef PPRL_BLOCKING_LSH_INDEX_H_
#define PPRL_BLOCKING_LSH_INDEX_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <vector>

#include "blocking/blocking.h"
#include "blocking/lsh_blocking.h"
#include "blocking/partitioner.h"
#include "common/bit_matrix.h"
#include "common/bitvector.h"
#include "common/random.h"
#include "common/thread_pool.h"

namespace pprl {

/// The Hamming-LSH band index every linkage path blocks on.
///
/// `HammingLshBlocker::BuildIndex` keys each record by one string per
/// table ("t7:0110…") in hash maps; that stays as the reference the tests
/// compare against. This class finds the same collisions with integer band
/// fingerprints. The online serving path asks it, thousands of times per
/// second, which indexed rows collide with ONE new filter (Probe) and
/// appends without a rebuild, which turns "link one new record" into a
/// sub-millisecond query (ROADMAP "velocity" item). The batch paths build
/// one index per database (BuildBandIndexes) and join two indexes with
/// ForEachLshCandidateRow.
///
/// Design:
///  - Band geometry is the `HammingLshBlocker`'s own sampled positions
///    (constructed from the same seed), so the collision relation is
///    IDENTICAL to the batch blocker's: two rows collide here iff their
///    string keys in `HammingLshBlocker::Keys` are equal for some table.
///    The band fingerprint packs the sampled bits into a u64
///    (HammingLshBlocker::Fingerprint) — injective, hence exact, because
///    bits_per_key <= kMaxLshBitsPerKey (64).
///  - Each table is an open-addressing fingerprint -> bucket-head map with
///    per-row chain links ("next" array), so an append touches O(tables)
///    cache lines and never reallocates per-bucket storage.
///  - Row payloads live in one growable `BitMatrix`, so the fused
///    AND-popcount comparison kernels (linkage/compare_kernels.h) run
///    unchanged over candidate sets.
class LshBandIndex {
 public:
  /// Rows per block of AppendRows(): 4,096 rows x 20 tables of
  /// fingerprints is a 640 KiB buffer, which stays in a 2 MiB L2 beside
  /// the table being filled.
  static constexpr size_t kBulkBlockRows = 4096;

  /// Samples band geometry from `Rng(seed)` exactly like the batch path in
  /// pipeline/party.cc does, so a batch `Link()` with the same
  /// (filter_bits, num_tables, bits_per_key, seed) sees the same collisions.
  /// The geometry must pass ValidateLshGeometry().
  LshBandIndex(size_t filter_bits, size_t num_tables, size_t bits_per_key,
               uint64_t seed);

  /// Appends `filter` as the next row and indexes it in every band table.
  /// O(tables) map operations + one O(row words) copy. Returns the row id.
  uint32_t Append(const BitVector& filter);

  /// Appends rows [begin, end) of `src` (same bit length) as the next
  /// rows, leaving exactly the chains and band_checksum() that appending
  /// them one by one in order would. This is the recovery bulk path:
  /// band tables are a deterministic function of the row sequence, so
  /// restoring an index is re-appending its rows (docs/PROTOCOLS.md
  /// Appendix B). It works in blocks of kBulkBlockRows rows: the block's
  /// band fingerprints are computed by tasks on `scheduler` (inline when
  /// it is null) into one buffer, then one task folds them into the band
  /// checksum while the calling thread fills the tables one table at a
  /// time. Every allocation happens on the calling thread, so the pool's
  /// malloc arenas keep nothing once the index is freed.
  void AppendRows(const BitMatrix& src, size_t begin, size_t end,
                  ShardScheduler* scheduler = nullptr);

  /// Makes room for `rows` rows in total, so a bulk build appends without
  /// regrowing the row matrix or the chain links.
  void Reserve(size_t rows);

  /// All distinct indexed rows that collide with `probe` in at least one
  /// band table, ascending row order. Does not insert. `out` is cleared.
  void Probe(const BitVector& probe, std::vector<uint32_t>* out) const;

  /// The probe body behind Probe() and the online replay's candidate
  /// source: every distinct row b < `limit` that shares a band chain with
  /// the filter `words` and that keep(b) accepts, ascending. `out` is
  /// cleared. Adds the chain entries walked to probed_entries().
  template <typename Keep>
  void ProbeRows(const uint64_t* words, size_t limit, const Keep& keep,
                 std::vector<uint32_t>* out) const;

  /// Band fingerprint of `bf` in `table` — equal fingerprints are exactly
  /// the string-key collisions of `HammingLshBlocker::Keys`.
  uint64_t BandFingerprint(const BitVector& bf, size_t table) const;

  size_t size() const { return rows_.num_rows(); }
  size_t filter_bits() const { return blocker_.filter_bits(); }

  /// The backing row storage; row i is the filter passed to the i-th
  /// Append(). Pointers are invalidated by Append() (geometric growth).
  const BitMatrix& rows() const { return rows_; }

  const HammingLshBlocker& blocker() const { return blocker_; }

  /// Total bucket-chain entries scanned by all Probe() calls so far
  /// (pre-dedup candidate volume; cost observability for tuning).
  uint64_t probed_entries() const {
    return probed_entries_.load(std::memory_order_relaxed);
  }

  /// The FNV-1a-64 fold over the little-endian band fingerprints of every
  /// indexed row in (row, table) order, started from 1469598103934665603
  /// rather than the offset basis, maintained incrementally by appends. Two
  /// indexes with equal checksums over the same row count collide
  /// identically, so a checkpoint stores this instead of the band tables
  /// and recovery verifies the rebuild against it (seed or geometry drift
  /// cannot silently change the collision relation).
  uint64_t band_checksum() const { return band_checksum_; }

 private:
  /// One band table: open-addressing fingerprint -> head row, with bucket
  /// membership chained through `next` (row id == position; kNoRow ends the
  /// chain). Power-of-two capacity, linear probing, grown at 50% load.
  struct BandTable {
    std::vector<uint64_t> fingerprints;
    std::vector<uint32_t> heads;   ///< kNoRow marks an empty slot
    std::vector<uint32_t> next;    ///< per indexed row, previous head or kNoRow
    size_t used = 0;

    uint32_t Find(uint64_t fp) const;          ///< head row or kNoRow
    void Insert(uint64_t fp, uint32_t row);    ///< prepends `row` to fp's chain
    void Grow();
  };

  static constexpr uint32_t kNoRow = UINT32_MAX;

  /// Indexes an already-stored row in every band table and folds its
  /// fingerprints into band_checksum_.
  void IndexRow(uint32_t row);

  friend void ForEachLshCandidateRow(const LshBandIndex& a_index,
                                     const LshBandIndex& b_index,
                                     const BlockPartitioner& partitioner,
                                     uint32_t worker, size_t a_begin, size_t a_end,
                                     const CandidateRowFn& consume);

  Rng rng_;  ///< consumed by blocker_'s construction; kept for init order
  HammingLshBlocker blocker_;
  std::vector<BandTable> tables_;
  BitMatrix rows_;
  uint64_t band_checksum_;
  /// Relaxed atomic so concurrent Probe() calls (readers under a shared
  /// lock in OnlineLinkageEngine) stay race-free.
  mutable std::atomic<uint64_t> probed_entries_{0};
};

template <typename Keep>
void LshBandIndex::ProbeRows(const uint64_t* words, size_t limit, const Keep& keep,
                             std::vector<uint32_t>* out) const {
  out->clear();
  uint64_t scanned = 0;
  for (size_t t = 0; t < tables_.size(); ++t) {
    const BandTable& table = tables_[t];
    for (uint32_t row = table.Find(blocker_.Fingerprint(words, t)); row != kNoRow;
         row = table.next[row]) {
      ++scanned;
      if (row < limit && keep(row)) out->push_back(row);
    }
  }
  probed_entries_.fetch_add(scanned, std::memory_order_relaxed);
  std::sort(out->begin(), out->end());
  out->erase(std::unique(out->begin(), out->end()), out->end());
}

/// The block step every batch linkage path shares (LinkageUnitService::Link
/// and LinkPartition, PprlPipeline's Hamming-LSH branch): one index per
/// database, all over the same band geometry. Index d holds
/// `*databases[d]` as rows 0..n-1, so its rows() matrix is what the
/// compare kernels read. A deque, because an index cannot move. Each
/// index is filled by one task (RunTasks on `scheduler`, inline when it
/// is null); an index depends only on its rows and the geometry, so the
/// result is the same either way.
std::deque<LshBandIndex> BuildBandIndexes(
    const std::vector<const std::vector<BitVector>*>& databases, size_t filter_bits,
    size_t num_tables, size_t bits_per_key, uint64_t seed,
    ShardScheduler* scheduler = nullptr);

/// The candidate generator of the batch paths. For each row `a` of
/// `a_index` in [a_begin, a_end), in ascending order, it walks `b_index`'s
/// band chains for a's fingerprints, drops repeats with a per-row stamp,
/// and calls consume(a, bs) with the sorted b rows that `worker` owns
/// (rows with none are skipped). Both indexes must share one band
/// geometry, and a_begin <= a_end <= a_index.size(). A row's b rows depend
/// on that row alone, so walking consecutive ranges one after another
/// (or on different threads, each call with its own stamps) and joining
/// them in range order yields the full-range walk.
///
/// Ownership is the canonical-key rule of OwnedCandidatePairs: tables are
/// visited in the string order of their HammingLshBlocker key prefixes
/// "t<k>:" (t0, t10…t19, t1, t2…t9 for 20 tables), so the first table in
/// which a b row collides holds the pair's lexicographically smallest
/// common key and owns the pair; that table's chain belongs to
/// partitioner.WorkerForKey() of the key, hashed straight from
/// (table, fingerprint) once per non-empty chain. With one worker the
/// rows are exactly HammingLshBlocker::CandidatePairs' list; with more,
/// exactly OwnedCandidatePairs' share of `worker`.
void ForEachLshCandidateRow(const LshBandIndex& a_index, const LshBandIndex& b_index,
                            const BlockPartitioner& partitioner, uint32_t worker,
                            size_t a_begin, size_t a_end, const CandidateRowFn& consume);

/// ForEachLshCandidateRow over every a row as one ascending (a, b) pair
/// list: the materialized form the tests check the range walks against.
std::vector<CandidatePair> LshCandidatePairs(const LshBandIndex& a_index,
                                             const LshBandIndex& b_index,
                                             const BlockPartitioner& partitioner,
                                             uint32_t worker);

}  // namespace pprl

#endif  // PPRL_BLOCKING_LSH_INDEX_H_
