#include "linkage/parallel_linkage.h"

#include <algorithm>
#include <atomic>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <utility>

#include "common/cache_info.h"
#include "common/logging.h"
#include "common/timer.h"
#include "linkage/comparison.h"
#include "obs/metrics.h"

namespace pprl {

namespace {

/// Metrics of the tiled compare path, aggregated process-wide.
struct TileMetrics {
  obs::Counter& tiles = obs::GlobalMetrics().GetCounter(
      "pprl_tiles_total", "Cache tiles executed by the tiled compare path");
  obs::Histogram& tile_seconds = obs::GlobalMetrics().GetHistogram(
      "pprl_tile_seconds", "Per-tile execution time in the tiled compare path",
      obs::DefaultLatencyBuckets());
  obs::Counter& shard_bytes = obs::GlobalMetrics().GetCounter(
      "pprl_shard_bytes_touched_total",
      "Matrix bytes tiles pulled through the cache (distinct rows x row "
      "stride)");
};

TileMetrics& Metrics() {
  static TileMetrics* m = new TileMetrics();
  return *m;
}

size_t Clamp(size_t v, size_t lo, size_t hi) { return std::min(std::max(v, lo), hi); }

/// Clamps an explicitly configured knob into [lo, hi], warning when the
/// configured value was out of range (silently accepting shard_size=0 is
/// how misconfigurations used to ship).
size_t ClampConfigured(const char* name, size_t v, size_t lo, size_t hi) {
  const size_t clamped = Clamp(v, lo, hi);
  if (clamped != v) {
    PPRL_LOG(kWarning) << "parallel tuning: " << name << "=" << v
                       << " out of range [" << lo << ", " << hi << "], using "
                       << clamped;
  }
  return clamped;
}

/// One shard's landing zone. Slots live in a deque so references stay valid
/// while the producer keeps appending; only the owning worker writes a
/// slot, and the merge pass reads it after TaskGroup::Wait().
struct ShardSlot {
  std::vector<ScoredPair> hits;
  size_t comparisons = 0;
  size_t pruned = 0;
};

/// Per-thread chunk buffer of the tiled path; keeps its allocation across
/// shards.
std::vector<CandidatePair>& PairBuffer() {
  static thread_local std::vector<CandidatePair> pair_buf;
  return pair_buf;
}

/// Executes one run shard cache-blocked: sub-runs bucketed by
/// (a-row-tile, b-row-tile), buckets in ascending tile order, hits sorted
/// back to candidate order at the end. Every pair is scored from the
/// shared matrices whatever the tiling, so the result is bitwise identical
/// to expanding the runs and scoring them in order.
void RunTiledShard(const DiceCutoffs& cutoffs, const BitMatrix& a_matrix,
                   const BitMatrix& b_matrix, const ResolvedParallelTuning& tuning,
                   const CandidateShard& shard, ShardSlot* slot) {
  // Bucket the runs. Keys order buckets (a_tile, b_tile) ascending, so a
  // bucket's B rows stay hot while every A tile that needs them streams by.
  std::map<uint64_t, std::vector<PairRun>> buckets;
  size_t total_pairs = 0;
  for (const PairRun& run : shard.runs) {
    total_pairs += run.b_end - run.b_begin;
    const uint64_t a_tile = run.a / tuning.tile_a_rows;
    for (uint32_t b = run.b_begin; b < run.b_end;) {
      const uint32_t tile_end = static_cast<uint32_t>(std::min<uint64_t>(
          (b / tuning.tile_b_rows + 1) * tuning.tile_b_rows, run.b_end));
      const uint64_t key = (a_tile << 32) | (b / tuning.tile_b_rows);
      buckets[key].push_back(PairRun{run.a, b, tile_end});
      b = tile_end;
    }
  }

  std::vector<CandidatePair>& pair_buf = PairBuffer();
  CompareKernelStats stats;
  slot->hits.reserve(total_pairs / 16);
  size_t bytes_touched = 0;

  for (auto& [key, runs] : buckets) {
    (void)key;
    Timer tile_timer;

    // The bucket's pair count and the rows it touches (the latter for
    // pprl_shard_bytes_touched_total).
    uint32_t b_min = runs.front().b_begin;
    uint32_t b_max = runs.front().b_end;
    size_t bucket_pairs = 0;
    size_t distinct_a = 0;
    uint32_t last_a = ~0u;
    for (const PairRun& r : runs) {
      b_min = std::min(b_min, r.b_begin);
      b_max = std::max(b_max, r.b_end);
      bucket_pairs += r.b_end - r.b_begin;
      if (r.a != last_a) {
        ++distinct_a;
        last_a = r.a;
      }
    }
    const size_t b_span = b_max - b_min;

    // Expand the bucket's runs into kernel-ready pairs in small chunks: the
    // chunk buffer stays L1/L2-resident instead of round-tripping a
    // shard-sized pair vector through the cache the tiles are trying to
    // keep for rows.
    // Chunks split runs at arbitrary points, which is harmless — every
    // window of the expansion is still consecutive in b, so the dense-run
    // vector kernels keep detecting their shape, and expansion order (and
    // with it hit order before the final sort) is unchanged.
    constexpr size_t kChunkPairs = 16384;  // 128 KiB of CandidatePair
    pair_buf.resize(std::min(bucket_pairs, kChunkPairs));
    size_t filled = 0;
    for (const PairRun& r : runs) {
      uint32_t b = r.b_begin;
      while (b < r.b_end) {
        const uint32_t take = static_cast<uint32_t>(
            std::min<size_t>(r.b_end - b, kChunkPairs - filled));
        CandidatePair* p = pair_buf.data() + filled;
        for (uint32_t k = 0; k < take; ++k) p[k] = CandidatePair{r.a, b + k};
        filled += take;
        b += take;
        if (filled == kChunkPairs) {
          CompareKernel(cutoffs, a_matrix, b_matrix, pair_buf.data(), filled, slot->hits,
                        stats);
          filled = 0;
        }
      }
    }
    if (filled != 0) {
      CompareKernel(cutoffs, a_matrix, b_matrix, pair_buf.data(), filled, slot->hits,
                    stats);
    }

    bytes_touched += (distinct_a + b_span) * tuning.row_bytes;
    Metrics().tiles.Increment();
    Metrics().tile_seconds.Observe(tile_timer.ElapsedSeconds());
  }
  Metrics().shard_bytes.Increment(bytes_touched);

  // Tiling scored the candidates out of order; the shard's expanded run
  // sequence is ascending (a, b), so one sort restores candidate order.
  std::sort(slot->hits.begin(), slot->hits.end(),
            [](const ScoredPair& x, const ScoredPair& y) {
              return x.a != y.a ? x.a < y.a : x.b < y.b;
            });
  slot->comparisons = total_pairs;
  slot->pruned = stats.pruned;
}

}  // namespace

StreamCompareResult StreamCompareShards(const DiceCutoffs& cutoffs,
                                        const BitMatrix& a_matrix,
                                        const BitMatrix& b_matrix,
                                        const ParallelLinkageOptions& options,
                                        const ShardProducer& produce) {
  const ResolvedParallelTuning tuning =
      ResolveParallelTuning(options, a_matrix.num_bits());

  // Either borrow the caller's long-lived pool or spin one up for this
  // call. The pool's shard window is what turns `emit` into backpressure
  // on the blocking thread.
  std::optional<ShardScheduler> owned;
  ShardScheduler* scheduler = options.scheduler;
  if (scheduler == nullptr) scheduler = &owned.emplace(tuning.num_threads);

  TaskGroup group(*scheduler);
  std::deque<ShardSlot> slots;
  produce([&](CandidateShard shard) {
    slots.emplace_back();
    ShardSlot* slot = &slots.back();
    // The shard moves into the closure, so the candidates alive at once
    // are bounded by the pool's window plus one per worker.
    group.Submit([&cutoffs, &a_matrix, &b_matrix, slot, tuning,
                  shard = std::move(shard)] {
      RunTiledShard(cutoffs, a_matrix, b_matrix, tuning, shard, slot);
    });
  });
  group.Wait();

  // Shards were emitted in global candidate order and slots sit in emission
  // order, so concatenation restores the serial output exactly.
  StreamCompareResult result;
  size_t total_hits = 0;
  for (const ShardSlot& slot : slots) total_hits += slot.hits.size();
  result.hits.reserve(total_hits);
  for (ShardSlot& slot : slots) {
    result.hits.insert(result.hits.end(), slot.hits.begin(), slot.hits.end());
    result.comparisons += slot.comparisons;
    result.pruned += slot.pruned;
    slot.hits = {};
  }
  RecordCompareCall(ComparePath::kStream, result.comparisons, result.pruned);
  return result;
}

ResolvedParallelTuning ResolveParallelTuning(const ParallelLinkageOptions& options,
                                             size_t bits_per_row) {
  const CacheInfo& cache = DetectCacheInfo();
  ResolvedParallelTuning t;

  t.num_threads = options.scheduler != nullptr
                      ? options.scheduler->num_threads()
                      : ClampConfigured("num_threads", options.num_threads, 1,
                                        ShardScheduler::kMaxThreads);

  // Row stride in bytes, matching BitMatrix: ceil(bits/64) words rounded
  // up to a 64-byte boundary. All the working-set math is in this unit.
  const size_t words = (std::max<size_t>(bits_per_row, 1) + 63) / 64;
  t.row_bytes = ((words + 7) / 8) * 64;

  // B tile: half of L2 — the tile's rows stay resident while every A row
  // of the bucket streams against them, leaving the other half for A rows,
  // the pair buffer and the result vector.
  t.tile_b_rows = options.tile_b_rows != 0
                      ? ClampConfigured("tile_b_rows", options.tile_b_rows, 8,
                                        size_t{1} << 20)
                      : Clamp(cache.l2_bytes / 2 / t.row_bytes, 64, 32768);

  // A tile: a quarter of L2 bounds the a-rows touched between B-tile
  // refills.
  t.tile_a_rows = options.tile_a_rows != 0
                      ? ClampConfigured("tile_a_rows", options.tile_a_rows, 1,
                                        size_t{1} << 20)
                      : Clamp(cache.l2_bytes / 4 / t.row_bytes, 16, 4096);

  // Shard: the scheduling unit. Auto-sizing targets a quarter of the LLC
  // (capped at 16 MiB) worth of B rows per shard — big enough that a shard
  // spans many A rows (so tiles actually reuse B rows; the old fixed 8192
  // pairs spanned at most two A rows against a 10k B side, making reuse
  // impossible), small enough that hundreds of shards exist for the
  // workers to share.
  t.shard_size =
      options.shard_size != 0
          ? ClampConfigured("shard_size", options.shard_size, 1024, size_t{1} << 22)
          : Clamp(std::min<size_t>(cache.llc_bytes / 4, 16u << 20) / t.row_bytes,
                  16384, 524288);
  return t;
}

}  // namespace pprl
