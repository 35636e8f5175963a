#include "linkage/compare_kernels.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstddef>

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#endif

#include "similarity/similarity.h"

namespace pprl {

namespace {

/// Popcount of a AND b over `words` words, unrolled four wide; the word
/// loop every measure reduces to.
inline size_t AndCountWords(const uint64_t* a, const uint64_t* b, size_t words) {
  size_t count = 0;
  size_t w = 0;
  for (; w + 4 <= words; w += 4) {
    count += static_cast<size_t>(std::popcount(a[w] & b[w])) +
             static_cast<size_t>(std::popcount(a[w + 1] & b[w + 1])) +
             static_cast<size_t>(std::popcount(a[w + 2] & b[w + 2])) +
             static_cast<size_t>(std::popcount(a[w + 3] & b[w + 3]));
  }
  for (; w < words; ++w) {
    count += static_cast<size_t>(std::popcount(a[w] & b[w]));
  }
  return count;
}

/// Score formulas, templated so each kernel instantiation folds its
/// branch away. These reproduce the scalar functions in
/// similarity/similarity.h operation for operation (same integer
/// identities, same cast-then-divide order), which is what makes the
/// kernel scores bitwise identical to the reference path.
template <SimilarityMeasure M>
inline double ScoreImpl(size_t ca, size_t cb, size_t c, size_t num_bits) {
  if constexpr (M == SimilarityMeasure::kDice) {
    if (ca + cb == 0) return 1.0;
    return 2.0 * static_cast<double>(c) / static_cast<double>(ca + cb);
  } else if constexpr (M == SimilarityMeasure::kJaccard) {
    const size_t uni = ca + cb - c;
    if (uni == 0) return 1.0;
    return static_cast<double>(c) / static_cast<double>(uni);
  } else if constexpr (M == SimilarityMeasure::kHamming) {
    if (num_bits == 0) return 1.0;
    return 1.0 - static_cast<double>(ca + cb - 2 * c) / static_cast<double>(num_bits);
  } else if constexpr (M == SimilarityMeasure::kOverlap) {
    const size_t smaller = std::min(ca, cb);
    if (smaller == 0) return ca == cb ? 1.0 : 0.0;
    return static_cast<double>(c) / static_cast<double>(smaller);
  } else {
    static_assert(M == SimilarityMeasure::kCosine);
    if (ca == 0 && cb == 0) return 1.0;
    if (ca == 0 || cb == 0) return 0.0;
    return static_cast<double>(c) /
           std::sqrt(static_cast<double>(ca) * static_cast<double>(cb));
  }
}

/// ScoreImpl at the best-case intersection c = min(ca, cb); see the
/// header for why this dominates every reachable score.
template <SimilarityMeasure M>
inline double BoundImpl(size_t ca, size_t cb, size_t num_bits) {
  const size_t smaller = std::min(ca, cb);
  if constexpr (M == SimilarityMeasure::kHamming) {
    if (num_bits == 0) return 1.0;
    const size_t diff = ca > cb ? ca - cb : cb - ca;
    return 1.0 - static_cast<double>(diff) / static_cast<double>(num_bits);
  } else if constexpr (M == SimilarityMeasure::kOverlap) {
    if (smaller == 0) return ca == cb ? 1.0 : 0.0;
    return 1.0;
  } else {
    return ScoreImpl<M>(ca, cb, smaller, num_bits);
  }
}

/// Prefetch lead, in pairs. The fused AND-popcount of one pair costs a
/// few dozen cycles, so ~8 pairs of lead hides a fresh row's
/// main-memory latency; rows already resident just retire the hint.
constexpr size_t kPrefetchPairs = 8;

/// Issues software prefetches for the rows of pairs[i + kPrefetchPairs].
/// The candidate array names rows in an order the hardware stride
/// prefetcher cannot predict (blocked streams jump between b-ranges), but
/// the kernel itself knows every future address — classic binding of
/// irregular-but-known access. Hint locality 1: into L2, not L1 — the
/// current pair's words own L1.
inline void PrefetchPairRows(const BitMatrix& a, const BitMatrix& b,
                             const CandidatePair* pairs, size_t i, size_t num_pairs) {
#if defined(__GNUC__) && !defined(PPRL_NO_PREFETCH)
  const size_t j = i + kPrefetchPairs;
  if (j < num_pairs) {
    __builtin_prefetch(a.row(pairs[j].a), 0, 1);
    __builtin_prefetch(b.row(pairs[j].b), 0, 1);
  }
#else
  (void)a;
  (void)b;
  (void)pairs;
  (void)i;
  (void)num_pairs;
#endif
}

/// The per-measure kernel body. `min_score <= 0` hoists the bound check
/// out of the loop — every score lands in [0, 1], so nothing can prune and
/// the bound's division would be pure overhead. Thresholded Dice never
/// gets here: it runs DiceThresholdLoopBody over its cutoff table.
template <SimilarityMeasure M>
inline void KernelLoopBody(const BitMatrix& a, const BitMatrix& b,
                           const CandidatePair* pairs, size_t num_pairs, double min_score,
                           std::vector<ScoredPair>& out, CompareKernelStats& stats) {
  assert(a.num_bits() == b.num_bits());
  const size_t words = a.words_per_row();
  const size_t num_bits = a.num_bits();
  const size_t* a_counts = a.row_counts().data();
  const size_t* b_counts = b.row_counts().data();
  const bool use_bound = min_score > 0;
  for (size_t i = 0; i < num_pairs; ++i) {
    PrefetchPairRows(a, b, pairs, i, num_pairs);
    const CandidatePair pair = pairs[i];
    const size_t ca = a_counts[pair.a];
    const size_t cb = b_counts[pair.b];
    if (use_bound && BoundImpl<M>(ca, cb, num_bits) < min_score) {
      ++stats.pruned;
      continue;
    }
    const size_t c = AndCountWords(a.row(pair.a), b.row(pair.b), words);
    ++stats.scored;
    const double score = ScoreImpl<M>(ca, cb, c, num_bits);
    if (score >= min_score) out.push_back({pair.a, pair.b, score});
  }
}

/// The Dice threshold loop (the comparison path every linkage run takes):
/// the cutoff table decides every prune and accept in integers, and only
/// accepted pairs divide, to emit their score.
inline void DiceThresholdLoopBody(const DiceCutoffs& cutoffs, const BitMatrix& a,
                                  const BitMatrix& b, const CandidatePair* pairs,
                                  size_t num_pairs, std::vector<ScoredPair>& out,
                                  CompareKernelStats& stats) {
  const size_t words = a.words_per_row();
  const size_t num_bits = a.num_bits();
  const size_t* a_counts = a.row_counts().data();
  const size_t* b_counts = b.row_counts().data();
  const uint32_t* c_min = cutoffs.data();
  for (size_t i = 0; i < num_pairs; ++i) {
    PrefetchPairRows(a, b, pairs, i, num_pairs);
    const CandidatePair pair = pairs[i];
    const size_t ca = a_counts[pair.a];
    const size_t cb = b_counts[pair.b];
    const size_t need = c_min[ca + cb];
    if (std::min(ca, cb) < need) {
      ++stats.pruned;
      continue;
    }
    const size_t c = AndCountWords(a.row(pair.a), b.row(pair.b), words);
    ++stats.scored;
    if (c >= need) {
      out.push_back(
          {pair.a, pair.b, ScoreImpl<SimilarityMeasure::kDice>(ca, cb, c, num_bits)});
    }
  }
}

#if defined(__x86_64__) && defined(__GNUC__)
#define PPRL_HAVE_X86_CLONES 1
/// Clone of the loop for AVX-512 VPOPCNTDQ machines: one 512-bit
/// AND + lane popcount per 8 words. BitMatrix rows are 64-byte aligned and
/// zero-padded to their stride, so the loop rounds the word count up to
/// whole 512-bit blocks, uses aligned loads, and never needs a scalar
/// tail.
template <SimilarityMeasure M>
__attribute__((target("avx512f,avx512bw,avx512dq,avx512vpopcntdq"))) void
KernelLoopAvx512(const BitMatrix& a, const BitMatrix& b, const CandidatePair* pairs,
                 size_t num_pairs, double min_score, std::vector<ScoredPair>& out,
                 CompareKernelStats& stats) {
  assert(a.num_bits() == b.num_bits());
  const size_t blocks = (a.words_per_row() + 7) / 8;
  const size_t num_bits = a.num_bits();
  const size_t* a_counts = a.row_counts().data();
  const size_t* b_counts = b.row_counts().data();
  const bool use_bound = min_score > 0;
  for (size_t i = 0; i < num_pairs; ++i) {
    PrefetchPairRows(a, b, pairs, i, num_pairs);
    const CandidatePair pair = pairs[i];
    const size_t ca = a_counts[pair.a];
    const size_t cb = b_counts[pair.b];
    if (use_bound && BoundImpl<M>(ca, cb, num_bits) < min_score) {
      ++stats.pruned;
      continue;
    }
    const uint64_t* ra = a.row(pair.a);
    const uint64_t* rb = b.row(pair.b);
    __m512i acc = _mm512_setzero_si512();
    for (size_t w = 0; w < blocks; ++w) {
      const __m512i va = _mm512_load_si512(ra + 8 * w);
      const __m512i vb = _mm512_load_si512(rb + 8 * w);
      acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(_mm512_and_si512(va, vb)));
    }
    const size_t c = static_cast<size_t>(_mm512_reduce_add_epi64(acc));
    ++stats.scored;
    const double score = ScoreImpl<M>(ca, cb, c, num_bits);
    if (score >= min_score) out.push_back({pair.a, pair.b, score});
  }
}

/// Horizontal sums of eight vectors at once: lane k of the result is the
/// sum of all eight lanes of v<k>. A 3-level qword/128-bit-lane shuffle
/// tree — ~21 ops for eight reductions where eight
/// _mm512_reduce_add_epi64 calls would cost ~48 and serialize.
__attribute__((target("avx512f,avx512bw,avx512dq,avx512vpopcntdq"))) inline __m512i
HorizontalSum8(__m512i v0, __m512i v1, __m512i v2, __m512i v3, __m512i v4,
               __m512i v5, __m512i v6, __m512i v7) {
  // Level 1: adjacent-qword sums, two source vectors interleaved per result.
  const __m512i s01 = _mm512_add_epi64(_mm512_unpacklo_epi64(v0, v1),
                                       _mm512_unpackhi_epi64(v0, v1));
  const __m512i s23 = _mm512_add_epi64(_mm512_unpacklo_epi64(v2, v3),
                                       _mm512_unpackhi_epi64(v2, v3));
  const __m512i s45 = _mm512_add_epi64(_mm512_unpacklo_epi64(v4, v5),
                                       _mm512_unpackhi_epi64(v4, v5));
  const __m512i s67 = _mm512_add_epi64(_mm512_unpacklo_epi64(v6, v7),
                                       _mm512_unpackhi_epi64(v6, v7));
  // Levels 2 and 3: fold 128-bit chunks (0x88 picks even chunks of both
  // operands, 0xDD the odd ones) until lane k holds v<k>'s total.
  const __m512i t0 = _mm512_add_epi64(_mm512_shuffle_i64x2(s01, s23, 0x88),
                                      _mm512_shuffle_i64x2(s01, s23, 0xDD));
  const __m512i t1 = _mm512_add_epi64(_mm512_shuffle_i64x2(s45, s67, 0x88),
                                      _mm512_shuffle_i64x2(s45, s67, 0xDD));
  return _mm512_add_epi64(_mm512_shuffle_i64x2(t0, t1, 0x88),
                          _mm512_shuffle_i64x2(t0, t1, 0xDD));
}

/// One pair of the Dice threshold loop, AVX-512 popcount. The batched loop
/// below falls back to this for groups touched by pruning, and for the
/// tail.
__attribute__((target("avx512f,avx512bw,avx512dq,avx512vpopcntdq"))) inline void
DiceThresholdPairAvx512(const BitMatrix& a, const BitMatrix& b,
                        const size_t* a_counts, const size_t* b_counts,
                        const uint32_t* c_min, size_t blocks, size_t num_bits,
                        const CandidatePair& pair, std::vector<ScoredPair>& out,
                        CompareKernelStats& stats) {
  const size_t ca = a_counts[pair.a];
  const size_t cb = b_counts[pair.b];
  const size_t need = c_min[ca + cb];
  if (std::min(ca, cb) < need) {
    ++stats.pruned;
    return;
  }
  const uint64_t* ra = a.row(pair.a);
  const uint64_t* rb = b.row(pair.b);
  __m512i acc = _mm512_setzero_si512();
  for (size_t w = 0; w < blocks; ++w) {
    const __m512i va = _mm512_load_si512(ra + 8 * w);
    const __m512i vb = _mm512_load_si512(rb + 8 * w);
    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(_mm512_and_si512(va, vb)));
  }
  const size_t c = static_cast<size_t>(_mm512_reduce_add_epi64(acc));
  ++stats.scored;
  if (c >= need) {
    out.push_back(
        {pair.a, pair.b, ScoreImpl<SimilarityMeasure::kDice>(ca, cb, c, num_bits)});
  }
}

/// Eight pairs {a0, b0..b0+7}: one a row against eight consecutive b rows
/// — the shape all-pairs ranges and runs of adjacent blocked candidates
/// expand to, where BitMatrix rows b0..b0+7 are also adjacent in memory.
/// The a row and its count hoist out, the eight cutoffs load from the
/// table at the eight sums, and the prune and accept tests run as 8-lane
/// integer compares.
__attribute__((target("avx512f,avx512bw,avx512dq,avx512vpopcntdq"))) inline void
DiceThresholdDense8(const BitMatrix& a, const BitMatrix& b, const size_t* a_counts,
                    const size_t* b_counts, const uint32_t* c_min, size_t blocks,
                    size_t num_bits, const CandidatePair* pairs,
                    std::vector<ScoredPair>& out, CompareKernelStats& stats) {
  const uint32_t a0 = pairs[0].a;
  const uint32_t b0 = pairs[0].b;
  const size_t ca = a_counts[a0];
  // Pass 1, vectorized: lane k decides pair (a0, b0 + k).
  const __m512i ca_v = _mm512_set1_epi64(static_cast<long long>(ca));
  const __m512i cb_v = _mm512_loadu_si512(b_counts + b0);
  const __m512i need_v = _mm512_cvtepu32_epi64(
      _mm512_i64gather_epi32(_mm512_add_epi64(ca_v, cb_v), c_min, 4));
  const __mmask8 pruned =
      _mm512_cmplt_epu64_mask(_mm512_min_epu64(ca_v, cb_v), need_v);
  stats.pruned += static_cast<size_t>(__builtin_popcount(pruned));
  const __mmask8 scored = static_cast<__mmask8>(~pruned);
  stats.scored += static_cast<size_t>(__builtin_popcount(scored));
  // Pass 2: popcounts against eight consecutive (adjacent) b rows; pruned
  // lanes ride along — recomputing them is cheaper than masking them out.
  __m512i v[8];
  const uint64_t* ra = a.row(a0);
  const uint64_t* rb = b.row(b0);
  const size_t stride = b.stride_words();
  if (blocks == 1) {
    const __m512i va = _mm512_load_si512(ra);
    for (size_t k = 0; k < 8; ++k) {
      v[k] = _mm512_popcnt_epi64(
          _mm512_and_si512(va, _mm512_load_si512(rb + k * stride)));
    }
  } else if (blocks == 2) {
    const __m512i va0 = _mm512_load_si512(ra);
    const __m512i va1 = _mm512_load_si512(ra + 8);
    for (size_t k = 0; k < 8; ++k) {
      const uint64_t* row = rb + k * stride;
      v[k] = _mm512_add_epi64(
          _mm512_popcnt_epi64(_mm512_and_si512(va0, _mm512_load_si512(row))),
          _mm512_popcnt_epi64(_mm512_and_si512(va1, _mm512_load_si512(row + 8))));
    }
  } else {
    for (size_t k = 0; k < 8; ++k) {
      const uint64_t* row = rb + k * stride;
      __m512i acc = _mm512_setzero_si512();
      for (size_t w = 0; w < blocks; ++w) {
        acc = _mm512_add_epi64(
            acc, _mm512_popcnt_epi64(_mm512_and_si512(
                     _mm512_load_si512(ra + 8 * w), _mm512_load_si512(row + 8 * w))));
      }
      v[k] = acc;
    }
  }
  const __m512i c_v =
      HorizontalSum8(v[0], v[1], v[2], v[3], v[4], v[5], v[6], v[7]);
  // Pass 3: accepted lanes divide for their score; at real thresholds the
  // mask is almost always zero.
  __mmask8 hits = _mm512_cmpge_epu64_mask(c_v, need_v) & scored;
  if (hits != 0) {
    alignas(64) uint64_t counts[8];
    _mm512_store_si512(reinterpret_cast<__m512i*>(counts), c_v);
    while (hits != 0) {
      const size_t k = static_cast<size_t>(__builtin_ctz(hits));
      hits = static_cast<__mmask8>(hits & (hits - 1));
      out.push_back({a0, pairs[k].b,
                     ScoreImpl<SimilarityMeasure::kDice>(ca, b_counts[b0 + k], counts[k],
                                                         num_bits)});
    }
  }
}

/// AVX-512 clone of DiceThresholdLoopBody, eight pairs per iteration. The
/// hottest loop in the codebase.
///
/// Groups of eight run in three passes: cutoff lookups and prune tests,
/// then eight AND+VPOPCNT reductions sharing one HorizontalSum8 (the
/// per-pair _mm512_reduce_add_epi64 was the bottleneck once the divisions
/// were gone), then accept tests. A group containing a prune replays pair
/// by pair through DiceThresholdPairAvx512 — counters and emissions stay
/// in pair order either way, so stats and output are identical to the
/// portable loop at every prune rate.
__attribute__((target("avx512f,avx512bw,avx512dq,avx512vpopcntdq"))) void
DiceThresholdLoopAvx512(const DiceCutoffs& cutoffs, const BitMatrix& a,
                        const BitMatrix& b, const CandidatePair* pairs, size_t num_pairs,
                        std::vector<ScoredPair>& out, CompareKernelStats& stats) {
  const size_t blocks = (a.words_per_row() + 7) / 8;
  const size_t num_bits = a.num_bits();
  const size_t* a_counts = a.row_counts().data();
  const size_t* b_counts = b.row_counts().data();
  const uint32_t* c_min = cutoffs.data();
  alignas(64) uint64_t counts[8];
  size_t need8[8];
  size_t i = 0;
  for (; i + 8 <= num_pairs; i += 8) {
    // Prefetch the next group's first rows one group ahead — eight fused
    // AND-popcounts of lead is plenty to cover a fresh B range.
    PrefetchPairRows(a, b, pairs, i + 7, num_pairs);
    // Dense-run detection: eight pairs {a0, b0..b0+7} take the fully
    // vectorized path. One 64-byte compare of the pair array against the
    // expected arithmetic run decides (b is the high half of each 8-byte
    // pair).
    static_assert(sizeof(CandidatePair) == 8 && offsetof(CandidatePair, b) == 4);
    uint64_t first = 0;
    __builtin_memcpy(&first, pairs + i, sizeof(first));
    const __m512i kStep = _mm512_setr_epi64(0, 1LL << 32, 2LL << 32, 3LL << 32,
                                            4LL << 32, 5LL << 32, 6LL << 32, 7LL << 32);
    const __m512i expect =
        _mm512_add_epi64(_mm512_set1_epi64(static_cast<long long>(first)), kStep);
    const __m512i pvec = _mm512_loadu_si512(reinterpret_cast<const void*>(pairs + i));
    if (_mm512_cmpeq_epi64_mask(pvec, expect) == 0xFF) {
      DiceThresholdDense8(a, b, a_counts, b_counts, c_min, blocks, num_bits, pairs + i,
                          out, stats);
      continue;
    }
    // Pass 1: the group's cutoffs and prune tests.
    bool pruned = false;
    for (size_t k = 0; k < 8; ++k) {
      const CandidatePair pair = pairs[i + k];
      const size_t ca = a_counts[pair.a];
      const size_t cb = b_counts[pair.b];
      need8[k] = c_min[ca + cb];
      if (std::min(ca, cb) < need8[k]) {
        pruned = true;
        break;
      }
    }
    if (pruned) {
      for (size_t k = 0; k < 8; ++k) {
        DiceThresholdPairAvx512(a, b, a_counts, b_counts, c_min, blocks, num_bits,
                                pairs[i + k], out, stats);
      }
      continue;
    }
    // Pass 2: eight AND+popcount accumulations, one shared reduction.
    // Filters up to 512 bits (the common CLK config) are one block; that
    // path drops the inner loop and the accumulator entirely.
    __m512i v[8];
    if (blocks == 1) {
      for (size_t k = 0; k < 8; ++k) {
        const CandidatePair pair = pairs[i + k];
        v[k] = _mm512_popcnt_epi64(
            _mm512_and_si512(_mm512_load_si512(a.row(pair.a)),
                             _mm512_load_si512(b.row(pair.b))));
      }
    } else {
      for (size_t k = 0; k < 8; ++k) {
        const CandidatePair pair = pairs[i + k];
        const uint64_t* ra = a.row(pair.a);
        const uint64_t* rb = b.row(pair.b);
        __m512i acc = _mm512_setzero_si512();
        for (size_t w = 0; w < blocks; ++w) {
          const __m512i va = _mm512_load_si512(ra + 8 * w);
          const __m512i vb = _mm512_load_si512(rb + 8 * w);
          acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(_mm512_and_si512(va, vb)));
        }
        v[k] = acc;
      }
    }
    _mm512_store_si512(reinterpret_cast<__m512i*>(counts),
                       HorizontalSum8(v[0], v[1], v[2], v[3], v[4], v[5], v[6], v[7]));
    // Pass 3: accept tests; division only for accepted pairs.
    stats.scored += 8;
    for (size_t k = 0; k < 8; ++k) {
      if (counts[k] < need8[k]) continue;
      const CandidatePair pair = pairs[i + k];
      out.push_back({pair.a, pair.b,
                     ScoreImpl<SimilarityMeasure::kDice>(
                         a_counts[pair.a], b_counts[pair.b], counts[k], num_bits)});
    }
  }
  for (; i < num_pairs; ++i) {
    DiceThresholdPairAvx512(a, b, a_counts, b_counts, c_min, blocks, num_bits,
                            pairs[i], out, stats);
  }
}

/// Copies of the portable loops compiled with the POPCNT ISA extension:
/// std::popcount becomes one instruction instead of the portable SWAR
/// sequence.
template <SimilarityMeasure M>
__attribute__((target("popcnt"))) void KernelLoopPopcnt(
    const BitMatrix& a, const BitMatrix& b, const CandidatePair* pairs, size_t num_pairs,
    double min_score, std::vector<ScoredPair>& out, CompareKernelStats& stats) {
  KernelLoopBody<M>(a, b, pairs, num_pairs, min_score, out, stats);
}

__attribute__((target("popcnt"))) void DiceThresholdLoopPopcnt(
    const DiceCutoffs& cutoffs, const BitMatrix& a, const BitMatrix& b,
    const CandidatePair* pairs, size_t num_pairs, std::vector<ScoredPair>& out,
    CompareKernelStats& stats) {
  DiceThresholdLoopBody(cutoffs, a, b, pairs, num_pairs, out, stats);
}
#endif

/// The clone a ScopedKernelClone forces, or -1 for the fastest supported.
std::atomic<int> forced_clone{-1};

/// The clone this call runs: chosen once per process via
/// __builtin_cpu_supports, never per pair.
KernelClone ActiveClone() {
  const int forced = forced_clone.load(std::memory_order_relaxed);
  if (forced >= 0) return static_cast<KernelClone>(forced);
  static const KernelClone fastest = SupportedKernelClones().back();
  return fastest;
}

template <SimilarityMeasure M>
void RunMeasureLoop(const BitMatrix& a, const BitMatrix& b, const CandidatePair* pairs,
                    size_t num_pairs, double min_score, std::vector<ScoredPair>& out,
                    CompareKernelStats& stats) {
  switch (ActiveClone()) {
#ifdef PPRL_HAVE_X86_CLONES
    case KernelClone::kAvx512:
      KernelLoopAvx512<M>(a, b, pairs, num_pairs, min_score, out, stats);
      return;
    case KernelClone::kPopcnt:
      KernelLoopPopcnt<M>(a, b, pairs, num_pairs, min_score, out, stats);
      return;
#endif
    default:
      KernelLoopBody<M>(a, b, pairs, num_pairs, min_score, out, stats);
  }
}

void RunDiceLoop(const DiceCutoffs& cutoffs, const BitMatrix& a, const BitMatrix& b,
                 const CandidatePair* pairs, size_t num_pairs,
                 std::vector<ScoredPair>& out, CompareKernelStats& stats) {
  assert(a.num_bits() == b.num_bits() && cutoffs.num_bits() == a.num_bits());
  switch (ActiveClone()) {
#ifdef PPRL_HAVE_X86_CLONES
    case KernelClone::kAvx512:
      DiceThresholdLoopAvx512(cutoffs, a, b, pairs, num_pairs, out, stats);
      return;
    case KernelClone::kPopcnt:
      DiceThresholdLoopPopcnt(cutoffs, a, b, pairs, num_pairs, out, stats);
      return;
#endif
    default:
      DiceThresholdLoopBody(cutoffs, a, b, pairs, num_pairs, out, stats);
  }
}

}  // namespace

const char* SimilarityMeasureName(SimilarityMeasure measure) {
  switch (measure) {
    case SimilarityMeasure::kDice:
      return "dice";
    case SimilarityMeasure::kJaccard:
      return "jaccard";
    case SimilarityMeasure::kHamming:
      return "hamming";
    case SimilarityMeasure::kOverlap:
      return "overlap";
    case SimilarityMeasure::kCosine:
      return "cosine";
  }
  return "unknown";
}

std::function<double(const BitVector&, const BitVector&)> MeasureFunction(
    SimilarityMeasure measure) {
  switch (measure) {
    case SimilarityMeasure::kDice:
      return [](const BitVector& a, const BitVector& b) { return DiceSimilarity(a, b); };
    case SimilarityMeasure::kJaccard:
      return
          [](const BitVector& a, const BitVector& b) { return JaccardSimilarity(a, b); };
    case SimilarityMeasure::kHamming:
      return
          [](const BitVector& a, const BitVector& b) { return HammingSimilarity(a, b); };
    case SimilarityMeasure::kOverlap:
      return
          [](const BitVector& a, const BitVector& b) { return OverlapSimilarity(a, b); };
    case SimilarityMeasure::kCosine:
      return
          [](const BitVector& a, const BitVector& b) { return CosineSimilarity(a, b); };
  }
  return nullptr;
}

double ScoreFromIntersection(SimilarityMeasure measure, size_t ca, size_t cb, size_t c,
                             size_t num_bits) {
  switch (measure) {
    case SimilarityMeasure::kDice:
      return ScoreImpl<SimilarityMeasure::kDice>(ca, cb, c, num_bits);
    case SimilarityMeasure::kJaccard:
      return ScoreImpl<SimilarityMeasure::kJaccard>(ca, cb, c, num_bits);
    case SimilarityMeasure::kHamming:
      return ScoreImpl<SimilarityMeasure::kHamming>(ca, cb, c, num_bits);
    case SimilarityMeasure::kOverlap:
      return ScoreImpl<SimilarityMeasure::kOverlap>(ca, cb, c, num_bits);
    case SimilarityMeasure::kCosine:
      return ScoreImpl<SimilarityMeasure::kCosine>(ca, cb, c, num_bits);
  }
  return 0;
}

double ScoreUpperBound(SimilarityMeasure measure, size_t ca, size_t cb,
                       size_t num_bits) {
  switch (measure) {
    case SimilarityMeasure::kDice:
      return BoundImpl<SimilarityMeasure::kDice>(ca, cb, num_bits);
    case SimilarityMeasure::kJaccard:
      return BoundImpl<SimilarityMeasure::kJaccard>(ca, cb, num_bits);
    case SimilarityMeasure::kHamming:
      return BoundImpl<SimilarityMeasure::kHamming>(ca, cb, num_bits);
    case SimilarityMeasure::kOverlap:
      return BoundImpl<SimilarityMeasure::kOverlap>(ca, cb, num_bits);
    case SimilarityMeasure::kCosine:
      return BoundImpl<SimilarityMeasure::kCosine>(ca, cb, num_bits);
  }
  return 0;
}

DiceCutoffs::DiceCutoffs(double threshold, size_t num_bits, AcceptRule accept)
    : num_bits_(num_bits), c_min_(2 * num_bits + 1) {
  // One cursor walks the whole table. Each entry is exact on its own: the
  // cursor steps down while the score one below still passes and up while
  // its own score fails. c_min never decreases in s (a pair passing at s
  // passes at s - 1 too), so the walk stays amortized O(num_bits) score
  // evaluations.
  size_t c = 0;
  for (size_t s = 0; s < c_min_.size(); ++s) {
    // The kernels' own score formula; Dice reads only c and ca + cb.
    const auto passes = [&](size_t x) {
      return accept(ScoreImpl<SimilarityMeasure::kDice>(x, s - x, x, num_bits),
                    threshold);
    };
    while (c > 0 && passes(c - 1)) --c;
    while (c <= s / 2 && !passes(c)) ++c;
    c_min_[s] = static_cast<uint32_t>(c);
  }
}

void CompareKernel(SimilarityMeasure measure, const BitMatrix& a, const BitMatrix& b,
                   const CandidatePair* pairs, size_t num_pairs, double min_score,
                   std::vector<ScoredPair>& out, CompareKernelStats& stats) {
  switch (measure) {
    case SimilarityMeasure::kDice:
      if (min_score > 0) {
        RunDiceLoop(DiceCutoffs(min_score, a.num_bits()), a, b, pairs, num_pairs, out,
                    stats);
      } else {
        RunMeasureLoop<SimilarityMeasure::kDice>(a, b, pairs, num_pairs, min_score,
                                                 out, stats);
      }
      return;
    case SimilarityMeasure::kJaccard:
      RunMeasureLoop<SimilarityMeasure::kJaccard>(a, b, pairs, num_pairs, min_score,
                                                  out, stats);
      return;
    case SimilarityMeasure::kHamming:
      RunMeasureLoop<SimilarityMeasure::kHamming>(a, b, pairs, num_pairs, min_score,
                                                  out, stats);
      return;
    case SimilarityMeasure::kOverlap:
      RunMeasureLoop<SimilarityMeasure::kOverlap>(a, b, pairs, num_pairs, min_score,
                                                  out, stats);
      return;
    case SimilarityMeasure::kCosine:
      RunMeasureLoop<SimilarityMeasure::kCosine>(a, b, pairs, num_pairs, min_score,
                                                 out, stats);
      return;
  }
}

void CompareKernel(const DiceCutoffs& cutoffs, const BitMatrix& a, const BitMatrix& b,
                   const CandidatePair* pairs, size_t num_pairs,
                   std::vector<ScoredPair>& out, CompareKernelStats& stats) {
  RunDiceLoop(cutoffs, a, b, pairs, num_pairs, out, stats);
}

std::vector<KernelClone> SupportedKernelClones() {
  std::vector<KernelClone> clones = {KernelClone::kPortable};
#ifdef PPRL_HAVE_X86_CLONES
  if (__builtin_cpu_supports("popcnt")) clones.push_back(KernelClone::kPopcnt);
  if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512vpopcntdq")) {
    clones.push_back(KernelClone::kAvx512);
  }
#endif
  return clones;
}

ScopedKernelClone::ScopedKernelClone(KernelClone clone)
    : previous_(forced_clone.exchange(static_cast<int>(clone))) {}

ScopedKernelClone::~ScopedKernelClone() { forced_clone.store(previous_); }

}  // namespace pprl
