#include <algorithm>
#include <deque>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "blocking/lsh_blocking.h"
#include "blocking/lsh_index.h"
#include "blocking/partitioner.h"
#include "common/random.h"

namespace pprl {
namespace {

std::vector<std::string> SyntheticKeys(size_t n) {
  std::vector<std::string> keys;
  keys.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    keys.push_back("t3:block-" + std::to_string(i * 2654435761u));
  }
  return keys;
}

TEST(PartitionerTest, AutoResolvesByRingSize) {
  EXPECT_EQ(BlockPartitioner(1).effective_scheme(), PartitionScheme::kRendezvous);
  EXPECT_EQ(BlockPartitioner(8).effective_scheme(), PartitionScheme::kRendezvous);
  EXPECT_EQ(BlockPartitioner(9).effective_scheme(),
            PartitionScheme::kConsistentRing);
  EXPECT_STREQ(PartitionSchemeName(PartitionScheme::kRendezvous), "rendezvous");
}

TEST(PartitionerTest, SeparatelyConstructedPartitionersAgree) {
  // The coordinator and every worker build their own partitioner from just
  // (num_workers, scheme); the whole design rests on them agreeing.
  for (const auto scheme :
       {PartitionScheme::kRendezvous, PartitionScheme::kConsistentRing}) {
    BlockPartitioner here(4, scheme);
    BlockPartitioner there(4, scheme);
    for (const std::string& key : SyntheticKeys(2000)) {
      ASSERT_EQ(here.WorkerForKey(key), there.WorkerForKey(key)) << key;
    }
  }
}

TEST(PartitionerTest, RendezvousBalancesKeysAcrossWorkers) {
  const size_t kKeys = 20000, kWorkers = 4;
  BlockPartitioner partitioner(kWorkers, PartitionScheme::kRendezvous);
  std::vector<size_t> counts(kWorkers, 0);
  for (const std::string& key : SyntheticKeys(kKeys)) {
    const uint32_t w = partitioner.WorkerForKey(key);
    ASSERT_LT(w, kWorkers);
    ++counts[w];
  }
  // Rendezvous is uniform; 20k keys over 4 workers lands each within a few
  // percent of 5000. Allow 10%.
  const double expected = static_cast<double>(kKeys) / kWorkers;
  for (size_t w = 0; w < kWorkers; ++w) {
    EXPECT_NEAR(static_cast<double>(counts[w]), expected, 0.10 * expected)
        << "worker " << w;
  }
}

TEST(PartitionerTest, RingBalancesKeysWithinVnodeVariance) {
  const size_t kKeys = 20000, kWorkers = 12;  // > 8 so kAuto picks the ring
  BlockPartitioner partitioner(kWorkers, PartitionScheme::kAuto);
  ASSERT_EQ(partitioner.effective_scheme(), PartitionScheme::kConsistentRing);
  std::vector<size_t> counts(kWorkers, 0);
  for (const std::string& key : SyntheticKeys(kKeys)) {
    ++counts[partitioner.WorkerForKey(key)];
  }
  // A 64-vnode ring balances to roughly ±sqrt(1/vnodes) ≈ 12% relative
  // error per worker; allow a generous 40% band but require every worker
  // to own a real share.
  const double expected = static_cast<double>(kKeys) / kWorkers;
  for (size_t w = 0; w < kWorkers; ++w) {
    EXPECT_GT(counts[w], expected * 0.6) << "worker " << w;
    EXPECT_LT(counts[w], expected * 1.4) << "worker " << w;
  }
}

TEST(PartitionerTest, ResizeMovesOnlyAFractionOfKeysToTheNewWorker) {
  // The minimal-disruption property both schemes are chosen for: growing
  // the ring W -> W+1 moves ~1/(W+1) of the keys, all of them TO the new
  // worker — no key moves between two old workers.
  const auto keys = SyntheticKeys(20000);
  for (const auto scheme :
       {PartitionScheme::kRendezvous, PartitionScheme::kConsistentRing}) {
    BlockPartitioner before(4, scheme);
    BlockPartitioner after(5, scheme);
    size_t moved = 0;
    for (const std::string& key : keys) {
      const uint32_t was = before.WorkerForKey(key);
      const uint32_t now = after.WorkerForKey(key);
      if (was != now) {
        ++moved;
        EXPECT_EQ(now, 4u) << "key moved between two surviving workers: " << key;
      }
    }
    const double fraction = static_cast<double>(moved) / keys.size();
    EXPECT_GT(fraction, 0.10) << PartitionSchemeName(scheme);
    EXPECT_LT(fraction, 0.35) << PartitionSchemeName(scheme);
  }
}

TEST(PartitionerTest, OwnedPairsPartitionTheCandidateSet) {
  // Build two LSH indexes over random filters and check the canonical-key
  // rule's contract: per-worker owned sets are sorted, pairwise disjoint,
  // and their union is exactly the deduplicated single-machine candidate
  // list — the property that makes scattered compare counters sum to the
  // single-daemon totals. The band-fingerprint generator the linkage paths
  // run (LshCandidatePairs) must agree element for element with the
  // string-keyed reference (OwnedCandidatePairs) for every worker. At
  // least 11 tables are needed for the key order (t10 < t1) to differ from
  // the table order; 1-bit keys make almost every pair a candidate, 64-bit
  // keys only near-duplicates.
  const size_t kBits = 256, kRecords = 200;
  Rng data_rng(7);
  std::vector<BitVector> a_filters, b_filters;
  for (size_t i = 0; i < kRecords; ++i) {
    BitVector av(kBits), bv(kBits);
    for (size_t bit = 0; bit < kBits; ++bit) {
      if (data_rng.NextUint64() % 3 == 0) av.Set(bit);
      if (data_rng.NextUint64() % 3 == 0) bv.Set(bit);
    }
    // Inject overlap so many pairs collide in several tables — the case
    // that double-counts if ownership is not canonicalized. Near-duplicates
    // collide in only some tables, so which table comes first matters.
    if (i % 3 == 0) bv = av;
    if (i % 3 == 1) {
      bv = av;
      for (int flip = 0; flip < 4; ++flip) bv.Flip(data_rng.NextUint64(kBits));
    }
    a_filters.push_back(av);
    b_filters.push_back(bv);
  }

  constexpr uint64_t kSeed = 42;
  for (const size_t tables : {1u, 6u, 11u, 20u, 30u}) {
    for (const size_t bits_per_key : {1u, 12u, 18u, 64u}) {
      const std::string geometry = std::to_string(tables) + " tables x " +
                                   std::to_string(bits_per_key) + " bits";
      Rng lsh_rng(kSeed);
      HammingLshBlocker blocker(kBits, tables, bits_per_key, lsh_rng);
      const BlockIndex a = blocker.BuildIndex(a_filters);
      const BlockIndex b = blocker.BuildIndex(b_filters);
      const std::deque<LshBandIndex> bands = BuildBandIndexes(
          {&a_filters, &b_filters}, kBits, tables, bits_per_key, kSeed);

      const std::vector<CandidatePair> reference =
          HammingLshBlocker::CandidatePairs(a, b);
      ASSERT_GE(reference.size(), kRecords / 3) << geometry;

      // kAuto: rendezvous up to 8 workers, the ring above.
      for (const size_t num_workers : {1u, 2u, 4u, 7u, 9u, 12u}) {
        const std::string label = geometry + ", " + std::to_string(num_workers) + " workers";
        BlockPartitioner partitioner(num_workers);
        std::vector<CandidatePair> merged;
        size_t total = 0;
        for (uint32_t w = 0; w < num_workers; ++w) {
          const auto owned = OwnedCandidatePairs(a, b, partitioner, w);
          EXPECT_TRUE(std::is_sorted(owned.begin(), owned.end()))
              << label << ", worker " << w;
          EXPECT_EQ(LshCandidatePairs(bands[0], bands[1], partitioner, w), owned)
              << label << ", worker " << w;
          total += owned.size();
          merged.insert(merged.end(), owned.begin(), owned.end());
        }
        // Disjoint (sizes add up to the union's size) and complete.
        EXPECT_EQ(total, reference.size()) << label;
        std::sort(merged.begin(), merged.end());
        EXPECT_EQ(merged, reference) << label;
        if (num_workers == 1) {
          EXPECT_EQ(LshCandidatePairs(bands[0], bands[1], partitioner, 0), reference)
              << label;
        }
      }
    }
  }
}

TEST(PartitionerTest, OwnedPairsAreStableAcrossCallOrder) {
  // Ownership of a pair depends only on its canonical key, never on which
  // worker asks first or how many pairs other workers own.
  const size_t kBits = 128;
  Rng data_rng(11);
  std::vector<BitVector> filters;
  for (size_t i = 0; i < 80; ++i) {
    BitVector v(kBits);
    for (size_t bit = 0; bit < kBits; ++bit) {
      if (data_rng.NextUint64() % 4 == 0) v.Set(bit);
    }
    filters.push_back(v);
  }
  Rng lsh_rng(5);
  HammingLshBlocker blocker(kBits, 4, 10, lsh_rng);
  const BlockIndex index = blocker.BuildIndex(filters);

  BlockPartitioner partitioner(3);
  const auto first = OwnedCandidatePairs(index, index, partitioner, 2);
  const auto again = OwnedCandidatePairs(index, index, partitioner, 2);
  EXPECT_EQ(first, again);
}

}  // namespace
}  // namespace pprl
