#include "linkage/clustering.h"

#include <algorithm>
#include <map>
#include <set>
#include <unordered_map>
#include <gtest/gtest.h>

#include "common/random.h"
#include "encoding/bloom_filter.h"
#include "similarity/similarity.h"

namespace pprl {
namespace {

RecordRef R(uint32_t db, uint32_t rec) { return RecordRef{db, rec}; }

// ---------------------------------------------------------------------------
// Reference clusterers: the map-based bodies the flat-array ones replaced,
// kept verbatim so every output can be compared exactly.

class RefUnionFind {
 public:
  explicit RefUnionFind(size_t n) : parent_(n), rank_(n, 0) {
    for (size_t i = 0; i < n; ++i) parent_[i] = i;
  }
  size_t Find(size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void Union(size_t x, size_t y) {
    x = Find(x);
    y = Find(y);
    if (x == y) return;
    if (rank_[x] < rank_[y]) std::swap(x, y);
    parent_[y] = x;
    if (rank_[x] == rank_[y]) ++rank_[x];
  }

 private:
  std::vector<size_t> parent_;
  std::vector<size_t> rank_;
};

std::vector<Cluster> RefConnectedComponents(const std::vector<MatchEdge>& edges) {
  std::map<RecordRef, size_t> ids;
  std::vector<RecordRef> rev;
  for (const MatchEdge& e : edges) {
    for (const RecordRef& r : {e.x, e.y}) {
      if (ids.emplace(r, rev.size()).second) rev.push_back(r);
    }
  }
  RefUnionFind uf(rev.size());
  for (const MatchEdge& e : edges) uf.Union(ids[e.x], ids[e.y]);
  std::unordered_map<size_t, Cluster> components;
  for (size_t i = 0; i < rev.size(); ++i) components[uf.Find(i)].push_back(rev[i]);
  std::vector<Cluster> out;
  out.reserve(components.size());
  for (auto& [root, cluster] : components) {
    std::sort(cluster.begin(), cluster.end());
    out.push_back(std::move(cluster));
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<Cluster> RefStarClustering(const std::vector<MatchEdge>& edges) {
  std::map<RecordRef, std::vector<std::pair<double, RecordRef>>> adj;
  std::map<RecordRef, double> strength;
  for (const MatchEdge& e : edges) {
    adj[e.x].push_back({e.score, e.y});
    adj[e.y].push_back({e.score, e.x});
    strength[e.x] += e.score;
    strength[e.y] += e.score;
  }
  std::vector<std::pair<double, RecordRef>> order;
  order.reserve(strength.size());
  for (const auto& [ref, s] : strength) order.push_back({s, ref});
  std::sort(order.begin(), order.end(), [](const auto& x, const auto& y) {
    if (x.first != y.first) return x.first > y.first;
    return x.second < y.second;
  });
  std::set<RecordRef> assigned;
  std::vector<Cluster> out;
  for (const auto& [s, centre] : order) {
    if (assigned.count(centre)) continue;
    Cluster cluster{centre};
    assigned.insert(centre);
    auto& neighbors = adj[centre];
    std::sort(neighbors.begin(), neighbors.end(), [](const auto& x, const auto& y) {
      if (x.first != y.first) return x.first > y.first;
      return x.second < y.second;
    });
    for (const auto& [score, neighbor] : neighbors) {
      if (assigned.count(neighbor)) continue;
      cluster.push_back(neighbor);
      assigned.insert(neighbor);
    }
    std::sort(cluster.begin(), cluster.end());
    out.push_back(std::move(cluster));
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// A random edge set over 2-4 databases. Records mostly come from a small
/// range so that records share edges and strengths tie; about one in
/// eight is drawn up to 10^6. Scores come from a handful of values whose
/// sums round differently in different orders, so a strength summed out of
/// edge order breaks a tie the other way.
std::vector<MatchEdge> RandomEdges(Rng& rng, size_t num_edges) {
  static constexpr double kScores[] = {0.8, 0.82, 0.85, 0.9, 0.95, 0.1, 0.3, 0.7};
  const uint32_t databases = 2 + static_cast<uint32_t>(rng.NextUint64(3));
  const uint32_t small = 4 + static_cast<uint32_t>(rng.NextUint64(12));
  const auto record = [&]() {
    if (rng.NextUint64(8) == 0) return static_cast<uint32_t>(rng.NextUint64(1000001));
    return static_cast<uint32_t>(rng.NextUint64(small));
  };
  std::vector<MatchEdge> edges;
  for (size_t i = 0; i < num_edges; ++i) {
    MatchEdge e;
    e.x = R(static_cast<uint32_t>(rng.NextUint64(databases)), record());
    e.y = R(static_cast<uint32_t>(rng.NextUint64(databases)), record());
    e.score = kScores[rng.NextUint64(std::size(kScores))];
    edges.push_back(e);
  }
  return edges;
}

TEST(ClusteringReferenceTest, MatchesMapBasedBodiesOnRandomEdgeSets) {
  Rng rng(2026);
  for (int set = 0; set < 3000; ++set) {
    const std::vector<MatchEdge> edges = RandomEdges(rng, 1 + rng.NextUint64(60));
    ASSERT_EQ(StarClustering(edges), RefStarClustering(edges)) << "edge set " << set;
    ASSERT_EQ(ConnectedComponents(edges), RefConnectedComponents(edges))
        << "edge set " << set;
  }
}

TEST(ClusteringReferenceTest, MatchesMapBasedBodiesOn15kEdges) {
  Rng rng(15000);
  std::vector<MatchEdge> edges;
  for (size_t i = 0; i < 15000; ++i) {
    MatchEdge e;
    e.x = R(static_cast<uint32_t>(rng.NextUint64(3)),
            static_cast<uint32_t>(rng.NextUint64(6000)));
    e.y = R(static_cast<uint32_t>(rng.NextUint64(3)),
            static_cast<uint32_t>(rng.NextUint64(6000)));
    e.score = 0.8 + 0.01 * static_cast<double>(rng.NextUint64(20));
    edges.push_back(e);
  }
  EXPECT_EQ(StarClustering(edges), RefStarClustering(edges));
  EXPECT_EQ(ConnectedComponents(edges), RefConnectedComponents(edges));
}

TEST(ClusteringReferenceTest, StrengthTiesGoToTheSmallerRecord) {
  // (0,5) and (1,2) both reach 0.5 + 0.9; the smaller ref, (0,5), centres
  // first and claims the neighbour they share, (2,7).
  const std::vector<MatchEdge> edges = {
      {R(1, 2), R(2, 7), 0.5}, {R(1, 2), R(2, 1), 0.9},
      {R(0, 5), R(2, 7), 0.5}, {R(0, 5), R(2, 9), 0.9},
  };
  const auto clusters = StarClustering(edges);
  EXPECT_EQ(clusters, RefStarClustering(edges));
  EXPECT_EQ(clusters, (std::vector<Cluster>{{R(0, 5), R(2, 7), R(2, 9)},
                                            {R(1, 2), R(2, 1)}}));
}

TEST(ConnectedComponentsTest, MergesTransitively) {
  const std::vector<MatchEdge> edges = {
      {R(0, 1), R(1, 1), 0.9},
      {R(1, 1), R(2, 1), 0.9},
      {R(0, 2), R(1, 2), 0.8},
  };
  const auto clusters = ConnectedComponents(edges);
  ASSERT_EQ(clusters.size(), 2u);
  EXPECT_EQ(clusters[0].size(), 3u);  // the chained triple
  EXPECT_EQ(clusters[1].size(), 2u);
}

TEST(ConnectedComponentsTest, EmptyEdges) {
  EXPECT_TRUE(ConnectedComponents({}).empty());
}

TEST(ConnectedComponentsTest, SelfContainedPairs) {
  const auto clusters = ConnectedComponents({{R(0, 0), R(1, 0), 1.0}});
  ASSERT_EQ(clusters.size(), 1u);
  EXPECT_EQ(clusters[0], (Cluster{R(0, 0), R(1, 0)}));
}

TEST(StarClusteringTest, AvoidsChainMerging) {
  // A weak bridge between two strong pairs: star keeps them apart when the
  // bridge endpoint is claimed by a stronger centre first.
  const std::vector<MatchEdge> edges = {
      {R(0, 0), R(1, 0), 0.95},
      {R(0, 1), R(1, 1), 0.95},
      {R(1, 0), R(0, 1), 0.55},  // bridge
  };
  const auto star = StarClustering(edges);
  const auto components = ConnectedComponents(edges);
  EXPECT_EQ(components.size(), 1u);  // components over-merge
  EXPECT_EQ(star.size(), 2u);        // star does not
}

TEST(StarClusteringTest, EveryRecordAssignedOnce) {
  const std::vector<MatchEdge> edges = {
      {R(0, 0), R(1, 0), 0.9}, {R(0, 0), R(1, 1), 0.8}, {R(1, 0), R(2, 2), 0.7}};
  const auto clusters = StarClustering(edges);
  std::set<RecordRef> seen;
  for (const auto& cluster : clusters) {
    for (const auto& ref : cluster) EXPECT_TRUE(seen.insert(ref).second);
  }
  EXPECT_EQ(seen.size(), 4u);
}

class IncrementalClustererTest : public ::testing::Test {
 protected:
  static BitVector Encode(const std::string& name) {
    const BloomFilterEncoder encoder({500, 15, BloomHashScheme::kDoubleHashing, ""});
    return encoder.EncodeString(name);
  }
  static PairSimilarityFunction Dice() {
    return [](const BitVector& a, const BitVector& b) { return DiceSimilarity(a, b); };
  }
};

TEST_F(IncrementalClustererTest, GroupsSimilarRecords) {
  IncrementalClusterer clusterer(0.7, Dice());
  const size_t c1 = clusterer.Insert(R(0, 0), Encode("katherine"));
  const size_t c2 = clusterer.Insert(R(1, 0), Encode("catherine"));
  const size_t c3 = clusterer.Insert(R(2, 0), Encode("zzzzyyyy"));
  EXPECT_EQ(c1, c2);
  EXPECT_NE(c1, c3);
  EXPECT_EQ(clusterer.clusters().size(), 2u);
}

TEST_F(IncrementalClustererTest, OnePerDatabaseConstraint) {
  IncrementalClusterer clusterer(0.7, Dice());
  clusterer.set_one_per_database(true);
  clusterer.Insert(R(0, 0), Encode("smith"));
  // Same database: must open a new cluster even though identical.
  const size_t c = clusterer.Insert(R(0, 1), Encode("smith"));
  EXPECT_EQ(c, 1u);
  // Different database: may join.
  const size_t c2 = clusterer.Insert(R(1, 0), Encode("smith"));
  EXPECT_TRUE(c2 == 0u || c2 == 1u);
}

TEST_F(IncrementalClustererTest, ComparisonsGrowSubQuadraticallyWithClusters) {
  IncrementalClusterer clusterer(0.95, Dice());
  // 20 distinct names -> ~20 clusters; comparisons <= n * clusters.
  for (uint32_t i = 0; i < 20; ++i) {
    clusterer.Insert(R(0, i), Encode("name" + std::to_string(i * 7919)));
  }
  EXPECT_LE(clusterer.comparisons(), 20u * 20u);
  EXPECT_GT(clusterer.comparisons(), 0u);
}

TEST_F(IncrementalClustererTest, RepresentativeIsMajority) {
  IncrementalClusterer clusterer(0.5, Dice());
  clusterer.Insert(R(0, 0), Encode("smith"));
  clusterer.Insert(R(1, 0), Encode("smith"));
  clusterer.Insert(R(2, 0), Encode("smyth"));
  // All three should have landed in one cluster.
  ASSERT_EQ(clusterer.clusters().size(), 1u);
  EXPECT_EQ(clusterer.clusters()[0].size(), 3u);
}

TEST(ClustersInAtLeastTest, SubsetMatching) {
  const std::vector<Cluster> clusters = {
      {R(0, 0), R(1, 0), R(2, 0)},      // 3 databases
      {R(0, 1), R(1, 1)},               // 2 databases
      {R(0, 2), R(0, 3)},               // 1 database (internal duplicate)
  };
  EXPECT_EQ(ClustersInAtLeast(clusters, 3).size(), 1u);
  EXPECT_EQ(ClustersInAtLeast(clusters, 2).size(), 2u);
  EXPECT_EQ(ClustersInAtLeast(clusters, 1).size(), 3u);
  EXPECT_TRUE(ClustersInAtLeast(clusters, 4).empty());
}

}  // namespace
}  // namespace pprl
