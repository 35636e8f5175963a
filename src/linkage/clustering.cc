#include "linkage/clustering.h"

#include <algorithm>
#include <map>
#include <set>
#include <unordered_map>

namespace pprl {

namespace {

/// Union-find over compacted node ids.
class UnionFind {
 public:
  explicit UnionFind(size_t n) : parent_(n), rank_(n, 0) {
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

}  // namespace

std::vector<Cluster> ConnectedComponents(const std::vector<MatchEdge>& edges) {
  std::map<RecordRef, size_t> ids;
  std::vector<RecordRef> rev;
  for (const MatchEdge& e : edges) {
    for (const RecordRef& r : {e.x, e.y}) {
      if (ids.emplace(r, rev.size()).second) rev.push_back(r);
    }
  }
  UnionFind uf(rev.size());
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

std::vector<Cluster> StarClustering(const std::vector<MatchEdge>& edges) {
  // Adjacency with strongest-first ordering by total incident weight.
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

std::vector<Cluster> ClusterEdges(const std::vector<MatchEdge>& edges, bool star) {
  if (star) return StarClustering(edges);
  return ConnectedComponents(edges);
}

IncrementalClusterer::IncrementalClusterer(double threshold,
                                           PairSimilarityFunction similarity)
    : threshold_(threshold), similarity_(std::move(similarity)) {}

void IncrementalClusterer::UpdateRepresentative(size_t cluster_index,
                                                const BitVector& encoding) {
  auto& counts = bit_counts_[cluster_index];
  if (counts.size() < encoding.size()) counts.resize(encoding.size(), 0);
  for (uint32_t pos : encoding.SetPositions()) ++counts[pos];
  const size_t cluster_size = clusters_[cluster_index].size();
  BitVector rep(counts.size());
  for (size_t i = 0; i < counts.size(); ++i) {
    if (2 * counts[i] >= cluster_size) rep.Set(i);
  }
  representatives_[cluster_index] = std::move(rep);
}

bool IncrementalClusterer::ConsiderCluster(size_t c, const RecordRef& ref,
                                           const BitVector& encoding,
                                           double* best_score,
                                           size_t* best_cluster) {
  if (one_per_database_) {
    bool database_taken = false;
    for (const RecordRef& member : clusters_[c]) {
      if (member.database == ref.database) {
        database_taken = true;
        break;
      }
    }
    if (database_taken) return false;
  }
  if (representatives_[c].size() != encoding.size()) return false;
  ++comparisons_;
  const double score = similarity_(representatives_[c], encoding);
  // Strictly better only: ties keep the earlier (lowest-index) cluster,
  // the determinism rule documented in the header.
  if (score > *best_score) {
    *best_score = score;
    *best_cluster = c;
  }
  return true;
}

size_t IncrementalClusterer::Insert(const RecordRef& ref, const BitVector& encoding) {
  double best_score = -1;
  size_t best_cluster = clusters_.size();
  for (size_t c = 0; c < clusters_.size(); ++c) {
    ConsiderCluster(c, ref, encoding, &best_score, &best_cluster);
  }
  return Attach(ref, encoding, best_score, best_cluster);
}

size_t IncrementalClusterer::Insert(const RecordRef& ref,
                                    const BitVector& encoding,
                                    const std::vector<size_t>& candidate_clusters) {
  // Ascending order + dedup preserve the lowest-index tie rule no matter
  // how the caller's blocking index ordered its candidates.
  std::vector<size_t> candidates = candidate_clusters;
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  double best_score = -1;
  size_t best_cluster = clusters_.size();
  for (size_t c : candidates) {
    if (c >= clusters_.size()) continue;
    ConsiderCluster(c, ref, encoding, &best_score, &best_cluster);
  }
  return Attach(ref, encoding, best_score, best_cluster);
}

size_t IncrementalClusterer::Attach(const RecordRef& ref,
                                    const BitVector& encoding,
                                    double best_score, size_t best_cluster) {
  if (best_cluster == clusters_.size() || best_score < threshold_) {
    clusters_.push_back({ref});
    representatives_.push_back(encoding);
    bit_counts_.emplace_back();
    auto& counts = bit_counts_.back();
    counts.resize(encoding.size(), 0);
    for (uint32_t pos : encoding.SetPositions()) ++counts[pos];
    return clusters_.size() - 1;
  }
  clusters_[best_cluster].push_back(ref);
  UpdateRepresentative(best_cluster, encoding);
  return best_cluster;
}

std::vector<Cluster> ClustersInAtLeast(const std::vector<Cluster>& clusters,
                                       size_t min_databases) {
  std::vector<Cluster> out;
  for (const Cluster& cluster : clusters) {
    std::set<uint32_t> databases;
    for (const RecordRef& ref : cluster) databases.insert(ref.database);
    if (databases.size() >= min_databases) out.push_back(cluster);
  }
  return out;
}

}  // namespace pprl
