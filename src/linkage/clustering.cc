#include "linkage/clustering.h"

#include <algorithm>
#include <cstdint>
#include <set>
#include <utility>

namespace pprl {

namespace {

/// The records the edges touch, numbered densely in RecordRef order by one
/// sort of the endpoint keys (database << 32 | record), so no array is
/// ever sized by a record number.
struct DenseNodes {
  std::vector<uint64_t> keys;  ///< node id -> key, ascending
  std::vector<uint32_t> ends;  ///< edge e's endpoints are ends[2e], ends[2e+1]

  explicit DenseNodes(const std::vector<MatchEdge>& edges) : ends(2 * edges.size()) {
    // (key, endpoint slot) pairs; after the sort, equal keys are adjacent.
    std::vector<std::pair<uint64_t, uint32_t>> slots;
    slots.reserve(ends.size());
    for (const MatchEdge& e : edges) {
      for (const RecordRef& r : {e.x, e.y}) {
        slots.push_back({static_cast<uint64_t>(r.database) << 32 | r.record,
                         static_cast<uint32_t>(slots.size())});
      }
    }
    std::sort(slots.begin(), slots.end());
    for (const auto& [key, slot] : slots) {
      if (keys.empty() || keys.back() != key) keys.push_back(key);
      ends[slot] = static_cast<uint32_t>(keys.size() - 1);
    }
  }

  size_t size() const { return keys.size(); }

  RecordRef ref(uint32_t id) const {
    return RecordRef{static_cast<uint32_t>(keys[id] >> 32),
                     static_cast<uint32_t>(keys[id])};
  }

  /// Clusters from a label per node: members in id order, clusters in the
  /// order of their first member. For disjoint clusters that is the order
  /// a sort of the whole clusters gives.
  std::vector<Cluster> Group(const std::vector<uint32_t>& label) const {
    constexpr uint32_t kUnseen = UINT32_MAX;
    std::vector<uint32_t> slot(size(), kUnseen);
    std::vector<Cluster> out;
    for (uint32_t id = 0; id < size(); ++id) {
      uint32_t& s = slot[label[id]];
      if (s == kUnseen) {
        s = static_cast<uint32_t>(out.size());
        out.emplace_back();
      }
      out[s].push_back(ref(id));
    }
    return out;
  }
};

}  // namespace

std::vector<Cluster> ConnectedComponents(const std::vector<MatchEdge>& edges) {
  const DenseNodes nodes(edges);
  // Union-find with path halving; the root of each set is its smallest id.
  std::vector<uint32_t> parent(nodes.size());
  for (uint32_t i = 0; i < parent.size(); ++i) parent[i] = i;
  const auto find = [&parent](uint32_t x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };
  for (size_t i = 0; i < nodes.ends.size(); i += 2) {
    const uint32_t a = find(nodes.ends[i]);
    const uint32_t b = find(nodes.ends[i + 1]);
    if (a < b) parent[b] = a;
    if (b < a) parent[a] = b;
  }
  std::vector<uint32_t> label(nodes.size());
  for (uint32_t i = 0; i < label.size(); ++i) label[i] = find(i);
  return nodes.Group(label);
}

std::vector<Cluster> StarClustering(const std::vector<MatchEdge>& edges) {
  const DenseNodes nodes(edges);
  const size_t n = nodes.size();
  // Strength: each record's incident scores, summed in edge order.
  std::vector<double> strength(n, 0.0);
  for (size_t i = 0; i < edges.size(); ++i) {
    strength[nodes.ends[2 * i]] += edges[i].score;
    strength[nodes.ends[2 * i + 1]] += edges[i].score;
  }
  // Neighbours as one CSR array: record v's are adj[begin[v], begin[v+1]).
  std::vector<uint32_t> begin(n + 1, 0);
  for (uint32_t end : nodes.ends) ++begin[end + 1];
  for (size_t v = 0; v < n; ++v) begin[v + 1] += begin[v];
  std::vector<uint32_t> adj(nodes.ends.size());
  std::vector<uint32_t> fill(begin.begin(), begin.end() - 1);
  for (size_t i = 0; i < nodes.ends.size(); i += 2) {
    adj[fill[nodes.ends[i]]++] = nodes.ends[i + 1];
    adj[fill[nodes.ends[i + 1]]++] = nodes.ends[i];
  }

  // Strongest first; ties go to the smaller record.
  std::vector<std::pair<double, uint32_t>> order(n);
  for (uint32_t v = 0; v < n; ++v) order[v] = {strength[v], v};
  std::sort(order.begin(), order.end(), [](const auto& x, const auto& y) {
    if (x.first != y.first) return x.first > y.first;
    return x.second < y.second;
  });

  // A centre claims every neighbour still unassigned, so the order in
  // which it visits them does not change its cluster.
  std::vector<uint8_t> assigned(n, 0);
  std::vector<uint32_t> centre_of(n);
  for (const auto& [s, centre] : order) {
    if (assigned[centre]) continue;
    assigned[centre] = 1;
    centre_of[centre] = centre;
    for (uint32_t k = begin[centre]; k < begin[centre + 1]; ++k) {
      if (assigned[adj[k]]) continue;
      assigned[adj[k]] = 1;
      centre_of[adj[k]] = centre;
    }
  }
  return nodes.Group(centre_of);
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
