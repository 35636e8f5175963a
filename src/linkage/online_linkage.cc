#include "linkage/online_linkage.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "linkage/parallel_linkage.h"

namespace pprl {

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Sub-millisecond query path: DefaultLatencyBuckets() starts at 100 us,
/// which would put the entire distribution in two buckets. These start at
/// 1 us so p50/p99 of the 10k-QPS target are actually resolvable.
const std::vector<double>& MicroLatencyBuckets() {
  static const std::vector<double> buckets = {
      1e-6, 2.5e-6, 5e-6,  1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4,
      5e-4, 1e-3,   2.5e-3, 5e-3, 1e-2,   0.1,  1.0};
  return buckets;
}

/// What Append and AppendRun return for a filter of the wrong width.
Status WidthMismatch(size_t bits, size_t index_bits) {
  return Status::InvalidArgument("filter has " + std::to_string(bits) +
                                 " bits, index takes " + std::to_string(index_bits));
}

}  // namespace

OnlineLinkageEngine::OnlineLinkageEngine(size_t filter_bits,
                                         OnlineLinkageOptions options)
    : options_(options),
      index_(filter_bits, options.lsh_tables, options.lsh_bits_per_key,
             options.lsh_seed),
      engine_(SimilarityMeasure::kDice),
      cutoffs_(options.dice_threshold, filter_bits, LinkageAccepts),
      insert_seconds_(obs::GlobalMetrics().GetHistogram(
          "pprl_index_insert_seconds",
          "Latency of linking one arriving record (LSH index append + "
          "candidate scoring + cluster attach)",
          MicroLatencyBuckets())),
      query_seconds_(obs::GlobalMetrics().GetHistogram(
          "pprl_query_seconds",
          "Latency of one online link query (LSH probe + candidate scoring)",
          MicroLatencyBuckets())),
      index_size_(obs::GlobalMetrics().GetGauge(
          "pprl_index_size", "Records currently held by the online LSH index")) {}

uint32_t OnlineLinkageEngine::RegisterDatabase(const std::string& name) {
  std::unique_lock lock(mutex_);
  for (size_t i = 0; i < database_names_.size(); ++i) {
    if (database_names_[i] == name) return static_cast<uint32_t>(i);
  }
  database_names_.push_back(name);
  database_sizes_.push_back(0);
  return static_cast<uint32_t>(database_names_.size() - 1);
}

std::optional<uint32_t> OnlineLinkageEngine::FindDatabase(
    const std::string& name) const {
  std::shared_lock lock(mutex_);
  for (size_t i = 0; i < database_names_.size(); ++i) {
    if (database_names_[i] == name) return static_cast<uint32_t>(i);
  }
  return std::nullopt;
}

uint32_t OnlineLinkageEngine::Find(uint32_t row) {
  while (parent_[row] != row) {
    parent_[row] = parent_[parent_[row]];  // path halving
    row = parent_[row];
  }
  return row;
}

void OnlineLinkageEngine::Union(uint32_t a, uint32_t b) {
  uint32_t ra = Find(a);
  uint32_t rb = Find(b);
  if (ra == rb) return;
  if (rb < ra) std::swap(ra, rb);
  parent_[rb] = ra;
}

Result<uint32_t> OnlineLinkageEngine::Append(uint32_t database, uint64_t id,
                                             const BitVector& filter) {
  if (filter.size() != filter_bits()) return WidthMismatch(filter.size(), filter_bits());
  const Clock::time_point start = Clock::now();
  std::unique_lock lock(mutex_);
  if (database >= database_names_.size()) {
    return Status::InvalidArgument("unregistered database index " +
                                   std::to_string(database));
  }
  // Probe before appending, so the candidate set is exactly the rows that
  // arrived earlier — each unordered pair is considered once, by whichever
  // record arrives later (the stream/batch equivalence argument). The
  // batch path never compares records of the same database, so while
  // every indexed row is `database`'s there is nothing to probe for.
  if (meta_.size() == database_sizes_[database]) {
    append_scratch_.clear();
  } else {
    index_.Probe(filter, &append_scratch_);
  }
  const uint32_t row = index_.Append(filter);
  const uint32_t record = database_sizes_[database]++;
  meta_.push_back({record, id});
  row_database_.push_back(database);
  parent_.push_back(row);
  linked_.push_back(false);

  pair_scratch_.clear();
  for (uint32_t cand : append_scratch_) {
    if (row_database_[cand] == database) continue;
    pair_scratch_.push_back({row, cand});
  }
  comparisons_ += pair_scratch_.size();
  const std::vector<ScoredPair> scored =
      engine_.CompareMatrices(index_.rows(), index_.rows(), pair_scratch_, cutoffs_);
  for (const ScoredPair& pair : scored) AttachLocked(pair.a, pair.b);
  index_size_.Set(static_cast<int64_t>(meta_.size()));
  insert_seconds_.Observe(SecondsSince(start));
  return record;
}

Status OnlineLinkageEngine::AppendRun(const std::vector<uint32_t>& databases,
                                      const EncodedShard& rows,
                                      ShardScheduler* scheduler) {
  const size_t n = rows.bits.num_rows();
  if (databases.size() != n || rows.ids.size() != n) {
    return Status::InvalidArgument("run has " + std::to_string(databases.size()) +
                                   " databases and " + std::to_string(rows.ids.size()) +
                                   " ids for " + std::to_string(n) + " filters");
  }
  if (n == 0) return Status::OK();
  if (rows.bits.num_bits() != filter_bits()) {
    return WidthMismatch(rows.bits.num_bits(), filter_bits());
  }
  std::unique_lock lock(mutex_);
  for (const uint32_t database : databases) {
    if (database >= database_names_.size()) {
      return Status::InvalidArgument("unregistered database index " +
                                     std::to_string(database));
    }
  }
  index_.AppendRows(rows.bits, 0, n, scheduler);
  // Row r has an earlier row of another database iff r exceeds its record
  // index; once one row does, every later row does too.
  size_t probe_from = meta_.size() + n;
  for (size_t i = 0; i < n; ++i) {
    const uint32_t row = static_cast<uint32_t>(meta_.size());
    const uint32_t record = database_sizes_[databases[i]]++;
    if (row != record) probe_from = std::min<size_t>(probe_from, row);
    meta_.push_back({record, rows.ids[i]});
    row_database_.push_back(databases[i]);
    parent_.push_back(row);
    linked_.push_back(false);
  }
  const std::vector<SourceHits> scored = CompareRanges(
      cutoffs_, {CandidateSource::Arrivals(index_, row_database_, probe_from)},
      /*num_threads=*/1, scheduler);
  comparisons_ += scored[0].comparisons;
  for (const ScoredPair& pair : scored[0].hits) AttachLocked(pair.a, pair.b);
  index_size_.Set(static_cast<int64_t>(meta_.size()));
  return Status::OK();
}

void OnlineLinkageEngine::AttachLocked(uint32_t a, uint32_t b) {
  Union(a, b);
  linked_[a] = true;
  linked_[b] = true;
  ++edges_;
  partition_dirty_ = true;
}

void OnlineLinkageEngine::RefreshPartitionLocked() {
  if (!partition_dirty_) {
    // Edge-free appends only add excluded singletons; extend the row map
    // without rebuilding.
    row_cluster_.resize(meta_.size(), kNoCluster);
    return;
  }
  std::unordered_map<uint32_t, std::vector<uint32_t>> groups;
  for (uint32_t row = 0; row < meta_.size(); ++row) {
    if (linked_[row]) groups[Find(row)].push_back(row);
  }
  // Materialize exactly like ConnectedComponents: members sorted, clusters
  // sorted, so ids are canonical regardless of union order.
  std::vector<std::pair<Cluster, std::vector<uint32_t>>> built;
  built.reserve(groups.size());
  for (auto& [root, rows] : groups) {
    Cluster members;
    members.reserve(rows.size());
    for (uint32_t r : rows) members.push_back({row_database_[r], meta_[r].record});
    std::sort(members.begin(), members.end());
    built.emplace_back(std::move(members), std::move(rows));
  }
  std::sort(built.begin(), built.end(),
            [](const auto& x, const auto& y) { return x.first < y.first; });
  clusters_cache_.clear();
  clusters_cache_.reserve(built.size());
  row_cluster_.assign(meta_.size(), kNoCluster);
  for (size_t c = 0; c < built.size(); ++c) {
    for (uint32_t r : built[c].second) row_cluster_[r] = static_cast<uint32_t>(c);
    clusters_cache_.push_back(std::move(built[c].first));
  }
  partition_dirty_ = false;
}

OnlineQueryResult OnlineLinkageEngine::QueryLocked(const BitVector& filter,
                                                   uint32_t exclude_database,
                                                   bool want_clusters,
                                                   size_t top_k) const {
  OnlineQueryResult out;
  std::vector<uint32_t> candidates;
  index_.Probe(filter, &candidates);
  std::vector<CandidatePair> pairs;
  pairs.reserve(candidates.size());
  for (uint32_t cand : candidates) {
    if (exclude_database != kNoDatabase && row_database_[cand] == exclude_database) {
      continue;
    }
    pairs.push_back({0, cand});
  }
  out.candidates = static_cast<uint32_t>(pairs.size());
  if (pairs.empty()) return out;

  BitMatrix probe(1, filter_bits());
  std::memcpy(probe.mutable_row(0), filter.words().data(),
              filter.words().size() * sizeof(uint64_t));
  probe.RecountRow(0);
  std::vector<ScoredPair> scored =
      engine_.CompareMatrices(probe, index_.rows(), pairs, cutoffs_);
  std::sort(scored.begin(), scored.end(),
            [this](const ScoredPair& x, const ScoredPair& y) {
              if (x.score != y.score) return x.score > y.score;
              const uint32_t dx = row_database_[x.b];
              const uint32_t dy = row_database_[y.b];
              return dx != dy ? dx < dy : meta_[x.b].record < meta_[y.b].record;
            });
  const size_t cap = top_k == 0 ? options_.max_matches_per_query : top_k;
  if (scored.size() > cap) scored.resize(cap);
  out.matches.reserve(scored.size());
  for (const ScoredPair& pair : scored) {
    const RowMeta& m = meta_[pair.b];
    out.matches.push_back({row_database_[pair.b], m.record, m.id, pair.score});
  }
  if (want_clusters && !scored.empty()) {
    const uint32_t best_row = scored.front().b;
    const uint32_t cid = row_cluster_[best_row];
    if (cid != kNoCluster) {
      out.cluster_id = cid;
      out.cluster_size = static_cast<uint32_t>(clusters_cache_[cid].size());
    }
  }
  return out;
}

Result<OnlineQueryResult> OnlineLinkageEngine::Query(const BitVector& filter,
                                                     uint32_t exclude_database,
                                                     bool want_clusters,
                                                     size_t top_k) {
  if (filter.size() != filter_bits()) {
    return Status::InvalidArgument(
        "query filter has " + std::to_string(filter.size()) +
        " bits, index takes " + std::to_string(filter_bits()));
  }
  const Clock::time_point start = Clock::now();
  OnlineQueryResult out;
  if (want_clusters) {
    std::unique_lock lock(mutex_);
    RefreshPartitionLocked();
    out = QueryLocked(filter, exclude_database, want_clusters, top_k);
  } else {
    std::shared_lock lock(mutex_);
    out = QueryLocked(filter, exclude_database, want_clusters, top_k);
  }
  query_seconds_.Observe(SecondsSince(start));
  return out;
}

std::vector<Cluster> OnlineLinkageEngine::Clusters() {
  std::unique_lock lock(mutex_);
  RefreshPartitionLocked();
  return clusters_cache_;
}

size_t OnlineLinkageEngine::size() const {
  std::shared_lock lock(mutex_);
  return meta_.size();
}

size_t OnlineLinkageEngine::database_count() const {
  std::shared_lock lock(mutex_);
  return database_names_.size();
}

size_t OnlineLinkageEngine::record_count(uint32_t database) const {
  std::shared_lock lock(mutex_);
  return database < database_sizes_.size() ? database_sizes_[database] : 0;
}

std::string OnlineLinkageEngine::database_name(uint32_t database) const {
  std::shared_lock lock(mutex_);
  return database_names_[database];
}

uint64_t OnlineLinkageEngine::edges() const {
  std::shared_lock lock(mutex_);
  return edges_;
}

uint64_t OnlineLinkageEngine::comparisons() const {
  std::shared_lock lock(mutex_);
  return comparisons_;
}

io::OnlineSnapshot OnlineLinkageEngine::ExportSnapshot(
    uint64_t wal_sequence) const {
  std::shared_lock lock(mutex_);
  io::OnlineSnapshot snapshot;
  snapshot.filter_bits = static_cast<uint32_t>(filter_bits());
  snapshot.lsh_tables = static_cast<uint32_t>(options_.lsh_tables);
  snapshot.lsh_bits_per_key = static_cast<uint32_t>(options_.lsh_bits_per_key);
  snapshot.lsh_seed = options_.lsh_seed;
  snapshot.dice_threshold = options_.dice_threshold;
  snapshot.wal_sequence = wal_sequence;
  snapshot.database_names = database_names_;
  snapshot.database_sizes = database_sizes_;
  snapshot.rows.ids.reserve(meta_.size());
  snapshot.linked.reserve(meta_.size());
  for (const RowMeta& m : meta_) snapshot.rows.ids.push_back(m.id);
  snapshot.row_database = row_database_;
  snapshot.rows.bits = index_.rows();
  snapshot.parent = parent_;
  for (const bool l : linked_) snapshot.linked.push_back(l ? 1 : 0);
  snapshot.edges = edges_;
  snapshot.comparisons = comparisons_;
  snapshot.band_checksum = index_.band_checksum();
  return snapshot;
}

Result<std::unique_ptr<OnlineLinkageEngine>> OnlineLinkageEngine::FromSnapshot(
    const io::OnlineSnapshot& snapshot, const OnlineLinkageOptions& serving,
    ShardScheduler* scheduler) {
  OnlineLinkageOptions options = serving;
  options.dice_threshold = snapshot.dice_threshold;
  options.lsh_tables = snapshot.lsh_tables;
  options.lsh_bits_per_key = snapshot.lsh_bits_per_key;
  options.lsh_seed = snapshot.lsh_seed;
  auto engine = std::make_unique<OnlineLinkageEngine>(snapshot.filter_bits,
                                                      options);
  std::unique_lock lock(engine->mutex_);
  engine->database_names_ = snapshot.database_names;
  engine->database_sizes_.assign(snapshot.database_names.size(), 0);
  const size_t rows = snapshot.rows.size();
  engine->index_.AppendRows(snapshot.rows.bits, 0, rows, scheduler);
  engine->meta_.reserve(rows);
  engine->linked_.reserve(rows);
  engine->row_database_ = snapshot.row_database;
  for (size_t i = 0; i < rows; ++i) {
    // DecodeCheckpoint validated row_database against the registry; the
    // per-database record index is recomputed from arrival order, which is
    // exactly how Append() assigned it.
    const uint32_t db = snapshot.row_database[i];
    engine->meta_.push_back({engine->database_sizes_[db]++, snapshot.rows.ids[i]});
    engine->linked_.push_back(snapshot.linked[i] != 0);
  }
  if (engine->index_.band_checksum() != snapshot.band_checksum) {
    return Status::IoError(
        "checkpoint LSH band checksum mismatch: rebuilt tables disagree "
        "with the snapshot (geometry or seed drift?)");
  }
  for (size_t d = 0; d < engine->database_sizes_.size(); ++d) {
    if (engine->database_sizes_[d] != snapshot.database_sizes[d]) {
      return Status::ProtocolViolation(
          "checkpoint database '" + snapshot.database_names[d] +
          "' size disagrees with its rows");
    }
  }
  engine->parent_ = snapshot.parent;
  engine->edges_ = snapshot.edges;
  engine->comparisons_ = snapshot.comparisons;
  engine->partition_dirty_ = engine->edges_ > 0;
  engine->index_size_.Set(static_cast<int64_t>(engine->meta_.size()));
  return engine;
}

}  // namespace pprl
