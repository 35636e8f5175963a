#include "linkage/online_linkage.h"

#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <numeric>
#include <random>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "blocking/lsh_blocking.h"
#include "blocking/lsh_index.h"
#include "common/random.h"
#include "encoding/clk_io.h"
#include "io/checkpoint.h"
#include "io/wal.h"
#include "linkage/clustering.h"
#include "net/frame.h"
#include "net/transport.h"
#include "pipeline/party.h"
#include "service/client.h"
#include "service/durability.h"
#include "service/server.h"
#include "similarity/similarity.h"

namespace pprl {
namespace {

constexpr size_t kFilterBits = 512;

/// A random ~30%-density filter, the ballpark a CLK encoder produces.
BitVector RandomFilter(Rng& rng) {
  BitVector bv(kFilterBits);
  for (size_t i = 0; i < kFilterBits; ++i) {
    if (rng.NextBool(0.3)) bv.Set(i);
  }
  return bv;
}

/// `filter` with `flips` random bits toggled — a corrupted re-observation
/// of the same entity, still well above the 0.8 Dice threshold.
BitVector Perturb(const BitVector& filter, size_t flips, Rng& rng) {
  BitVector out = filter;
  for (size_t i = 0; i < flips; ++i) out.Flip(rng.NextUint64(kFilterBits));
  return out;
}

/// Synthetic multi-database scenario: `entities` base filters; each
/// database holds a perturbed copy of a sliding window of them plus some
/// records of its own, so databases overlap pairwise without being equal.
std::vector<EncodedDatabase> MakeDatabases(size_t num_databases, size_t entities,
                                           uint64_t seed) {
  Rng rng(seed);
  std::vector<BitVector> base;
  base.reserve(entities);
  for (size_t e = 0; e < entities; ++e) base.push_back(RandomFilter(rng));
  std::vector<EncodedDatabase> dbs(num_databases);
  for (size_t d = 0; d < num_databases; ++d) {
    // Window of 60% of the entities, shifted per database.
    const size_t window = entities * 6 / 10;
    for (size_t i = 0; i < window; ++i) {
      const size_t e = (d * entities / 4 + i) % entities;
      dbs[d].ids.push_back(1000 * (d + 1) + i);
      dbs[d].filters.push_back(Perturb(base[e], 4, rng));
    }
    // Plus unique records that should stay singletons.
    for (size_t i = 0; i < entities / 5; ++i) {
      dbs[d].ids.push_back(9000000 + 1000 * (d + 1) + i);
      dbs[d].filters.push_back(RandomFilter(rng));
    }
  }
  return dbs;
}

MultiPartyLinkageOptions BatchOptions() {
  MultiPartyLinkageOptions options;
  options.use_star_clustering = false;  // connected components, like the engine
  return options;
}

Result<MultiPartyLinkageResult> BatchLink(const std::vector<EncodedDatabase>& dbs) {
  LinkageUnitService unit("batch");
  for (size_t d = 0; d < dbs.size(); ++d) {
    Status received = unit.Receive("db-" + std::to_string(d), dbs[d]);
    if (!received.ok()) return received;
  }
  return unit.Link(BatchOptions());
}

/// Appends every database's records to `engine` in an arrival order that
/// interleaves databases by `shuffle_seed` while preserving each
/// database's internal record order (which is what defines record ids).
void AppendShuffled(OnlineLinkageEngine& engine,
                    const std::vector<EncodedDatabase>& dbs,
                    uint64_t shuffle_seed) {
  std::vector<uint32_t> arrivals;  // one entry per record: its database
  std::vector<uint32_t> db_index;
  for (size_t d = 0; d < dbs.size(); ++d) {
    db_index.push_back(engine.RegisterDatabase("db-" + std::to_string(d)));
    arrivals.insert(arrivals.end(), dbs[d].size(), static_cast<uint32_t>(d));
  }
  std::mt19937 shuffle(static_cast<uint32_t>(shuffle_seed));
  std::shuffle(arrivals.begin(), arrivals.end(), shuffle);
  std::vector<size_t> cursor(dbs.size(), 0);
  for (const uint32_t d : arrivals) {
    const size_t r = cursor[d]++;
    auto appended = engine.Append(db_index[d], dbs[d].ids[r], dbs[d].filters[r]);
    ASSERT_TRUE(appended.ok()) << appended.status().ToString();
    EXPECT_EQ(*appended, r);
  }
}

/// The tentpole guarantee: any interleaved stream order produces the exact
/// batch partition (connected components, sorted materialization).
TEST(OnlineLinkageEngineTest, ShuffledStreamMatchesBatchPartition) {
  const auto dbs = MakeDatabases(3, 60, /*seed=*/7);
  auto batch = BatchLink(dbs);
  ASSERT_TRUE(batch.ok());
  ASSERT_GT(batch->clusters.size(), 10u);

  for (const uint64_t shuffle_seed : {1u, 2u, 3u}) {
    OnlineLinkageEngine engine(kFilterBits);
    AppendShuffled(engine, dbs, shuffle_seed);
    EXPECT_EQ(engine.Clusters(), batch->clusters)
        << "stream order (seed " << shuffle_seed
        << ") changed the served partition";
    EXPECT_EQ(engine.edges(), batch->edges.size());
  }
}

/// Queries must reproduce the batch edge set for a record's content: every
/// match is an accepted batch edge and the best match resolves the
/// record's own cluster.
TEST(OnlineLinkageEngineTest, QueryResolvesTheBatchCluster) {
  const auto dbs = MakeDatabases(2, 50, /*seed=*/11);
  auto batch = BatchLink(dbs);
  ASSERT_TRUE(batch.ok());

  OnlineLinkageEngine engine(kFilterBits);
  AppendShuffled(engine, dbs, /*shuffle_seed=*/5);
  const auto clusters = engine.Clusters();
  ASSERT_EQ(clusters, batch->clusters);

  // Cluster id of each database-0 record under the canonical partition.
  std::vector<uint32_t> expected(dbs[0].size(), OnlineLinkageEngine::kNoCluster);
  for (size_t c = 0; c < clusters.size(); ++c) {
    for (const RecordRef& ref : clusters[c]) {
      if (ref.database == 0) expected[ref.record] = static_cast<uint32_t>(c);
    }
  }

  size_t clustered = 0;
  for (size_t r = 0; r < dbs[0].size(); ++r) {
    auto result = engine.Query(dbs[0].filters[r], /*exclude_database=*/0,
                               /*want_clusters=*/true, /*top_k=*/0);
    ASSERT_TRUE(result.ok());
    if (expected[r] == OnlineLinkageEngine::kNoCluster) {
      EXPECT_TRUE(result->matches.empty())
          << "singleton record " << r << " matched something";
      EXPECT_EQ(result->cluster_size, 0u);
    } else {
      ++clustered;
      ASSERT_FALSE(result->matches.empty());
      EXPECT_EQ(result->cluster_id, expected[r]);
      EXPECT_EQ(result->cluster_size, clusters[expected[r]].size());
      // Every match is cross-database and in this record's own cluster.
      for (const OnlineMatch& m : result->matches) {
        EXPECT_NE(m.database, 0u);
        const RecordRef ref{m.database, m.record};
        EXPECT_TRUE(std::find(clusters[expected[r]].begin(),
                              clusters[expected[r]].end(),
                              ref) != clusters[expected[r]].end());
      }
    }
  }
  EXPECT_GT(clustered, 10u);
}

/// The incremental index must collide exactly like the batch blocker's
/// string-keyed index at equal geometry and seed.
TEST(LshBandIndexTest, ProbeMatchesBlockerCollisions) {
  const size_t tables = 8, bits_per_key = 12;
  const uint64_t seed = 99;
  Rng data_rng(3);
  std::vector<BitVector> rows;
  for (size_t i = 0; i < 200; ++i) rows.push_back(RandomFilter(data_rng));
  // Add near-duplicates so collisions actually happen.
  for (size_t i = 0; i < 50; ++i) rows.push_back(Perturb(rows[i], 3, data_rng));

  LshBandIndex index(kFilterBits, tables, bits_per_key, seed);
  for (const BitVector& row : rows) index.Append(row);

  Rng blocker_rng(seed);
  HammingLshBlocker blocker(kFilterBits, tables, bits_per_key, blocker_rng);
  const BlockIndex blocks = blocker.BuildIndex(rows);

  std::vector<uint32_t> probed;
  for (size_t i = 0; i < rows.size(); ++i) {
    // Reference collision set: union over this row's block keys.
    std::vector<uint32_t> expected;
    for (const std::string& key : blocker.Keys(rows[i])) {
      const auto it = blocks.find(key);
      if (it != blocks.end()) {
        expected.insert(expected.end(), it->second.begin(), it->second.end());
      }
    }
    std::sort(expected.begin(), expected.end());
    expected.erase(std::unique(expected.begin(), expected.end()), expected.end());

    index.Probe(rows[i], &probed);
    EXPECT_EQ(probed, expected) << "row " << i;
  }
  EXPECT_GT(index.probed_entries(), 0u);
}

/// Appending incrementally must index identically to building fresh.
TEST(LshBandIndexTest, AppendMatchesRebuild) {
  Rng rng(17);
  std::vector<BitVector> rows;
  for (size_t i = 0; i < 300; ++i) rows.push_back(RandomFilter(rng));

  LshBandIndex incremental(kFilterBits, 6, 10, 5);
  for (size_t i = 0; i < 150; ++i) incremental.Append(rows[i]);
  // Interleave probes with appends: probing must not disturb the index.
  std::vector<uint32_t> scratch;
  for (size_t i = 0; i < 150; ++i) incremental.Probe(rows[i], &scratch);
  for (size_t i = 150; i < rows.size(); ++i) incremental.Append(rows[i]);

  LshBandIndex fresh(kFilterBits, 6, 10, 5);
  for (const BitVector& row : rows) fresh.Append(row);

  ASSERT_EQ(incremental.size(), fresh.size());
  std::vector<uint32_t> a, b;
  for (const BitVector& row : rows) {
    incremental.Probe(row, &a);
    fresh.Probe(row, &b);
    EXPECT_EQ(a, b);
  }
}

/// The candidate-restricted insert must agree with the full scan whenever
/// the candidate set contains the winner, at a fraction of the
/// comparisons.
TEST(IncrementalClustererTest, RestrictedInsertMatchesFullScan) {
  Rng rng(23);
  std::vector<BitVector> encodings;
  for (size_t i = 0; i < 40; ++i) encodings.push_back(RandomFilter(rng));
  for (size_t i = 0; i < 40; ++i) encodings.push_back(Perturb(encodings[i], 4, rng));

  const auto similarity = [](const BitVector& a, const BitVector& b) {
    return DiceSimilarity(a, b);
  };

  IncrementalClusterer full(0.8, similarity);
  std::vector<size_t> assigned;
  for (size_t i = 0; i < encodings.size(); ++i) {
    assigned.push_back(
        full.Insert(RecordRef{0, static_cast<uint32_t>(i)}, encodings[i]));
  }

  // All clusters as candidates: trivially contains the winner.
  IncrementalClusterer superset(0.8, similarity);
  for (size_t i = 0; i < encodings.size(); ++i) {
    std::vector<size_t> all(superset.clusters().size());
    std::iota(all.begin(), all.end(), 0);
    EXPECT_EQ(superset.Insert(RecordRef{0, static_cast<uint32_t>(i)},
                              encodings[i], all),
              assigned[i]);
  }
  EXPECT_EQ(superset.comparisons(), full.comparisons());

  // Only the known winner as candidate: same assignments, fewer
  // comparisons (this is the O(candidates) path the online engine uses).
  IncrementalClusterer restricted(0.8, similarity);
  for (size_t i = 0; i < encodings.size(); ++i) {
    std::vector<size_t> candidates;
    if (assigned[i] < restricted.clusters().size()) {
      candidates.push_back(assigned[i]);  // joined an existing cluster
    }
    EXPECT_EQ(restricted.Insert(RecordRef{0, static_cast<uint32_t>(i)},
                                encodings[i], candidates),
              assigned[i]);
  }
  EXPECT_EQ(restricted.clusters(), full.clusters());
  EXPECT_LT(restricted.comparisons(), full.comparisons());

  // Out-of-range and duplicate candidates are tolerated.
  IncrementalClusterer messy(0.8, similarity);
  EXPECT_EQ(messy.Insert(RecordRef{0, 0}, encodings[0],
                         std::vector<size_t>{7, 7, 123456}),
            0u);
}

/// TSan-scoped: concurrent appends (different databases) and queries
/// (shared-lock reads and cluster-resolving exclusive reads) must be
/// race-free, and the final partition must equal a batch re-link of
/// whatever arrived.
TEST(OnlineLinkageEngineTest, ConcurrentAppendsAndQueriesAreSafe) {
  const auto dbs = MakeDatabases(2, 40, /*seed=*/31);
  OnlineLinkageEngine engine(kFilterBits);
  const uint32_t a = engine.RegisterDatabase("db-0");
  const uint32_t b = engine.RegisterDatabase("db-1");

  std::thread append_a([&] {
    for (size_t r = 0; r < dbs[0].size(); ++r) {
      ASSERT_TRUE(engine.Append(a, dbs[0].ids[r], dbs[0].filters[r]).ok());
    }
  });
  std::thread append_b([&] {
    for (size_t r = 0; r < dbs[1].size(); ++r) {
      ASSERT_TRUE(engine.Append(b, dbs[1].ids[r], dbs[1].filters[r]).ok());
    }
  });
  std::thread query_fast([&] {
    for (size_t r = 0; r < dbs[0].size(); ++r) {
      ASSERT_TRUE(engine
                      .Query(dbs[0].filters[r], a, /*want_clusters=*/false,
                             /*top_k=*/4)
                      .ok());
    }
  });
  std::thread query_clustered([&] {
    for (size_t r = 0; r < dbs[1].size(); ++r) {
      ASSERT_TRUE(engine
                      .Query(dbs[1].filters[r], b, /*want_clusters=*/true,
                             /*top_k=*/0)
                      .ok());
    }
  });
  append_a.join();
  append_b.join();
  query_fast.join();
  query_clustered.join();

  auto batch = BatchLink(dbs);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(engine.Clusters(), batch->clusters);
}

/// End-to-end protocol v4: an online daemon absorbs one bulk shipment,
/// accepts cursored appends idempotently, and answers link queries that
/// agree record-for-record with a local engine over the same data.
TEST(OnlineServiceTest, AppendAndQueryRoundtrip) {
  const auto dbs = MakeDatabases(2, 40, /*seed=*/43);

  LinkageUnitServerConfig config;
  config.name = "online-lu";
  config.online_mode = true;
  config.expected_owners = 2;
  config.io_timeout_ms = 10000;
  LinkageUnitServer server(config);
  ASSERT_TRUE(server.Start().ok());

  // Owner A bulk-ships through the ordinary shipment path (no results
  // frame in online mode: return at the completion ack).
  {
    RemoteOwnerClientConfig owner_config;
    owner_config.port = server.port();
    owner_config.wait_for_results = false;
    RemoteOwnerClient owner(owner_config);
    auto shipped = owner.ShipAndAwait("db-0", dbs[0]);
    ASSERT_TRUE(shipped.ok()) << shipped.status().ToString();

    // Re-running the whole bulk append (a fresh hello session, so chunk
    // idempotency cannot apply) is a retransmit of the party's prefix:
    // the index must not grow. Verified below via index_size.
    RemoteOwnerClient again(owner_config);
    auto reshipped = again.ShipAndAwait("db-0", dbs[0]);
    ASSERT_TRUE(reshipped.ok()) << reshipped.status().ToString();
  }

  // Owner B appends over the v4 session, in two cursored batches.
  const EncodedShard b_shard = ShardFromEncodedDatabase(dbs[1]);
  OnlineLinkClientConfig client_config;
  client_config.port = server.port();
  OnlineLinkClient client(client_config);
  ASSERT_TRUE(client.Connect("db-1", kFilterBits).ok());
  const size_t half = b_shard.size() / 2;
  auto first = client.AppendRows(b_shard, 0, half);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(*first, half);
  auto second = client.AppendRows(b_shard, half, b_shard.size());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*second, b_shard.size());

  // A retransmit of an already-applied batch is skipped idempotently: the
  // cursor comes back unchanged and no records are duplicated.
  OnlineLinkClient replayer(client_config);
  ASSERT_TRUE(replayer.Connect("db-1", kFilterBits).ok());
  auto replay = replayer.AppendRows(b_shard, 0, half);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_EQ(*replay, b_shard.size());

  // Local reference engine over the same data, same defaults.
  OnlineLinkageEngine reference(kFilterBits);
  const uint32_t ra = reference.RegisterDatabase("db-0");
  const uint32_t rb = reference.RegisterDatabase("db-1");
  for (size_t r = 0; r < dbs[0].size(); ++r) {
    ASSERT_TRUE(reference.Append(ra, dbs[0].ids[r], dbs[0].filters[r]).ok());
  }
  for (size_t r = 0; r < dbs[1].size(); ++r) {
    ASSERT_TRUE(reference.Append(rb, dbs[1].ids[r], dbs[1].filters[r]).ok());
  }

  // Queries as db-1 (own matches suppressed) agree with the reference.
  auto result = client.QueryRows(b_shard, 0, b_shard.size(),
                                 /*want_clusters=*/true, /*top_k=*/0);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->records.size(), b_shard.size());
  EXPECT_EQ(result->index_size, reference.size());
  size_t matched = 0;
  for (size_t r = 0; r < b_shard.size(); ++r) {
    auto expected = reference.Query(dbs[1].filters[r], rb,
                                    /*want_clusters=*/true, /*top_k=*/0);
    ASSERT_TRUE(expected.ok());
    const QueryRecordResult& got = result->records[r];
    EXPECT_EQ(got.id, dbs[1].ids[r]);
    EXPECT_EQ(got.cluster_id, expected->cluster_id);
    EXPECT_EQ(got.cluster_size, expected->cluster_size);
    EXPECT_EQ(got.candidates, expected->candidates);
    ASSERT_EQ(got.matches.size(), expected->matches.size());
    for (size_t m = 0; m < got.matches.size(); ++m) {
      EXPECT_EQ(got.matches[m].database, expected->matches[m].database);
      EXPECT_EQ(got.matches[m].record, expected->matches[m].record);
      EXPECT_EQ(got.matches[m].id, expected->matches[m].id);
      EXPECT_DOUBLE_EQ(got.matches[m].score, expected->matches[m].score);
    }
    if (!got.matches.empty()) ++matched;
  }
  EXPECT_GT(matched, 10u);

  // Hang up before stopping so the serve loops see EOF instead of sitting
  // out their read timeout.
  client.Close();
  replayer.Close();
  server.Stop();
}

/// A batch daemon must keep refusing zero-record hellos (the query-only
/// handshake is an online-mode feature).
TEST(OnlineServiceTest, BatchDaemonRejectsQueryOnlyHello) {
  LinkageUnitServerConfig config;
  config.name = "batch-lu";
  config.expected_owners = 2;
  LinkageUnitServer server(config);
  ASSERT_TRUE(server.Start().ok());

  OnlineLinkClientConfig client_config;
  client_config.port = server.port();
  client_config.retry.max_attempts = 1;
  OnlineLinkClient client(client_config);
  const Status connected = client.Connect("probe", kFilterBits);
  EXPECT_FALSE(connected.ok());
  server.Stop();
}

/// The first hello fixes the online engine's filter width, and the engine
/// sizes its Dice cutoff table from it: a hello declaring more than
/// kMaxFilterBits is a protocol violation, fixes nothing, and the daemon
/// keeps serving well-formed sessions afterwards.
TEST(OnlineServiceTest, OversizedHelloIsRejectedAndTheDaemonKeepsServing) {
  LinkageUnitServerConfig config;
  config.name = "online-lu";
  config.online_mode = true;
  config.expected_owners = 2;
  config.io_timeout_ms = 10000;
  LinkageUnitServer server(config);
  ASSERT_TRUE(server.Start().ok());

  OnlineLinkClientConfig client_config;
  client_config.port = server.port();
  client_config.retry.max_attempts = 1;
  for (const uint32_t bits : {static_cast<uint32_t>(kMaxFilterBits + 1), UINT32_MAX}) {
    OnlineLinkClient probe(client_config);
    const Status rejected = probe.Connect("probe", bits);
    EXPECT_EQ(rejected.code(), StatusCode::kProtocolViolation)
        << bits << ": " << rejected.ToString();
  }

  const auto dbs = MakeDatabases(2, 20, /*seed=*/47);
  const EncodedShard shard = ShardFromEncodedDatabase(dbs[0]);
  OnlineLinkClient client(client_config);
  ASSERT_TRUE(client.Connect("db-0", kFilterBits).ok());
  auto appended = client.AppendRows(shard, 0, shard.size());
  ASSERT_TRUE(appended.ok()) << appended.status().ToString();
  EXPECT_EQ(*appended, shard.size());
  auto queried = client.QueryRows(shard, 0, 1, /*want_clusters=*/false, 0);
  ASSERT_TRUE(queried.ok()) << queried.status().ToString();
  EXPECT_EQ(queried->index_size, shard.size());
  client.Close();
  server.Stop();
}

/// An empty durable-state directory under the test's temp dir.
std::string FreshWalDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  ::mkdir(dir.c_str(), 0755);
  if (auto segments = io::ListWalSegments(dir); segments.ok()) {
    for (const auto& [seq, path] : *segments) std::remove(path.c_str());
  }
  if (auto checkpoints = io::ListCheckpoints(dir); checkpoints.ok()) {
    for (const auto& [seq, path] : *checkpoints) std::remove(path.c_str());
  }
  return dir;
}

/// Two writers of party "db-0" send the same 2,000 rows from base 0 at the
/// same moment: two v4 sessions, or (`bulk_writer`) a bulk shipment beside
/// a v4 session. The server's one append rule must apply every record
/// exactly once: both acks and the final cursor equal the row count, the
/// served partition equals a single-writer engine's, and a durable
/// daemon's journal replays exactly the rows.
void ExpectConcurrentWritersApplyEachRecordOnce(bool bulk_writer,
                                                const std::string& wal_dir) {
  const EncodedDatabase rows = MakeDatabases(1, 2500, /*seed=*/53)[0];
  const EncodedShard shard = ShardFromEncodedDatabase(rows);
  ASSERT_EQ(rows.size(), 2000u);

  LinkageUnitServerConfig config;
  config.name = "online-lu";
  config.online_mode = true;
  config.io_timeout_ms = 30000;
  config.wal_dir = wal_dir;
  config.wal_sync_ms = 0;
  LinkageUnitServer server(config);
  ASSERT_TRUE(server.Start().ok());

  OnlineLinkClientConfig client_config;
  client_config.port = server.port();
  OnlineLinkClient writer(client_config);
  ASSERT_TRUE(writer.Connect("db-0", kFilterBits).ok());
  OnlineLinkClient second_writer(client_config);
  if (!bulk_writer) {
    ASSERT_TRUE(second_writer.Connect("db-0", kFilterBits).ok());
  }
  RemoteOwnerClientConfig owner_config;
  owner_config.port = server.port();
  owner_config.wait_for_results = false;
  RemoteOwnerClient bulk(owner_config);

  std::atomic<bool> go{false};
  Result<uint64_t> first = Status::Internal("not run");
  Status second = Status::Internal("not run");
  std::thread a([&] {
    while (!go.load()) std::this_thread::yield();
    first = writer.AppendRows(shard, 0, shard.size());
  });
  std::thread b([&] {
    while (!go.load()) std::this_thread::yield();
    if (bulk_writer) {
      second = bulk.ShipAndAwait("db-0", rows).status();
    } else {
      auto appended = second_writer.AppendRows(shard, 0, shard.size());
      second = appended.status();
      if (appended.ok()) {
        EXPECT_EQ(*appended, rows.size());
      }
    }
  });
  go.store(true);
  a.join();
  b.join();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(*first, rows.size());
  ASSERT_TRUE(second.ok()) << second.ToString();
  auto cursor = writer.ServerCursor();
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
  EXPECT_EQ(*cursor, rows.size());

  OnlineLinkageEngine reference(kFilterBits);
  const uint32_t ref_db = reference.RegisterDatabase("db-0");
  for (size_t r = 0; r < rows.size(); ++r) {
    ASSERT_TRUE(reference.Append(ref_db, rows.ids[r], rows.filters[r]).ok());
  }
  // A second party's queries see every db-0 record: the served partition
  // must be the single writer's, record for record.
  OnlineLinkClient probe(client_config);
  ASSERT_TRUE(probe.Connect("probe", kFilterBits).ok());
  auto served = probe.QueryRows(shard, 0, shard.size(), /*want_clusters=*/true, 0);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_EQ(served->index_size, rows.size());
  for (size_t r = 0; r < rows.size(); ++r) {
    auto expected = reference.Query(rows.filters[r], OnlineLinkageEngine::kNoDatabase,
                                    /*want_clusters=*/true, /*top_k=*/0);
    ASSERT_TRUE(expected.ok());
    const QueryRecordResult& got = served->records[r];
    EXPECT_EQ(got.cluster_id, expected->cluster_id) << "row " << r;
    EXPECT_EQ(got.cluster_size, expected->cluster_size) << "row " << r;
    ASSERT_EQ(got.matches.size(), expected->matches.size()) << "row " << r;
  }

  if (!wal_dir.empty()) {
    // What a restart would rebuild from the journal, read while the daemon
    // still runs (recovery only reads).
    DurabilityConfig durability;
    durability.wal_dir = wal_dir;
    std::unique_ptr<OnlineLinkageEngine> recovered;
    RecoveryReport report;
    ASSERT_TRUE(OnlineDurability(durability).Recover(&recovered, &report).ok());
    ASSERT_NE(recovered, nullptr);
    EXPECT_EQ(report.replayed_records, rows.size());
    EXPECT_EQ(recovered->record_count(0), rows.size());
    EXPECT_EQ(recovered->Clusters(), reference.Clusters());
  }
  writer.Close();
  second_writer.Close();
  probe.Close();
  server.Stop();
}

TEST(OnlineServiceTest, ConcurrentWritersOfOnePartyApplyEachRecordOnce) {
  for (const bool durable : {false, true}) {
    for (const bool bulk_writer : {false, true}) {
      SCOPED_TRACE(std::string(durable ? "durable" : "in memory") +
                   (bulk_writer ? ", bulk + v4" : ", v4 + v4"));
      ExpectConcurrentWritersApplyEachRecordOnce(
          bulk_writer, durable ? FreshWalDir("concurrent_writers") : "");
    }
  }
}

/// Stop() ends idle sessions at once instead of waiting out their 30 s read
/// timeout: an attached online client between requests and a bulk owner
/// stalled mid-shipment both see end of stream. A durable daemon still
/// writes its final checkpoint and truncates the WAL.
TEST(OnlineServiceTest, StopEndsIdleSessionsPromptly) {
  const EncodedDatabase rows = MakeDatabases(1, 50, /*seed=*/59)[0];
  const EncodedShard shard = ShardFromEncodedDatabase(rows);
  for (const bool durable : {false, true}) {
    SCOPED_TRACE(durable ? "durable" : "in memory");
    const std::string dir = durable ? FreshWalDir("prompt_stop") : "";
    LinkageUnitServerConfig config;
    config.name = "online-lu";
    config.online_mode = true;
    config.io_timeout_ms = 30000;
    config.wal_dir = dir;
    config.wal_sync_ms = 0;
    LinkageUnitServer server(config);
    ASSERT_TRUE(server.Start().ok());

    OnlineLinkClientConfig client_config;
    client_config.port = server.port();
    OnlineLinkClient idle(client_config);
    ASSERT_TRUE(idle.Connect("db-0", kFilterBits).ok());
    auto appended = idle.AppendRows(shard, 0, shard.size());
    ASSERT_TRUE(appended.ok()) << appended.status().ToString();

    // A bulk owner that ships its first chunk, gets it acked and stalls.
    ConnectOptions options;
    options.io_timeout_ms = 30000;
    auto stalled = TcpConnection::Connect("127.0.0.1", server.port(), options);
    ASSERT_TRUE(stalled.ok());
    FrameWriter out(**stalled);
    FrameReader in(**stalled);
    HelloMessage hello;
    hello.protocol_version = kWireProtocolVersion;
    hello.party = "db-1";
    hello.filter_bits = kFilterBits;
    hello.record_count = static_cast<uint32_t>(rows.size());
    ASSERT_TRUE(out.WriteFrame(static_cast<uint8_t>(MessageType::kHello),
                               EncodeHello(hello))
                    .ok());
    auto hello_ack = in.ReadFrame();
    ASSERT_TRUE(hello_ack.ok());
    auto session = DecodeHelloAck(hello_ack->payload);
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    auto shipment = EncodeShipment(rows);
    ASSERT_TRUE(shipment.ok());
    ShipmentChunkMessage chunk;
    chunk.session_id = session->session_id;
    chunk.data.assign(shipment->begin(), shipment->begin() + shipment->size() / 2);
    ASSERT_TRUE(out.WriteFrame(static_cast<uint8_t>(MessageType::kShipmentChunk),
                               EncodeShipmentChunk(chunk))
                    .ok());
    auto chunk_ack = in.ReadFrame();
    ASSERT_TRUE(chunk_ack.ok());
    ASSERT_EQ(chunk_ack->type, static_cast<uint8_t>(MessageType::kShipmentAck));

    const auto start = std::chrono::steady_clock::now();
    server.Stop();
    EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(1));
    if (durable) {
      EXPECT_FALSE(io::ListCheckpoints(dir)->empty());
      EXPECT_TRUE(io::ListWalSegments(dir)->empty()) << "WAL not truncated";
    }
  }
}

}  // namespace
}  // namespace pprl
