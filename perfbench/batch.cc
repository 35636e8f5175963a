// The batch workloads: three owners ship to one daemon (ship-single), to a
// coordinator with two in-process workers (ship-sharded), or start from
// QID CSVs and encode with keyed-HMAC CLKs on the way (csv-keyed).
//
// Untraced run: repeats of one linkage job, each on fresh daemons, for
// --seconds. Every result is checked against an in-process
// LinkageUnitService that receives the same shipments in the daemon's
// registration order and links them.
//
// Traced run: a few daemon repeats (a warm-up, then jobs whose production
// stage metrics are read back between jobs), then an in-process replica
// that calls each layer's public functions in the daemon's order and times
// them.

#include <malloc.h>

#include <algorithm>
#include <map>
#include <memory>
#include <thread>
#include <unordered_set>

#include "blocking/lsh_blocking.h"
#include "blocking/partitioner.h"
#include "common/bit_matrix.h"
#include "common/random.h"
#include "datagen/io.h"
#include "eval/metrics.h"
#include "io/ingest.h"
#include "linkage/clustering.h"
#include "linkage/comparison.h"
#include "linkage/distributed.h"
#include "pipeline/party.h"
#include "service/client.h"
#include "service/coordinator.h"
#include "service/protocol.h"
#include "service/server.h"
#include "workloads.h"

namespace pprl::perfbench {
namespace {

constexpr size_t kOwners = 3;
constexpr size_t kSetupReps = 5;
/// Cheap set-ups repeat until this much time passed, for a steady median.
constexpr double kMinSetupSeconds = 0.5;
constexpr size_t kEncodeThreads = 4;
constexpr size_t kMinRepeats = 10;
constexpr size_t kTraceRepeats = 5;  ///< a warm-up, then the daemon samples
constexpr size_t kShardedWorkers = 2;

struct BatchSpec {
  bool csv = false;    ///< csv-keyed: owners encode their CSVs in the timed part
  size_t workers = 0;  ///< 0: one daemon; otherwise a coordinator with workers
  size_t records = 0;  ///< per owner
};

BatchSpec SpecFor(const std::string& workload) {
  if (workload == "csv-keyed") return {true, 0, 300};
  if (workload == "ship-single") return {false, 0, 5000};
  return {false, kShardedWorkers, 5000};
}

std::string OwnerName(size_t d) { return "owner-" + std::to_string(d); }

struct Inputs {
  std::vector<Database> dbs;       ///< ground truth, in file row order
  std::vector<std::string> paths;  ///< QID CSVs or PCLK shards
};

Inputs SetUp(const BatchSpec& spec, uint64_t seed, const std::string& dir) {
  MakeDir(dir, /*fresh=*/true);
  Inputs in;
  in.dbs = GenerateDatabases(seed, kOwners, spec.records);
  const ClkEncoder encoder = DefaultEncoder();
  for (size_t d = 0; d < kOwners; ++d) {
    if (spec.csv) {
      in.paths.push_back(dir + "/" + OwnerName(d) + ".csv");
      const Status written = WriteDatabaseCsv(in.paths.back(), in.dbs[d]);
      if (!written.ok()) Fatal("write csv: " + written.ToString());
    } else {
      in.paths.push_back(dir + "/" + OwnerName(d) + ".pclk");
      const EncodedShard shard = EncodeParallel(encoder, in.dbs[d], kEncodeThreads);
      const Status written = io::WriteShardFile(in.paths.back(), shard);
      if (!written.ok()) Fatal("write shard: " + written.ToString());
    }
  }
  return in;
}

/// One linkage job through the daemon path.
struct Repeat {
  bool complete = false;
  size_t failed = 0;
  double result_s = 0;
  std::vector<Request> writes;
  std::vector<Request> reads;
  std::vector<std::string> order;  ///< database order the daemon linked in
  MultiPartyLinkageResult result;
  std::vector<OwnerLinkageSummary> summaries;  ///< by owner index
  std::vector<EncodedShard> shards;            ///< by owner index, as shipped
  double wire_bytes = 0;
  double scatter_bytes = 0;
  double client_retries = 0;
  double worker_retries = 0;
};

Repeat RunRepeat(const BatchSpec& spec, const Inputs& in) {
  // Daemons with their defaults, started before the clock.
  LinkageUnitServerConfig config;
  config.name = "perfbench-lu";
  config.expected_owners = kOwners;
  std::unique_ptr<LinkageUnitServer> single;
  std::vector<std::unique_ptr<LinkageUnitServer>> workers;
  std::unique_ptr<CoordinatorServer> coordinator;
  if (spec.workers == 0) {
    single = std::make_unique<LinkageUnitServer>(config);
    if (!single->Start().ok()) Fatal("daemon failed to start");
  } else {
    CoordinatorConfig ring;
    for (size_t w = 0; w < spec.workers; ++w) {
      LinkageUnitServerConfig wc;
      wc.name = "perfbench-worker-" + std::to_string(w);
      wc.expected_owners = kOwners;
      wc.worker_mode = true;
      workers.push_back(std::make_unique<LinkageUnitServer>(wc));
      if (!workers.back()->Start().ok()) Fatal("worker failed to start");
      ring.workers.push_back(WorkerEndpoint{"127.0.0.1", workers.back()->port()});
    }
    coordinator = std::make_unique<CoordinatorServer>(config, ring);
    if (!coordinator->Start().ok()) Fatal("coordinator failed to start");
  }
  LinkageUnitServer& unit = single ? *single : coordinator->server();
  const uint16_t port = single ? single->port() : coordinator->port();
  const ClkEncoder encoder = KeyedEncoder();

  Repeat rep;
  rep.summaries.resize(kOwners);
  rep.shards.resize(kOwners);
  std::vector<Clock::time_point> sent(kOwners), loaded(kOwners), done(kOwners);
  std::vector<double> wire(kOwners, 0), retries(kOwners, 0);
  std::vector<uint8_t> ok(kOwners, 0);
  std::vector<std::string> errors(kOwners);

  const Clock::time_point t0 = Clock::now();
  std::vector<std::thread> owners;
  for (size_t d = 0; d < kOwners; ++d) {
    owners.emplace_back([&, d] {
      sent[d] = Clock::now();
      Result<EncodedShard> shard = spec.csv ? io::EncodeCsvToShard(in.paths[d], encoder)
                                            : io::ReadShardAuto(in.paths[d]);
      loaded[d] = Clock::now();
      if (shard.ok()) {
        RemoteOwnerClientConfig cc;
        cc.port = port;
        RemoteOwnerClient client(cc);
        auto summary = client.ShipShardAndAwait(OwnerName(d), *shard);
        wire[d] = static_cast<double>(client.wire_bytes_sent() + client.wire_bytes_received());
        retries[d] = static_cast<double>(client.retries());
        if (summary.ok()) {
          rep.summaries[d] = std::move(*summary);
          ok[d] = 1;
        } else {
          errors[d] = summary.status().ToString();
        }
        rep.shards[d] = std::move(*shard);
      } else {
        errors[d] = shard.status().ToString();
      }
      done[d] = Clock::now();
    });
  }
  for (auto& t : owners) t.join();

  // One read and one write per job: the owners read their inputs (CSV ->
  // CLK shard, or a PCLK load), then the unit answers their writes with
  // results once every input is in. The read is the median owner's, since
  // which owner a scheduler delays is an accident.
  std::vector<double> started, read;
  double all_read = 0;
  for (size_t d = 0; d < kOwners; ++d) {
    if (!ok[d]) {
      ++rep.failed;
      std::fprintf(stderr, "perfbench: %s failed: %s\n", OwnerName(d).c_str(),
                   errors[d].c_str());
    }
    started.push_back(Seconds(t0, sent[d]));
    read.push_back(Seconds(t0, loaded[d]));
    all_read = std::max(all_read, read.back());
    rep.result_s = std::max(rep.result_s, Seconds(t0, done[d]));
    rep.wire_bytes += wire[d];
    rep.client_retries += retries[d];
  }
  rep.reads.push_back({0, Median(started), Median(read)});
  rep.writes.push_back({all_read, all_read, rep.result_s});
  rep.complete = rep.failed == 0;
  if (rep.complete) {
    if (!unit.WaitUntilDone(60000).ok()) Fatal("daemon did not finish");
    auto result = unit.result();
    if (!result.ok()) Fatal("daemon result: " + result.status().ToString());
    rep.result = std::move(*result);
    rep.order = unit.owner_order();
  }
  if (coordinator) {
    rep.scatter_bytes = static_cast<double>(coordinator->worker_channel().total_bytes());
    rep.wire_bytes += static_cast<double>(coordinator->worker_wire_bytes_sent() +
                                          coordinator->worker_wire_bytes_received());
    rep.worker_retries = static_cast<double>(coordinator->worker_retries());
    coordinator->Stop();
  }
  for (auto& worker : workers) worker->Stop();
  if (single) single->Stop();
  return rep;
}

void CheckSameEdges(const std::vector<MatchEdge>& got, const std::vector<MatchEdge>& want,
                    const std::string& what) {
  if (got.size() != want.size()) {
    Mismatch(what + ": " + std::to_string(got.size()) + " edges, reference has " +
             std::to_string(want.size()));
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (!(got[i].x == want[i].x) || !(got[i].y == want[i].y) ||
        got[i].score != want[i].score) {
      Mismatch(what + ": edge " + std::to_string(i) + " differs from the reference");
    }
  }
}

void CheckSameResult(const MultiPartyLinkageResult& got, const MultiPartyLinkageResult& want,
                     const std::string& what) {
  if (got.comparisons != want.comparisons || got.candidate_pairs != want.candidate_pairs ||
      got.pruned_comparisons != want.pruned_comparisons) {
    Mismatch(what + ": counters differ from the reference");
  }
  CheckSameEdges(got.edges, want.edges, what);
  if (got.clusters != want.clusters) Mismatch(what + ": clusters differ from the reference");
}

void CheckRepeat(const Repeat& rep, const MultiPartyLinkageResult& want) {
  CheckSameResult(rep.result, want, "daemon result");
  for (size_t d = 0; d < kOwners; ++d) {
    const uint32_t db = static_cast<uint32_t>(
        std::find(rep.order.begin(), rep.order.end(), OwnerName(d)) - rep.order.begin());
    const OwnerLinkageSummary expected = SummarizeForOwner(want, db);
    const OwnerLinkageSummary& got = rep.summaries[d];
    if (got.matches != expected.matches || got.total_edges != expected.total_edges ||
        got.total_clusters != expected.total_clusters ||
        got.comparisons != expected.comparisons) {
      Mismatch(OwnerName(d) + "'s results differ from the reference");
    }
  }
}

/// Owner names by owner index: the canonical order, in which database
/// indices equal owner indices.
std::vector<std::string> CanonicalOrder() {
  std::vector<std::string> order;
  for (size_t d = 0; d < kOwners; ++d) order.push_back(OwnerName(d));
  return order;
}

/// The reference for a job: an in-process LinkageUnitService that receives
/// the same shipments in the daemon's registration order, then links.
MultiPartyLinkageResult Reference(const std::vector<EncodedShard>& shards,
                                  const std::vector<std::string>& order) {
  LinkageUnitService unit("reference");
  for (const std::string& owner : order) {
    size_t d = 0;
    while (d < kOwners && OwnerName(d) != owner) ++d;
    if (d == kOwners) Mismatch("daemon registered an unknown owner " + owner);
    const Status received = unit.Receive(owner, EncodedDatabaseFromShard(shards[d]));
    if (!received.ok()) Fatal("reference receive: " + received.ToString());
  }
  auto linked = unit.Link(MultiPartyLinkageOptions{});
  if (!linked.ok()) Fatal("reference link: " + linked.status().ToString());
  return std::move(*linked);
}

/// F1 of accepted cross-database pairs against datagen entity ids
/// (canonical database indices = owner indices).
double MatchF1(const MultiPartyLinkageResult& canonical, const std::vector<Database>& dbs) {
  size_t truth = 0;
  for (size_t i = 0; i < dbs.size(); ++i) {
    std::unordered_set<uint64_t> entities;
    for (const Record& r : dbs[i].records) entities.insert(r.entity_id);
    for (size_t j = i + 1; j < dbs.size(); ++j) {
      for (const Record& r : dbs[j].records) truth += entities.count(r.entity_id);
    }
  }
  size_t tp = 0;
  for (const MatchEdge& e : canonical.edges) {
    tp += dbs[e.x.database].records[e.x.record].entity_id ==
          dbs[e.y.database].records[e.y.record].entity_id;
  }
  const double denominator = static_cast<double>(canonical.edges.size() + truth);
  return denominator > 0 ? 2.0 * static_cast<double>(tp) / denominator : 0;
}

/// Per-layer split of one job, replayed in-process in the daemon's order.
/// Adds every layer value to `layers`; returns the replica's time along
/// the job's blocking steps (owner-side steps run in parallel, so the
/// slowest owner counts).
double Replica(const BatchSpec& spec, const Inputs& in,
               const MultiPartyLinkageResult& canonical,
               std::map<std::string, double>& layers) {
  const MultiPartyLinkageOptions options;
  const ClkEncoder encoder = KeyedEncoder();
  std::vector<double> owner_s(kOwners, 0), codec_s(kOwners, 0);
  std::vector<EncodedDatabase> received(kOwners);
  double io_s = 0, encode_s = 0, records = 0;
  for (size_t d = 0; d < kOwners; ++d) {
    EncodedShard shard;
    Clock::time_point t = Clock::now();
    if (spec.csv) {
      auto db = io::ReadDatabaseCsvStream(in.paths[d]);
      if (!db.ok()) Fatal("replica csv: " + db.status().ToString());
      const double parse = Since(t);
      t = Clock::now();
      EncodedDatabase encoded;
      for (const Record& r : db->records) {
        auto bv = encoder.Encode(db->schema, r);
        if (!bv.ok()) Fatal("replica encode: " + bv.status().ToString());
        encoded.ids.push_back(r.id);
        encoded.filters.push_back(std::move(*bv));
      }
      const double encode = Since(t);
      shard = ShardFromEncodedDatabase(encoded);
      io_s += parse;
      encode_s += encode;
      records += static_cast<double>(encoded.size());
      owner_s[d] = parse + encode;
    } else {
      auto loaded = io::ReadShardAuto(in.paths[d]);
      if (!loaded.ok()) Fatal("replica load: " + loaded.status().ToString());
      owner_s[d] = Since(t);
      io_s += owner_s[d];
      shard = std::move(*loaded);
    }
    t = Clock::now();
    auto payload = EncodeShipment(shard);
    if (!payload.ok()) Fatal("replica shipment: " + payload.status().ToString());
    auto decoded = DecodeShipment(*payload, static_cast<uint32_t>(shard.bits.num_bits()));
    if (!decoded.ok()) Fatal("replica decode: " + decoded.status().ToString());
    codec_s[d] = Since(t);
    received[d] = std::move(*decoded);
  }
  layers[spec.csv ? "io.csv_parse_s" : "io.pclk_load_s"] = io_s;
  if (spec.csv) {
    layers["encoding.encode_s"] = encode_s;
    layers["encoding.records_per_s"] = records / encode_s;
  }
  double shipment_codec = 0;
  for (double c : codec_s) shipment_codec += c;

  const size_t bits = received[0].filters[0].size();
  Rng rng(options.lsh_seed);
  const HammingLshBlocker blocker(bits, options.lsh_tables, options.lsh_bits_per_key, rng);
  const ComparisonEngine engine(SimilarityMeasure::kDice);

  // Blocking quality over the full candidate lists (outside every timer).
  {
    std::vector<BlockIndex> indexes;
    for (const auto& db : received) indexes.push_back(blocker.BuildIndex(db.filters));
    double truth = 0, found = 0, candidates = 0;
    for (size_t d1 = 0; d1 < kOwners; ++d1) {
      for (size_t d2 = d1 + 1; d2 < kOwners; ++d2) {
        const auto pairs = HammingLshBlocker::CandidatePairs(indexes[d1], indexes[d2]);
        const GroundTruth gt(in.dbs[d1], in.dbs[d2]);
        const BlockingQuality q =
            EvaluateBlocking(pairs, gt, in.dbs[d1].size(), in.dbs[d2].size());
        truth += static_cast<double>(gt.num_matches());
        found += q.pairs_completeness * static_cast<double>(gt.num_matches());
        candidates += static_cast<double>(pairs.size());
      }
    }
    layers["blocking.pairs_completeness"] = truth > 0 ? found / truth : 0;
    layers["blocking.candidate_pairs"] = candidates;
  }

  double index_s = 0, candidates_s = 0, compare_s = 0, comparisons = 0, pruned = 0;
  double edges_total = 0;
  double unit_path = 0;
  // The split's own cost: the separately timed unit steps against the one
  // call that runs them all (Link, or every worker's LinkPartition).
  double split_s = 0, whole_s = 0;
  std::vector<MatchEdge> edges;
  if (spec.workers == 0) {
    LinkageUnitService unit("replica");
    for (size_t d = 0; d < kOwners; ++d) {
      const Status s = unit.Receive(OwnerName(d), received[d]);
      if (!s.ok()) Fatal("replica receive: " + s.ToString());
    }
    // A checked warm-up call first, so the timed one pays no first-call
    // costs that the split's calls, which run after it, would not.
    auto linked = unit.Link(options);
    if (!linked.ok()) Fatal("replica link: " + linked.status().ToString());
    CheckSameResult(*linked, canonical, "replica Link");
    Clock::time_point t = Clock::now();
    linked = unit.Link(options);
    layers["pipeline.link_s"] = Since(t);
    if (!linked.ok()) Fatal("replica link: " + linked.status().ToString());

    t = Clock::now();
    std::vector<BlockIndex> indexes;
    std::vector<BitMatrix> matrices;
    for (const auto& db : received) {
      indexes.push_back(blocker.BuildIndex(db.filters));
      matrices.push_back(BitMatrix::FromVectors(db.filters));
    }
    index_s = Since(t);
    for (uint32_t d1 = 0; d1 < kOwners; ++d1) {
      for (uint32_t d2 = d1 + 1; d2 < kOwners; ++d2) {
        t = Clock::now();
        const auto pairs = HammingLshBlocker::CandidatePairs(indexes[d1], indexes[d2]);
        candidates_s += Since(t);
        t = Clock::now();
        const auto scored = engine.CompareMatrices(matrices[d1], matrices[d2], pairs,
                                                   options.dice_threshold - 2e-12);
        compare_s += Since(t);
        comparisons += static_cast<double>(engine.last_comparison_count());
        pruned += static_cast<double>(engine.last_pruned_count());
        for (const ScoredPair& p : scored) {
          if (p.score + 1e-12 >= options.dice_threshold) {
            edges.push_back({{d1, p.a}, {d2, p.b}, p.score});
          }
        }
      }
    }
    CheckSameEdges(edges, canonical.edges, "replica compare");
    layers["blocking.candidates_s"] = candidates_s;
    unit_path = index_s + candidates_s + compare_s;
    split_s = unit_path;
    whole_s = layers["pipeline.link_s"];
  } else {
    // The coordinator re-ships every database to each worker, and each
    // worker rebuilds the indexes and compares the pairs it owns.
    std::vector<WorkerPartitionResult> parts;
    std::vector<double> owned(spec.workers, 0);
    double partition_s = 0, partition_max = 0;
    for (uint32_t w = 0; w < spec.workers; ++w) {
      LinkageUnitService worker("replica-worker");
      Clock::time_point t = Clock::now();
      for (size_t d = 0; d < kOwners; ++d) {
        auto payload = EncodeShipment(received[d]);
        if (!payload.ok()) Fatal("replica scatter: " + payload.status().ToString());
        auto decoded = DecodeShipment(*payload, static_cast<uint32_t>(bits));
        if (!decoded.ok()) Fatal("replica scatter: " + decoded.status().ToString());
        const Status s = worker.Receive(OwnerName(d), std::move(*decoded));
        if (!s.ok()) Fatal("replica worker receive: " + s.ToString());
      }
      shipment_codec += Since(t);
      const PartitionSpec partition{w, static_cast<uint32_t>(spec.workers),
                                    PartitionScheme::kAuto};
      t = Clock::now();
      auto part = worker.LinkPartition(options, partition);
      const double link_s = Since(t);
      if (!part.ok()) Fatal("replica partition: " + part.status().ToString());
      partition_max = std::max(partition_max, link_s);
      whole_s += link_s;

      t = Clock::now();
      std::vector<BlockIndex> indexes;
      std::vector<BitMatrix> matrices;
      for (const auto& db : received) {
        indexes.push_back(blocker.BuildIndex(db.filters));
        matrices.push_back(BitMatrix::FromVectors(db.filters));
      }
      index_s += Since(t);
      const BlockPartitioner partitioner(spec.workers, PartitionScheme::kAuto);
      std::vector<MatchEdge> worker_edges;
      for (uint32_t d1 = 0; d1 < kOwners; ++d1) {
        for (uint32_t d2 = d1 + 1; d2 < kOwners; ++d2) {
          t = Clock::now();
          const auto pairs = OwnedCandidatePairs(indexes[d1], indexes[d2], partitioner, w);
          partition_s += Since(t);
          owned[w] += static_cast<double>(pairs.size());
          t = Clock::now();
          const auto scored = engine.CompareMatrices(matrices[d1], matrices[d2], pairs,
                                                     options.dice_threshold - 2e-12);
          compare_s += Since(t);
          comparisons += static_cast<double>(engine.last_comparison_count());
          pruned += static_cast<double>(engine.last_pruned_count());
          for (const ScoredPair& p : scored) {
            if (p.score + 1e-12 >= options.dice_threshold) {
              worker_edges.push_back({{d1, p.a}, {d2, p.b}, p.score});
            }
          }
        }
      }
      CheckSameEdges(worker_edges, part->edges, "replica partition compare");
      parts.push_back({w, part->comparisons, part->candidate_pairs,
                       part->pruned_comparisons, std::move(part->edges)});
    }
    Clock::time_point t = Clock::now();
    MergedPartitions merged = MergeWorkerPartitions(std::move(parts));
    layers["linkage.merge_s"] = Since(t);
    CheckSameEdges(merged.edges, canonical.edges, "replica merge");
    edges = std::move(merged.edges);
    double owned_total = 0, owned_max = 0;
    for (double o : owned) {
      owned_total += o;
      owned_max = std::max(owned_max, o);
    }
    layers["blocking.partition_candidates_s"] = partition_s;
    layers["blocking.partition_skew"] =
        owned_total > 0 ? owned_max / (owned_total / static_cast<double>(spec.workers)) : 0;
    layers["pipeline.partition_link_s_max"] = partition_max;
    unit_path = partition_max + layers["linkage.merge_s"];
    split_s = index_s + partition_s + compare_s;
  }
  edges_total = static_cast<double>(edges.size());

  Clock::time_point t = Clock::now();
  const auto clusters = StarClustering(edges);
  const double cluster_s = Since(t);
  if (clusters != canonical.clusters) Mismatch("replica clusters differ from the reference");
  if (spec.workers == 0) split_s += cluster_s;  // Link clusters, LinkPartition does not
  layers["bench.trace_overhead_pct"] = whole_s > 0 ? 100.0 * (split_s - whole_s) / whole_s : 0;

  double results_max = 0, results_s = 0;
  for (uint32_t d = 0; d < kOwners; ++d) {
    t = Clock::now();
    const auto bytes = EncodeResults(SummarizeForOwner(canonical, d));
    const double s = Since(t);
    if (bytes.empty()) Fatal("replica results codec produced nothing");
    results_s += s;
    results_max = std::max(results_max, s);
  }

  layers["blocking.index_s"] = index_s;
  layers["linkage.compare_s"] = compare_s;
  layers["linkage.pairs_per_s"] = compare_s > 0 ? comparisons / compare_s : 0;
  layers["linkage.pruned_ratio"] = comparisons > 0 ? pruned / comparisons : 0;
  layers["linkage.accept_ratio"] = comparisons > 0 ? edges_total / comparisons : 0;
  layers["linkage.cluster_s"] = cluster_s;
  layers["service.shipment_codec_s"] = shipment_codec;
  layers["service.results_codec_s"] = results_s;

  double owner_path = 0, codec_path = 0;
  for (size_t d = 0; d < kOwners; ++d) {
    owner_path = std::max(owner_path, owner_s[d]);
    codec_path = std::max(codec_path, codec_s[d]);
  }
  return owner_path + codec_path + unit_path + cluster_s + results_max;
}

}  // namespace

bool IsBatchWorkload(const std::string& name) {
  return name == "csv-keyed" || name == "ship-single" || name == "ship-sharded";
}

RunRecord RunBatch(const Args& args) {
  const BatchSpec spec = SpecFor(args.workload);
  RunRecord rec;
  rec.workload = args.workload;
  rec.seed = args.seed;
  rec.trace = args.trace;
  rec.inputs = {{"owners", kOwners},
                {"records_per_owner", static_cast<double>(spec.records)},
                {"filter_bits", 1000},
                {"workers", static_cast<double>(spec.workers)},
                {"overlap", 0.5}};

  Inputs in;
  const Clock::time_point setup_start = Clock::now();
  while (rec.setup_s.size() < kSetupReps || Since(setup_start) < kMinSetupSeconds) {
    const Clock::time_point t = Clock::now();
    in = SetUp(spec, args.seed, args.work_dir + "/inputs");
    rec.setup_s.push_back(Since(t));
  }

  const double total_records = static_cast<double>(kOwners * spec.records);
  std::vector<EncodedShard> shipped;  ///< as the first completed job shipped them
  std::map<std::vector<std::string>, MultiPartyLinkageResult> by_order;
  std::vector<double> daemon_s;  ///< traced run: every job after the warm-up
  double wire = 0, scatter = 0, client_retries = 0, worker_retries = 0;
  // pprl_stage_seconds sums over the traced run's jobs, by stage.
  const std::vector<std::string> stages = {"block", "compare", "cluster"};
  std::vector<double> stage_s(stages.size(), 0);
  auto read_stages = [&] {
    std::vector<double> sums;
    for (const auto& stage : stages) {
      sums.push_back(ReadHistogram("pprl_stage_seconds", "stage", stage).sum);
    }
    return sums;
  };

  double measured = 0;
  for (size_t i = 0;; ++i) {
    if (args.trace ? i >= kTraceRepeats : (measured >= args.seconds && i >= kMinRepeats)) {
      break;
    }
    const bool warmup = args.trace && i == 0;
    const std::vector<double> stages0 = read_stages();
    const Clock::time_point t = Clock::now();
    Repeat rep = RunRepeat(spec, in);
    measured += Since(t);
    // Each job runs on fresh daemons, as a daemon process serves one job;
    // hand the freed heap back so peak_rss reflects one job, not many.
    malloc_trim(0);
    rec.attempted += kOwners;
    rec.failed += rep.failed;
    if (!rep.complete) continue;
    if (rep.order.size() != kOwners) Mismatch("daemon linked a wrong number of databases");
    if (shipped.empty()) shipped = std::move(rep.shards);
    auto it = by_order.find(rep.order);
    if (it == by_order.end()) {
      it = by_order.emplace(rep.order, Reference(shipped, rep.order)).first;
    }
    CheckRepeat(rep, it->second);

    rec.result_s.push_back(rep.result_s);
    rec.throughput_rps.push_back(total_records / rep.result_s);
    rec.writes.insert(rec.writes.end(), rep.writes.begin(), rep.writes.end());
    rec.reads.insert(rec.reads.end(), rep.reads.begin(), rep.reads.end());
    wire += rep.wire_bytes;
    scatter += rep.scatter_bytes;
    client_retries += rep.client_retries;
    worker_retries += rep.worker_retries;
    if (args.trace && !warmup) {
      daemon_s.push_back(rep.result_s);
      const std::vector<double> stages1 = read_stages();
      for (size_t k = 0; k < stages.size(); ++k) stage_s[k] += stages1[k] - stages0[k];
    }
  }
  if (shipped.empty()) Fatal("no linkage job completed");
  rec.scalars["distinct_orders"] = static_cast<double>(by_order.size());
  auto canonical_it = by_order.find(CanonicalOrder());
  if (canonical_it == by_order.end()) {
    canonical_it =
        by_order.emplace(CanonicalOrder(), Reference(shipped, CanonicalOrder())).first;
  }
  const MultiPartyLinkageResult& canonical = canonical_it->second;
  const double completed = static_cast<double>(rec.result_s.size());
  rec.scalars["match_f1"] = MatchF1(canonical, in.dbs);
  rec.scalars["wire_bytes_per_record"] = wire / completed / total_records;
  rec.scalars["edges"] = static_cast<double>(canonical.edges.size());
  rec.scalars["clusters"] = static_cast<double>(canonical.clusters.size());
  rec.scalars["comparisons"] = static_cast<double>(canonical.comparisons);

  if (args.trace) {
    auto& layers = rec.layers;
    const double replica_path = Replica(spec, in, canonical, layers);
    layers["service.unattributed_s"] = Median(daemon_s) - replica_path;
    layers["net.wire_bytes"] = wire / completed;
    layers["net.client_retries"] = client_retries;
    if (spec.workers > 0) {
      layers["service.scatter_bytes"] = scatter / completed;
      layers["service.worker_retries"] = worker_retries;
    }
    const double n = std::max<double>(1, static_cast<double>(daemon_s.size()));
    for (size_t k = 0; k < stages.size(); ++k) {
      layers["obs.stage_" + stages[k] + "_s"] = stage_s[k] / n;
    }
  }
  rec.scalars["peak_rss_kb"] = PeakRssKb();
  return rec;
}

}  // namespace pprl::perfbench
