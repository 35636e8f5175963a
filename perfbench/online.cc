// The online-durable workload. Set-up journals a "registry" party through
// the WAL, checkpoints, and journals a tail past the checkpoint, leaving
// what a kill -9 leaves. A run is a series of cycles: a few restarts of a
// durable online daemon from a copy of that state (crash -> ready), the
// last of which is then driven open-loop — a clinic's append batches and
// single-record link queries at fixed rates, each timed from its due time
// — and closed-loop with 64-record query round trips on one connection,
// beside the clinic's append stream at the same rate.
//
// Checks: right after the first recovery the daemon answers a probe set
// exactly like an in-process engine that never crashed, and every life's
// first closed-loop pass (run before the appends resume) equals an
// in-process OnlineLinkageEngine fed the same records in the same order.

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <map>
#include <memory>
#include <thread>
#include <unordered_map>

#include "io/checkpoint.h"
#include "io/wal.h"
#include "linkage/online_linkage.h"
#include "service/client.h"
#include "service/durability.h"
#include "service/protocol.h"
#include "service/server.h"
#include "workloads.h"

namespace pprl::perfbench {
namespace {

constexpr size_t kRegistry = 30000;
constexpr size_t kQueries = 1024;
constexpr size_t kProbe = 64;
constexpr double kTailShare = 0.2;  ///< registry share journaled after the checkpoint
constexpr size_t kAppendBatch = 4;
constexpr double kAppendRate = 250;  ///< append batches per second
constexpr size_t kReaders = 2;
constexpr double kQueryRate = 600;  ///< single-record queries per second per reader
constexpr size_t kClosedBatch = 64;
constexpr size_t kMinCycles = 5;  ///< serving lives per run (traced: a warm-up first)
constexpr size_t kRestartsPerCycle = 3;  ///< crash -> ready samples per cycle; the last serves
constexpr double kCycleOpenS = 2.0;    ///< open-loop phase of one life
constexpr size_t kClosedPasses = 12;   ///< timed closed-loop passes over the query set per life
/// Clinic rows kept for appends beside the closed loop: this many seconds
/// at kAppendRate, far more than the closed loop takes.
constexpr double kClosedAppendS = 10.0;
constexpr size_t kSetupReps = 5;
constexpr size_t kEncodeThreads = 4;
constexpr size_t kNullRoundtrips = 500;

struct Inputs {
  Database registry_db;  ///< ground truth of the registry rows
  Database other_db;     ///< clinic rows first, the query rows at its end
  EncodedShard registry;
  EncodedShard clinic;
  EncodedShard queries;
  EncodedDatabase clinic_rows;
  EncodedDatabase query_rows;
  std::string state_dir;
};

Database Slice(const Database& db, size_t begin, size_t end) {
  Database out;
  out.schema = db.schema;
  out.records.assign(db.records.begin() + static_cast<std::ptrdiff_t>(begin),
                     db.records.begin() + static_cast<std::ptrdiff_t>(end));
  return out;
}

Inputs SetUp(uint64_t seed, size_t clinic_records, const std::string& dir) {
  Inputs in;
  auto dbs = GenerateDatabases(seed, 2, kRegistry);
  in.registry_db = std::move(dbs[0]);
  in.other_db = std::move(dbs[1]);
  const ClkEncoder encoder = DefaultEncoder();
  in.registry = EncodeParallel(encoder, in.registry_db, kEncodeThreads);
  in.clinic = EncodeParallel(encoder, Slice(in.other_db, 0, clinic_records), kEncodeThreads);
  in.queries = EncodeParallel(encoder, Slice(in.other_db, kRegistry - kQueries, kRegistry),
                              kEncodeThreads);
  in.clinic_rows = EncodedDatabaseFromShard(in.clinic);
  in.query_rows = EncodedDatabaseFromShard(in.queries);

  // Journal the registry, checkpoint, journal a tail, then drop the
  // durability layer without the graceful final checkpoint.
  in.state_dir = dir;
  MakeDir(dir, /*fresh=*/true);
  DurabilityConfig config;
  config.wal_dir = dir;
  config.checkpoint_every_n = 0;
  OnlineLinkageEngine engine(in.registry.bits.num_bits());
  OnlineDurability durability(config);
  const EncodedDatabase rows = EncodedDatabaseFromShard(in.registry);
  const size_t head = static_cast<size_t>(kRegistry * (1 - kTailShare));
  uint32_t db = 0;
  auto cursor = durability.DurableAppend(engine, "registry", rows, 0, head, &db);
  if (!cursor.ok()) Fatal("journal: " + cursor.status().ToString());
  const Status checkpointed = durability.Checkpoint(engine);
  if (!checkpointed.ok()) Fatal("checkpoint: " + checkpointed.ToString());
  cursor = durability.DurableAppend(engine, "registry", rows, head, kRegistry, &db);
  if (!cursor.ok()) Fatal("journal: " + cursor.status().ToString());
  return in;
}

void WaitUntil(Clock::time_point due) {
  const auto coarse = due - std::chrono::microseconds(200);
  if (Clock::now() < coarse) std::this_thread::sleep_until(coarse);
  while (Clock::now() < due) {
  }
}

void CheckAnswer(const QueryRecordResult& got, const OnlineQueryResult& want,
                 const std::string& what) {
  bool same = got.candidates == want.candidates && got.cluster_id == want.cluster_id &&
              got.cluster_size == want.cluster_size &&
              got.matches.size() == want.matches.size();
  for (size_t i = 0; same && i < got.matches.size(); ++i) {
    const OnlineMatch& m = want.matches[i];
    same = got.matches[i] == QueryMatch{m.database, m.record, m.id, m.score};
  }
  if (!same) Mismatch(what + ": answer for query id " + std::to_string(got.id) +
                      " differs from the in-process engine");
}

OnlineQueryResult ReferenceQuery(OnlineLinkageEngine& engine, const BitVector& filter) {
  auto result = engine.Query(filter, OnlineLinkageEngine::kNoDatabase, false, 0);
  if (!result.ok()) Fatal("reference query: " + result.status().ToString());
  return std::move(*result);
}

void ReferenceAppend(OnlineLinkageEngine& engine, uint32_t db, const EncodedDatabase& rows,
                     size_t begin, size_t end) {
  for (size_t i = begin; i < end; ++i) {
    auto row = engine.Append(db, rows.ids[i], rows.filters[i]);
    if (!row.ok()) Fatal("reference append: " + row.status().ToString());
  }
}

/// One daemon life: restarted from a copy of the crashed state.
struct Life {
  std::unique_ptr<LinkageUnitServer> server;
  std::unique_ptr<OnlineLinkClient> auditor;  ///< the closed-loop connection
  double crash_to_ready_s = 0;
  double start_s = 0;  ///< traced: Start() alone (recovery)
};

OnlineLinkClientConfig ClientConfig(uint16_t port) {
  OnlineLinkClientConfig config;
  config.port = port;
  return config;
}

Life Restart(const Inputs& in, const std::string& dir, RunRecord& rec) {
  CopyDir(in.state_dir, dir);
  LinkageUnitServerConfig config;
  config.name = "perfbench-online";
  config.online_mode = true;
  config.wal_dir = dir;
  Life life;
  const Clock::time_point t = Clock::now();
  life.server = std::make_unique<LinkageUnitServer>(config);
  if (!life.server->Start().ok()) Fatal("durable daemon failed to start");
  life.start_s = Since(t);
  life.auditor = std::make_unique<OnlineLinkClient>(ClientConfig(life.server->port()));
  ++rec.attempted;
  if (!life.auditor->Connect("auditor-0", static_cast<uint32_t>(in.queries.bits.num_bits()))
           .ok() ||
      !life.auditor->QueryRows(in.queries, 0, 1, false, 0).ok()) {
    Fatal("first query after recovery failed");
  }
  life.crash_to_ready_s = Since(t);
  return life;
}

Clock::time_point After(Clock::time_point t0, double seconds) {
  return t0 + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
}

/// The clinic's append stream: batches of kAppendBatch rows of `clinic`
/// from row `first`, due at kAppendRate from `t0`, until `end` passes,
/// `stop` is set or the rows run out. Each request is timed from its due
/// time (seconds since `t0`); `appended` follows the acknowledged cursor.
/// Returns true when it ran out of rows.
bool AppendAtRate(OnlineLinkClient& writer, const EncodedShard& clinic, size_t first,
                  Clock::time_point t0, Clock::time_point end, const std::atomic<bool>& stop,
                  std::vector<Request>& writes, size_t& appended,
                  std::atomic<uint64_t>& failed) {
  for (size_t i = 0;; ++i) {
    const Clock::time_point due = After(t0, static_cast<double>(i) / kAppendRate);
    const size_t begin = first + i * kAppendBatch;
    if (begin + kAppendBatch > clinic.size()) return true;
    if (due >= end || stop.load()) return false;
    WaitUntil(due);
    const Clock::time_point sent = Clock::now();
    auto cursor = writer.AppendRows(clinic, begin, begin + kAppendBatch);
    const Clock::time_point done = Clock::now();
    if (!cursor.ok()) {
      failed.fetch_add(1);
      std::fprintf(stderr, "perfbench: append failed: %s\n",
                   cursor.status().ToString().c_str());
      return false;
    }
    writes.push_back({Seconds(t0, due), Seconds(t0, sent), Seconds(t0, done)});
    appended = static_cast<size_t>(*cursor);
  }
}

struct OpenLoop {
  std::vector<Request> writes;
  std::vector<Request> reads;
  std::vector<double> read_rtt_us;  ///< sent -> done, for the net split
  size_t appended = 0;              ///< clinic records acknowledged
  size_t queried = 0;
  double retries = 0;
};

OpenLoop DriveOpenLoop(const Inputs& in, uint16_t port, OnlineLinkClient& writer,
                       double seconds, RunRecord& rec) {
  const uint32_t bits = static_cast<uint32_t>(in.queries.bits.num_bits());
  std::vector<std::unique_ptr<OnlineLinkClient>> readers;
  for (size_t k = 0; k < kReaders; ++k) {
    readers.push_back(std::make_unique<OnlineLinkClient>(ClientConfig(port)));
    if (!readers.back()->Connect("auditor-" + std::to_string(k + 1), bits).ok()) {
      Fatal("reader failed to connect");
    }
  }

  OpenLoop out;
  std::vector<std::vector<Request>> reads(kReaders);
  std::vector<std::vector<double>> rtts(kReaders);
  std::atomic<uint64_t> failed{0};
  const std::atomic<bool> never{false};
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(20);
  const Clock::time_point end = After(t0, seconds);

  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    AppendAtRate(writer, in.clinic, 0, t0, end, never, out.writes, out.appended, failed);
  });
  for (size_t k = 0; k < kReaders; ++k) {
    threads.emplace_back([&, k] {
      const double stagger = static_cast<double>(k) / (kQueryRate * kReaders);
      for (size_t j = 0;; ++j) {
        const Clock::time_point due = After(t0, static_cast<double>(j) / kQueryRate + stagger);
        if (due >= end) break;
        const size_t row = (j * kReaders + k) % kQueries;
        WaitUntil(due);
        const Clock::time_point sent = Clock::now();
        auto answer = readers[k]->QueryRows(in.queries, row, row + 1, false, 0);
        const Clock::time_point done = Clock::now();
        if (!answer.ok()) {
          failed.fetch_add(1);
          continue;
        }
        reads[k].push_back({Seconds(t0, due), Seconds(t0, sent), Seconds(t0, done)});
        rtts[k].push_back(Seconds(sent, done) * 1e6);
      }
    });
  }
  for (auto& t : threads) t.join();
  for (size_t k = 0; k < kReaders; ++k) {
    out.reads.insert(out.reads.end(), reads[k].begin(), reads[k].end());
    out.read_rtt_us.insert(out.read_rtt_us.end(), rtts[k].begin(), rtts[k].end());
    out.retries += static_cast<double>(readers[k]->retries());
  }
  out.queried = out.reads.size();
  rec.attempted += out.writes.size() + out.reads.size() + failed.load();
  rec.failed += failed.load();
  for (auto& reader : readers) reader->Close();
  return out;
}

/// F1 of the closed-loop answers against datagen entity ids.
double MatchF1(const Inputs& in, const std::vector<QueryRecordResult>& answers,
               size_t appended) {
  std::unordered_map<uint64_t, size_t> indexed;
  for (const Record& r : in.registry_db.records) ++indexed[r.entity_id];
  for (size_t i = 0; i < appended; ++i) ++indexed[in.other_db.records[i].entity_id];
  size_t tp = 0, predicted = 0, truth = 0;
  for (size_t q = 0; q < answers.size(); ++q) {
    const uint64_t entity = in.other_db.records[kRegistry - kQueries + q].entity_id;
    const auto it = indexed.find(entity);
    truth += it == indexed.end() ? 0 : it->second;
    for (const QueryMatch& m : answers[q].matches) {
      const Database& db = m.database == 0 ? in.registry_db : in.other_db;
      tp += db.records[m.record].entity_id == entity;
      ++predicted;
    }
  }
  const double denominator = static_cast<double>(predicted + truth);
  return denominator > 0 ? 2.0 * static_cast<double>(tp) / denominator : 0;
}

/// Per-layer replica of recovery, queries and appends, in-process.
/// Returns the replica's share of crash -> ready.
double Replica(const Inputs& in, const std::string& work, size_t appended,
               std::map<std::string, double>& layers,
               std::map<std::string, std::vector<double>>& dists) {
  auto checkpoints = io::ListCheckpoints(in.state_dir);
  if (!checkpoints.ok() || checkpoints->empty()) Fatal("no checkpoint in the state");
  Clock::time_point t = Clock::now();
  auto snapshot = io::ReadCheckpointFile(checkpoints->back().second);
  layers["io.checkpoint_read_s"] = Since(t);
  if (!snapshot.ok()) Fatal("checkpoint read: " + snapshot.status().ToString());

  auto segments = io::ListWalSegments(in.state_dir);
  if (!segments.ok()) Fatal("wal list: " + segments.status().ToString());
  std::vector<io::WalSegment> wal;
  double wal_bytes = 0;
  t = Clock::now();
  for (const auto& [start, path] : *segments) {
    auto segment = io::ReadWalFile(path);
    if (!segment.ok()) Fatal("wal read: " + segment.status().ToString());
    wal.push_back(std::move(*segment));
  }
  layers["io.wal_read_s"] = Since(t);
  for (const auto& [start, path] : *segments) {
    wal_bytes += static_cast<double>(std::filesystem::file_size(path));
  }

  t = Clock::now();
  auto restored = OnlineLinkageEngine::FromSnapshot(*snapshot, OnlineLinkageOptions{});
  layers["linkage.snapshot_restore_s"] = Since(t);
  if (!restored.ok()) Fatal("snapshot restore: " + restored.status().ToString());
  OnlineLinkageEngine& engine = **restored;

  std::vector<io::WalAppendBatch> tail;
  for (const auto& segment : wal) {
    for (const auto& record : segment.records) {
      if (record.sequence <= snapshot->wal_sequence) continue;
      if (record.type != static_cast<uint32_t>(io::WalRecordType::kAppendBatch)) continue;
      auto batch = io::DecodeWalAppendBatch(record.payload);
      if (!batch.ok()) Fatal("wal decode: " + batch.status().ToString());
      tail.push_back(std::move(*batch));
    }
  }
  double tail_records = 0;
  t = Clock::now();
  for (const auto& batch : tail) {
    ReferenceAppend(engine, batch.database, batch.rows, 0, batch.rows.size());
    tail_records += static_cast<double>(batch.rows.size());
  }
  layers["linkage.wal_apply_s"] = Since(t);
  layers["io.wal_tail_records"] = tail_records;
  layers["io.wal_bytes_per_record"] = tail_records > 0 ? wal_bytes / tail_records : 0;
  if (engine.size() != kRegistry) Mismatch("replica recovery lost records");

  const std::string recover_dir = work + "/recover";
  CopyDir(in.state_dir, recover_dir);
  DurabilityConfig config;
  config.wal_dir = recover_dir;
  OnlineDurability durability(config);
  std::unique_ptr<OnlineLinkageEngine> recovered;
  RecoveryReport report;
  t = Clock::now();
  const Status status = durability.Recover(&recovered, &report);
  layers["service.recover_s"] = Since(t);
  if (!status.ok() || recovered == nullptr || recovered->size() != kRegistry) {
    Mismatch("replica Recover did not restore the registry");
  }
  // The split's own cost: the separately timed recovery steps against the
  // one call that runs them all.
  const double split_s = layers["io.checkpoint_read_s"] + layers["io.wal_read_s"] +
                         layers["linkage.snapshot_restore_s"] + layers["linkage.wal_apply_s"];
  layers["bench.trace_overhead_pct"] =
      100.0 * (split_s - layers["service.recover_s"]) / layers["service.recover_s"];

  // Queries on the recovered registry, with their message codecs.
  const uint32_t bits = static_cast<uint32_t>(in.queries.bits.num_bits());
  auto& query_us = dists["linkage.query_us"];
  auto& codec_us = dists["service.query_codec_us"];
  double first_query_s = 0;
  for (size_t i = 0; i < kQueries; ++i) {
    t = Clock::now();
    const OnlineQueryResult answer = ReferenceQuery(engine, in.query_rows.filters[i]);
    const double s = Since(t);
    if (i == 0) first_query_s = s;
    query_us.push_back(s * 1e6);

    t = Clock::now();
    QueryMessage message;
    message.session_id = 1;
    message.query_id = i;
    message.filter_bits = bits;
    message.count = 1;
    auto data = EncodeShipmentRows(in.queries, i, i + 1);
    if (!data.ok()) Fatal("query codec: " + data.status().ToString());
    message.data = std::move(*data);
    const auto request = EncodeQuery(message);
    QueryResultMessage reply;
    reply.query_id = i;
    reply.index_size = engine.size();
    QueryRecordResult record;
    record.id = in.query_rows.ids[i];
    record.candidates = answer.candidates;
    for (const OnlineMatch& m : answer.matches) {
      record.matches.push_back(QueryMatch{m.database, m.record, m.id, m.score});
    }
    reply.records.push_back(std::move(record));
    const auto response = EncodeQueryResult(reply);
    codec_us.push_back(Since(t) * 1e6);
    if (request.empty() || response.empty()) Fatal("query codec produced nothing");
  }

  // Appends of the clinic batches the daemon acknowledged, plain and
  // through the durability layer.
  auto& append_us = dists["linkage.append_us"];
  auto& durable_us = dists["service.durable_append_us"];
  const uint32_t clinic = engine.RegisterDatabase("clinic");
  for (size_t b = 0; b + kAppendBatch <= appended; b += kAppendBatch) {
    t = Clock::now();
    ReferenceAppend(engine, clinic, in.clinic_rows, b, b + kAppendBatch);
    append_us.push_back(Since(t) * 1e6);
    uint32_t db = 0;
    t = Clock::now();
    auto cursor = durability.DurableAppend(*recovered, "clinic", in.clinic_rows, b,
                                           b + kAppendBatch, &db);
    durable_us.push_back(Since(t) * 1e6);
    if (!cursor.ok()) Fatal("replica durable append: " + cursor.status().ToString());
  }
  RemoveDir(recover_dir);
  return layers["io.checkpoint_read_s"] + layers["io.wal_read_s"] +
         layers["linkage.snapshot_restore_s"] + layers["linkage.wal_apply_s"] + first_query_s;
}

}  // namespace

RunRecord RunOnline(const Args& args) {
  RunRecord rec;
  rec.workload = args.workload;
  rec.seed = args.seed;
  rec.trace = args.trace;
  const size_t clinic_records = std::min(
      kRegistry - kQueries,
      (static_cast<size_t>(std::ceil(kAppendRate * (kCycleOpenS + kClosedAppendS))) + 1) *
          kAppendBatch);
  rec.inputs = {{"registry_records", kRegistry},
                {"checkpoint_records", kRegistry * (1 - kTailShare)},
                {"query_records", kQueries},
                {"clinic_records", static_cast<double>(clinic_records)},
                {"append_batch", kAppendBatch},
                {"append_batches_per_s", kAppendRate},
                {"readers", kReaders},
                {"queries_per_s", kQueryRate * kReaders},
                {"closed_loop_batch", kClosedBatch},
                {"cycle_open_loop_s", kCycleOpenS},
                {"closed_loop_passes", kClosedPasses},
                {"filter_bits", 1000}};

  Inputs in;
  for (size_t s = 0; s < kSetupReps; ++s) {
    const Clock::time_point t = Clock::now();
    in = SetUp(args.seed, clinic_records, args.work_dir + "/state");
    rec.setup_s.push_back(Since(t));
  }
  const uint32_t bits = static_cast<uint32_t>(in.queries.bits.num_bits());
  const EncodedDatabase registry_rows = EncodedDatabaseFromShard(in.registry);

  // The never-crashed reference: the registry appended in journal order,
  // then (per acknowledged append count) the clinic's records.
  std::map<size_t, std::vector<OnlineQueryResult>> closed_answers;
  auto reference_answers = [&](size_t appended, size_t count) {
    OnlineLinkageEngine engine(bits);
    ReferenceAppend(engine, engine.RegisterDatabase("registry"), registry_rows, 0, kRegistry);
    if (appended > 0) {
      ReferenceAppend(engine, engine.RegisterDatabase("clinic"), in.clinic_rows, 0, appended);
    }
    std::vector<OnlineQueryResult> answers;
    for (size_t i = 0; i < count; ++i) {
      answers.push_back(ReferenceQuery(engine, in.query_rows.filters[i]));
    }
    return answers;
  };
  const std::vector<OnlineQueryResult> probe_answers = reference_answers(0, kProbe);

  // Cycles: a few crash -> ready restarts, the last of which serves an open
  // loop and a closed loop. Spreading every phase over the whole run keeps
  // the medians steady on a machine whose speed drifts.
  std::vector<double> daemon_ready;  ///< traced run: every life after the warm-up
  double life_wire = 0, life_records = 0, client_retries = 0, appended = 0;
  double closed_appended = 0;
  double query_sum = 0, query_count = 0, insert_sum = 0, insert_count = 0, syncs = 0;
  double probe_candidates = 0;
  const Clock::time_point run_start = Clock::now();
  for (size_t cycle = 0;; ++cycle) {
    if (cycle >= kMinCycles && Since(run_start) >= args.seconds) break;
    const bool traced = args.trace && cycle > 0;
    const std::string dir = args.work_dir + "/life";
    Life life;
    for (size_t r = 0; r < kRestartsPerCycle; ++r) {
      if (life.server) {
        life.auditor->Close();
        life.server->Stop();
      }
      life = Restart(in, dir, rec);
      rec.result_s.push_back(life.crash_to_ready_s);
      if (traced) {
        daemon_ready.push_back(life.crash_to_ready_s);
        rec.dists["daemon.start_s"].push_back(life.start_s);
      }
    }
    if (cycle == 0) {
      ++rec.attempted;
      auto probe = life.auditor->QueryRows(in.queries, 0, kProbe, false, 0);
      if (!probe.ok()) Fatal("probe query failed: " + probe.status().ToString());
      for (size_t i = 0; i < kProbe; ++i) {
        CheckAnswer(probe->records[i], probe_answers[i], "recovered daemon");
      }
    }
    const uint16_t port = life.server->port();

    // Null round trips (traced): a zero-record append probe of a party
    // that is already registered, so nothing is journaled.
    if (traced) {
      OnlineLinkClient registry(ClientConfig(port));
      if (!registry.Connect("registry", bits).ok()) Fatal("registry failed to connect");
      auto& null_us = rec.dists["net.null_roundtrip_us"];
      for (size_t i = 0; i < kNullRoundtrips; ++i) {
        const Clock::time_point t = Clock::now();
        auto cursor = registry.ServerCursor();
        null_us.push_back(Since(t) * 1e6);
        if (!cursor.ok() || *cursor != kRegistry) Mismatch("registry cursor probe is wrong");
      }
      registry.Close();
    }

    const HistogramReading query0 = ReadHistogram("pprl_query_seconds");
    const HistogramReading insert0 = ReadHistogram("pprl_index_insert_seconds");
    const double syncs0 = ReadCounter("pprl_wal_syncs_total");
    OnlineLinkClient clinic(ClientConfig(port));
    if (!clinic.Connect("clinic", bits).ok()) Fatal("clinic failed to connect");
    OpenLoop open = DriveOpenLoop(in, port, clinic, kCycleOpenS, rec);
    rec.writes.insert(rec.writes.end(), open.writes.begin(), open.writes.end());
    rec.reads.insert(rec.reads.end(), open.reads.begin(), open.reads.end());
    if (traced) {
      auto& rtt = rec.dists["net.query_rtt_us"];
      rtt.insert(rtt.end(), open.read_rtt_us.begin(), open.read_rtt_us.end());
      const HistogramReading query1 = ReadHistogram("pprl_query_seconds");
      const HistogramReading insert1 = ReadHistogram("pprl_index_insert_seconds");
      query_sum += query1.sum - query0.sum;
      query_count += query1.count - query0.count;
      insert_sum += insert1.sum - insert0.sum;
      insert_count += insert1.count - insert0.count;
      syncs += ReadCounter("pprl_wal_syncs_total") - syncs0;
    }

    // Closed loop: one connection, 64 records per round trip. A first pass
    // over the query set runs with appends stopped, so its answers can be
    // checked; the timed passes then run beside the clinic's append stream
    // at its open-loop rate, so writes slow reads here as in production.
    std::vector<QueryRecordResult> first_pass;
    auto closed_pass = [&](std::vector<QueryRecordResult>* keep) {
      size_t records = 0;
      for (size_t row = 0; row < kQueries; row += kClosedBatch) {
        ++rec.attempted;
        auto answer = life.auditor->QueryRows(in.queries, row, row + kClosedBatch, false, 0);
        if (!answer.ok()) Fatal("closed-loop query failed: " + answer.status().ToString());
        records += answer->records.size();
        if (keep) {
          for (auto& record : answer->records) keep->push_back(std::move(record));
        }
      }
      return records;
    };
    size_t closed_records = closed_pass(&first_pass);
    std::vector<Request> closed_writes;
    size_t cursor = open.appended;
    std::atomic<uint64_t> append_failed{0};
    std::atomic<bool> stop{false};
    bool ran_out = false;
    const Clock::time_point appends_start = Clock::now();
    std::thread appender([&] {
      ran_out = AppendAtRate(clinic, in.clinic, open.appended, appends_start,
                             After(appends_start, 3600), stop, closed_writes, cursor,
                             append_failed);
    });
    size_t timed_records = 0;
    const Clock::time_point closed_start = Clock::now();
    for (size_t pass = 0; pass < kClosedPasses; ++pass) timed_records += closed_pass(nullptr);
    const double closed_s = Since(closed_start);
    stop.store(true);
    appender.join();
    if (ran_out) Fatal("the clinic's rows ran out before the closed loop ended");
    closed_records += timed_records;
    rec.throughput_rps.push_back(static_cast<double>(timed_records) / closed_s);
    rec.attempted += closed_writes.size() + append_failed.load();
    rec.failed += append_failed.load();
    closed_appended += static_cast<double>(cursor - open.appended);
    client_retries += open.retries + static_cast<double>(life.auditor->retries()) +
                      static_cast<double>(clinic.retries());
    clinic.Close();
    life.auditor->Close();
    life.server->Stop();
    RemoveDir(dir);
    malloc_trim(0);  // one daemon life per process in production
    // Every session has ended once Stop() returned, so the daemon's socket
    // counters are final; every record a client sent in this life counts.
    life_wire += static_cast<double>(life.server->wire_bytes_received() +
                                     life.server->wire_bytes_sent());
    life_records += static_cast<double>((cycle == 0 ? kProbe : 0) + 1 + cursor +
                                        open.queried + closed_records);

    // The closed-loop answers against an engine fed the same records in
    // the same order.
    auto it = closed_answers.find(open.appended);
    if (it == closed_answers.end()) {
      it = closed_answers.emplace(open.appended, reference_answers(open.appended, kQueries))
               .first;
    }
    for (size_t i = 0; i < kQueries; ++i) {
      CheckAnswer(first_pass[i], it->second[i], "closed-loop query");
    }
    if (cycle == 0) {
      rec.scalars["match_f1"] = MatchF1(in, first_pass, open.appended);
      for (const auto& record : first_pass) probe_candidates += record.candidates;
    }
    appended = static_cast<double>(open.appended);
  }
  rec.scalars["wire_bytes_per_record"] = life_wire / life_records;
  rec.scalars["appended_records_per_life"] = appended;
  rec.scalars["cycles"] = static_cast<double>(rec.result_s.size() / kRestartsPerCycle);
  rec.scalars["closed_loop_appended_per_life"] = closed_appended / rec.scalars["cycles"];

  if (args.trace) {
    auto& layers = rec.layers;
    const double replica_path = Replica(in, args.work_dir, static_cast<size_t>(appended),
                                        layers, rec.dists);
    layers["service.unattributed_s"] = Median(daemon_ready) - replica_path;
    layers["blocking.probe_candidates_mean"] = probe_candidates / kQueries;
    const double traced_cycles = static_cast<double>(daemon_ready.size() / kRestartsPerCycle);
    layers["net.wire_bytes"] = life_wire / rec.scalars["cycles"];
    layers["net.client_retries"] = client_retries;
    layers["obs.query_s_mean"] = query_count > 0 ? query_sum / query_count : 0;
    layers["obs.insert_s_mean"] = insert_count > 0 ? insert_sum / insert_count : 0;
    layers["obs.wal_syncs"] = traced_cycles > 0 ? syncs / traced_cycles : 0;
  }
  rec.scalars["peak_rss_kb"] = PeakRssKb();
  return rec;
}

}  // namespace pprl::perfbench
