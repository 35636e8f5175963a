#include "service/durability.h"

#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <optional>
#include <utility>

#include "common/logging.h"
#include "net/fault_injection.h"
#include "obs/metrics.h"

namespace pprl {

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Rows per replay run of Recover. A run's rows are indexed before any of
/// them is probed, so a row's probe also walks past the later rows of its
/// run in the band chains; the bound keeps that walk, and the run's
/// memory, small.
constexpr size_t kReplayRunRows = LshBandIndex::kBulkBlockRows;

Status MkdirIfMissing(const std::string& dir) {
  if (dir.empty()) return Status::InvalidArgument("durability needs a directory");
  if (::mkdir(dir.c_str(), 0755) == 0 || errno == EEXIST) return Status::OK();
  return Status::IoError("cannot create directory " + dir + ": " +
                         std::strerror(errno));
}

struct DurabilityMetrics {
  obs::Counter& recovery_runs = obs::GlobalMetrics().GetCounter(
      "pprl_recovery_runs_total", "startup recoveries that found prior state");
  obs::Counter& replayed_records = obs::GlobalMetrics().GetCounter(
      "pprl_recovery_replayed_records_total",
      "records re-applied from WAL replay during recovery");
  obs::Gauge& checkpoint_seconds = RecoverySeconds("checkpoint");
  obs::Gauge& replay_seconds = RecoverySeconds("replay");

  static obs::Gauge& RecoverySeconds(const char* phase) {
    return obs::GlobalMetrics().GetGauge(
        "pprl_recovery_seconds",
        "seconds the last startup recovery spent per phase (checkpoint: read "
        "and restore the newest checkpoint; replay: read the WAL and apply its "
        "tail)",
        {{"phase", phase}});
  }
};

DurabilityMetrics& Metrics() {
  static DurabilityMetrics metrics;
  return metrics;
}

}  // namespace

OnlineDurability::OnlineDurability(DurabilityConfig config)
    : config_(std::move(config)) {
  if (config_.checkpoint_dir.empty()) config_.checkpoint_dir = config_.wal_dir;
  if (config_.wal_batch_records == 0) config_.wal_batch_records = 512;
}

Status OnlineDurability::Recover(std::unique_ptr<OnlineLinkageEngine>* engine,
                                 RecoveryReport* report) {
  std::lock_guard<std::mutex> lock(mutex_);
  const Clock::time_point start = Clock::now();
  PPRL_RETURN_IF_ERROR(MkdirIfMissing(config_.wal_dir));
  PPRL_RETURN_IF_ERROR(MkdirIfMissing(config_.checkpoint_dir));
  engine->reset();
  *report = RecoveryReport();

  // Recovery ends before the listener binds, and the online role has no
  // link pool, so the engine is rebuilt on a pool of its own.
  std::optional<ShardScheduler> owned_pool;
  ShardScheduler* pool = CallPool(nullptr, ShardScheduler::HardwareThreads(), owned_pool);

  auto checkpoints = io::ListCheckpoints(config_.checkpoint_dir);
  if (!checkpoints.ok()) return checkpoints.status();
  uint64_t last_sequence = 0;
  if (!checkpoints->empty()) {
    const std::string& path = checkpoints->back().second;
    auto snapshot = io::ReadCheckpointFile(path);
    if (!snapshot.ok()) return snapshot.status();
    auto restored =
        OnlineLinkageEngine::FromSnapshot(*snapshot, config_.serving_options, pool);
    if (!restored.ok()) return restored.status();
    *engine = std::move(*restored);
    last_sequence = snapshot->wal_sequence;
    report->checkpoint_loaded = true;
    report->checkpoint_path = path;
    report->checkpoint_records = snapshot->rows.size();
  }
  report->checkpoint_seconds = SecondsSince(start);
  const Clock::time_point replay_start = Clock::now();

  // Consecutive append batches are applied in runs of up to kReplayRunRows
  // rows (AppendRun), across batch, hello and segment boundaries: a run
  // leaves the state of per-record appends, so consecutive runs equal one
  // long run. A run holds one filter width; a batch of another width than
  // the engine's is applied on its own right away, so replay fails on it
  // exactly where per-record appends would.
  std::vector<uint32_t> run_databases;
  EncodedShard run;
  const auto apply_run = [&]() -> Status {
    if (run_databases.empty()) return Status::OK();
    const Status applied = (*engine)->AppendRun(run_databases, run, pool);
    run_databases.clear();
    run.ids.clear();
    run.bits = BitMatrix(0, run.bits.num_bits());
    return applied;
  };
  auto segments = io::ListWalSegments(config_.wal_dir);
  if (!segments.ok()) return segments.status();
  for (const auto& [start_seq, path] : *segments) {
    auto segment = io::ReadWalFile(path);
    if (!segment.ok()) return segment.status();
    report->torn_bytes_dropped += segment->torn_bytes;
    if (*engine != nullptr &&
        segment->filter_bits != (*engine)->filter_bits()) {
      return Status::ProtocolViolation(
          "WAL segment " + path + " declares " +
          std::to_string(segment->filter_bits) +
          "-bit filters; the recovered state uses " +
          std::to_string((*engine)->filter_bits()));
    }
    bool replayed_any = false;
    for (const io::WalRecord& record : segment->records) {
      if (record.sequence <= last_sequence) continue;  // checkpoint covers it
      if (record.sequence != last_sequence + 1) {
        return Status::ProtocolViolation(
            "WAL gap: segment " + path + " continues at sequence " +
            std::to_string(record.sequence) + ", durable state ends at " +
            std::to_string(last_sequence));
      }
      if (*engine == nullptr) {
        *engine = std::make_unique<OnlineLinkageEngine>(
            segment->filter_bits, config_.serving_options);
      }
      switch (static_cast<io::WalRecordType>(record.type)) {
        case io::WalRecordType::kHello: {
          auto party = io::DecodeWalHello(record.payload);
          if (!party.ok()) return party.status();
          (*engine)->RegisterDatabase(*party);
          break;
        }
        case io::WalRecordType::kAppendBatch: {
          auto batch = io::DecodeWalAppendBatch(record.payload);
          if (!batch.ok()) return batch.status();
          if (batch->database >= (*engine)->database_count()) {
            return Status::ProtocolViolation(
                "WAL segment " + path + " record at offset " +
                std::to_string(record.offset) +
                " appends to an unregistered database");
          }
          const size_t bits = batch->rows.filters.front().size();  // count >= 1
          if (bits != run.bits.num_bits()) {
            PPRL_RETURN_IF_ERROR(apply_run());
            run.bits = BitMatrix(0, bits);
          }
          for (size_t i = 0; i < batch->rows.size(); ++i) {
            run_databases.push_back(batch->database);
            run.ids.push_back(batch->rows.ids[i]);
            run.bits.AppendRow(batch->rows.filters[i]);
            if (run_databases.size() == kReplayRunRows) PPRL_RETURN_IF_ERROR(apply_run());
          }
          if (bits != (*engine)->filter_bits()) PPRL_RETURN_IF_ERROR(apply_run());
          report->replayed_records += batch->rows.size();
          break;
        }
        default:
          return Status::ProtocolViolation(
              "WAL segment " + path + " record at offset " +
              std::to_string(record.offset) + " has unknown type " +
              std::to_string(record.type));
      }
      last_sequence = record.sequence;
      replayed_any = true;
    }
    if (replayed_any) ++report->replayed_segments;
  }
  PPRL_RETURN_IF_ERROR(apply_run());

  next_sequence_ = last_sequence + 1;
  report->wal_sequence = last_sequence;
  report->replay_seconds = SecondsSince(replay_start);
  report->seconds = SecondsSince(start);
  Metrics().checkpoint_seconds.Set(report->checkpoint_seconds);
  Metrics().replay_seconds.Set(report->replay_seconds);
  if (report->checkpoint_loaded || report->replayed_records > 0) {
    Metrics().recovery_runs.Increment();
    Metrics().replayed_records.Increment(report->replayed_records);
  }
  return Status::OK();
}

Status OnlineDurability::EnsureWalLocked(uint32_t filter_bits) {
  if (wal_ != nullptr) return Status::OK();
  io::WalWriter::Options options;
  options.sync_every_ms = config_.wal_sync_ms;
  auto writer =
      io::WalWriter::Create(io::WalSegmentPath(config_.wal_dir, next_sequence_),
                            filter_bits, next_sequence_, options);
  if (!writer.ok()) return writer.status();
  wal_ = std::move(*writer);
  return Status::OK();
}

Result<uint64_t> OnlineDurability::JournalLocked(
    io::WalRecordType type, const std::vector<uint8_t>& payload) {
  auto sequence = wal_->Append(type, payload.data(), payload.size());
  if (!sequence.ok()) return sequence.status();
  next_sequence_ = wal_->next_sequence();
  ++ops_total_;
  ++ops_since_checkpoint_;
  // The harshest boundary: the record is durable, the engine has not
  // applied it, the owner holds no ack. Recovery must replay it and the
  // re-driven client must be deduplicated by the record cursor.
  if (config_.crash_after_ops != 0 && ops_total_ >= config_.crash_after_ops) {
    InjectedCrash("durability op limit reached (--chaos-crash-after)");
  }
  return sequence;
}

Result<uint64_t> OnlineDurability::DurableAppend(OnlineLinkageEngine& engine,
                                                 const std::string& party,
                                                 const EncodedDatabase& records,
                                                 size_t begin, size_t end,
                                                 uint32_t* database_index) {
  // A batch the engine would reject must never reach the WAL: replay
  // would stop at it, and every later Recover would fail.
  if (records.ids.size() != records.filters.size() || begin > end ||
      end > records.size()) {
    return Status::InvalidArgument("append batch ids/filters size mismatch");
  }
  for (size_t i = begin; i < end; ++i) {
    if (records.filters[i].size() != engine.filter_bits()) {
      return Status::InvalidArgument(
          "append batch has a " + std::to_string(records.filters[i].size()) +
          "-bit filter; this engine uses " + std::to_string(engine.filter_bits()) +
          " bits");
    }
  }
  std::lock_guard<std::mutex> lock(mutex_);
  PPRL_RETURN_IF_ERROR(
      EnsureWalLocked(static_cast<uint32_t>(engine.filter_bits())));

  uint32_t db = 0;
  if (auto existing = engine.FindDatabase(party)) {
    db = *existing;
  } else {
    // Journal-then-apply, like every append: replay must re-register in
    // the same order, because the database index is durable state.
    auto journaled =
        JournalLocked(io::WalRecordType::kHello, io::EncodeWalHello(party));
    if (!journaled.ok()) return journaled.status();
    db = engine.RegisterDatabase(party);
  }
  *database_index = db;

  for (size_t i = begin; i < end; i += config_.wal_batch_records) {
    const size_t j = std::min(end, i + config_.wal_batch_records);
    auto journaled = JournalLocked(io::WalRecordType::kAppendBatch,
                                   io::EncodeWalAppendBatch(db, records, i, j));
    if (!journaled.ok()) return journaled.status();
    for (size_t k = i; k < j; ++k) {
      auto appended = engine.Append(db, records.ids[k], records.filters[k]);
      if (!appended.ok()) return appended.status();
    }
  }

  if (config_.checkpoint_every_n != 0 &&
      ops_since_checkpoint_ >= config_.checkpoint_every_n) {
    // A failed periodic checkpoint is not data loss — the WAL still holds
    // everything — so log and keep serving rather than failing the append.
    const Status checkpointed = CheckpointLocked(engine);
    if (!checkpointed.ok()) {
      PPRL_LOG(kWarning) << "periodic checkpoint failed (WAL remains "
                            "authoritative): "
                         << checkpointed.ToString();
    }
  }
  return static_cast<uint64_t>(engine.record_count(db));
}

Status OnlineDurability::Checkpoint(OnlineLinkageEngine& engine) {
  std::lock_guard<std::mutex> lock(mutex_);
  return CheckpointLocked(engine);
}

Status OnlineDurability::CheckpointLocked(OnlineLinkageEngine& engine) {
  const Clock::time_point start = Clock::now();
  const uint64_t covered = next_sequence_ - 1;
  const io::OnlineSnapshot snapshot = engine.ExportSnapshot(covered);
  std::string path;
  PPRL_RETURN_IF_ERROR(
      io::WriteCheckpointFile(config_.checkpoint_dir, snapshot, &path));

  // The snapshot covers every journaled record, so the whole WAL prefix —
  // every segment — is now redundant: close the writer and delete them. A
  // crash between the rename above and the deletes below only leaves
  // fully-covered segments behind, which recovery skips by sequence.
  wal_.reset();
  auto segments = io::ListWalSegments(config_.wal_dir);
  if (segments.ok()) {
    for (const auto& [start_seq, segment_path] : *segments) {
      ::unlink(segment_path.c_str());
    }
  }
  auto checkpoints = io::ListCheckpoints(config_.checkpoint_dir);
  if (checkpoints.ok()) {
    for (const auto& [seq, checkpoint_path] : *checkpoints) {
      if (checkpoint_path != path) ::unlink(checkpoint_path.c_str());
    }
  }
  ops_since_checkpoint_ = 0;
  PPRL_LOG(kInfo) << "checkpoint covering WAL sequence " << covered << " ("
                  << snapshot.rows.size() << " records) written to " << path
                  << " in " << SecondsSince(start) << " s";
  return Status::OK();
}

}  // namespace pprl
