#ifndef PPRL_SERVICE_DURABILITY_H_
#define PPRL_SERVICE_DURABILITY_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "common/status.h"
#include "encoding/clk_io.h"
#include "io/checkpoint.h"
#include "io/wal.h"
#include "linkage/online_linkage.h"

namespace pprl {

/// Tuning of the online durability layer (see docs/OPERATIONS.md for the
/// RPO/RTO runbook).
struct DurabilityConfig {
  /// WAL segment directory; enabling durability means setting this.
  std::string wal_dir;
  /// Checkpoint directory; empty defaults to `wal_dir`.
  std::string checkpoint_dir;
  /// Group-commit window for WAL fsyncs (<= 0 syncs every operation).
  /// Bounds data loss on MACHINE crashes only; a killed process never
  /// loses an acked record regardless (io/wal.h durability contract).
  int wal_sync_ms = 50;
  /// Checkpoint after this many journaled operations; 0 = only the final
  /// checkpoint on graceful shutdown.
  uint64_t checkpoint_every_n = 100000;
  /// Records per WAL append-batch record. Also the granularity of the
  /// crash-point ops counter, so keep it well below a shipment size.
  size_t wal_batch_records = 512;
  /// Crash-point injection: InjectedCrash() right after the n-th journaled
  /// operation (0 = never). Plumbed from FaultSpec::crash_after_ops.
  uint64_t crash_after_ops = 0;
  /// Serving knobs for a recovered engine (threshold and LSH geometry are
  /// durable state and come from the checkpoint itself).
  OnlineLinkageOptions serving_options;
};

/// What recovery found, for startup logging and the restart-latency gate.
struct RecoveryReport {
  bool checkpoint_loaded = false;
  std::string checkpoint_path;
  uint64_t checkpoint_records = 0;
  uint64_t replayed_segments = 0;
  uint64_t replayed_records = 0;
  uint64_t torn_bytes_dropped = 0;
  uint64_t wal_sequence = 0;  ///< last durable sequence after replay
  /// Crash -> ready by phase: reading the newest checkpoint and restoring
  /// the engine from it, then reading the WAL and applying its tail.
  double checkpoint_seconds = 0;
  double replay_seconds = 0;
  double seconds = 0;  ///< the whole Recover call
};

/// The online serving path's durability layer: journals every absorbed
/// record to a WAL before it is applied and acked, checkpoints the engine
/// periodically, and recovers checkpoint + WAL replay on startup
/// (docs/PROTOCOLS.md Appendix B has the formats and the recovery state
/// machine).
///
/// All journaling operations are serialized under one mutex: WAL order is
/// apply order, which is what makes replay reproduce the exact database
/// registration and row arrival sequence the canonical cluster ids depend
/// on. Queries never touch this class and stay concurrent.
class OnlineDurability {
 public:
  explicit OnlineDurability(DurabilityConfig config);

  /// Recovers prior state: loads the newest checkpoint (if any), replays
  /// every WAL record with a later sequence, and leaves `*engine` holding
  /// the rebuilt engine — or nullptr when no prior state exists. The
  /// checkpoint's index rebuild and the replay runs (AppendRun) share one
  /// pool of ShardScheduler::HardwareThreads() workers made for the call. Corrupt
  /// state fails with a typed error naming the file and offset; a torn
  /// WAL tail (the normal post-crash artifact) is dropped and reported.
  /// Read-only: recovery crashed and retried any number of times leaves
  /// the files untouched.
  Status Recover(std::unique_ptr<OnlineLinkageEngine>* engine,
                 RecoveryReport* report);

  /// Journals, applies and acks one batch: registers `party` on first use
  /// (journaled as a hello record — registration order is durable state),
  /// then journals rows [begin, end) of `records` in wal_batch_records
  /// chunks, each applied to the engine only after its WAL write returned.
  /// Returns the party's post-append record cursor. On a journal failure
  /// (disk full) nothing is applied and no ack must be sent — the engine
  /// never holds records the WAL does not. A batch with unequal ids and
  /// filters, a range outside it, or a row whose width is not the
  /// engine's is InvalidArgument before anything is journaled.
  Result<uint64_t> DurableAppend(OnlineLinkageEngine& engine,
                                 const std::string& party,
                                 const EncodedDatabase& records, size_t begin,
                                 size_t end, uint32_t* database_index);

  /// Writes a checkpoint now and rotates the WAL (graceful shutdown, or
  /// the every-n trigger). Deletes segments and older checkpoints the new
  /// snapshot covers.
  Status Checkpoint(OnlineLinkageEngine& engine);

  uint64_t ops_journaled() const { return ops_total_; }

 private:
  Status EnsureWalLocked(uint32_t filter_bits);
  Result<uint64_t> JournalLocked(io::WalRecordType type,
                                 const std::vector<uint8_t>& payload);
  Status CheckpointLocked(OnlineLinkageEngine& engine);

  DurabilityConfig config_;
  std::mutex mutex_;
  std::unique_ptr<io::WalWriter> wal_;
  uint64_t next_sequence_ = 1;
  uint64_t ops_since_checkpoint_ = 0;
  uint64_t ops_total_ = 0;
};

}  // namespace pprl

#endif  // PPRL_SERVICE_DURABILITY_H_
