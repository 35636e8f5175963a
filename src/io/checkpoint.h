#ifndef PPRL_IO_CHECKPOINT_H_
#define PPRL_IO_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "encoding/clk_io.h"

namespace pprl::io {

/// PCKP — checkpoint snapshots of the online serving state
/// (docs/PROTOCOLS.md Appendix B).
///
/// A checkpoint is one self-verifying file holding everything the online
/// engine needs to answer queries exactly as before a crash: the indexed
/// rows (a nested PCLK blob, reusing that codec's checksummed sections),
/// the database registry, the union-find cluster partition, and the LSH
/// band geometry. Band tables themselves are NOT stored: they are a
/// deterministic function of (geometry, seed, row sequence), so recovery
/// rebuilds them from the row section and verifies the rebuild against the
/// stored fingerprint-stream checksum — a drifted seed or geometry cannot
/// silently produce a different collision relation.
///
/// File layout (all integers little-endian):
///
///   offset  size  field
///   0       4     magic 0x504B4350 ("PCKP")
///   4       4     version (currently 1)
///   8       8     wal_sequence — last WAL record applied to this state;
///                 recovery replays only records with sequence > this
///   16      4     filter_bits (1..65536, ValidateFilterBits)
///   20      4     lsh_tables (1..1024, ValidateLshGeometry)
///   24      4     lsh_bits_per_key (1..64)
///   28      4     section count
///   32      8     lsh_seed
///   40      8     dice_threshold (IEEE-754 double bit pattern, in
///                 (0, 1], ValidateDiceThreshold)
///   48      8     reserved, must be 0
///   56      8     header checksum — FNV-1a-64 over bytes [0, 56)
///
/// followed by sections, each:
///
///   0       4     type (CheckpointSection)
///   4       4     reserved, must be 0
///   8       8     payload length
///   16      8     payload checksum — FNV-1a-64
///   24      8     section-header checksum — FNV-1a-64 over bytes [0, 24)
///   32      n     payload
///
/// Checkpoints are written with write-temp -> fsync -> atomic-rename ->
/// fsync-directory discipline: a crash mid-write leaves only a *.tmp file
/// that recovery ignores; once the canonical name exists it is complete.
enum class CheckpointSection : uint32_t {
  /// The indexed rows as a nested PCLK blob (ids + BitMatrix rows, row
  /// order = arrival order).
  kRows = 1,
  /// Database registry: u32 count, then per database u32 name length +
  /// name bytes + u32 record count. Index order = registration order.
  kDatabases = 2,
  /// Cluster partition: u64 row count, row_count x u32 union-find parent,
  /// row_count x u32 database index, packed linked bitmap
  /// (ceil(row_count/8) bytes), u64 accepted edges, u64 comparisons.
  kPartition = 3,
  /// LSH rebuild verification: u64 band checksum — the FNV-1a-64 fold
  /// over the little-endian band fingerprints of every row in (row, table)
  /// order, started from 1469598103934665603 (LshBandIndex::band_checksum).
  kLshState = 4,
};

inline constexpr uint32_t kCheckpointMagic = 0x504B4350u;
inline constexpr uint32_t kCheckpointVersion = 1;
inline constexpr size_t kCheckpointHeaderBytes = 64;
inline constexpr size_t kCheckpointSectionHeaderBytes = 32;

/// Everything a checkpoint stores — the online engine's exportable state.
/// `io` stays linkable without the linkage layer; the engine converts
/// to/from this struct (OnlineLinkageEngine::ExportSnapshot/FromSnapshot).
struct OnlineSnapshot {
  uint32_t filter_bits = 0;
  uint32_t lsh_tables = 0;
  uint32_t lsh_bits_per_key = 0;
  uint64_t lsh_seed = 0;
  double dice_threshold = 0;
  uint64_t wal_sequence = 0;

  std::vector<std::string> database_names;
  std::vector<uint32_t> database_sizes;

  EncodedShard rows;                   ///< ids + filters, arrival order
  std::vector<uint32_t> row_database;  ///< per row: owning database index
  std::vector<uint32_t> parent;        ///< union-find parents (parent[i] <= i)
  std::vector<uint8_t> linked;         ///< per row: has >= 1 accepted edge
  uint64_t edges = 0;
  uint64_t comparisons = 0;
  uint64_t band_checksum = 0;          ///< see CheckpointSection::kLshState
};

/// Serialises a snapshot (pure in-memory encode; see WriteCheckpointFile
/// for the atomic on-disk discipline).
std::vector<uint8_t> EncodeCheckpoint(const OnlineSnapshot& snapshot);

/// Full decode with checksum and cross-section consistency verification.
/// `origin` names the source in error messages (a path, typically).
Result<OnlineSnapshot> DecodeCheckpoint(const uint8_t* data, size_t size,
                                        const std::string& origin);

/// Writes `<dir>/checkpoint-<wal_sequence>.pckp` via a temp file, fsync,
/// atomic rename and directory fsync. On success `*final_path` (optional)
/// receives the canonical path.
Status WriteCheckpointFile(const std::string& dir,
                           const OnlineSnapshot& snapshot,
                           std::string* final_path = nullptr);

/// Reads and fully verifies a checkpoint file.
Result<OnlineSnapshot> ReadCheckpointFile(const std::string& path);

/// Checkpoint files in `dir` as (wal_sequence, path), ascending. Ignores
/// *.tmp leftovers of interrupted writes. A missing directory is an empty
/// list, not an error.
Result<std::vector<std::pair<uint64_t, std::string>>> ListCheckpoints(
    const std::string& dir);

/// Canonical checkpoint filename: "<dir>/checkpoint-<wal_sequence>.pckp".
std::string CheckpointPath(const std::string& dir, uint64_t wal_sequence);

}  // namespace pprl::io

#endif  // PPRL_IO_CHECKPOINT_H_
