#ifndef PPRL_IO_WAL_H_
#define PPRL_IO_WAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "encoding/clk_io.h"

namespace pprl::io {

/// PWAL — the online serving path's write-ahead log (docs/PROTOCOLS.md
/// Appendix B).
///
/// Every record the online daemon absorbs — a bulk shipment tail or a
/// protocol-v4 append batch — is journaled here BEFORE it is applied to the
/// in-memory engine and acknowledged to the owner, so a crash never loses
/// an acked record: restart = load the latest checkpoint, replay the WAL
/// suffix, and the daemon answers queries exactly as the uninterrupted
/// process would have.
///
/// Segment layout (all integers little-endian):
///
///   offset  size  field
///   0       4     magic 0x4C415750 ("PWAL")
///   4       4     version (currently 1)
///   8       8     start_sequence — sequence of the segment's first record
///   16      4     filter_bits — bit length of every journaled filter
///                 (1..65536, ValidateFilterBits)
///   20      4     reserved, must be 0
///   24      8     header checksum — FNV-1a-64 over bytes [0, 24)
///
/// followed by records, each:
///
///   0       4     payload_len
///   4       4     type (WalRecordType)
///   8       8     sequence — contiguous, ascending from start_sequence
///   16      8     payload checksum — FNV-1a-64 over the payload
///   24      8     record-header checksum — FNV-1a-64 over bytes [0, 24)
///   32      n     payload
///
/// The checksums are the same FNV-1a-64 the PCLK sections and protocol-v2
/// shipment chunks use, so at-rest corruption is caught the same way
/// everywhere. The record-header checksum exists so a bit-flipped
/// payload_len is reported as corruption instead of being mistaken for a
/// torn tail.
///
/// ## Torn tails vs corruption
///
/// A crash can tear the final record at any byte. The reader's taxonomy:
///  - fewer bytes remain than a full record header, or the header is intact
///    but the payload is short: a CLEAN TORN TAIL. The torn record was
///    never acknowledged (the ack follows the write), so the reader stops
///    and reports the dropped byte count — this is the normal post-crash
///    state, not an error.
///  - a complete record whose header or payload checksum mismatches, a
///    wrong magic, or an out-of-order sequence: CORRUPTION. The reader
///    fails with a typed error naming the file and byte offset and the
///    daemon refuses to start (never a silent partial load).
///
/// ## Durability contract
///
/// Append() hands the full record to the OS (one write() call) before
/// returning; the page cache survives a killed process, so a SIGKILL after
/// a successful Append() never loses the record. fsync cadence — the
/// `sync_every_ms` group-commit window — only bounds data loss on MACHINE
/// crashes (power loss): at most the last window of acked records.
inline constexpr uint32_t kWalMagic = 0x4C415750u;
inline constexpr uint32_t kWalVersion = 1;
inline constexpr size_t kWalHeaderBytes = 32;
inline constexpr size_t kWalRecordHeaderBytes = 32;
/// Sanity cap on one record's payload (a batch is split far below this).
inline constexpr uint32_t kWalMaxPayloadBytes = 1u << 30;

enum class WalRecordType : uint32_t {
  /// Registers a database by owner name. Registration order assigns the
  /// database indices the canonical cluster ids depend on, so it must be
  /// journaled exactly like the appends that reference it.
  kHello = 1,
  /// A batch of records appended to one database.
  kAppendBatch = 2,
};

/// One decoded WAL record.
struct WalRecord {
  uint32_t type = 0;
  uint64_t sequence = 0;
  uint64_t offset = 0;  ///< byte offset of the record header in the segment
  std::vector<uint8_t> payload;
};

/// A fully decoded and verified WAL segment.
struct WalSegment {
  uint32_t filter_bits = 0;
  uint64_t start_sequence = 0;
  std::vector<WalRecord> records;
  /// A clean torn tail: where it starts and how many bytes were dropped
  /// (0 when the segment ends exactly on a record boundary).
  uint64_t torn_offset = 0;
  uint64_t torn_bytes = 0;
};

/// Append-only writer over one segment file. Not thread-safe — the
/// durability layer serializes all journal operations.
class WalWriter {
 public:
  struct Options {
    /// Group-commit window: fsync at most once per this many milliseconds
    /// (<= 0 syncs after every append). See the durability contract above.
    int sync_every_ms = 50;
  };

  /// Creates (truncates) the segment and writes its header. The directory
  /// entry is fsynced so the segment survives a machine crash too.
  static Result<std::unique_ptr<WalWriter>> Create(const std::string& path,
                                                   uint32_t filter_bits,
                                                   uint64_t start_sequence,
                                                   Options options);
  ~WalWriter();
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Journals one record; returns its sequence. The record has reached the
  /// OS when this returns OK (see the durability contract).
  Result<uint64_t> Append(WalRecordType type, const uint8_t* payload,
                          size_t len);

  /// Forces an fsync now (used on graceful shutdown).
  Status Sync();

  const std::string& path() const { return path_; }
  uint64_t next_sequence() const { return next_sequence_; }
  uint64_t bytes_written() const { return bytes_written_; }
  uint64_t syncs() const { return syncs_; }

 private:
  WalWriter(int fd, std::string path, uint64_t start_sequence,
            Options options);

  int fd_ = -1;
  std::string path_;
  uint64_t next_sequence_ = 0;
  uint64_t bytes_written_ = 0;
  uint64_t syncs_ = 0;
  Options options_;
  /// Monotonic-clock time of the last fsync, for the group-commit window.
  int64_t last_sync_ns_ = 0;
};

/// Reads and verifies one segment (see the torn-tail taxonomy above).
Result<WalSegment> ReadWalFile(const std::string& path);

/// WAL segments in `dir` as (start_sequence, path), ascending. A missing
/// directory is an empty list, not an error.
Result<std::vector<std::pair<uint64_t, std::string>>> ListWalSegments(
    const std::string& dir);

/// Canonical segment filename: "<dir>/wal-<start_sequence>.pwal".
std::string WalSegmentPath(const std::string& dir, uint64_t start_sequence);

/// ---- Record payload codecs ----

/// kHello payload: u32 name length + owner name bytes.
std::vector<uint8_t> EncodeWalHello(const std::string& party);
Result<std::string> DecodeWalHello(const std::vector<uint8_t>& payload);

/// kAppendBatch payload: u32 database, u32 count, u32 filter_bits,
/// u32 reserved, then `count` packed records (encoding/clk_io.h).
struct WalAppendBatch {
  uint32_t database = 0;
  EncodedDatabase rows;
};
std::vector<uint8_t> EncodeWalAppendBatch(uint32_t database,
                                          const EncodedDatabase& rows,
                                          size_t begin, size_t end);
Result<WalAppendBatch> DecodeWalAppendBatch(const std::vector<uint8_t>& payload);

}  // namespace pprl::io

#endif  // PPRL_IO_WAL_H_
