/// pprl_clk — inspect and convert encoded-CLK shard files.
///
/// The linkage workflow moves shards around as files: the interchange CSV
/// (id, bits, clk — encoding/clk_io.h) and the binary columnar PCLK format
/// (io/pclk.h). This tool is the operator's lens on both:
///
///   pprl_clk info   <shard>             header/geometry summary
///   pprl_clk head   <shard> [n]         first n rows (default 10)
///   pprl_clk tail   <shard> [n]         last n rows (default 10)
///   pprl_clk sample <shard> [n] [seed]  n uniformly sampled rows
///   pprl_clk tocsv  <shard> <out.csv>   convert to interchange CSV
///   pprl_clk fromcsv <in.csv> <out.pclk>  convert to PCLK
///
/// For PCLK inputs, info reads only the 64-byte header, and head/tail/
/// sample seek straight to the requested rows (row-slice addressing) — a
/// multi-gigabyte shard answers in milliseconds. CSV inputs are loaded in
/// full through the streaming reader first.
///
/// Row listings print: row index, record id, popcount, and the first bytes
/// of the filter as hex (little-endian byte order, bit 0 = LSB of byte 0).

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "encoding/clk_io.h"
#include "io/checkpoint.h"
#include "io/ingest.h"
#include "io/pclk.h"
#include "io/wal.h"

#include "parse_number.h"

using namespace pprl;

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: pprl_clk <command> ...\n"
               "  pprl_clk info    <shard>\n"
               "  pprl_clk head    <shard> [n]\n"
               "  pprl_clk tail    <shard> [n]\n"
               "  pprl_clk sample  <shard> [n] [seed]\n"
               "  pprl_clk tocsv   <shard> <out.csv>\n"
               "  pprl_clk fromcsv <in.csv> <out.pclk>\n"
               "  pprl_clk verify  <file>\n"
               "  pprl_clk --help\n"
               "shard files may be PCLK (io/pclk.h) or interchange CSV\n"
               "(id, bits, clk); the format is sniffed from the content.\n"
               "verify checks every checksum of a PCLK shard, PCKP\n"
               "checkpoint or PWAL write-ahead-log segment offline and\n"
               "reports the first corrupt offset; a torn WAL tail (the\n"
               "normal post-crash artifact) is reported but passes.\n"
               "verify exits 0 (valid), 1 (corrupt) or 2 (usage).\n"
               "n (default 10) and seed (default 42) are base-10 integers\n"
               "in [0, 2^64 - 1]; anything else exits 2.\n");
  return 2;
}

/// Hex preview of the first bytes of a filter row ("a1b2c3... "), enough
/// to eyeball corruption or compare two rows, never the whole filter.
std::string RowPreview(const BitMatrix& bits, size_t row) {
  const size_t filter_bytes = (bits.num_bits() + 7) / 8;
  const size_t preview = filter_bytes < 16 ? filter_bytes : 16;
  const uint64_t* words = bits.row(row);
  std::string out;
  out.reserve(2 * preview + 3);
  static const char kHex[] = "0123456789abcdef";
  for (size_t b = 0; b < preview; ++b) {
    const uint8_t byte =
        static_cast<uint8_t>(words[b / 8] >> (8 * (b % 8)));
    out.push_back(kHex[byte >> 4]);
    out.push_back(kHex[byte & 0xF]);
  }
  if (preview < filter_bytes) out += "...";
  return out;
}

void PrintRows(const EncodedShard& shard, uint64_t first_index) {
  std::printf("%10s %20s %9s  %s\n", "row", "id", "popcount", "clk (hex)");
  for (size_t i = 0; i < shard.size(); ++i) {
    std::printf("%10" PRIu64 " %20" PRIu64 " %9zu  %s\n",
                first_index + i, shard.ids[i], shard.bits.row_count(i),
                RowPreview(shard.bits, i).c_str());
  }
}

/// Loads rows [begin, begin + count) of `path`. PCLK files are sliced by
/// offset arithmetic; CSV files are loaded whole and trimmed.
Result<EncodedShard> LoadSlice(const std::string& path, uint64_t begin,
                               uint64_t count) {
  if (io::DetectShardFileFormat(path) == io::ShardFileFormat::kPclk) {
    return io::ReadPclkSlice(path, begin, count);
  }
  auto shard = io::ReadCsvShard(path);
  if (!shard.ok()) return shard.status();
  if (begin > shard->size() || count > shard->size() - begin) {
    return Status::OutOfRange("row range [" + std::to_string(begin) + ", " +
                              std::to_string(begin + count) +
                              ") exceeds shard of " +
                              std::to_string(shard->size()) + " rows");
  }
  EncodedShard slice;
  slice.ids.assign(shard->ids.begin() + begin,
                   shard->ids.begin() + begin + count);
  slice.bits = BitMatrix(count, shard->bits.num_bits());
  for (uint64_t i = 0; i < count; ++i) {
    std::memcpy(slice.bits.mutable_row(i), shard->bits.row(begin + i),
                shard->bits.words_per_row() * 8);
  }
  slice.bits.RecomputeCounts();
  return slice;
}

/// Total rows in `path` without loading a PCLK file's data sections.
Result<uint64_t> CountRows(const std::string& path) {
  if (io::DetectShardFileFormat(path) == io::ShardFileFormat::kPclk) {
    auto info = io::ReadPclkInfo(path);
    if (!info.ok()) return info.status();
    return info->row_count;
  }
  auto shard = io::ReadCsvShard(path);
  if (!shard.ok()) return shard.status();
  return static_cast<uint64_t>(shard->size());
}

int CmdInfo(const std::string& path) {
  const io::ShardFileFormat format = io::DetectShardFileFormat(path);
  if (format == io::ShardFileFormat::kPclk) {
    auto info = io::ReadPclkInfo(path);
    if (!info.ok()) {
      std::fprintf(stderr, "%s\n", info.status().ToString().c_str());
      return 1;
    }
    std::printf("format:       pclk (version %u)\n", info->version);
    std::printf("rows:         %" PRIu64 "\n", info->row_count);
    std::printf("filter bits:  %u\n", info->filter_bits);
    std::printf("row stride:   %u bytes\n", info->row_stride_bytes);
    std::printf("popcounts:    %s\n",
                info->has_popcounts() ? "present" : "absent");
    std::printf("file size:    %" PRIu64 " bytes\n", info->total_bytes());
    return 0;
  }
  auto shard = io::ReadCsvShard(path);
  if (!shard.ok()) {
    std::fprintf(stderr, "%s\n", shard.status().ToString().c_str());
    return 1;
  }
  std::printf("format:       csv (interchange: id, bits, clk)\n");
  std::printf("rows:         %zu\n", shard->size());
  std::printf("filter bits:  %zu\n", shard->bits.num_bits());
  return 0;
}

int CmdHeadTail(const std::string& path, uint64_t n, bool tail) {
  auto total = CountRows(path);
  if (!total.ok()) {
    std::fprintf(stderr, "%s\n", total.status().ToString().c_str());
    return 1;
  }
  if (n > *total) n = *total;
  const uint64_t begin = tail ? *total - n : 0;
  auto slice = LoadSlice(path, begin, n);
  if (!slice.ok()) {
    std::fprintf(stderr, "%s\n", slice.status().ToString().c_str());
    return 1;
  }
  PrintRows(*slice, begin);
  return 0;
}

int CmdSample(const std::string& path, uint64_t n, uint64_t seed) {
  auto total = CountRows(path);
  if (!total.ok()) {
    std::fprintf(stderr, "%s\n", total.status().ToString().c_str());
    return 1;
  }
  if (n > *total) n = *total;
  // Sample row indices without replacement, then fetch each row as a
  // one-row slice (PCLK answers each by a few seeks).
  std::mt19937_64 rng(seed);
  std::vector<uint64_t> indices(*total);
  for (uint64_t i = 0; i < *total; ++i) indices[i] = i;
  for (uint64_t i = 0; i < n; ++i) {
    std::uniform_int_distribution<uint64_t> pick(i, *total - 1);
    std::swap(indices[i], indices[pick(rng)]);
  }
  indices.resize(n);
  std::printf("%10s %20s %9s  %s\n", "row", "id", "popcount", "clk (hex)");
  for (uint64_t row : indices) {
    auto slice = LoadSlice(path, row, 1);
    if (!slice.ok()) {
      std::fprintf(stderr, "%s\n", slice.status().ToString().c_str());
      return 1;
    }
    std::printf("%10" PRIu64 " %20" PRIu64 " %9zu  %s\n", row,
                slice->ids[0], slice->bits.row_count(0),
                RowPreview(slice->bits, 0).c_str());
  }
  return 0;
}

int CmdConvert(const std::string& in, const std::string& out,
               io::ShardFileFormat out_format) {
  io::IngestStats stats;
  auto shard = io::ReadShardAuto(in, io::ShardFileFormat::kAuto, &stats);
  if (!shard.ok()) {
    std::fprintf(stderr, "%s\n", shard.status().ToString().c_str());
    return 1;
  }
  const Status written = io::WriteShardFile(out, *shard, out_format);
  if (!written.ok()) {
    std::fprintf(stderr, "%s\n", written.ToString().c_str());
    return 1;
  }
  std::printf("wrote %zu rows (%zu bits each) to %s as %s\n", shard->size(),
              shard->bits.num_bits(), out.c_str(),
              io::ShardFileFormatName(out_format));
  return 0;
}

/// Offline checksum validation of the durable formats. Sniffs the magic,
/// runs the format's full decoder (the same typed-error paths the daemon
/// refuses startup with), and reports what it found. The decoders name
/// the first corrupt offset in their error text.
int CmdVerify(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  uint32_t magic = 0;
  const size_t got = std::fread(&magic, 1, sizeof(magic), file);
  std::fclose(file);
  if (got != sizeof(magic)) {
    std::fprintf(stderr, "%s: too short to hold any known magic\n",
                 path.c_str());
    return 1;
  }

  if (magic == io::kPclkMagic) {
    auto shard = io::ReadPclkFile(path);
    if (!shard.ok()) {
      std::fprintf(stderr, "CORRUPT pclk: %s\n",
                   shard.status().ToString().c_str());
      return 1;
    }
    std::printf("pclk OK: %zu rows x %zu bits, all checksums verified\n",
                shard->size(), shard->bits.num_bits());
    return 0;
  }
  if (magic == io::kCheckpointMagic) {
    auto snapshot = io::ReadCheckpointFile(path);
    if (!snapshot.ok()) {
      std::fprintf(stderr, "CORRUPT checkpoint: %s\n",
                   snapshot.status().ToString().c_str());
      return 1;
    }
    std::printf("checkpoint OK: %zu records of %zu databases, covers WAL "
                "sequence %" PRIu64 ", all checksums verified\n",
                snapshot->rows.size(), snapshot->database_names.size(),
                snapshot->wal_sequence);
    return 0;
  }
  if (magic == io::kWalMagic) {
    auto segment = io::ReadWalFile(path);
    if (!segment.ok()) {
      std::fprintf(stderr, "CORRUPT wal: %s\n",
                   segment.status().ToString().c_str());
      return 1;
    }
    std::printf("wal OK: %zu records (sequences %" PRIu64 "..%" PRIu64
                "), all checksums verified\n",
                segment->records.size(), segment->start_sequence,
                segment->records.empty()
                    ? segment->start_sequence
                    : segment->records.back().sequence);
    if (segment->torn_bytes > 0) {
      // Normal after a crash mid-append: recovery drops the same bytes.
      std::printf("wal note: torn tail of %" PRIu64 " bytes at offset %" PRIu64
                  " (incomplete final append; dropped on recovery)\n",
                  segment->torn_bytes, segment->torn_offset);
    }
    return 0;
  }
  std::fprintf(stderr,
               "%s: magic 0x%08x is none of pclk/checkpoint/wal "
               "(csv files have no checksums to verify)\n",
               path.c_str(), magic);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && (std::strcmp(argv[1], "--help") == 0 ||
                   std::strcmp(argv[1], "-h") == 0)) {
    Usage();
    return 0;
  }
  if (argc < 3) return Usage();
  const std::string command = argv[1];
  const std::string path = argv[2];

  if (command == "info") return CmdInfo(path);
  if (command == "verify") return CmdVerify(path);
  constexpr uint64_t kMaxU64 = std::numeric_limits<uint64_t>::max();
  uint64_t n = 10;
  if ((command == "head" || command == "tail" || command == "sample") && argc > 3 &&
      !examples::ParseNumber("[n]", argv[3], 0, kMaxU64, &n)) {
    return 2;
  }
  if (command == "head" || command == "tail") {
    return CmdHeadTail(path, n, command == "tail");
  }
  if (command == "sample") {
    uint64_t seed = 42;
    if (argc > 4 && !examples::ParseNumber("[seed]", argv[4], 0, kMaxU64, &seed)) {
      return 2;
    }
    return CmdSample(path, n, seed);
  }
  if (command == "tocsv" && argc > 3) {
    return CmdConvert(path, argv[3], io::ShardFileFormat::kCsv);
  }
  if (command == "fromcsv" && argc > 3) {
    return CmdConvert(path, argv[3], io::ShardFileFormat::kPclk);
  }
  return Usage();
}
