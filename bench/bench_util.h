#ifndef PPRL_BENCH_BENCH_UTIL_H_
#define PPRL_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "common/cache_info.h"
#include "crypto/hash.h"
#include "datagen/generator.h"
#include "linkage/compare_kernels.h"
#include "obs/export.h"
#include "pipeline/channel.h"

namespace pprl::bench {

/// Prints a Markdown-style table header: "| col1 | col2 | ... |".
inline void PrintHeader(const std::vector<std::string>& columns) {
  std::string line = "|";
  std::string rule = "|";
  for (const auto& c : columns) {
    line += " " + c + " |";
    rule += std::string(c.size() + 2, '-') + "|";
  }
  std::printf("%s\n%s\n", line.c_str(), rule.c_str());
}

/// Prints one row of formatted cells.
inline void PrintRow(const std::vector<std::string>& cells) {
  std::string line = "|";
  for (const auto& c : cells) line += " " + c + " |";
  std::printf("%s\n", line.c_str());
}

inline std::string Fmt(double v, int precision = 3) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

inline std::string Fmt(size_t v) { return std::to_string(v); }

/// Prints a channel's communication-cost breakdown as one table row per
/// tag: messages and bytes. In-process and socket-transport runs meter
/// into the same `Channel` interface, so their cost tables are directly
/// comparable (the socket path's frame headers are excluded here and
/// reported by the transport as wire bytes).
inline void PrintChannelCosts(const Channel& channel, const std::string& label) {
  std::printf("\ncommunication cost (%s): %zu messages, %.1f KiB\n", label.c_str(),
              channel.total_messages(),
              static_cast<double>(channel.total_bytes()) / 1024.0);
  PrintHeader({"tag", "messages", "KiB"});
  const auto messages = channel.messages_by_tag();
  for (const auto& [tag, bytes] : channel.bytes_by_tag()) {
    const auto it = messages.find(tag);
    PrintRow({tag, Fmt(it == messages.end() ? size_t{0} : it->second),
              Fmt(static_cast<double>(bytes) / 1024.0, 1)});
  }
}

/// The host and source a committed BENCH_*.json was measured on, as JSON
/// object members (no braces): cores, CPU model, L1d/L2/LLC bytes
/// (DetectCacheInfo), the ISA the code dispatches on (the CPU flags the
/// clones test, and the compare-kernel and SHA-256 clone this process
/// runs) and the commit from `git describe --always --dirty` run in the
/// current directory ("unknown" outside a checkout).
inline std::string ProvenanceJsonMembers() {
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0 && line.find(':') != std::string::npos) {
      cpu = line.substr(line.find(':') + 2);
      break;
    }
  }
  std::string commit;
  const char* describe = "git describe --always --dirty --abbrev=12 2>/dev/null";
  if (std::FILE* git = popen(describe, "r")) {
    char buf[128];
    while (std::fgets(buf, sizeof(buf), git) != nullptr) commit += buf;
    pclose(git);
  }
  while (!commit.empty() && (commit.back() == '\n' || commit.back() == '\r')) {
    commit.pop_back();
  }
  if (commit.empty()) commit = "unknown";
  bool popcnt = false, avx2 = false, avx512vpopcntdq = false, sha = false;
#if defined(__x86_64__) && defined(__GNUC__)
  __builtin_cpu_init();
  popcnt = __builtin_cpu_supports("popcnt");
  avx2 = __builtin_cpu_supports("avx2");
  avx512vpopcntdq = __builtin_cpu_supports("avx512vpopcntdq");
  sha = __builtin_cpu_supports("sha");
#endif
  const auto flag = [](bool on) { return on ? "true" : "false"; };
  const char* kernel_clone = "portable";
  switch (SupportedKernelClones().back()) {
    case KernelClone::kPopcnt:
      kernel_clone = "popcnt";
      break;
    case KernelClone::kAvx512:
      kernel_clone = "avx512";
      break;
    case KernelClone::kPortable:
      break;
  }
  const char* sha256_clone =
      SupportedSha256Clones().back() == Sha256Clone::kShaNi ? "sha-ni" : "portable";
  const CacheInfo& cache = DetectCacheInfo();
  char out[768];
  std::snprintf(out, sizeof(out),
                "\"cores\": %u, \"cpu_model\": \"%s\", \"l1d_bytes\": %zu, "
                "\"l2_bytes\": %zu, \"llc_bytes\": %zu, \"isa\": {\"popcnt\": %s, "
                "\"avx2\": %s, \"avx512vpopcntdq\": %s, \"sha\": %s}, "
                "\"kernel_clone\": \"%s\", \"sha256_clone\": \"%s\", \"commit\": \"%s\"",
                std::thread::hardware_concurrency(), cpu.c_str(), cache.l1d_bytes,
                cache.l2_bytes, cache.llc_bytes, flag(popcnt), flag(avx2),
                flag(avx512vpopcntdq), flag(sha), kernel_clone, sha256_clone,
                commit.c_str());
  return out;
}

/// The spread of a figure over repeated timed runs: the median and the
/// quartiles (the medians of the runs below and above it). On a shared
/// host one run can read half or double the next, so a single run or a
/// best-of-N figure cannot tell two builds apart.
struct Spread {
  double median = 0;
  double p25 = 0;
  double p75 = 0;
};

/// The median and quartiles of `samples` (one per timed run; not empty).
inline Spread MedianAndQuartiles(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return {samples[n / 2], samples[n / 4], samples[n - 1 - n / 4]};
}

/// A bench's scratch directory: a fresh one under $TMPDIR (or /tmp when
/// it is unset), removed with everything in it when the bench returns, on
/// every path. `path()` is empty if it could not be created.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& prefix) {
    const char* tmp = std::getenv("TMPDIR");
    std::string pattern = std::string(tmp != nullptr && *tmp != '\0' ? tmp : "/tmp") +
                          "/" + prefix + "-XXXXXX";
    if (::mkdtemp(pattern.data()) != nullptr) path_ = pattern;
  }
  ~ScratchDir() {
    std::error_code ignored;
    if (!path_.empty()) std::filesystem::remove_all(path_, ignored);
  }

  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Dumps the global metrics registry as JSON when PPRL_METRICS_JSON is
/// set; benches call this once at the end of main so a run's counters
/// (pairs compared, pruned, kernel dispatches) land next to its timings.
inline void DumpMetricsIfRequested() { obs::MaybeDumpMetricsJson(); }

/// Standard two-database scenario used across benches.
inline std::pair<Database, Database> TwoDatabases(size_t n, double corruption_mean,
                                                  uint64_t seed = 42,
                                                  double overlap = 0.5) {
  GeneratorConfig gc;
  gc.seed = seed;
  DataGenerator gen(gc);
  LinkageScenarioConfig scenario;
  scenario.records_per_database = n;
  scenario.overlap = overlap;
  scenario.corruption.mean_corruptions = corruption_mean;
  auto dbs = gen.GenerateScenario(scenario);
  return {std::move((*dbs)[0]), std::move((*dbs)[1])};
}

}  // namespace pprl::bench

#endif  // PPRL_BENCH_BENCH_UTIL_H_
