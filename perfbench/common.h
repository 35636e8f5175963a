#ifndef PPRL_PERFBENCH_COMMON_H_
#define PPRL_PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/record.h"
#include "encoding/bloom_filter.h"
#include "encoding/clk_io.h"

namespace pprl::perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds between two steady-clock instants.
inline double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Seconds since `start`.
inline double Since(Clock::time_point start) { return Seconds(start, Clock::now()); }

/// Command line of the benchmark binary (run.py passes every flag).
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;  ///< scratch space inside the checkout
  std::string out_path;  ///< raw measurement file read by run.py
};

/// One request of a workload: when it was due, when the generator sent it
/// and when its answer arrived, in seconds since the phase's epoch.
/// Latency is done - due; generator lateness is sent - due.
struct Request {
  double due = 0;
  double sent = 0;
  double done = 0;
};

/// Everything one run measured, written as JSON for run.py, which owns the
/// statistics and the output contract.
struct RunRecord {
  std::string workload;
  uint64_t seed = 0;
  bool trace = false;
  std::map<std::string, double> inputs;   ///< input sizes and parameters
  std::vector<double> setup_s;            ///< one per set-up repetition
  std::vector<double> result_s;           ///< the headline path, per repeat
  std::vector<double> throughput_rps;     ///< records/s, per repeat
  std::vector<Request> writes;
  std::vector<Request> reads;
  std::map<std::string, double> scalars;  ///< match_f1, wire bytes, ...
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Traced run only: per-layer values and raw per-call distributions.
  std::map<std::string, double> layers;
  std::map<std::string, std::vector<double>> dists;
};

/// Serialises `record` (plus host facts) as JSON to `path`.
bool WriteRunRecord(const std::string& path, const RunRecord& record);

/// Prints `message` and ends the process with exit code 3: the program
/// under test produced a wrong answer, which aborts the run.
[[noreturn]] void Mismatch(const std::string& message);

/// Ends the process with exit code 2 for a benchmark-side error.
[[noreturn]] void Fatal(const std::string& message);

/// Peak resident set size of this process, in KiB.
double PeakRssKb();

/// Median of a copy of `values` (0 when empty).
double Median(std::vector<double> values);

/// Creates `dir` (and parents); removes it first when `fresh`.
void MakeDir(const std::string& dir, bool fresh);
void RemoveDir(const std::string& dir);
/// Copies every regular file of `from` into the (new) directory `to`.
void CopyDir(const std::string& from, const std::string& to);

/// Datagen scenario with the benchmark's defaults: overlap 0.5, default
/// corruption, every database `records` long.
std::vector<Database> GenerateDatabases(uint64_t seed, size_t databases, size_t records);

/// The unkeyed CLK encoder every pre-encoded input uses (1000 bits, double
/// hashing, the pipeline's default fields).
ClkEncoder DefaultEncoder();
/// The README's shared-secret flow: keyed-HMAC CLKs.
ClkEncoder KeyedEncoder();

/// Encodes every record of `db` on `threads` threads into one shard whose
/// ids are the record ids. Set-up only.
EncodedShard EncodeParallel(const ClkEncoder& encoder, const Database& db, size_t threads);

/// Sum and count of a histogram series (name + one label) in the global
/// metrics registry, and a counter's value — the production metrics the
/// traced run reads back as cross-checks.
struct HistogramReading {
  double sum = 0;
  double count = 0;
};
HistogramReading ReadHistogram(const std::string& name, const std::string& label_key = "",
                               const std::string& label_value = "");
double ReadCounter(const std::string& name);

}  // namespace pprl::perfbench

#endif  // PPRL_PERFBENCH_COMMON_H_
