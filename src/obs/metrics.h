#ifndef PPRL_OBS_METRICS_H_
#define PPRL_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace pprl::obs {

/// Lightweight metrics for the linkage pipeline and daemon — the runtime
/// counterpart of the survey's Figure 3 challenge axes: volume (pairs,
/// bytes), velocity (per-stage latency, queue depth), quality (matches,
/// pruned pairs) and privacy-relevant traffic (per-tag channel counters).
///
/// Design constraints, in order:
///   1. The fast path must be cheap enough to live inside the comparison
///      kernels' callers: incrementing a Counter is one relaxed atomic
///      add, no locks, no allocation.
///   2. Readers never stop writers: Snapshot() copies values with relaxed
///      loads while increments continue. A snapshot is weakly consistent
///      (it may interleave with concurrent updates) but every value in it
///      was true at some instant during the call.
///   3. Registration is the only locked operation. Callers look a metric
///      up once (the returned reference is stable for the registry's
///      lifetime) and hold the reference, so steady state never touches
///      the registry mutex.

/// Ordered (key, value) label pairs identifying one time series within a
/// metric family, e.g. {{"stage", "encode"}}.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// A monotonically increasing count (events, bytes, pairs).
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Increment(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// A value that can go up and down (queue depth, active sessions, the
/// seconds a recovery phase took). Counts stay exact up to 2^53.
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  void Sub(double n = 1) { value_.fetch_sub(n, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0};
};

/// A fixed-bucket distribution (latencies). Bucket upper bounds are set at
/// construction; an implicit +Inf bucket catches everything above the
/// largest bound. Observe() is lock-free: one atomic add on the matching
/// bucket, one on the count, and a CAS loop on the sum.
class Histogram {
 public:
  /// `upper_bounds` must be sorted ascending; Prometheus `le` semantics
  /// (an observation lands in the first bucket with value <= bound).
  explicit Histogram(std::vector<double> upper_bounds);
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Observe(double value);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  const std::vector<double>& upper_bounds() const { return upper_bounds_; }

  /// Per-bucket counts (size upper_bounds()+1, last is +Inf), NOT
  /// cumulative. Weakly consistent under concurrent Observe().
  std::vector<uint64_t> bucket_counts() const;

 private:
  std::vector<double> upper_bounds_;
  std::vector<std::atomic<uint64_t>> buckets_;  // upper_bounds_.size() + 1
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

enum class MetricType { kCounter, kGauge, kHistogram };

/// One exported time series, copied out of the registry by Snapshot().
struct MetricSnapshot {
  std::string name;
  std::string help;
  MetricType type = MetricType::kCounter;
  Labels labels;
  /// Counter/gauge value (counters as non-negative integers in double).
  double value = 0;
  /// Histogram only: bucket upper bounds (+Inf implicit) and *cumulative*
  /// per-bucket counts (size bounds+1), plus total count and sum.
  std::vector<double> bounds;
  std::vector<uint64_t> cumulative_counts;
  uint64_t count = 0;
  double sum = 0;
};

/// Thread-safe named-metric registry. GetX() registers on first use and
/// returns the existing instrument on every later call with the same
/// (name, labels); references stay valid for the registry's lifetime.
/// Re-registering a name+labels under a different type is a programming
/// error and returns a detached instrument that is never exported (so the
/// caller's increments are safe no-ops rather than corrupt exposition).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& GetCounter(const std::string& name, const std::string& help,
                      const Labels& labels = {});
  Gauge& GetGauge(const std::string& name, const std::string& help,
                  const Labels& labels = {});
  /// `upper_bounds` is only used on first registration of this series.
  Histogram& GetHistogram(const std::string& name, const std::string& help,
                          std::vector<double> upper_bounds, const Labels& labels = {});

  /// Copies every registered series, sorted by (name, labels) so families
  /// render contiguously. Weakly consistent (see file comment).
  std::vector<MetricSnapshot> Snapshot() const;

  /// Number of registered series (for tests).
  size_t size() const;

 private:
  struct Entry {
    MetricType type;
    std::string name;
    std::string help;
    Labels labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry* FindOrNull(const std::string& key);

  mutable std::mutex mutex_;
  /// Keyed by name + 0x1f + serialized labels; map nodes give the stable
  /// addresses the returned references rely on.
  std::map<std::string, Entry> entries_;
  /// Parking lot for type-mismatched re-registrations (never exported).
  std::vector<std::unique_ptr<Counter>> orphan_counters_;
  std::vector<std::unique_ptr<Gauge>> orphan_gauges_;
  std::vector<std::unique_ptr<Histogram>> orphan_histograms_;
};

/// The process-wide registry every instrumented subsystem reports into.
MetricsRegistry& GlobalMetrics();

/// Exponential latency buckets from 100 µs to 10 s — the default for every
/// *_seconds histogram in the codebase.
const std::vector<double>& DefaultLatencyBuckets();

}  // namespace pprl::obs

#endif  // PPRL_OBS_METRICS_H_
