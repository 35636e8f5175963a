#include "obs/metrics.h"

#include <algorithm>

namespace pprl::obs {

namespace {

/// Key = name + unit separator + k=v pairs; labels are part of the series
/// identity, the name alone identifies the family.
std::string SeriesKey(const std::string& name, const Labels& labels) {
  std::string key = name;
  for (const auto& [k, v] : labels) {
    key += '\x1f';
    key += k;
    key += '\x1e';
    key += v;
  }
  return key;
}

void AtomicAddDouble(std::atomic<double>& target, double delta) {
  double current = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(current, current + delta,
                                       std::memory_order_relaxed)) {
  }
}

}  // namespace

Histogram::Histogram(std::vector<double> upper_bounds)
    : upper_bounds_(std::move(upper_bounds)), buckets_(upper_bounds_.size() + 1) {}

void Histogram::Observe(double value) {
  const auto it =
      std::lower_bound(upper_bounds_.begin(), upper_bounds_.end(), value);
  const size_t bucket = static_cast<size_t>(it - upper_bounds_.begin());
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  AtomicAddDouble(sum_, value);
}

std::vector<uint64_t> Histogram::bucket_counts() const {
  std::vector<uint64_t> counts;
  counts.reserve(buckets_.size());
  for (const auto& b : buckets_) counts.push_back(b.load(std::memory_order_relaxed));
  return counts;
}

MetricsRegistry::Entry* MetricsRegistry::FindOrNull(const std::string& key) {
  const auto it = entries_.find(key);
  return it == entries_.end() ? nullptr : &it->second;
}

Counter& MetricsRegistry::GetCounter(const std::string& name, const std::string& help,
                                     const Labels& labels) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::string key = SeriesKey(name, labels);
  if (Entry* existing = FindOrNull(key)) {
    if (existing->type == MetricType::kCounter) return *existing->counter;
    orphan_counters_.push_back(std::make_unique<Counter>());
    return *orphan_counters_.back();
  }
  Entry entry;
  entry.type = MetricType::kCounter;
  entry.name = name;
  entry.help = help;
  entry.labels = labels;
  entry.counter = std::make_unique<Counter>();
  Counter& ref = *entry.counter;
  entries_.emplace(key, std::move(entry));
  return ref;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name, const std::string& help,
                                 const Labels& labels) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::string key = SeriesKey(name, labels);
  if (Entry* existing = FindOrNull(key)) {
    if (existing->type == MetricType::kGauge) return *existing->gauge;
    orphan_gauges_.push_back(std::make_unique<Gauge>());
    return *orphan_gauges_.back();
  }
  Entry entry;
  entry.type = MetricType::kGauge;
  entry.name = name;
  entry.help = help;
  entry.labels = labels;
  entry.gauge = std::make_unique<Gauge>();
  Gauge& ref = *entry.gauge;
  entries_.emplace(key, std::move(entry));
  return ref;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name,
                                         const std::string& help,
                                         std::vector<double> upper_bounds,
                                         const Labels& labels) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::string key = SeriesKey(name, labels);
  if (Entry* existing = FindOrNull(key)) {
    if (existing->type == MetricType::kHistogram) return *existing->histogram;
    orphan_histograms_.push_back(
        std::make_unique<Histogram>(std::move(upper_bounds)));
    return *orphan_histograms_.back();
  }
  Entry entry;
  entry.type = MetricType::kHistogram;
  entry.name = name;
  entry.help = help;
  entry.labels = labels;
  entry.histogram = std::make_unique<Histogram>(std::move(upper_bounds));
  Histogram& ref = *entry.histogram;
  entries_.emplace(key, std::move(entry));
  return ref;
}

std::vector<MetricSnapshot> MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<MetricSnapshot> out;
  out.reserve(entries_.size());
  for (const auto& [key, entry] : entries_) {
    MetricSnapshot s;
    s.name = entry.name;
    s.help = entry.help;
    s.type = entry.type;
    s.labels = entry.labels;
    switch (entry.type) {
      case MetricType::kCounter:
        s.value = static_cast<double>(entry.counter->value());
        break;
      case MetricType::kGauge:
        s.value = entry.gauge->value();
        break;
      case MetricType::kHistogram: {
        s.bounds = entry.histogram->upper_bounds();
        const std::vector<uint64_t> raw = entry.histogram->bucket_counts();
        s.cumulative_counts.reserve(raw.size());
        uint64_t running = 0;
        for (const uint64_t c : raw) {
          running += c;
          s.cumulative_counts.push_back(running);
        }
        s.count = entry.histogram->count();
        s.sum = entry.histogram->sum();
        break;
      }
    }
    out.push_back(std::move(s));
  }
  // The map iterates in key order, which is already (name, labels) order.
  return out;
}

size_t MetricsRegistry::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

MetricsRegistry& GlobalMetrics() {
  static MetricsRegistry* registry = new MetricsRegistry();  // never destroyed
  return *registry;
}

const std::vector<double>& DefaultLatencyBuckets() {
  static const std::vector<double> buckets = {
      0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
      0.05,   0.1,     0.25,   0.5,  1.0,    2.5,   5.0,  10.0};
  return buckets;
}

}  // namespace pprl::obs
