#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <thread>

#include "common/cache_info.h"
#include "datagen/generator.h"
#include "obs/metrics.h"
#include "pipeline/pipeline.h"

namespace pprl::perfbench {
namespace {

namespace fs = std::filesystem;

std::string Number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string NumberMap(const std::map<std::string, double>& values) {
  std::string out = "{";
  for (const auto& [key, value] : values) {
    if (out.size() > 1) out += ", ";
    out += Quoted(key) + ": " + Number(value);
  }
  return out + "}";
}

std::string NumberList(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ", ";
    out += Number(values[i]);
  }
  return out + "]";
}

std::string RequestList(const std::vector<Request>& requests) {
  std::string out = "[";
  for (size_t i = 0; i < requests.size(); ++i) {
    if (i > 0) out += ", ";
    out += '[';
    out += Number(requests[i].due);
    out += ", ";
    out += Number(requests[i].sent);
    out += ", ";
    out += Number(requests[i].done);
    out += ']';
  }
  return out + "]";
}

}  // namespace

bool WriteRunRecord(const std::string& path, const RunRecord& r) {
  const CacheInfo& cache = DetectCacheInfo();
  std::map<std::string, double> host = {
      {"cores", static_cast<double>(std::thread::hardware_concurrency())},
      {"l1d_bytes", static_cast<double>(cache.l1d_bytes)},
      {"l2_bytes", static_cast<double>(cache.l2_bytes)},
      {"llc_bytes", static_cast<double>(cache.llc_bytes)},
  };
  std::string dists = "{";
  for (const auto& [key, values] : r.dists) {
    if (dists.size() > 1) dists += ", ";
    dists += Quoted(key) + ": " + NumberList(values);
  }
  dists += "}";

  std::string json = "{\n";
  json += "\"workload\": " + Quoted(r.workload) + ",\n";
  json += "\"seed\": " + std::to_string(r.seed) + ",\n";
  json += "\"trace\": " + std::string(r.trace ? "1" : "0") + ",\n";
  json += "\"host\": " + NumberMap(host) + ",\n";
  json += "\"inputs\": " + NumberMap(r.inputs) + ",\n";
  json += "\"setup_s\": " + NumberList(r.setup_s) + ",\n";
  json += "\"result_s\": " + NumberList(r.result_s) + ",\n";
  json += "\"throughput_rps\": " + NumberList(r.throughput_rps) + ",\n";
  json += "\"writes\": " + RequestList(r.writes) + ",\n";
  json += "\"reads\": " + RequestList(r.reads) + ",\n";
  json += "\"scalars\": " + NumberMap(r.scalars) + ",\n";
  json += "\"attempted\": " + std::to_string(r.attempted) + ",\n";
  json += "\"failed\": " + std::to_string(r.failed) + ",\n";
  json += "\"layers\": " + NumberMap(r.layers) + ",\n";
  json += "\"dists\": " + dists + "\n}\n";

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  return std::fclose(f) == 0 && ok;
}

void Mismatch(const std::string& message) {
  std::fprintf(stderr, "perfbench: OUTPUT MISMATCH: %s\n", message.c_str());
  std::exit(3);
}

void Fatal(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(2);
}

double PeakRssKb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

void MakeDir(const std::string& dir, bool fresh) {
  std::error_code ec;
  if (fresh) fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  if (ec) Fatal("cannot create " + dir + ": " + ec.message());
}

void RemoveDir(const std::string& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
}

void CopyDir(const std::string& from, const std::string& to) {
  MakeDir(to, /*fresh=*/true);
  for (const auto& entry : fs::directory_iterator(from)) {
    if (!entry.is_regular_file()) continue;
    std::error_code ec;
    fs::copy_file(entry.path(), fs::path(to) / entry.path().filename(), ec);
    if (ec) Fatal("cannot copy " + entry.path().string() + ": " + ec.message());
  }
}

std::vector<Database> GenerateDatabases(uint64_t seed, size_t databases, size_t records) {
  GeneratorConfig gc;
  gc.seed = seed;
  DataGenerator gen(gc);
  LinkageScenarioConfig scenario;
  scenario.records_per_database = records;
  scenario.num_databases = databases;
  scenario.overlap = 0.5;
  auto dbs = gen.GenerateScenario(scenario);
  if (!dbs.ok()) Fatal("datagen: " + dbs.status().ToString());
  return std::move(*dbs);
}

ClkEncoder DefaultEncoder() {
  PipelineConfig config;
  return ClkEncoder(config.bloom, PprlPipeline::DefaultFieldConfigs());
}

ClkEncoder KeyedEncoder() {
  PipelineConfig config;
  config.bloom.scheme = BloomHashScheme::kKeyedHmac;
  config.bloom.secret_key = "shared-secret";
  return ClkEncoder(config.bloom, PprlPipeline::DefaultFieldConfigs());
}

EncodedShard EncodeParallel(const ClkEncoder& encoder, const Database& db, size_t threads) {
  const size_t n = db.records.size();
  std::vector<BitVector> filters(n);
  std::vector<std::thread> pool;
  std::vector<std::string> errors(threads);
  for (size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      for (size_t i = t; i < n; i += threads) {
        auto bv = encoder.Encode(db.schema, db.records[i]);
        if (!bv.ok()) {
          errors[t] = bv.status().ToString();
          return;
        }
        filters[i] = std::move(*bv);
      }
    });
  }
  for (auto& thread : pool) thread.join();
  for (const auto& error : errors) {
    if (!error.empty()) Fatal("encode: " + error);
  }
  EncodedDatabase encoded;
  encoded.filters = std::move(filters);
  for (size_t i = 0; i < n; ++i) encoded.ids.push_back(db.records[i].id);
  return ShardFromEncodedDatabase(encoded);
}

HistogramReading ReadHistogram(const std::string& name, const std::string& label_key,
                               const std::string& label_value) {
  HistogramReading reading;
  for (const auto& m : obs::GlobalMetrics().Snapshot()) {
    if (m.name != name || m.type != obs::MetricType::kHistogram) continue;
    bool match = label_key.empty();
    for (const auto& [key, value] : m.labels) {
      if (key == label_key && value == label_value) match = true;
    }
    if (!match) continue;
    reading.sum += m.sum;
    reading.count += static_cast<double>(m.count);
  }
  return reading;
}

double ReadCounter(const std::string& name) {
  double total = 0;
  for (const auto& m : obs::GlobalMetrics().Snapshot()) {
    if (m.name == name && m.type == obs::MetricType::kCounter) total += m.value;
  }
  return total;
}

}  // namespace pprl::perfbench
