#include "pipeline/party.h"

#include <deque>
#include <optional>
#include <utility>

#include "blocking/lsh_index.h"
#include "common/bit_matrix.h"
#include "linkage/parallel_linkage.h"
#include "obs/metrics.h"
#include "obs/stage_timer.h"
#include "similarity/similarity.h"

namespace pprl {

DatabaseOwner::DatabaseOwner(std::string name, Database database)
    : name_(std::move(name)), database_(std::move(database)) {}

Status DatabaseOwner::Encode(const ClkEncoder& encoder) {
  auto filters = encoder.EncodeDatabase(database_);
  if (!filters.ok()) return filters.status();
  filters_ = std::move(filters).value();
  encoded_ = true;
  return Status::OK();
}

namespace {

/// Bytes a shipment of `encoded` costs on any transport: one packed
/// record per filter. The wire serialisation (service/protocol.h) writes
/// exactly these records, which is what keeps the in-process channel's
/// metered totals identical to the wire's.
size_t ShipmentPayloadBytes(const EncodedDatabase& encoded) {
  return encoded.filters.empty()
             ? 0
             : encoded.filters.size() * PackedRecordBytes(encoded.filters[0].size());
}

}  // namespace

Result<EncodedDatabase> DatabaseOwner::ShipEncodings(Channel& channel,
                                                     const std::string& recipient) const {
  if (!encoded_) {
    return Status::FailedPrecondition("owner '" + name_ + "' has not encoded yet");
  }
  EncodedDatabase shipment;
  shipment.ids.reserve(database_.records.size());
  for (const Record& r : database_.records) shipment.ids.push_back(r.id);
  shipment.filters = filters_;
  channel.Send(name_, recipient, ShipmentPayloadBytes(shipment), "encoded-filters");
  return shipment;
}

Status DatabaseOwner::ShipEncodings(EncodingSink& sink) const {
  if (!encoded_) {
    return Status::FailedPrecondition("owner '" + name_ + "' has not encoded yet");
  }
  EncodedDatabase shipment;
  shipment.ids.reserve(database_.records.size());
  for (const Record& r : database_.records) shipment.ids.push_back(r.id);
  shipment.filters = filters_;
  return sink.Deliver(name_, shipment);
}

std::vector<uint64_t> DatabaseOwner::EntityIdsForEvaluation() const {
  std::vector<uint64_t> ids;
  ids.reserve(database_.records.size());
  for (const Record& r : database_.records) ids.push_back(r.entity_id);
  return ids;
}

LinkageUnitService::LinkageUnitService(std::string name) : name_(std::move(name)) {}

Status LinkageUnitService::Receive(const std::string& owner, EncodedDatabase encoded) {
  if (encoded.ids.size() != encoded.filters.size()) {
    return Status::InvalidArgument("shipment ids/filters size mismatch");
  }
  // The first non-empty shipment fixes the filter length; every filter of
  // every later shipment (and of that one) must match it, because Link()
  // packs all of them into fixed-stride matrix rows.
  const BitVector* fixed = encoded.filters.empty() ? nullptr : &encoded.filters[0];
  for (const EncodedDatabase& db : databases_) {
    if (!db.filters.empty()) {
      fixed = &db.filters[0];
      break;
    }
  }
  for (const BitVector& filter : encoded.filters) {
    if (filter.size() != fixed->size()) {
      return Status::InvalidArgument(
          "shipment has a " + std::to_string(filter.size()) +
          "-bit filter; this linkage uses " + std::to_string(fixed->size()) + " bits");
    }
  }
  for (const std::string& existing : owners_) {
    if (existing == owner) {
      return Status::AlreadyExists("owner '" + owner + "' already shipped");
    }
  }
  owners_.push_back(owner);
  databases_.push_back(std::move(encoded));
  return Status::OK();
}

namespace {

/// The filter length Link() and LinkPartition() run at, once the shipments
/// and the LSH geometry pass the checks both entry points share.
Result<size_t> LinkableFilterBits(const std::vector<EncodedDatabase>& databases,
                                  const MultiPartyLinkageOptions& options) {
  if (databases.size() < 2) {
    return Status::FailedPrecondition("linkage needs >= 2 shipped databases");
  }
  if (databases[0].filters.empty()) {
    return Status::InvalidArgument("first shipment is empty");
  }
  const size_t filter_bits = databases[0].filters[0].size();
  PPRL_RETURN_IF_ERROR(ValidateFilterBits(filter_bits));
  PPRL_RETURN_IF_ERROR(ValidateDiceThreshold(options.dice_threshold));
  PPRL_RETURN_IF_ERROR(
      ValidateLshGeometry(options.lsh_tables, options.lsh_bits_per_key));
  return filter_bits;
}

/// The block and compare stages Link() and LinkPartition() share, as one
/// task list for every thread count. The block stage is one task per
/// database that builds its LshBandIndex over the options' seeded
/// geometry. The compare stage is CompareRanges over every database pair's
/// band chains: one task per (database pair, range of kCandidateRangeRows
/// a-rows) that walks the range's candidates that `worker` owns under
/// `partitioner` (all of them with one worker) and scores them with the
/// Dice kernels against the linkage unit's accept rule. Tasks run inline
/// at one thread, else on the borrowed pool or on one pool for this call,
/// and join in (pair, range) order, so edges and counters are those of
/// one serial walk per pair at any thread count. Every process holding
/// the same shipments derives the same indexes, so a partition needs no
/// coordination beyond the ring geometry.
PartitionLinkResult BlockAndCompare(const std::vector<EncodedDatabase>& databases,
                                    size_t filter_bits,
                                    const MultiPartyLinkageOptions& options,
                                    const BlockPartitioner& partitioner,
                                    uint32_t worker) {
  std::optional<ShardScheduler> owned;
  ShardScheduler* scheduler = CallPool(options.scheduler, options.num_threads, owned);

  obs::StageTimer block_span("block");
  std::vector<const std::vector<BitVector>*> filters;
  for (const EncodedDatabase& db : databases) filters.push_back(&db.filters);
  const std::deque<LshBandIndex> indexes =
      BuildBandIndexes(filters, filter_bits, options.lsh_tables,
                       options.lsh_bits_per_key, options.lsh_seed, scheduler);
  block_span.Stop();

  std::vector<std::pair<uint32_t, uint32_t>> database_pairs;
  std::vector<CandidateSource> sources;
  for (uint32_t d1 = 0; d1 < databases.size(); ++d1) {
    for (uint32_t d2 = d1 + 1; d2 < databases.size(); ++d2) {
      database_pairs.emplace_back(d1, d2);
      sources.push_back(
          CandidateSource::LshBands(indexes[d1], indexes[d2], partitioner, worker));
    }
  }

  // One table decides every pair of every database pair under the linkage
  // unit's accept rule, so the kernels' hits are exactly the edges.
  const DiceCutoffs cutoffs(options.dice_threshold, filter_bits, LinkageAccepts);
  obs::StageTimer compare_span("compare");
  const std::vector<SourceHits> scored = CompareRanges(cutoffs, sources, 1, scheduler);
  PartitionLinkResult result;
  for (size_t i = 0; i < scored.size(); ++i) {
    const auto [d1, d2] = database_pairs[i];
    result.comparisons += scored[i].comparisons;
    result.pruned_comparisons += scored[i].pruned;
    for (const ScoredPair& pair : scored[i].hits) {
      result.edges.push_back({{d1, pair.a}, {d2, pair.b}, pair.score});
    }
  }
  result.candidate_pairs = result.comparisons;
  compare_span.Stop();
  return result;
}

}  // namespace

Result<MultiPartyLinkageResult> LinkageUnitService::Link(
    const MultiPartyLinkageOptions& options) const {
  const Result<size_t> filter_bits = LinkableFilterBits(databases_, options);
  if (!filter_bits.ok()) return filter_bits.status();

  obs::GlobalMetrics()
      .GetCounter("pprl_linkage_runs_total",
                  "Multi-party linkage runs at a linkage unit")
      .Increment();
  PartitionLinkResult linked =
      BlockAndCompare(databases_, *filter_bits, options, BlockPartitioner(1), 0);

  MultiPartyLinkageResult result;
  result.edges = std::move(linked.edges);
  result.comparisons = linked.comparisons;
  result.candidate_pairs = linked.candidate_pairs;
  result.pruned_comparisons = linked.pruned_comparisons;
  obs::StageTimer cluster_span("cluster");
  result.clusters = ClusterEdges(result.edges, options.use_star_clustering);
  cluster_span.Stop();
  return result;
}

Result<PartitionLinkResult> LinkageUnitService::LinkPartition(
    const MultiPartyLinkageOptions& options, const PartitionSpec& spec) const {
  const Result<size_t> filter_bits = LinkableFilterBits(databases_, options);
  if (!filter_bits.ok()) return filter_bits.status();
  if (spec.num_workers == 0 || spec.worker_index >= spec.num_workers) {
    return Status::InvalidArgument(
        "partition worker " + std::to_string(spec.worker_index) +
        " outside ring of " + std::to_string(spec.num_workers));
  }

  obs::GlobalMetrics()
      .GetCounter("pprl_partition_runs_total",
                  "Partition compare runs at a worker linkage unit")
      .Increment();
  return BlockAndCompare(databases_, *filter_bits, options,
                         BlockPartitioner(spec.num_workers, spec.scheme),
                         spec.worker_index);
}

Status LocalLinkageUnitSink::Deliver(const std::string& owner,
                                     const EncodedDatabase& encoded) {
  channel_.Send(owner, unit_.name(), ShipmentPayloadBytes(encoded), "encoded-filters");
  return unit_.Receive(owner, encoded);
}

}  // namespace pprl
