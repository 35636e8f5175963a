#include "linkage/parallel_linkage.h"

#include <algorithm>
#include <optional>

#include "linkage/comparison.h"

namespace pprl {

namespace {

/// Candidate pairs per kernel call: 128 KiB of CandidatePair, small enough
/// to stay cache-resident beside the rows the kernels read.
constexpr size_t kChunkPairs = 16384;

/// A range task's bounded pair buffer: candidates are expanded into it
/// and every full buffer is scored, so a task's memory is one chunk
/// whatever its candidate count.
class ChunkScorer {
 public:
  ChunkScorer(const DiceCutoffs& cutoffs, const CandidateSource& source,
              SourceHits& out, CompareKernelStats& stats)
      : cutoffs_(cutoffs), source_(source), out_(out), stats_(stats) {}

  /// Adds (a, b) for every b in [b_begin, b_end). A chunk boundary may
  /// split the run; each window is still consecutive in b, so the
  /// dense-run kernels keep their shape.
  void AddRun(uint32_t a, uint32_t b_begin, uint32_t b_end) {
    while (b_begin < b_end) {
      if (filled_ == pairs_.size()) MakeRoom();
      const uint32_t take =
          static_cast<uint32_t>(std::min<size_t>(b_end - b_begin, pairs_.size() - filled_));
      CandidatePair* p = pairs_.data() + filled_;
      for (uint32_t k = 0; k < take; ++k) p[k] = CandidatePair{a, b_begin + k};
      filled_ += take;
      b_begin += take;
    }
  }

  /// Adds (a, b) for every b of the ascending list `bs`.
  void AddRow(uint32_t a, const std::vector<uint32_t>& bs) {
    for (const uint32_t b : bs) {
      if (filled_ == pairs_.size()) MakeRoom();
      pairs_[filled_++] = CandidatePair{a, b};
    }
  }

  /// Scores the buffered pairs.
  void Flush() {
    if (filled_ == 0) return;
    CompareKernel(cutoffs_, *source_.a, *source_.b, pairs_.data(), filled_, out_.hits,
                  stats_);
    out_.comparisons += filled_;
    filled_ = 0;
  }

 private:
  /// Scores a full chunk, or doubles a smaller buffer toward kChunkPairs,
  /// so a sparse range touches only the memory its candidates fill.
  void MakeRoom() {
    if (pairs_.size() == kChunkPairs) {
      Flush();
    } else {
      pairs_.resize(std::min(std::max<size_t>(2 * pairs_.size(), 1024), kChunkPairs));
    }
  }

  const DiceCutoffs& cutoffs_;
  const CandidateSource& source_;
  SourceHits& out_;
  CompareKernelStats& stats_;
  std::vector<CandidatePair> pairs_;
  size_t filled_ = 0;
};

/// One range task: scores `source`'s candidates with a in [a_begin, a_end).
SourceHits ScoreRange(const DiceCutoffs& cutoffs, const CandidateSource& source,
                      size_t a_begin, size_t a_end) {
  SourceHits out;
  CompareKernelStats stats;
  if (source.listed != nullptr) {
    // A sorted list already is a pair buffer: score the range's slice.
    const std::vector<CandidatePair>& list = *source.listed;
    const auto before = [](const CandidatePair& p, size_t a) { return p.a < a; };
    const size_t first =
        std::lower_bound(list.begin(), list.end(), a_begin, before) - list.begin();
    const size_t last =
        std::lower_bound(list.begin() + first, list.end(), a_end, before) - list.begin();
    if (last > first) {
      CompareKernel(cutoffs, *source.a, *source.b, list.data() + first, last - first,
                    out.hits, stats);
    }
    out.comparisons = last - first;
  } else {
    ChunkScorer scorer(cutoffs, source, out, stats);
    if (source.row_database != nullptr) {
      const std::vector<uint32_t>& database = *source.row_database;
      std::vector<uint32_t> bs;
      for (size_t a = a_begin; a < a_end; ++a) {
        const uint32_t own = database[a];
        source.a_index->ProbeRows(
            source.a->row(a), a, [&](uint32_t b) { return database[b] != own; }, &bs);
        if (!bs.empty()) scorer.AddRow(static_cast<uint32_t>(a), bs);
      }
    } else if (source.a_index != nullptr) {
      ForEachLshCandidateRow(*source.a_index, *source.b_index, *source.partitioner,
                             source.worker, a_begin, a_end,
                             [&](uint32_t a, const std::vector<uint32_t>& bs) {
                               scorer.AddRow(a, bs);
                             });
    } else {
      const uint32_t b_rows = static_cast<uint32_t>(source.b->num_rows());
      for (size_t a = a_begin; a < a_end; ++a) {
        scorer.AddRun(static_cast<uint32_t>(a), 0, b_rows);
      }
    }
    scorer.Flush();
  }
  out.pruned = stats.pruned;
  return out;
}

}  // namespace

size_t RangeRows(const CandidateSource& source) {
  if (source.listed != nullptr || source.a_index != nullptr) return kCandidateRangeRows;
  const size_t b_rows = std::max<size_t>(source.b->num_rows(), 1);
  return std::clamp<size_t>(kDenseRangePairs / b_rows, 1, kCandidateRangeRows);
}

CandidateSource CandidateSource::AllPairs(const BitMatrix& a, const BitMatrix& b) {
  CandidateSource source;
  source.a = &a;
  source.b = &b;
  return source;
}

CandidateSource CandidateSource::Listed(const BitMatrix& a, const BitMatrix& b,
                                        const std::vector<CandidatePair>& pairs) {
  CandidateSource source = AllPairs(a, b);
  source.listed = &pairs;
  return source;
}

CandidateSource CandidateSource::LshBands(const LshBandIndex& a, const LshBandIndex& b,
                                          const BlockPartitioner& partitioner,
                                          uint32_t worker) {
  CandidateSource source = AllPairs(a.rows(), b.rows());
  source.a_index = &a;
  source.b_index = &b;
  source.partitioner = &partitioner;
  source.worker = worker;
  return source;
}

CandidateSource CandidateSource::Arrivals(const LshBandIndex& index,
                                          const std::vector<uint32_t>& row_database,
                                          size_t first) {
  CandidateSource source = AllPairs(index.rows(), index.rows());
  source.a_index = &index;
  source.row_database = &row_database;
  source.first = first;
  return source;
}

std::vector<SourceHits> CompareRanges(const DiceCutoffs& cutoffs,
                                      const std::vector<CandidateSource>& sources,
                                      size_t num_threads, ShardScheduler* scheduler) {
  std::optional<ShardScheduler> owned;
  scheduler = CallPool(scheduler, num_threads, owned);

  struct Range {
    size_t source, a_begin, a_end;
  };
  std::vector<Range> ranges;
  for (size_t s = 0; s < sources.size(); ++s) {
    const size_t step = RangeRows(sources[s]);
    const size_t rows = sources[s].a->num_rows();
    for (size_t a = sources[s].first; a < rows; a += step) {
      ranges.push_back({s, a, std::min(a + step, rows)});
    }
  }
  std::vector<SourceHits> scored(ranges.size());
  RunTasks(scheduler, ranges.size(), [&](size_t i) {
    scored[i] = ScoreRange(cutoffs, sources[ranges[i].source], ranges[i].a_begin,
                           ranges[i].a_end);
  });

  std::vector<SourceHits> result(sources.size());
  for (size_t i = 0; i < ranges.size(); ++i) {
    SourceHits& joined = result[ranges[i].source];
    const SourceHits& range = scored[i];
    joined.hits.insert(joined.hits.end(), range.hits.begin(), range.hits.end());
    joined.comparisons += range.comparisons;
    joined.pruned += range.pruned;
    RecordCompareCall(ComparePath::kKernel, range.comparisons, range.pruned);
  }
  return result;
}

}  // namespace pprl
