#ifndef PPRL_COMMON_CACHE_INFO_H_
#define PPRL_COMMON_CACHE_INFO_H_

#include <cstddef>

namespace pprl {

/// The host's cache sizes, recorded in the provenance of every committed
/// benchmark (bench/bench_util.h, perfbench) so two hosts' figures are not
/// compared as one. No code path sizes its work from them.
///
/// Detected once per process from sysfs (Linux), falling back to the
/// defaults below anywhere the topology is unreadable (containers often
/// hide it); the fallbacks sit at the small end of current server parts.
struct CacheInfo {
  size_t l1d_bytes = 32u << 10;
  size_t l2_bytes = 512u << 10;
  /// Last-level cache for the whole package. On multi-socket / multi-CCX
  /// parts this is one slice's reach, not the sum.
  size_t llc_bytes = 16u << 20;
};

/// Cached process-wide detection result.
const CacheInfo& DetectCacheInfo();

}  // namespace pprl

#endif  // PPRL_COMMON_CACHE_INFO_H_
