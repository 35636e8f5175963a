#ifndef PPRL_PERFBENCH_WORKLOADS_H_
#define PPRL_PERFBENCH_WORKLOADS_H_

#include "common.h"

namespace pprl::perfbench {

/// True for the batch workloads: csv-keyed, ship-single, ship-sharded.
bool IsBatchWorkload(const std::string& name);

/// Sets up and drives one batch workload through the daemon paths,
/// checking every result against the in-process reference.
RunRecord RunBatch(const Args& args);

/// Sets up and drives online-durable: crash -> ready, open-loop appends
/// and queries, closed-loop batched queries.
RunRecord RunOnline(const Args& args);

}  // namespace pprl::perfbench

#endif  // PPRL_PERFBENCH_WORKLOADS_H_
