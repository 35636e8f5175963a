#include "common/thread_pool.h"

#include <algorithm>
#include <utility>

#include "common/timer.h"
#include "obs/metrics.h"

namespace pprl {

namespace {

/// Pool metrics aggregate over every ShardScheduler in the process
/// (per-call pools in benches, one long-lived instance in the daemon).
struct SchedulerMetrics {
  obs::Gauge& queue_depth = obs::GlobalMetrics().GetGauge(
      "pprl_shard_queue_depth", "Shards submitted but not yet started");
  obs::Histogram& shard_seconds = obs::GlobalMetrics().GetHistogram(
      "pprl_shard_seconds", "Per-shard execution time on the scheduler",
      obs::DefaultLatencyBuckets());
};

SchedulerMetrics& SchedMetrics() {
  static SchedulerMetrics* m = new SchedulerMetrics();
  return *m;
}

}  // namespace

ShardScheduler::ShardScheduler(size_t num_threads)
    : window_(PendingWindow(num_threads)) {
  const size_t n = std::max<size_t>(1, num_threads);
  threads_.reserve(n);
  for (size_t i = 0; i < n; ++i) threads_.emplace_back([this] { WorkerLoop(); });
}

ShardScheduler::~ShardScheduler() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  task_available_.notify_all();
  for (auto& t : threads_) t.join();
}

size_t ShardScheduler::HardwareThreads() {
  return std::clamp<size_t>(std::thread::hardware_concurrency(), 1, kMaxThreads);
}

size_t ShardScheduler::PendingWindow(size_t num_threads) {
  return std::clamp<size_t>(4 * num_threads, 8, 64);
}

void ShardScheduler::Submit(std::function<void()> task) {
  Enqueue(std::move(task), nullptr);
}

size_t ShardScheduler::pending() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

void ShardScheduler::Enqueue(std::function<void()> task, TaskGroup* group) {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    space_available_.wait(lock, [this] { return queue_.size() < window_; });
    if (group != nullptr) ++group->outstanding_;
    queue_.push_back(Shard{std::move(task), group});
    SchedMetrics().queue_depth.Add(1);
  }
  task_available_.notify_one();
}

void ShardScheduler::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    task_available_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
    // Drain-on-shutdown: exit only once no shard is waiting.
    if (queue_.empty()) return;
    Shard shard = std::move(queue_.front());
    queue_.pop_front();
    SchedMetrics().queue_depth.Sub(1);
    lock.unlock();
    space_available_.notify_one();

    Timer timer;
    shard.task();
    shard.task = nullptr;  // run the closure's destructors before completing
    SchedMetrics().shard_seconds.Observe(timer.ElapsedSeconds());

    lock.lock();
    // Under the mutex TaskGroup::Wait() checks its predicate with, so a
    // waiter can only return (and drop the group) after this worker is
    // done with it.
    if (shard.group != nullptr && --shard.group->outstanding_ == 0) {
      shard.group->done_.notify_all();
    }
  }
}

void TaskGroup::Submit(std::function<void()> task) {
  scheduler_.Enqueue(std::move(task), this);
}

void TaskGroup::Wait() {
  std::unique_lock<std::mutex> lock(scheduler_.mutex_);
  done_.wait(lock, [this] { return outstanding_ == 0; });
}

void RunTasks(ShardScheduler* scheduler, size_t count,
              const std::function<void(size_t)>& task) {
  if (scheduler == nullptr) {
    for (size_t i = 0; i < count; ++i) task(i);
    return;
  }
  TaskGroup group(*scheduler);
  for (size_t i = 0; i < count; ++i) group.Submit([&task, i] { task(i); });
  group.Wait();
}

ShardScheduler* CallPool(ShardScheduler* borrowed, size_t num_threads,
                         std::optional<ShardScheduler>& owned) {
  if (borrowed != nullptr || num_threads <= 1) return borrowed;
  return &owned.emplace(std::min(num_threads, ShardScheduler::kMaxThreads));
}

}  // namespace pprl
