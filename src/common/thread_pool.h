#ifndef PPRL_COMMON_THREAD_POOL_H_
#define PPRL_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace pprl {

namespace obs {
class Counter;
}  // namespace obs

/// The sharded execution layer of the parallel linkage path (survey §3.4,
/// "Parallel/distributed processing").
///
/// What matters for streaming linkage runs:
///
///   * **Per-worker deques.** Each worker owns a deque; `Submit` deals
///     shards round-robin (or to an explicit worker via `SubmitTo`), so
///     there is no single hot queue mutex between N workers.
///   * **Work stealing.** A worker whose deque runs dry steals the front
///     half of the fullest victim's deque before sleeping, which keeps
///     skewed shard streams (one giant block, many tiny ones) balanced.
///   * **Bounded memory.** `max_pending` caps shards submitted but not yet
///     started; `Submit` blocks the producer once the cap is reached. A
///     blocking stage can therefore stream millions of candidate pairs
///     through a fixed-size window instead of materializing them all.
///
/// Shutdown drains: the destructor (and `Wait`) runs every submitted shard
/// before joining, so in-flight work is never dropped.
///
/// Observability: `pprl_shard_queue_depth` (submitted, not started),
/// `pprl_steals_total` (successful steal operations) and
/// `pprl_shard_seconds` (per-shard execution time) in the global registry.
class WorkStealingScheduler {
 public:
  struct Options {
    size_t num_threads = 1;
    /// Max shards submitted but not yet started before Submit() blocks;
    /// 0 means unbounded.
    size_t max_pending = 0;
  };

  explicit WorkStealingScheduler(Options options);
  /// Convenience: `num_threads` workers, unbounded queue.
  explicit WorkStealingScheduler(size_t num_threads)
      : WorkStealingScheduler(Options{num_threads, 0}) {}

  /// Drains every submitted shard and joins all workers.
  ~WorkStealingScheduler();

  WorkStealingScheduler(const WorkStealingScheduler&) = delete;
  WorkStealingScheduler& operator=(const WorkStealingScheduler&) = delete;

  /// Enqueues `task` on the next worker (round-robin). Blocks while
  /// `max_pending` shards are already waiting.
  void Submit(std::function<void()> task);

  /// Enqueues `task` on worker `worker % num_threads()` — for callers that
  /// want shard affinity; stealing still rebalances.
  void SubmitTo(size_t worker, std::function<void()> task);

  /// Blocks until every submitted shard has finished.
  void Wait();

  size_t num_threads() const { return workers_.size(); }

  /// Successful steal operations since construction (each may move several
  /// shards). Also exported as pprl_steals_total.
  uint64_t steal_count() const { return steals_.load(std::memory_order_relaxed); }

  /// Shards submitted but not yet started (for tests; racy by nature).
  size_t pending() const { return pending_.load(std::memory_order_relaxed); }

  /// Failed steal sweeps (a worker probed every victim and found nothing)
  /// across all workers. Also exported per worker as pprl_steal_fail_total.
  uint64_t steal_fail_count() const {
    return steal_fails_.load(std::memory_order_relaxed);
  }

 private:
  /// One worker's deque plus the small mutex guarding it (locked only for
  /// push/pop/steal pointer shuffling, never while a shard runs). Padded
  /// to two cache lines so deque bookkeeping of neighbouring workers never
  /// false-shares — 64 bytes is not enough once the adjacent-line
  /// prefetcher pairs lines, and the mutex + deque + counter already
  /// straddle the first line.
  struct alignas(128) Worker {
    std::mutex m;
    std::deque<std::function<void()>> deque;
    /// deque.size(), maintained under `m` but readable without it: steal
    /// sweeps probe this and skip empty victims without ever touching
    /// their mutex, which is what kept 8 thieves off 8 mutexes.
    std::atomic<size_t> approx_size{0};
    /// Completions not yet folded into the scheduler's in_flight_
    /// (batched accounting; owning worker thread only).
    size_t unflushed_done = 0;
    /// This worker's pprl_steal_fail_total{worker=i} series.
    obs::Counter* steal_fail_metric = nullptr;
  };

  void WorkerLoop(size_t self);
  /// Pops locally (front) or steals half of the first non-empty victim's
  /// deque (probed via approx_size, locked only on a hit).
  bool NextTask(size_t self, std::function<void()>& task);
  /// Folds `n` completions into in_flight_ and wakes Wait()ers on zero.
  void FlushDone(size_t n);

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;

  std::mutex mutex_;
  std::condition_variable task_available_;  // workers sleep here
  std::condition_variable all_done_;        // Wait() sleeps here
  std::condition_variable space_available_; // Submit() backpressure
  bool shutdown_ = false;                   // guarded by mutex_

  size_t max_pending_ = 0;
  std::atomic<size_t> in_flight_{0};  // submitted, not finished
  std::atomic<size_t> pending_{0};    // submitted, not started
  std::atomic<size_t> sleepers_{0};   // workers parked on task_available_
  std::atomic<size_t> waiters_{0};    // producers parked on space_available_
  std::atomic<uint64_t> steals_{0};
  std::atomic<uint64_t> steal_fails_{0};
  std::atomic<size_t> next_worker_{0};
};

/// Completion tracking for one batch of shards on a *shared* scheduler.
/// `WorkStealingScheduler::Wait()` waits for everything in flight, which is
/// wrong when several sessions (daemon) share one scheduler; a TaskGroup
/// waits only for the shards submitted through it. Destroying a group
/// before Wait() returns is a programming error.
class TaskGroup {
 public:
  explicit TaskGroup(WorkStealingScheduler& scheduler) : scheduler_(scheduler) {}

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Submits `task` to the underlying scheduler (inherits its round-robin
  /// placement and backpressure) and counts it toward this group.
  void Submit(std::function<void()> task);

  /// Blocks until every task submitted through this group has finished.
  void Wait();

 private:
  WorkStealingScheduler& scheduler_;
  std::mutex mutex_;
  std::condition_variable done_;
  /// Atomic so completions stay off the mutex except for the last one,
  /// which takes it to hand off to Wait().
  std::atomic<size_t> outstanding_{0};
};

}  // namespace pprl

#endif  // PPRL_COMMON_THREAD_POOL_H_
