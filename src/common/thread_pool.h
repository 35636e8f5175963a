#ifndef PPRL_COMMON_THREAD_POOL_H_
#define PPRL_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

namespace pprl {

class TaskGroup;

/// The shard pool of the parallel linkage paths (survey §3.4,
/// "Parallel/distributed processing"): N threads drain one FIFO queue
/// under one mutex. A task is one index build or one candidate-range
/// task of a linkage call (RunTasks; linkage/parallel_linkage.h), a few
/// hundred rows' worth of candidates, so even at a few thousand tasks a
/// second the queue mutex is taken far too rarely to contend.
///
/// Bounded queue: `Submit` blocks the caller while PendingWindow() tasks
/// are queued but not yet started.
///
/// Shutdown drains: the destructor runs every submitted task before
/// joining, so in-flight work is never dropped.
///
/// Observability: `pprl_shard_queue_depth` (submitted, not started) and
/// `pprl_shard_seconds` (per-task execution time) in the global registry,
/// aggregated over every pool in the process.
class ShardScheduler {
 public:
  /// The most workers one pool runs. CallPool clamps a configured thread
  /// count to it, and the daemon refuses a larger `--threads`
  /// (LinkageUnitServer::Start).
  static constexpr size_t kMaxThreads = 256;

  /// One worker per core: std::thread::hardware_concurrency() clamped to
  /// [1, kMaxThreads] (an unknown core count gives 1). The daemon's
  /// default `--threads`.
  static size_t HardwareThreads();

  /// Starts max(1, num_threads) workers; callers keep num_threads <=
  /// kMaxThreads.
  explicit ShardScheduler(size_t num_threads);

  /// Drains every submitted shard and joins all workers.
  ~ShardScheduler();

  ShardScheduler(const ShardScheduler&) = delete;
  ShardScheduler& operator=(const ShardScheduler&) = delete;

  /// Shards a pool of `num_threads` workers queues before Submit() blocks:
  /// a few per worker keeps everyone fed without letting the producer run
  /// away, clamp(4 × threads, 8, 64).
  static size_t PendingWindow(size_t num_threads);

  /// Enqueues `task` at the back of the queue; blocks while the window is
  /// full. To wait for tasks, submit them through a TaskGroup.
  void Submit(std::function<void()> task);

  size_t num_threads() const { return threads_.size(); }

  /// Shards submitted but not yet started (for tests; racy by nature).
  size_t pending() const;

 private:
  friend class TaskGroup;

  struct Shard {
    std::function<void()> task;
    TaskGroup* group = nullptr;
  };

  void Enqueue(std::function<void()> task, TaskGroup* group);
  void WorkerLoop();

  const size_t window_;
  mutable std::mutex mutex_;
  std::condition_variable task_available_;   // workers sleep here
  std::condition_variable space_available_;  // Submit() backpressure
  std::deque<Shard> queue_;                  // guarded by mutex_
  bool shutdown_ = false;                    // guarded by mutex_
  std::vector<std::thread> threads_;
};

/// Completion tracking for one batch of shards on a pool that several
/// callers may share (the daemon's sessions): Wait() returns once every
/// task submitted through this group has finished, whatever else the pool
/// is running. The count is decremented and signalled under the pool's
/// mutex, so once Wait() returns no worker touches the group again and it
/// may go out of scope. Destroying a group before Wait() returns is a
/// programming error.
class TaskGroup {
 public:
  explicit TaskGroup(ShardScheduler& scheduler) : scheduler_(scheduler) {}

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Submits `task` to the pool (inheriting its backpressure) and counts
  /// it toward this group.
  void Submit(std::function<void()> task);

  /// Blocks until every task submitted through this group has finished.
  void Wait();

 private:
  friend class ShardScheduler;

  ShardScheduler& scheduler_;
  std::condition_variable done_;
  size_t outstanding_ = 0;  // guarded by scheduler_.mutex_
};

/// Runs task(0), …, task(count - 1) and returns once all have finished:
/// in index order on the calling thread when `scheduler` is null, else as
/// one TaskGroup on `scheduler`. The caller must not be one of the pool's
/// own workers. Tasks that write only their own slot of a caller-owned
/// array need no lock, and joining the slots in index order afterwards
/// gives the same output at every thread count.
void RunTasks(ShardScheduler* scheduler, size_t count,
              const std::function<void(size_t)>& task);

/// The pool a linkage call runs its tasks on: `borrowed` when set; else,
/// above one thread, a pool of min(num_threads, kMaxThreads) workers that
/// `owned` holds for the call; else null, which RunTasks runs inline.
ShardScheduler* CallPool(ShardScheduler* borrowed, size_t num_threads,
                         std::optional<ShardScheduler>& owned);

}  // namespace pprl

#endif  // PPRL_COMMON_THREAD_POOL_H_
