#include "common/thread_pool.h"

#include <algorithm>
#include <utility>

#include "common/timer.h"
#include "obs/metrics.h"

namespace pprl {

namespace {

/// Scheduler metrics aggregate over every WorkStealingScheduler in the
/// process (per-call schedulers in benches, one long-lived instance in the
/// daemon).
struct SchedulerMetrics {
  obs::Gauge& queue_depth = obs::GlobalMetrics().GetGauge(
      "pprl_shard_queue_depth", "Shards submitted but not yet started");
  obs::Counter& steals = obs::GlobalMetrics().GetCounter(
      "pprl_steals_total", "Successful steal operations between workers");
  obs::Histogram& shard_seconds = obs::GlobalMetrics().GetHistogram(
      "pprl_shard_seconds", "Per-shard execution time on the scheduler",
      obs::DefaultLatencyBuckets());
};

SchedulerMetrics& SchedMetrics() {
  static SchedulerMetrics* m = new SchedulerMetrics();
  return *m;
}

}  // namespace

WorkStealingScheduler::WorkStealingScheduler(Options options)
    : max_pending_(options.max_pending) {
  const size_t n = std::max<size_t>(1, options.num_threads);
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    workers_.push_back(std::make_unique<Worker>());
    workers_.back()->steal_fail_metric = &obs::GlobalMetrics().GetCounter(
        "pprl_steal_fail_total",
        "Steal sweeps that probed every victim and found nothing",
        {{"worker", std::to_string(i)}});
  }
  threads_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

WorkStealingScheduler::~WorkStealingScheduler() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  task_available_.notify_all();
  for (auto& t : threads_) t.join();
}

void WorkStealingScheduler::Submit(std::function<void()> task) {
  SubmitTo(next_worker_.fetch_add(1, std::memory_order_relaxed), std::move(task));
}

void WorkStealingScheduler::SubmitTo(size_t worker, std::function<void()> task) {
  if (max_pending_ == 0) {
    // No backpressure: submission never touches the scheduler mutex.
    in_flight_.fetch_add(1, std::memory_order_relaxed);
    pending_.fetch_add(1);  // seq_cst: pairs with the sleeper handshake
  } else {
    // The uncontended case (window has room) also stays off the mutex;
    // only a full window parks the producer.
    // seq_cst Dekker handshake with WorkerLoop: the producer publishes
    // waiters_ then reads pending_; the worker publishes pending_ then
    // reads waiters_. The total order guarantees at least one side sees
    // the other — either the producer observes the freed slot, or the
    // worker observes the waiter and takes the mutex to notify.
    if (pending_.load() >= max_pending_) {
      std::unique_lock<std::mutex> lock(mutex_);
      waiters_.fetch_add(1);
      space_available_.wait(lock, [this] {
        return pending_.load() < max_pending_;
      });
      waiters_.fetch_sub(1);
    }
    in_flight_.fetch_add(1, std::memory_order_relaxed);
    pending_.fetch_add(1);
  }
  Worker& w = *workers_[worker % workers_.size()];
  {
    std::lock_guard<std::mutex> lock(w.m);
    w.deque.push_back(std::move(task));
    w.approx_size.store(w.deque.size(), std::memory_order_relaxed);
  }
  SchedMetrics().queue_depth.Add(1);
  // Wake a worker only when one is actually parked. The pending_ bump
  // above and the sleepers_ bump in WorkerLoop are both seq_cst, so either
  // this load sees the sleeper (and the mutexed notify below lands after
  // it committed to sleeping) or the sleeper's predicate sees pending_.
  if (sleepers_.load() > 0) {
    std::lock_guard<std::mutex> lock(mutex_);
    task_available_.notify_one();
  }
}

void WorkStealingScheduler::Wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  all_done_.wait(lock,
                 [this] { return in_flight_.load(std::memory_order_acquire) == 0; });
}

void WorkStealingScheduler::FlushDone(size_t n) {
  if (n == 0) return;
  if (in_flight_.fetch_sub(n, std::memory_order_acq_rel) == n) {
    // Last task of the batch was the last in flight: hand off to Wait()
    // under the mutex so the wakeup cannot be missed.
    std::lock_guard<std::mutex> lock(mutex_);
    all_done_.notify_all();
  }
}

bool WorkStealingScheduler::NextTask(size_t self, std::function<void()>& task) {
  Worker& own = *workers_[self];
  if (own.approx_size.load(std::memory_order_relaxed) > 0) {
    std::lock_guard<std::mutex> lock(own.m);
    if (!own.deque.empty()) {
      task = std::move(own.deque.front());
      own.deque.pop_front();
      own.approx_size.store(own.deque.size(), std::memory_order_relaxed);
      return true;
    }
  }
  // Own deque dry: steal the front half of the first non-empty victim,
  // keeping the first stolen shard and queueing the rest locally. Victims
  // are probed in ring order from self+1 so thieves spread out, and a
  // victim's mutex is only taken once its approx_size says there is
  // something to take — an idle sweep costs N relaxed loads, not N lock
  // acquisitions against the very workers still making progress.
  const size_t n = workers_.size();
  for (size_t off = 1; off < n; ++off) {
    Worker& victim = *workers_[(self + off) % n];
    if (victim.approx_size.load(std::memory_order_relaxed) == 0) continue;
    std::vector<std::function<void()>> loot;
    {
      std::lock_guard<std::mutex> lock(victim.m);
      const size_t have = victim.deque.size();
      if (have == 0) continue;
      const size_t take = (have + 1) / 2;
      loot.reserve(take);
      for (size_t i = 0; i < take; ++i) {
        loot.push_back(std::move(victim.deque.front()));
        victim.deque.pop_front();
      }
      victim.approx_size.store(victim.deque.size(), std::memory_order_relaxed);
    }
    steals_.fetch_add(1, std::memory_order_relaxed);
    SchedMetrics().steals.Increment();
    task = std::move(loot.front());
    if (loot.size() > 1) {
      std::lock_guard<std::mutex> lock(own.m);
      for (size_t i = 1; i < loot.size(); ++i) own.deque.push_back(std::move(loot[i]));
      own.approx_size.store(own.deque.size(), std::memory_order_relaxed);
    }
    return true;
  }
  steal_fails_.fetch_add(1, std::memory_order_relaxed);
  own.steal_fail_metric->Increment();
  return false;
}

void WorkStealingScheduler::WorkerLoop(size_t self) {
  // Completion accounting is batched: kDoneBatch completions fold into
  // in_flight_ as one atomic op, and the remainder flushes whenever the
  // worker runs out of local work. Under a steady shard stream the global
  // counter (and the Wait() handoff it guards) is touched 1/kDoneBatch as
  // often as the per-shard scheme it replaced.
  constexpr size_t kDoneBatch = 32;
  Worker& own = *workers_[self];
  while (true) {
    std::function<void()> task;
    if (NextTask(self, task)) {
      pending_.fetch_sub(1);  // seq_cst: pairs with the waiter handshake
      SchedMetrics().queue_depth.Sub(1);
      if (max_pending_ != 0 && waiters_.load() > 0) {
        std::lock_guard<std::mutex> lock(mutex_);
        space_available_.notify_one();
      }
      Timer timer;
      task();
      task = nullptr;  // run destructors before accounting the completion
      SchedMetrics().shard_seconds.Observe(timer.ElapsedSeconds());
      if (++own.unflushed_done >= kDoneBatch) {
        FlushDone(own.unflushed_done);
        own.unflushed_done = 0;
      }
      continue;
    }
    // Out of local and stealable work: flush the completion batch before
    // parking, or Wait() could block on tasks that already finished.
    FlushDone(own.unflushed_done);
    own.unflushed_done = 0;
    std::unique_lock<std::mutex> lock(mutex_);
    sleepers_.fetch_add(1);  // seq_cst: pairs with Submit's sleeper check
    task_available_.wait(lock, [this] {
      return shutdown_ || pending_.load() > 0;
    });
    sleepers_.fetch_sub(1, std::memory_order_relaxed);
    // Drain-on-shutdown: exit only once no shard is waiting anywhere.
    if (shutdown_ && pending_.load(std::memory_order_relaxed) == 0) return;
  }
}

void TaskGroup::Submit(std::function<void()> task) {
  outstanding_.fetch_add(1, std::memory_order_relaxed);
  scheduler_.Submit([this, task = std::move(task)] {
    task();
    if (outstanding_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard<std::mutex> lock(mutex_);
      done_.notify_all();
    }
  });
}

void TaskGroup::Wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  done_.wait(lock, [this] {
    return outstanding_.load(std::memory_order_acquire) == 0;
  });
}

}  // namespace pprl
