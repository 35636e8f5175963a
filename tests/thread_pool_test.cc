#include "common/thread_pool.h"

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace pprl {
namespace {

TEST(WorkStealingSchedulerTest, RunsAllSubmittedShards) {
  WorkStealingScheduler scheduler(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 500; ++i) {
    scheduler.Submit([&counter] { counter.fetch_add(1); });
  }
  scheduler.Wait();
  EXPECT_EQ(counter.load(), 500);
}

TEST(WorkStealingSchedulerTest, ReusableAcrossWaves) {
  WorkStealingScheduler scheduler(3);
  std::atomic<int> counter{0};
  for (int wave = 0; wave < 3; ++wave) {
    for (int i = 0; i < 50; ++i) {
      scheduler.Submit([&counter] { counter.fetch_add(1); });
    }
    scheduler.Wait();
  }
  EXPECT_EQ(counter.load(), 150);
}

TEST(WorkStealingSchedulerTest, BackpressureBoundsPendingShards) {
  WorkStealingScheduler::Options options;
  options.num_threads = 2;
  options.max_pending = 4;
  WorkStealingScheduler scheduler(options);

  // Park both workers so submissions pile up against the cap.
  std::atomic<bool> release{false};
  std::atomic<int> parked{0};
  for (int i = 0; i < 2; ++i) {
    scheduler.Submit([&] {
      parked.fetch_add(1);
      while (!release.load()) std::this_thread::yield();
    });
  }
  while (parked.load() < 2) std::this_thread::yield();

  // The producer must block on the shard after the cap. Run it on a side
  // thread and verify it cannot finish until the workers are released.
  std::atomic<int> submitted{0};
  std::thread producer([&] {
    for (int i = 0; i < 20; ++i) {
      scheduler.Submit([] {});
      submitted.fetch_add(1);
    }
  });
  // Give the producer ample time to overshoot if backpressure were broken.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_LE(submitted.load(), 5);  // max_pending, +1 for the one in Submit()
  EXPECT_LE(scheduler.pending(), 4u);

  release.store(true);
  producer.join();
  scheduler.Wait();
  EXPECT_EQ(submitted.load(), 20);
}

TEST(WorkStealingSchedulerTest, IdleWorkersStealFromLoadedDeque) {
  WorkStealingScheduler scheduler(4);
  // Pin every shard to worker 0. Workers pop their own deque FIFO, so the
  // gate shard parks worker 0 until another worker has finished one of the
  // remaining shards — which, with everything pinned to deque 0, it can
  // only have obtained by stealing.
  std::atomic<int> done{0};
  scheduler.SubmitTo(0, [&done] {
    while (done.load() == 0) std::this_thread::yield();
  });
  for (int i = 0; i < 100; ++i) {
    scheduler.SubmitTo(0, [&done] { done.fetch_add(1); });
  }
  scheduler.Wait();
  EXPECT_EQ(done.load(), 100);
  EXPECT_GT(scheduler.steal_count(), 0u);
}

/// Heavy steal contention: one worker's deque holds all the work while
/// seven thieves hammer it. Exercises the padded per-worker deque state
/// and the approx_size probe (thieves skip empty victims without locking
/// them); every shard must still run exactly once, and the failed-sweep
/// counter must tick for workers that found nothing anywhere.
TEST(WorkStealingSchedulerTest, StealStormRunsEveryShardOnce) {
  WorkStealingScheduler scheduler(8);
  constexpr int kShards = 4000;
  std::vector<std::atomic<int>> runs(kShards);
  // Gate worker 0 until a thief has finished a shard (same trick as
  // IdleWorkersStealFromLoadedDeque): on a box with fewer cores than
  // workers, worker 0 could otherwise drain all 4000 shards before any
  // thief thread is ever scheduled, and the storm would steal nothing.
  std::atomic<int> done{0};
  scheduler.SubmitTo(0, [&done] {
    while (done.load() == 0) std::this_thread::yield();
  });
  for (int i = 0; i < kShards; ++i) {
    scheduler.SubmitTo(0, [&runs, &done, i] {
      runs[i].fetch_add(1);
      done.fetch_add(1);
    });
  }
  scheduler.Wait();
  for (int i = 0; i < kShards; ++i) {
    ASSERT_EQ(runs[i].load(), 1) << "shard " << i;
  }
  EXPECT_GT(scheduler.steal_count(), 0u);
  // With 8 workers and one loaded deque, some sweep must have come up dry
  // (workers park only after a full failed sweep).
  EXPECT_GT(scheduler.steal_fail_count(), 0u);
}

TEST(WorkStealingSchedulerTest, DestructorDrainsInFlightShards) {
  std::atomic<int> counter{0};
  {
    WorkStealingScheduler scheduler(3);
    for (int i = 0; i < 100; ++i) {
      scheduler.Submit([&counter] {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        counter.fetch_add(1);
      });
    }
    // No Wait(): the destructor must run everything before joining.
  }
  EXPECT_EQ(counter.load(), 100);
}

TEST(TaskGroupTest, WaitsOnlyForOwnTasks) {
  WorkStealingScheduler scheduler(2);
  // A slow shard from another "session" sharing the scheduler must not
  // block this group's Wait().
  std::atomic<bool> release{false};
  std::atomic<bool> slow_done{false};
  scheduler.Submit([&] {
    while (!release.load()) std::this_thread::yield();
    slow_done.store(true);
  });

  TaskGroup group(scheduler);
  std::atomic<int> counter{0};
  for (int i = 0; i < 50; ++i) {
    group.Submit([&counter] { counter.fetch_add(1); });
  }
  group.Wait();
  EXPECT_EQ(counter.load(), 50);
  EXPECT_FALSE(slow_done.load());

  release.store(true);
  scheduler.Wait();
  EXPECT_TRUE(slow_done.load());
}

TEST(TaskGroupTest, GroupsOnSharedSchedulerAreIndependent) {
  WorkStealingScheduler scheduler(4);
  TaskGroup first(scheduler);
  TaskGroup second(scheduler);
  std::atomic<int> first_count{0};
  std::atomic<int> second_count{0};
  for (int i = 0; i < 100; ++i) {
    first.Submit([&first_count] { first_count.fetch_add(1); });
    second.Submit([&second_count] { second_count.fetch_add(1); });
  }
  first.Wait();
  EXPECT_EQ(first_count.load(), 100);
  second.Wait();
  EXPECT_EQ(second_count.load(), 100);
}

}  // namespace
}  // namespace pprl
