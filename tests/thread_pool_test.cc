#include "common/thread_pool.h"

#include <atomic>
#include <chrono>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace pprl {
namespace {

TEST(ShardSchedulerTest, RunsAllSubmittedShards) {
  ShardScheduler scheduler(4);
  TaskGroup group(scheduler);
  std::atomic<int> counter{0};
  for (int i = 0; i < 500; ++i) {
    group.Submit([&counter] { counter.fetch_add(1); });
  }
  group.Wait();
  EXPECT_EQ(counter.load(), 500);
}

TEST(ShardSchedulerTest, ReusableAcrossWaves) {
  ShardScheduler scheduler(3);
  TaskGroup group(scheduler);
  std::atomic<int> counter{0};
  for (int wave = 0; wave < 3; ++wave) {
    for (int i = 0; i < 50; ++i) {
      group.Submit([&counter] { counter.fetch_add(1); });
    }
    group.Wait();
  }
  EXPECT_EQ(counter.load(), 150);
}

/// The window is derived from the worker count, clamp(4 × threads, 8, 64):
/// with every worker parked, Submit() must queue exactly that many shards
/// and then block the producer.
TEST(ShardSchedulerTest, BackpressureBoundsPendingShards) {
  for (const auto& [threads, window] :
       std::vector<std::pair<size_t, size_t>>{{1, 8}, {4, 16}, {32, 64}}) {
    ASSERT_EQ(ShardScheduler::PendingWindow(threads), window);
    ShardScheduler scheduler(threads);
    TaskGroup group(scheduler);

    // Park every worker so submissions pile up against the window.
    std::atomic<bool> release{false};
    std::atomic<size_t> parked{0};
    for (size_t i = 0; i < threads; ++i) {
      group.Submit([&] {
        parked.fetch_add(1);
        while (!release.load()) std::this_thread::yield();
      });
    }
    while (parked.load() < threads) std::this_thread::yield();

    // The producer must fill the window and then block on the next shard.
    // Run it on a side thread and verify it cannot finish until the
    // workers are released.
    std::atomic<size_t> submitted{0};
    const size_t total = window + 20;
    std::thread producer([&] {
      for (size_t i = 0; i < total; ++i) {
        group.Submit([] {});
        submitted.fetch_add(1);
      }
    });
    while (scheduler.pending() < window) std::this_thread::yield();
    // Give the producer ample time to overshoot if backpressure were broken.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    EXPECT_EQ(submitted.load(), window) << threads << " workers";
    EXPECT_EQ(scheduler.pending(), window) << threads << " workers";

    release.store(true);
    producer.join();
    group.Wait();
    EXPECT_EQ(submitted.load(), total);
  }
}

TEST(ShardSchedulerTest, ParkedShardDoesNotHoldBackTheQueue) {
  ShardScheduler scheduler(4);
  TaskGroup group(scheduler);
  // The gate shard parks its worker until another worker has finished one
  // of the shards queued behind it.
  std::atomic<int> done{0};
  group.Submit([&done] {
    while (done.load() == 0) std::this_thread::yield();
  });
  for (int i = 0; i < 100; ++i) {
    group.Submit([&done] { done.fetch_add(1); });
  }
  group.Wait();
  EXPECT_EQ(done.load(), 100);
}

/// Eight workers contending for one queue: every shard must still run
/// exactly once.
TEST(ShardSchedulerTest, EachShardRunsExactlyOnceOnEightWorkers) {
  ShardScheduler scheduler(8);
  TaskGroup group(scheduler);
  constexpr int kShards = 4000;
  std::vector<std::atomic<int>> runs(kShards);
  // Gate one worker until another has finished a shard (same trick as
  // ParkedShardDoesNotHoldBackTheQueue), so at least two workers share
  // the queue even on a box with fewer cores than workers.
  std::atomic<int> done{0};
  group.Submit([&done] {
    while (done.load() == 0) std::this_thread::yield();
  });
  for (int i = 0; i < kShards; ++i) {
    group.Submit([&runs, &done, i] {
      runs[i].fetch_add(1);
      done.fetch_add(1);
    });
  }
  group.Wait();
  for (int i = 0; i < kShards; ++i) {
    ASSERT_EQ(runs[i].load(), 1) << "shard " << i;
  }
}

TEST(ShardSchedulerTest, DestructorDrainsInFlightShards) {
  std::atomic<int> counter{0};
  {
    ShardScheduler scheduler(3);
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
  ShardScheduler scheduler(2);
  // A slow shard from another "session" sharing the scheduler must not
  // block this group's Wait().
  std::atomic<bool> release{false};
  std::atomic<bool> slow_done{false};
  TaskGroup slow(scheduler);
  slow.Submit([&] {
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
  slow.Wait();
  EXPECT_TRUE(slow_done.load());
}

TEST(TaskGroupTest, GroupsOnSharedSchedulerAreIndependent) {
  ShardScheduler scheduler(4);
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

/// Every RunTasks call on a pool (each linkage call's index builds and
/// candidate-range tasks) waits on a stack TaskGroup and drops it at once. Wait() must not return while the worker that ran the last task
/// can still touch the group; under ThreadSanitizer, a group that is
/// signalled after its count reaches zero is reported as a use after its
/// scope within this many short-lived groups.
TEST(TaskGroupTest, ShortLivedGroupsNeverOutliveTheirTasks) {
  ShardScheduler scheduler(2);
  int ran = 0;
  for (int i = 0; i < 100000; ++i) {
    TaskGroup group(scheduler);
    group.Submit([&ran] { ++ran; });
    group.Wait();
  }
  EXPECT_EQ(ran, 100000);
}

}  // namespace
}  // namespace pprl
