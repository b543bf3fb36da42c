// The process-wide executor behind ParallelFor (common/threading.h): every
// task runs exactly once, slots are exclusive while a task holds them,
// nested and concurrent fan-outs complete, and fan-outs reuse one bounded
// set of threads instead of spawning a new set per call. Run under
// ThreadSanitizer in CI.

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "common/threading.h"

namespace tirm {
namespace {

TEST(ParallelForTest, RunsEveryTaskExactlyOnce) {
  for (const int parallelism : {1, 2, 4, 64}) {
    std::vector<std::atomic<int>> runs(257);
    ParallelFor(257, parallelism, [&](int task, int slot) {
      EXPECT_GE(slot, 0);
      EXPECT_LT(slot, parallelism);
      runs[static_cast<std::size_t>(task)].fetch_add(1);
    });
    for (const std::atomic<int>& r : runs) EXPECT_EQ(r.load(), 1);
  }
  ParallelFor(0, 4, [](int, int) { ADD_FAILURE() << "no task to run"; });
}

TEST(ParallelForTest, SerialFanOutRunsInlineOnSlotZero) {
  const int caller = CurrentThreadIndex();
  int ran = 0;
  ParallelFor(16, 1, [&](int task, int slot) {
    EXPECT_EQ(task, ran);  // in order, on the caller
    EXPECT_EQ(slot, 0);
    EXPECT_EQ(CurrentThreadIndex(), caller);
    ++ran;
  });
  EXPECT_EQ(ran, 16);
}

// A slot is held by one running task at a time, so per-slot scratch (the
// sampler of ParallelRrBuilder) is never shared.
TEST(ParallelForTest, SlotsAreExclusive) {
  constexpr int kSlots = 4;
  std::vector<std::atomic<int>> busy(kSlots);
  std::atomic<int> overlaps{0};
  ParallelFor(400, kSlots, [&](int, int slot) {
    if (busy[static_cast<std::size_t>(slot)].fetch_add(1) != 0) ++overlaps;
    volatile int spin = 0;
    for (int i = 0; i < 2000; ++i) spin = spin + i;
    busy[static_cast<std::size_t>(slot)].fetch_sub(1);
  });
  EXPECT_EQ(overlaps.load(), 0);
}

TEST(ParallelForTest, NestedFanOutCompletes) {
  std::atomic<int> leaves{0};
  ParallelFor(8, 8, [&](int, int) {
    ParallelFor(8, 4, [&](int, int) {
      ParallelFor(4, 4, [&](int, int) { leaves.fetch_add(1); });
    });
  });
  EXPECT_EQ(leaves.load(), 8 * 8 * 4);
}

TEST(ParallelForTest, ConcurrentFanOutsFromTwoThreadsComplete) {
  std::atomic<long> sums[2] = {0, 0};
  std::vector<std::thread> callers;
  for (int c = 0; c < 2; ++c) {
    callers.emplace_back([&sums, c] {
      for (int round = 0; round < 50; ++round) {
        ParallelFor(32, 4, [&sums, c](int task, int) {
          sums[c].fetch_add(task + 1);
        });
      }
    });
  }
  for (std::thread& t : callers) t.join();
  for (const std::atomic<long>& sum : sums) EXPECT_EQ(sum.load(), 50L * 528);
}

// Fan-outs run on the persistent pool: over 100 of them, the threads that
// execute tasks are the caller plus at most hardware_concurrency() - 1
// workers. Spawning a thread set per call would show ~100 * 3 indexes.
TEST(ParallelForTest, RepeatedFanOutsReuseBoundedThreads) {
  constexpr int kRounds = 100;
  constexpr int kTasks = 8;
  std::vector<int> ran_on(kRounds * kTasks, -1);
  for (int round = 0; round < kRounds; ++round) {
    ParallelFor(kTasks, 4, [&](int task, int) {
      ran_on[static_cast<std::size_t>(round * kTasks + task)] =
          CurrentThreadIndex();
    });
  }
  const std::set<int> seen(ran_on.begin(), ran_on.end());
  EXPECT_EQ(seen.count(-1), 0u);
  EXPECT_LE(seen.size(), static_cast<std::size_t>(ResolveThreadCount(0)));
}

}  // namespace
}  // namespace tirm
