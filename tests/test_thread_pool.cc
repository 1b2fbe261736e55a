#include "util/thread_pool.h"

#include <atomic>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

namespace seg {
namespace {

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturns) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not deadlock
  SUCCEED();
}

TEST(ThreadPool, ParallelForCoversEveryIndex) {
  ThreadPool pool(3);
  std::vector<int> hits(257, 0);
  parallel_for(pool, hits.size(), [&](std::size_t i) { hits[i] = 1; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0),
            static_cast<int>(hits.size()));
}

TEST(ThreadPool, ReusableAfterWait) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.submit([&] { counter.fetch_add(1); });
  pool.wait_idle();
  pool.submit([&] { counter.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 2);
}

TEST(ThreadPool, DefaultThreadCountPositive) {
  ThreadPool pool;
  EXPECT_GE(pool.thread_count(), 1u);
}

}  // namespace
}  // namespace seg
