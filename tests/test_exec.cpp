// Tests for the execution subsystem (exec::ThreadPool).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "exec/stop_token.h"
#include "exec/thread_pool.h"

namespace otem::exec {
namespace {

TEST(ThreadPool, DefaultConcurrencyIsPositive) {
  EXPECT_GE(default_concurrency(), 1u);
}

TEST(ThreadPool, ThreadCountMatchesRequest) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.thread_count(), 3u);
  ThreadPool serial(1);
  EXPECT_EQ(serial.thread_count(), 1u);
}

TEST(ThreadPool, EmptyRangeIsANoOp) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  pool.parallel_for(0, [&](size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPool, VisitsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  const size_t n = 1000;
  std::vector<std::atomic<int>> hits(n);
  pool.parallel_for(n, [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, SerialPoolVisitsInOrder) {
  ThreadPool pool(1);
  std::vector<size_t> order;
  pool.parallel_for(5, [&](size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, PropagatesTheFirstException) {
  ThreadPool pool(4);
  std::atomic<int> completed{0};
  try {
    pool.parallel_for(64, [&](size_t i) {
      if (i == 13) throw std::runtime_error("boom");
      completed.fetch_add(1);
    });
    FAIL() << "expected the task exception to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom");
  }
  // Every non-throwing index still ran: one failure does not abandon
  // the batch.
  EXPECT_EQ(completed.load(), 63);
}

TEST(ThreadPool, ExceptionOnSerialPathPropagates) {
  ThreadPool pool(1);
  EXPECT_THROW(
      pool.parallel_for(4, [](size_t i) {
        if (i == 2) throw std::invalid_argument("serial boom");
      }),
      std::invalid_argument);
}

TEST(ThreadPool, NestedParallelForRunsSeriallyWithoutDeadlock) {
  ThreadPool pool(4);
  std::atomic<int> inner_calls{0};
  pool.parallel_for(8, [&](size_t) {
    // A nested parallel_for from inside a pool task must degrade to a
    // serial loop on this worker instead of waiting on the pool.
    pool.parallel_for(8, [&](size_t) { inner_calls.fetch_add(1); });
  });
  EXPECT_EQ(inner_calls.load(), 64);
}

TEST(ThreadPool, ReusableAcrossManyBatches) {
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::atomic<long> sum{0};
    pool.parallel_for(100, [&](size_t i) {
      sum.fetch_add(static_cast<long>(i));
    });
    EXPECT_EQ(sum.load(), 4950);
  }
}

TEST(ThreadPool, FreeFunctionHonoursSerialWidth) {
  std::vector<size_t> order;
  parallel_for(4, [&](size_t i) { order.push_back(i); }, /*threads=*/1);
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3}));
}

TEST(ThreadPool, FreeFunctionExplicitWidthVisitsAll) {
  std::vector<std::atomic<int>> hits(64);
  parallel_for(64, [&](size_t i) { hits[i].fetch_add(1); },
               /*threads=*/3);
  for (size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1);
}

// --- stop tokens ------------------------------------------------------------

TEST(StopToken, EmptyTokenNeverStops) {
  StopToken t;
  EXPECT_FALSE(t.stop_possible());
  EXPECT_FALSE(t.stop_requested());
  EXPECT_FALSE(t.deadline_expired());
}

TEST(StopToken, RequestStopTripsEveryToken) {
  StopSource src;
  StopToken a = src.token();
  StopToken b = src.token();
  EXPECT_TRUE(a.stop_possible());
  EXPECT_FALSE(a.stop_requested());
  src.request_stop();
  EXPECT_TRUE(a.stop_requested());
  EXPECT_TRUE(b.stop_requested());
  // An explicit stop is not a deadline.
  EXPECT_FALSE(a.deadline_expired());
}

TEST(StopToken, PastDeadlineTripsAndLatchesAsExpired) {
  const StopSource src = StopSource::with_deadline(
      std::chrono::steady_clock::now() - std::chrono::milliseconds(1));
  StopToken t = src.token();
  EXPECT_TRUE(t.stop_requested());
  EXPECT_TRUE(t.deadline_expired());
}

TEST(StopToken, FutureDeadlineStillAllowsExplicitStop) {
  const StopSource src = StopSource::with_deadline(
      std::chrono::steady_clock::now() + std::chrono::hours(1));
  EXPECT_FALSE(src.token().stop_requested());
  src.request_stop();
  EXPECT_TRUE(src.token().stop_requested());
  EXPECT_FALSE(src.token().deadline_expired());
}

}  // namespace
}  // namespace otem::exec
