// Tests for the execution subsystem: exec::parallel_for and the stop
// tokens.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exec/parallel_for.h"
#include "exec/stop_token.h"

namespace otem::exec {
namespace {

TEST(ParallelFor, DefaultConcurrencyIsPositive) {
  EXPECT_GE(default_concurrency(), 1u);
}

TEST(ParallelFor, EmptyRangeIsANoOp) {
  std::atomic<int> calls{0};
  parallel_for(0, [&](size_t) { calls.fetch_add(1); }, 4);
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  const size_t n = 1000;
  std::vector<std::atomic<int>> hits(n);
  parallel_for(n, [&](size_t i) { hits[i].fetch_add(1); }, 4);
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelFor, WidthOneRunsInlineInIndexOrder) {
  std::vector<size_t> order;
  std::set<std::thread::id> ids;
  parallel_for(
      5,
      [&](size_t i) {
        order.push_back(i);
        ids.insert(std::this_thread::get_id());
      },
      1);
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(ids, (std::set<std::thread::id>{std::this_thread::get_id()}));
}

TEST(ParallelFor, TheCallerWorksBesideWidthMinusOneThreads) {
  // Every index waits until all three have started, so the range can
  // only finish if three threads run it at once: the caller and two
  // started for this call.
  constexpr size_t kWidth = 3;
  std::mutex mutex;
  std::set<std::thread::id> ids;
  std::atomic<size_t> started{0};
  parallel_for(
      kWidth,
      [&](size_t) {
        {
          const std::lock_guard<std::mutex> lock(mutex);
          ids.insert(std::this_thread::get_id());
        }
        started.fetch_add(1);
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (started.load() < kWidth &&
               std::chrono::steady_clock::now() < deadline)
          std::this_thread::yield();
      },
      kWidth);
  EXPECT_EQ(ids.size(), kWidth);
  EXPECT_EQ(ids.count(std::this_thread::get_id()), 1u);
}

TEST(ParallelFor, PropagatesTheFirstExceptionAfterEveryIndexRan) {
  for (size_t threads : {1u, 4u}) {
    std::atomic<int> completed{0};
    try {
      parallel_for(
          64,
          [&](size_t i) {
            if (i == 13) throw std::runtime_error("boom");
            completed.fetch_add(1);
          },
          threads);
      FAIL() << "expected the exception to propagate, threads=" << threads;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "boom");
    }
    // One failure does not abandon the range, at any width.
    EXPECT_EQ(completed.load(), 63) << "threads=" << threads;
  }
}

TEST(ParallelFor, NestedCallsRunAtTheirOwnWidth) {
  std::atomic<int> inner_calls{0};
  parallel_for(
      8,
      [&](size_t) {
        parallel_for(8, [&](size_t) { inner_calls.fetch_add(1); }, 3);
      },
      4);
  EXPECT_EQ(inner_calls.load(), 64);
}

TEST(ParallelFor, RepeatedCallsEachJoinTheirThreads) {
  for (int round = 0; round < 50; ++round) {
    std::atomic<long> sum{0};
    parallel_for(
        100, [&](size_t i) { sum.fetch_add(static_cast<long>(i)); }, 4);
    EXPECT_EQ(sum.load(), 4950);
  }
}

TEST(ParallelFor, DefaultWidthHonoursOtemThreads) {
  // threads = 0 resolves through default_concurrency(): OTEM_THREADS=1
  // runs the whole range on the calling thread.
  std::optional<std::string> old;
  if (const char* v = std::getenv("OTEM_THREADS")) old = v;
  ::setenv("OTEM_THREADS", "1", 1);
  std::set<std::thread::id> ids;
  parallel_for(16, [&](size_t) { ids.insert(std::this_thread::get_id()); });
  if (old)
    ::setenv("OTEM_THREADS", old->c_str(), 1);
  else
    ::unsetenv("OTEM_THREADS");
  EXPECT_EQ(ids, (std::set<std::thread::id>{std::this_thread::get_id()}));
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
