// Stress/property tests for the work-stealing pool: seeded random task
// graphs (nested ParallelFor), tasks that throw or return error Status,
// governor exhaustion mid-flight, cancellation from another thread — and
// the invariants that no task is lost, no call deadlocks, errors report
// the lowest failing index, and kResourceExhausted stays sticky.

#include "base/thread_pool.h"

#include <atomic>
#include <cstdint>
#include <numeric>
#include <random>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "base/metrics.h"
#include "base/resource.h"

namespace ccdb {
namespace {

TEST(ThreadPoolTest, SerialPoolRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.threads(), 1);
  EXPECT_EQ(pool.workers(), 0);
  std::vector<int> order;
  Status status = pool.ParallelFor(5, [&](std::size_t i) -> Status {
    order.push_back(static_cast<int>(i));  // safe: inline on the caller
    return Status::Ok();
  });
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPoolTest, EveryIndexRunsExactlyOnce) {
  for (int threads : {1, 2, 4, 8}) {
    ThreadPool pool(threads);
    constexpr std::size_t kCount = 500;
    std::vector<std::atomic<int>> runs(kCount);
    Status status = pool.ParallelFor(kCount, [&](std::size_t i) -> Status {
      runs[i].fetch_add(1, std::memory_order_relaxed);
      return Status::Ok();
    });
    ASSERT_TRUE(status.ok());
    for (std::size_t i = 0; i < kCount; ++i) {
      EXPECT_EQ(runs[i].load(), 1) << "index " << i << " threads " << threads;
    }
  }
}

TEST(ThreadPoolTest, ParallelMapIsIndexAddressed) {
  ThreadPool pool(8);
  auto result = pool.ParallelMap<std::uint64_t>(
      256, [](std::size_t i) -> StatusOr<std::uint64_t> {
        return static_cast<std::uint64_t>(i * i);
      });
  ASSERT_TRUE(result.ok());
  for (std::size_t i = 0; i < result->size(); ++i) {
    EXPECT_EQ((*result)[i], i * i);
  }
}

TEST(ThreadPoolTest, LowestFailingIndexWins) {
  for (int threads : {1, 4, 8}) {
    ThreadPool pool(threads);
    Status status = pool.ParallelFor(64, [&](std::size_t i) -> Status {
      if (i >= 7 && i % 3 == 1) {
        return Status::Internal("failed at " + std::to_string(i));
      }
      return Status::Ok();
    });
    ASSERT_FALSE(status.ok());
    // Indices are claimed in order, so the lowest failing index (7) always
    // runs; the verdict must not depend on completion order.
    EXPECT_EQ(status.message(), "failed at 7") << "threads " << threads;
  }
}

TEST(ThreadPoolTest, ExceptionsPropagateToTheCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(
      {
        (void)pool.ParallelFor(32, [](std::size_t i) -> Status {
          if (i == 3) throw std::runtime_error("boom");
          return Status::Ok();
        });
      },
      std::runtime_error);
}

TEST(ThreadPoolTest, SubmitDrainsEveryTask) {
  constexpr int kTasks = 200;
  std::atomic<int> done{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < kTasks; ++i) {
      pool.Submit([&done] { done.fetch_add(1, std::memory_order_relaxed); });
    }
    // Destruction joins the workers and runs any still-queued tasks
    // inline, so nothing submitted is ever lost.
  }
  EXPECT_EQ(done.load(), kTasks);
}

// Seeded random nested task graphs: every node of a random fan-out tree
// increments its slot exactly once, across pools of several widths. This
// is the no-deadlock / no-lost-task property test — nested ParallelFor is
// exactly how parallel QE recurses (disjunct split -> CAD lift -> FM).
TEST(ThreadPoolTest, SeededRandomNestedTaskGraphs) {
  for (std::uint64_t seed : {1u, 7u, 42u}) {
    for (int threads : {2, 8}) {
      ThreadPool pool(threads);
      std::mt19937_64 rng(seed);
      const int depth = 3;
      std::atomic<std::uint64_t> nodes{0};
      // Derive per-node fan-outs deterministically from the seed so the
      // expected node count is computable up front.
      std::vector<std::size_t> fanout(depth);
      std::uint64_t expected = 0, layer = 1;
      for (int d = 0; d < depth; ++d) {
        fanout[d] = 2 + rng() % 4;  // 2..5 children per node
        layer *= fanout[d];
        expected += layer;
      }
      std::function<Status(int)> spawn = [&](int level) -> Status {
        if (level == depth) return Status::Ok();
        return pool.ParallelFor(fanout[level], [&, level](std::size_t) {
          nodes.fetch_add(1, std::memory_order_relaxed);
          return spawn(level + 1);
        });
      };
      ASSERT_TRUE(spawn(0).ok());
      EXPECT_EQ(nodes.load(), expected)
          << "seed " << seed << " threads " << threads;
    }
  }
}

TEST(ThreadPoolTest, GovernorExhaustionMidFlightIsSticky) {
  ThreadPool pool(8);
  ResourceGovernor gov(ResourceLimits::Steps(50));
  Status status = pool.ParallelFor(64, [&](std::size_t) -> Status {
    for (int step = 0; step < 10; ++step) {
      Status charge = gov.Charge("test.parallel");
      if (!charge.ok()) return charge;
    }
    return Status::Ok();
  });
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(gov.exhausted());
  EXPECT_EQ(gov.reason(), ExhaustionReason::kSteps);
  // Sticky: every later charge reports the same verdict.
  Status again = gov.Charge("test.after");
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(again.message(), status.message());
}

TEST(ThreadPoolTest, CancellationFromAnotherThreadStopsTheBatch) {
  ThreadPool pool(4);
  std::atomic<bool> cancel{false};
  ResourceGovernor gov(ResourceLimits{}, &cancel);
  std::atomic<bool> started{false};
  std::thread canceller([&] {
    while (!started.load(std::memory_order_acquire)) std::this_thread::yield();
    cancel.store(true, std::memory_order_release);
  });
  Status status = pool.ParallelFor(32, [&](std::size_t) -> Status {
    started.store(true, std::memory_order_release);
    // Charge until the external flag is observed; an uncancelled governor
    // with no limits never trips, so this loop ends only via cancellation.
    while (true) {
      Status charge = gov.Charge("test.cancel");
      if (!charge.ok()) return charge;
    }
  });
  canceller.join();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(gov.reason(), ExhaustionReason::kCancelled);
}

TEST(ThreadPoolTest, FailureSkipsUnclaimedWorkButFinishesClaimed) {
  ThreadPool pool(4);
  std::atomic<int> executed{0};
  Status status = pool.ParallelFor(1000, [&](std::size_t i) -> Status {
    executed.fetch_add(1, std::memory_order_relaxed);
    if (i == 0) return Status::Internal("early failure");
    return Status::Ok();
  });
  ASSERT_FALSE(status.ok());
  // The batch must terminate (every claimed body ran to completion) but
  // is allowed to skip work claimed after the failure was recorded.
  EXPECT_GE(executed.load(), 1);
  EXPECT_LE(executed.load(), 1000);
}

TEST(ThreadPoolTest, NullPoolIsTheCallingThread) {
  ThreadPool* pool = ThreadPool::Resolve(nullptr);
  ASSERT_NE(pool, nullptr);
  EXPECT_EQ(pool->threads(), 1);
  ThreadPool local(2);
  EXPECT_EQ(ThreadPool::Resolve(&local), &local);

  // Every index runs on the calling thread, in order, and no task is
  // queued.
  Counter* queued =
      MetricsRegistry::Global().GetCounter("threadpool.tasks_queued");
  std::uint64_t queued_before = queued->value();
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  Status status = pool->ParallelFor(64, [&](std::size_t i) -> Status {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
    return Status::Ok();
  });
  ASSERT_TRUE(status.ok());
  std::vector<std::size_t> expected(64);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
  EXPECT_EQ(queued->value(), queued_before);
}

}  // namespace
}  // namespace ccdb
