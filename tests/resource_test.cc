#include "base/resource.h"

#include <atomic>
#include <chrono>
#include <thread>

#include <gtest/gtest.h>

#include "base/status.h"

namespace ccdb {
namespace {

TEST(ResourceLimitsTest, DefaultIsUnlimited) {
  ResourceLimits limits;
  EXPECT_TRUE(limits.unlimited());
  EXPECT_FALSE(ResourceLimits::Deadline(1.0).unlimited());
  EXPECT_FALSE(ResourceLimits::Steps(10).unlimited());
  EXPECT_FALSE(ResourceLimits::Bytes(1024).unlimited());
}

TEST(ResourceGovernorTest, UnlimitedNeverTrips) {
  ResourceGovernor gov(ResourceLimits{});
  for (int i = 0; i < 10000; ++i) {
    ASSERT_TRUE(gov.Charge("test.loop").ok());
  }
  gov.ChargeBytes(1ull << 40);
  EXPECT_TRUE(gov.Charge("test.loop").ok());
  EXPECT_FALSE(gov.exhausted());
  EXPECT_EQ(gov.reason(), ExhaustionReason::kNone);
}

TEST(ResourceGovernorTest, StepBudgetTrips) {
  ResourceGovernor gov(ResourceLimits::Steps(5));
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(gov.Charge("test.loop").ok()) << "step " << i;
  }
  Status tripped = gov.Charge("test.loop");
  EXPECT_FALSE(tripped.ok());
  EXPECT_EQ(tripped.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(gov.exhausted());
  EXPECT_EQ(gov.reason(), ExhaustionReason::kSteps);
  EXPECT_EQ(gov.tripped_stage(), "test.loop");
  EXPECT_NE(tripped.message().find("test.loop"), std::string::npos);
  EXPECT_NE(tripped.message().find("steps"), std::string::npos);
}

TEST(ResourceGovernorTest, TripIsSticky) {
  ResourceGovernor gov(ResourceLimits::Steps(1));
  ASSERT_TRUE(gov.Charge("stage.a").ok());
  ASSERT_FALSE(gov.Charge("stage.a").ok());
  // A later charge at a different stage reports the original trip site.
  Status again = gov.Charge("stage.b");
  EXPECT_EQ(again.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(gov.tripped_stage(), "stage.a");
}

TEST(ResourceGovernorTest, ByteBudgetEnforcedOnNextCharge) {
  ResourceGovernor gov(ResourceLimits::Bytes(100));
  gov.ChargeBytes(50);
  EXPECT_TRUE(gov.Charge("test.alloc").ok());
  gov.ChargeBytes(60);  // now over budget; does not trip by itself
  EXPECT_FALSE(gov.exhausted());
  Status tripped = gov.Charge("test.alloc");
  EXPECT_EQ(tripped.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(gov.reason(), ExhaustionReason::kBytes);
  EXPECT_GE(gov.bytes_consumed(), 110u);
}

TEST(ResourceGovernorTest, DeadlineTrips) {
  ResourceGovernor gov(ResourceLimits::Deadline(0.01));
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  Status tripped = gov.Charge("test.slow");
  EXPECT_EQ(tripped.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(gov.reason(), ExhaustionReason::kDeadline);
  EXPECT_GE(gov.elapsed_seconds(), 0.01);
}

TEST(ResourceGovernorTest, CancellationFlagTrips) {
  std::atomic<bool> cancel{false};
  ResourceGovernor gov(ResourceLimits{}, &cancel);
  EXPECT_TRUE(gov.Charge("test.loop").ok());
  cancel.store(true);
  Status tripped = gov.Charge("test.loop");
  EXPECT_EQ(tripped.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(gov.reason(), ExhaustionReason::kCancelled);
}

TEST(ResourceGovernorTest, ResetReArms) {
  ResourceGovernor gov(ResourceLimits::Steps(2));
  ASSERT_TRUE(gov.Charge("test.loop", 2).ok());
  ASSERT_FALSE(gov.Charge("test.loop").ok());
  gov.Reset();
  EXPECT_FALSE(gov.exhausted());
  EXPECT_EQ(gov.reason(), ExhaustionReason::kNone);
  EXPECT_EQ(gov.steps_consumed(), 0u);
  EXPECT_EQ(gov.bytes_consumed(), 0u);
  EXPECT_TRUE(gov.Charge("test.loop").ok());
}

TEST(ResourceGovernorTest, MultiStepChargeCountsAll) {
  ResourceGovernor gov(ResourceLimits::Steps(10));
  ASSERT_TRUE(gov.Charge("test.batch", 7).ok());
  EXPECT_EQ(gov.steps_consumed(), 7u);
  EXPECT_FALSE(gov.Charge("test.batch", 7).ok());
}

TEST(ResourceGovernorTest, ExhaustionReasonNames) {
  EXPECT_STREQ(ExhaustionReasonName(ExhaustionReason::kDeadline), "deadline");
  EXPECT_STREQ(ExhaustionReasonName(ExhaustionReason::kSteps), "steps");
  EXPECT_STREQ(ExhaustionReasonName(ExhaustionReason::kBytes), "bytes");
  EXPECT_STREQ(ExhaustionReasonName(ExhaustionReason::kCancelled),
               "cancelled");
}

// The macro must be a no-op (one pointer comparison) for a null governor.
Status GovernedLoop(const ResourceGovernor* gov, int iterations) {
  for (int i = 0; i < iterations; ++i) {
    CCDB_CHECK_BUDGET(gov, "test.macro");
  }
  return Status::Ok();
}

TEST(CheckBudgetMacroTest, NullGovernorIsUnlimited) {
  EXPECT_TRUE(GovernedLoop(nullptr, 100000).ok());
}

TEST(CheckBudgetMacroTest, PropagatesExhaustion) {
  ResourceGovernor gov(ResourceLimits::Steps(10));
  Status status = GovernedLoop(&gov, 100);
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
}

// Regression test for the parallel engine: once pool workers charge a
// shared governor concurrently, the consumption snapshot that a governed
// query's log record reports as its verdict — and the deadline origin that
// Reset() re-arms between bench cells — must be reachable without a data
// race. Before the counters/origin became atomics, ThreadSanitizer
// flagged this test (concurrent Charge vs Snapshot/Reset on the
// governor's clock origin); it must stay green under -DCCDB_SANITIZE=thread.
TEST(ResourceGovernorTest, ConcurrentChargeSnapshotAndResetAreRaceFree) {
  ResourceGovernor gov(ResourceLimits::Deadline(30.0));
  std::atomic<bool> stop{false};
  std::vector<std::thread> chargers;
  for (int t = 0; t < 4; ++t) {
    chargers.emplace_back([&gov, &stop] {
      while (!stop.load(std::memory_order_acquire)) {
        // Deadline-limited: every charge reads the clock origin.
        (void)gov.Charge("test.concurrent");
        gov.ChargeBytes(8);
      }
    });
  }
  for (int round = 0; round < 200; ++round) {
    ResourceGovernor::Consumption snapshot = gov.Snapshot();
    EXPECT_GE(snapshot.elapsed_seconds, 0.0);
    // bytes/steps grow monotonically between resets; the reading itself
    // must simply be tear-free.
    (void)snapshot.steps;
    (void)snapshot.bytes;
    if (round % 50 == 49) gov.Reset();  // re-arm while charges are in flight
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : chargers) t.join();
  EXPECT_FALSE(gov.exhausted());
}

}  // namespace
}  // namespace ccdb
