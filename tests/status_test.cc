#include "base/status.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace ccdb {
namespace {

TEST(StatusTest, OkByDefault) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_TRUE(status.message().empty());
}

TEST(StatusTest, FactoriesCarryCodeAndMessage) {
  EXPECT_EQ(Status::InvalidArgument("a").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::NotFound("b").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::Undefined("c").code(), StatusCode::kUndefined);
  EXPECT_EQ(Status::ResourceExhausted("d").code(),
            StatusCode::kResourceExhausted);
  Status status = Status::Internal("broken invariant");
  EXPECT_EQ(status.message(), "broken invariant");
  EXPECT_NE(status.ToString().find("broken invariant"), std::string::npos);
}

TEST(StatusTest, EveryCodeHasAName) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kAlreadyExists, StatusCode::kUnimplemented,
        StatusCode::kInternal, StatusCode::kOutOfRange, StatusCode::kUndefined,
        StatusCode::kNumericalFailure, StatusCode::kResourceExhausted}) {
    const char* name = StatusCodeToString(code);
    ASSERT_NE(name, nullptr);
    EXPECT_GT(std::string(name).size(), 0u);
  }
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> result(42);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 42);
  EXPECT_EQ(result.value(), 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> result(Status::NotFound("missing"));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(StatusOrTest, OkStatusIsRejected) {
  // Constructing a StatusOr from an OK status would leave it value-less but
  // "ok"; the constructor demotes that to an internal error instead.
  StatusOr<int> result(Status::Ok());
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
}

using StatusOrDeathTest = ::testing::Test;

// Unchecked access to an error StatusOr must abort loudly with the held
// status — not dereference an empty optional (silent UB).
TEST(StatusOrDeathTest, ValueOnErrorAborts) {
  StatusOr<int> result(Status::NotFound("relation R not found"));
  EXPECT_DEATH(result.value(), "relation R not found");
}

TEST(StatusOrDeathTest, DereferenceOnErrorAborts) {
  StatusOr<std::string> result(Status::Internal("bad state"));
  EXPECT_DEATH(*result, "bad state");
}

TEST(StatusOrDeathTest, ArrowOnErrorAborts) {
  StatusOr<std::vector<int>> result(
      Status::ResourceExhausted("stage=qe.drive reason=steps"));
  EXPECT_DEATH((void)result->size(), "qe.drive");
}

TEST(StatusOrDeathTest, ConstAccessorsAbortToo) {
  const StatusOr<int> result(Status::Undefined("precision overflow"));
  EXPECT_DEATH(result.value(), "precision overflow");
  EXPECT_DEATH(*result, "precision overflow");
}

}  // namespace
}  // namespace ccdb
