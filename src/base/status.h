#ifndef CCDB_BASE_STATUS_H_
#define CCDB_BASE_STATUS_H_

#include <cstdlib>
#include <cstdio>
#include <optional>
#include <string>
#include <utility>

namespace ccdb {

/// Error categories used across the library.
///
/// The library does not throw exceptions across API boundaries; fallible
/// operations return Status or StatusOr<T>. kUndefined is distinguished from
/// kInvalidArgument because the paper's finite-precision semantics makes
/// queries *partial*: a query whose evaluation exceeds the precision budget
/// has an undefined answer (Section 4 of the paper), which is a semantic
/// outcome, not a caller error.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kUnimplemented,
  kInternal,
  kOutOfRange,
  /// The finite-precision semantics could not produce a value (overflow of
  /// exponent/mantissa in F_k, or bit-length overflow in Z_k).
  kUndefined,
  /// A numerical module failed to converge within its budget.
  kNumericalFailure,
  /// A ResourceGovernor budget (deadline, steps, bytes) was exceeded or the
  /// evaluation was cancelled. Distinguished from kUndefined: kUndefined is
  /// a *semantic* outcome of the finite-precision model (retrying cannot
  /// help), kResourceExhausted is an *operational* one (a retry with more
  /// budget may well succeed).
  kResourceExhausted,
};

/// Returns a short human-readable name for a status code.
const char* StatusCodeToString(StatusCode code);

/// A success-or-error result, modeled after absl::Status.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status Undefined(std::string msg) {
    return Status(StatusCode::kUndefined, std::move(msg));
  }
  static Status NumericalFailure(std::string msg) {
    return Status(StatusCode::kNumericalFailure, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Renders "CODE: message" for diagnostics.
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

/// A value-or-error result, modeled after absl::StatusOr.
template <typename T>
class StatusOr {
 public:
  /// Implicit construction from a value or a non-OK Status keeps call sites
  /// terse (`return value;` / `return Status::Undefined(...)`).
  StatusOr(T value) : status_(), value_(std::move(value)) {}  // NOLINT
  StatusOr(Status status) : status_(std::move(status)) {      // NOLINT
    if (status_.ok()) {
      status_ = Status::Internal("StatusOr constructed with OK status");
    }
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    EnsureOk();
    return *value_;
  }
  T& value() & {
    EnsureOk();
    return *value_;
  }
  T&& value() && {
    EnsureOk();
    return *std::move(value_);
  }

  const T& operator*() const& {
    EnsureOk();
    return *value_;
  }
  T& operator*() & {
    EnsureOk();
    return *value_;
  }
  const T* operator->() const {
    EnsureOk();
    return &*value_;
  }
  T* operator->() {
    EnsureOk();
    return &*value_;
  }

 private:
  // Accessing the value of an error StatusOr is a programming error; abort
  // with the held status instead of dereferencing an empty optional (UB).
  void EnsureOk() const {
    if (!status_.ok()) {
      std::fprintf(stderr,
                   "StatusOr: value accessed on error status — %s\n",
                   status_.ToString().c_str());
      std::abort();
    }
  }

  Status status_;
  std::optional<T> value_;
};

/// Propagates a non-OK Status to the caller.
#define CCDB_RETURN_IF_ERROR(expr)            \
  do {                                        \
    ::ccdb::Status _st = (expr);              \
    if (!_st.ok()) return _st;                \
  } while (0)

#define CCDB_CONCAT_IMPL(a, b) a##b
#define CCDB_CONCAT(a, b) CCDB_CONCAT_IMPL(a, b)

/// Evaluates a StatusOr expression, propagating errors, and binds the value.
#define CCDB_ASSIGN_OR_RETURN(lhs, expr)                         \
  auto CCDB_CONCAT(_ccdb_sor_, __LINE__) = (expr);               \
  if (!CCDB_CONCAT(_ccdb_sor_, __LINE__).ok())                   \
    return CCDB_CONCAT(_ccdb_sor_, __LINE__).status();           \
  lhs = std::move(CCDB_CONCAT(_ccdb_sor_, __LINE__)).value()

}  // namespace ccdb

#endif  // CCDB_BASE_STATUS_H_
