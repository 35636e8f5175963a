#ifndef PPRL_COMMON_STATUS_H_
#define PPRL_COMMON_STATUS_H_

#include <string>
#include <utility>
#include <variant>

namespace pprl {

/// Error category for a failed operation.
///
/// The library does not throw exceptions (see DESIGN.md); fallible operations
/// return a `Status` or a `Result<T>` instead, in the style of Arrow/RocksDB.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kOutOfRange,
  kNotFound,
  kAlreadyExists,
  kFailedPrecondition,
  kProtocolViolation,
  kIoError,
  kInternal,
};

/// Returns a human-readable name for `code` (e.g. "InvalidArgument").
const char* StatusCodeToString(StatusCode code);

/// A lightweight success-or-error value.
///
/// An OK status carries no message and is cheap to copy. Construct errors via
/// the named factories: `Status::InvalidArgument("l must be > 0")`.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status ProtocolViolation(std::string msg) {
    return Status(StatusCode::kProtocolViolation, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Renders as "OK" or "<Code>: <message>".
  std::string ToString() const;

  /// The same error with "<context>: " in front of its message; OK stays OK.
  Status WithContext(const std::string& context) const {
    return ok() ? *this : Status(code_, context + ": " + message_);
  }

 private:
  Status(StatusCode code, std::string msg)
      : code_(code), message_(std::move(msg)) {}

  StatusCode code_;
  std::string message_;
};

/// A value of type `T` or an error `Status`.
///
/// Access the value only after checking `ok()`; `value()` on an error result
/// aborts, which is a programming error, not a recoverable condition.
template <typename T>
class Result {
 public:
  /// Implicit construction from a value; mirrors absl::StatusOr ergonomics.
  Result(T value) : rep_(std::move(value)) {}
  /// Implicit construction from an error status. `s` must not be OK.
  Result(Status s) : rep_(std::move(s)) {}

  bool ok() const { return std::holds_alternative<T>(rep_); }

  /// The error status. OK when the result holds a value.
  Status status() const {
    if (ok()) return Status::OK();
    return std::get<Status>(rep_);
  }

  const T& value() const& { return std::get<T>(rep_); }
  T& value() & { return std::get<T>(rep_); }
  T&& value() && { return std::get<T>(std::move(rep_)); }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  std::variant<T, Status> rep_;
};

/// Propagates an error status out of the enclosing function.
#define PPRL_RETURN_IF_ERROR(expr)                  \
  do {                                              \
    ::pprl::Status _pprl_status = (expr);           \
    if (!_pprl_status.ok()) return _pprl_status;    \
  } while (false)

}  // namespace pprl

#endif  // PPRL_COMMON_STATUS_H_
