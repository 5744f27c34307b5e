#ifndef WEBTAB_COMMON_STATUS_H_
#define WEBTAB_COMMON_STATUS_H_

#include <string>
#include <string_view>
#include <optional>
#include <utility>

namespace webtab {

/// Error categories for recoverable failures. The library does not throw
/// exceptions; fallible operations return Status or Result<T>.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kFailedPrecondition,
  kOutOfRange,
  kInternal,
  kIoError,
  kParseError,
  kUnavailable,
  kDeadlineExceeded,
};

/// Human-readable name for a status code ("Ok", "InvalidArgument", ...).
std::string_view StatusCodeName(StatusCode code);

/// A RocksDB/Abseil-style status object: either OK or an error code with a
/// message. Cheap to copy when OK.
class Status {
 public:
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
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status ParseError(std::string msg) {
    return Status(StatusCode::kParseError, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "Ok" or "<CodeName>: <message>".
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

/// Either a value of type T or an error Status. Modeled after absl::StatusOr.
/// Stored as an always-constructed Status beside an optional value (not
/// a std::variant): GCC's flow analysis cannot see through the variant's
/// index when destroying it and reports -Wmaybe-uninitialized on the
/// inactive Status alternative.
template <typename T>
class Result {
 public:
  /// Constructs an OK result holding `value`.
  Result(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)
  /// Constructs an error result. `status` must not be OK.
  Result(Status status)  // NOLINT(runtime/explicit)
      : status_(std::move(status)) {}

  bool ok() const { return value_.has_value(); }

  /// OK when ok(); the error otherwise.
  const Status& status() const { return status_; }

  /// Requires ok(). Throws std::bad_optional_access otherwise (the
  /// library never relies on it; callers test ok() first).
  const T& value() const& { return value_.value(); }
  T& value() & { return value_.value(); }
  T&& value() && { return std::move(value_).value(); }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  Status status_;
  std::optional<T> value_;
};

/// Propagates a non-OK status from an expression producing a Status.
#define WEBTAB_RETURN_IF_ERROR(expr)                   \
  do {                                                 \
    ::webtab::Status webtab_status_tmp_ = (expr);      \
    if (!webtab_status_tmp_.ok()) return webtab_status_tmp_; \
  } while (false)

}  // namespace webtab

#endif  // WEBTAB_COMMON_STATUS_H_
