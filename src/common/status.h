// Lightweight status / error-reporting types used across Pensieve.
//
// Pensieve is a serving system: most internal failures (cache exhaustion,
// bad request parameters) are recoverable conditions that must be reported
// to the scheduler rather than aborting the process, so we use an explicit
// Status type instead of exceptions on hot paths.

#ifndef PENSIEVE_SRC_COMMON_STATUS_H_
#define PENSIEVE_SRC_COMMON_STATUS_H_

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <ostream>
#include <string>
#include <utility>

namespace pensieve {

enum class StatusCode : uint8_t {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kResourceExhausted,
  kFailedPrecondition,
  kOutOfRange,
  kUnimplemented,
  kInternal,
  kDataLoss,
};

// Human-readable name for a status code ("OK", "RESOURCE_EXHAUSTED", ...).
const char* StatusCodeName(StatusCode code);

// Value-semantic status: either OK or a code plus message.
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
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status DataLoss(std::string msg) {
    return Status(StatusCode::kDataLoss, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

std::ostream& operator<<(std::ostream& os, const Status& status);

// One option rule: `broken` holds when a value breaks it, and `message`
// names the field and what it must be. Messages are literals so that a
// passing check allocates nothing.
struct OptionRule {
  bool broken = false;
  const char* message = "";
};

// InvalidArgument with the message of the first broken rule, else Ok. The
// options structs list their rules through it in their Validate().
Status CheckRules(std::initializer_list<OptionRule> rules);

// Minimal StatusOr: either a Status (non-OK) or a value.
template <typename T>
class StatusOr {
 public:
  StatusOr(Status status) : status_(std::move(status)) {}  // NOLINT(runtime/explicit)
  StatusOr(T value) : value_(std::move(value)) {}          // NOLINT(runtime/explicit)

  bool ok() const { return value_.has_value(); }
  const Status& status() const { return status_; }

  const T& value() const& { return *value_; }
  T& value() & { return *value_; }
  T&& value() && { return *std::move(value_); }

  const T& operator*() const& { return *value_; }
  T& operator*() & { return *value_; }
  const T* operator->() const { return &*value_; }
  T* operator->() { return &*value_; }

 private:
  Status status_;
  std::optional<T> value_;
};

}  // namespace pensieve

#endif  // PENSIEVE_SRC_COMMON_STATUS_H_
