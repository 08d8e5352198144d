// Minimal logging and invariant-checking macros.
//
// CHECK-style macros abort on violated invariants (programming errors);
// recoverable conditions go through Status (see status.h).

#ifndef PENSIEVE_SRC_COMMON_LOGGING_H_
#define PENSIEVE_SRC_COMMON_LOGGING_H_

#include <cstdlib>
#include <iostream>
#include <sstream>

#include "src/common/status.h"

namespace pensieve {

enum class LogSeverity { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3, kFatal = 4 };

// Messages below this severity are discarded.
constexpr LogSeverity kMinLogSeverity = LogSeverity::kWarning;

// RAII sink: accumulates a message and emits it (to stderr) on destruction.
// kFatal aborts the process after emitting.
class LogMessage {
 public:
  LogMessage(LogSeverity severity, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  std::ostream& stream() { return stream_; }

 private:
  LogSeverity severity_;
  std::ostringstream stream_;
};

// Discards everything streamed to it; used for disabled log levels so that
// the streamed expressions still type-check but cost nothing at runtime.
class NullStream {
 public:
  template <typename T>
  NullStream& operator<<(const T&) {
    return *this;
  }
};

// Lets CHECK macros swallow a trailing stream chain inside a ternary:
// operator& binds looser than operator<<, so the chain evaluates first.
class LogMessageVoidify {
 public:
  void operator&(std::ostream&) {}
};

}  // namespace pensieve

#define PENSIEVE_LOG_DEBUG \
  ::pensieve::LogMessage(::pensieve::LogSeverity::kDebug, __FILE__, __LINE__).stream()
#define PENSIEVE_LOG_INFO \
  ::pensieve::LogMessage(::pensieve::LogSeverity::kInfo, __FILE__, __LINE__).stream()
#define PENSIEVE_LOG_WARNING \
  ::pensieve::LogMessage(::pensieve::LogSeverity::kWarning, __FILE__, __LINE__).stream()
#define PENSIEVE_LOG_ERROR \
  ::pensieve::LogMessage(::pensieve::LogSeverity::kError, __FILE__, __LINE__).stream()
#define PENSIEVE_LOG_FATAL \
  ::pensieve::LogMessage(::pensieve::LogSeverity::kFatal, __FILE__, __LINE__).stream()

#define PENSIEVE_CHECK(cond)                       \
  (cond) ? (void)0                                 \
         : ::pensieve::LogMessageVoidify() &       \
               PENSIEVE_LOG_FATAL << "Check failed: " #cond " "

#define PENSIEVE_CHECK_OP(a, b, op)                                               \
  ((a)op(b)) ? (void)0                                                            \
             : ::pensieve::LogMessageVoidify() &                                  \
                   PENSIEVE_LOG_FATAL << "Check failed: " #a " " #op " " #b " ("  \
                                      << (a) << " vs " << (b) << ") "

#define PENSIEVE_CHECK_EQ(a, b) PENSIEVE_CHECK_OP(a, b, ==)
#define PENSIEVE_CHECK_NE(a, b) PENSIEVE_CHECK_OP(a, b, !=)
#define PENSIEVE_CHECK_LT(a, b) PENSIEVE_CHECK_OP(a, b, <)
#define PENSIEVE_CHECK_LE(a, b) PENSIEVE_CHECK_OP(a, b, <=)
#define PENSIEVE_CHECK_GT(a, b) PENSIEVE_CHECK_OP(a, b, >)
#define PENSIEVE_CHECK_GE(a, b) PENSIEVE_CHECK_OP(a, b, >=)

#define PENSIEVE_CHECK_OK(status_expr)                                         \
  do {                                                                         \
    const ::pensieve::Status& _pensieve_st = (status_expr);                    \
    if (!_pensieve_st.ok()) {                                                  \
      PENSIEVE_LOG_FATAL << "Status not OK: " << _pensieve_st.ToString();      \
    }                                                                          \
  } while (0)

#endif  // PENSIEVE_SRC_COMMON_LOGGING_H_
