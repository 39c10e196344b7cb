// Minimal leveled logging to stderr, plus CHECK-style assertions that throw
// (exceptions, not abort, so tests can assert on failure paths).
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

namespace glimpse {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

namespace detail {
void log_emit(LogLevel level, const std::string& msg);

class LogMessage {
 public:
  explicit LogMessage(LogLevel level) : level_(level) {}
  ~LogMessage() { log_emit(level_, stream_.str()); }
  template <typename T>
  LogMessage& operator<<(const T& v) {
    stream_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

class CheckFailure {
 public:
  CheckFailure(const char* expr, const char* file, int line);
  [[noreturn]] ~CheckFailure() noexcept(false);
  template <typename T>
  CheckFailure& operator<<(const T& v) {
    stream_ << v;
    return *this;
  }

 private:
  std::ostringstream stream_;
};

}  // namespace detail

}  // namespace glimpse

#define GLIMPSE_LOG(level) ::glimpse::detail::LogMessage(::glimpse::LogLevel::level)
#define LOG_DEBUG GLIMPSE_LOG(kDebug)
#define LOG_INFO GLIMPSE_LOG(kInfo)
#define LOG_WARN GLIMPSE_LOG(kWarn)
#define LOG_ERROR GLIMPSE_LOG(kError)

/// CHECK(cond) << "context"; throws glimpse::CheckError when cond is false.
#define GLIMPSE_CHECK(cond) \
  if (cond) {               \
  } else                    \
    ::glimpse::detail::CheckFailure(#cond, __FILE__, __LINE__)

namespace glimpse {
/// Thrown by GLIMPSE_CHECK failures.
class CheckError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};
}  // namespace glimpse
