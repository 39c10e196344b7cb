#include "common/logging.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/telemetry/span.hpp"  // thread_tag()

namespace glimpse {

namespace {

/// GLIMPSE_LOG_LEVEL=debug|info|warn|error|off (case-sensitive, as
/// documented in README); unset or unrecognized -> the quiet default.
LogLevel level_from_env() {
  const char* env = std::getenv("GLIMPSE_LOG_LEVEL");
  if (env) {
    if (std::strcmp(env, "debug") == 0) return LogLevel::kDebug;
    if (std::strcmp(env, "info") == 0) return LogLevel::kInfo;
    if (std::strcmp(env, "warn") == 0) return LogLevel::kWarn;
    if (std::strcmp(env, "error") == 0) return LogLevel::kError;
    if (std::strcmp(env, "off") == 0) return LogLevel::kOff;
  }
  return LogLevel::kWarn;  // quiet by default; benches raise it
}

/// Minimum level, fixed at startup from GLIMPSE_LOG_LEVEL; messages below
/// it are dropped.
const LogLevel g_level = level_from_env();

const char* level_name(LogLevel l) {
  switch (l) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
    default: return "?";
  }
}
}  // namespace

namespace detail {

void log_emit(LogLevel level, const std::string& msg) {
  if (level < g_level) return;
  // One formatted buffer, one stdio call: concurrent pool threads emit
  // whole lines, never interleaved fragments. The tNN tag says which.
  std::string line = "[";
  line += level_name(level);
  char tid[16];
  std::snprintf(tid, sizeof(tid), " t%02u] ", telemetry::thread_tag());
  line += tid;
  line += msg;
  line += '\n';
  std::fwrite(line.data(), 1, line.size(), stderr);
}

CheckFailure::CheckFailure(const char* expr, const char* file, int line) {
  stream_ << "Check failed: " << expr << " (" << file << ":" << line << ") ";
}

CheckFailure::~CheckFailure() noexcept(false) { throw CheckError(stream_.str()); }

}  // namespace detail
}  // namespace glimpse
