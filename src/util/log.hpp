// Minimal leveled logger.
//
// The simulator is a library, so logging is off (Warn) by default and all
// output goes to stderr, keeping stdout clean for benchmark tables. The
// level is a process-wide atomic, and every message goes through a single
// mutex-guarded sink, so concurrent callers (sweep workers, fbcd connection
// threads) can never interleave characters within a line.
#pragma once

#include <atomic>
#include <functional>
#include <sstream>
#include <string>

namespace fbc {

enum class LogLevel : int { Debug = 0, Info = 1, Warn = 2, Error = 3 };

/// Sets the process-wide minimum level that will be emitted.
void set_log_level(LogLevel level) noexcept;

/// Current process-wide log level.
[[nodiscard]] LogLevel log_level() noexcept;

/// Where formatted log lines go. Called with the sink mutex held: calls are
/// strictly serialized, one complete line per call, no trailing newline.
using LogSink = std::function<void(LogLevel, const std::string&)>;

/// Replaces the process-wide sink (default: stderr). Passing an empty
/// function restores the stderr sink. Swapping the sink synchronizes with
/// in-flight log calls via the same mutex that serializes writes.
void set_log_sink(LogSink sink);

namespace detail {
void log_write(LogLevel level, const std::string& message);
}  // namespace detail

/// Statement-style logging:  FBC_LOG(Info) << "loaded " << n << " files";
/// The stream expression is only evaluated when the level is enabled.
#define FBC_LOG(level_name)                                          \
  for (bool fbc_log_once =                                           \
           ::fbc::log_level() <= ::fbc::LogLevel::level_name;        \
       fbc_log_once; fbc_log_once = false)                           \
  ::fbc::detail::LogLine(::fbc::LogLevel::level_name).stream()

namespace detail {
/// RAII helper that buffers one log line and flushes it on destruction.
class LogLine {
 public:
  explicit LogLine(LogLevel level) : level_(level) {}
  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;
  ~LogLine() { log_write(level_, oss_.str()); }
  std::ostringstream& stream() { return oss_; }

 private:
  LogLevel level_;
  std::ostringstream oss_;
};
}  // namespace detail

}  // namespace fbc
