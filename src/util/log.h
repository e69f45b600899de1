// Minimal leveled logger.
//
// Logging is off by default (level Warn) so benchmark output stays clean;
// examples raise the level to show protocol traces.
//
// Statements below the global filter cost one relaxed atomic load: the
// WHITEFI_LOG* macros short-circuit before the stream (and its operands)
// are ever evaluated, so disabled log lines do no string formatting.
//
// Lines can carry a simulated-time stamp and a component tag so they can
// be correlated with the structured event trace (src/obs/event_trace.h):
//
//   [INFO  12.304000s core/ap3] AP 3 now on (ch23, 20MHz)
//
// The time stamp appears once a time source is installed (the World does
// this for its simulator clock); the tag comes from WHITEFI_LOG_TAGGED.
#pragma once

#include <atomic>
#include <functional>
#include <sstream>
#include <string>

namespace whitefi {

/// Log severity, ordered.
enum class LogLevel { kTrace = 0, kDebug = 1, kInfo = 2, kWarn = 3, kError = 4 };

/// Sets the global minimum level that will be emitted.
void SetLogLevel(LogLevel level);

/// Returns the current global minimum level.
LogLevel GetLogLevel();

namespace internal {
inline std::atomic<int> g_log_level{static_cast<int>(LogLevel::kWarn)};
}  // namespace internal

/// True iff a statement at `level` passes the global filter.  Cheap enough
/// to guard every log site (one relaxed load).
inline bool LogEnabled(LogLevel level) {
  return static_cast<int>(level) >=
         internal::g_log_level.load(std::memory_order_relaxed);
}

/// Installs a simulated-time source for the calling thread: its
/// subsequent log lines are stamped with `now_seconds()`.  `owner` is an
/// opaque token so a World being destroyed only clears the source it
/// installed itself (scenario harness code creates worlds back to back);
/// the owner must clear it on the thread that installed it.
void SetLogTimeSource(const void* owner, std::function<double()> now_seconds);

/// Clears the calling thread's time source iff `owner` installed it.
void ClearLogTimeSource(const void* owner);

/// Emits one line to stderr if `level` passes the global filter; `tag` (a
/// component label like "core/ap3") may be empty.
void LogLine(LogLevel level, const std::string& tag,
             const std::string& message);

/// Back-compat overload without a component tag.
inline void LogLine(LogLevel level, const std::string& message) {
  LogLine(level, std::string(), message);
}

namespace internal {

/// Stream-style one-shot log statement; emits on destruction.  Only ever
/// constructed when the level passes the filter (see WHITEFI_LOG).
class LogStream {
 public:
  explicit LogStream(LogLevel level, std::string tag = {})
      : level_(level), tag_(std::move(tag)) {}
  ~LogStream() { LogLine(level_, tag_, os_.str()); }
  LogStream(const LogStream&) = delete;
  LogStream& operator=(const LogStream&) = delete;

  template <typename T>
  LogStream& operator<<(const T& value) {
    os_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::string tag_;
  std::ostringstream os_;
};

/// Swallows the LogStream expression in the enabled branch of the macro's
/// ternary so both branches have type void.  operator& binds looser than
/// operator<<, so the whole chained stream is its operand.
struct LogVoidify {
  void operator&(LogStream&) {}
};

}  // namespace internal
}  // namespace whitefi

// The ternary guard means the stream, and every operand of `<<` after it,
// is not evaluated at all when the level is filtered out.
#define WHITEFI_LOG_TAGGED(level, tag)               \
  !::whitefi::LogEnabled(level)                      \
      ? (void)0                                      \
      : ::whitefi::internal::LogVoidify() &          \
            ::whitefi::internal::LogStream(level, tag)
#define WHITEFI_LOG(level) WHITEFI_LOG_TAGGED(level, ::std::string())
#define WHITEFI_LOG_TRACE WHITEFI_LOG(::whitefi::LogLevel::kTrace)
#define WHITEFI_LOG_DEBUG WHITEFI_LOG(::whitefi::LogLevel::kDebug)
#define WHITEFI_LOG_INFO WHITEFI_LOG(::whitefi::LogLevel::kInfo)
#define WHITEFI_LOG_WARN WHITEFI_LOG(::whitefi::LogLevel::kWarn)
#define WHITEFI_LOG_ERROR WHITEFI_LOG(::whitefi::LogLevel::kError)
