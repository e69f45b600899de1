#include "util/log.h"

#include <iomanip>
#include <iostream>

namespace whitefi {
namespace {

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace: return "TRACE";
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO ";
    case LogLevel::kWarn: return "WARN ";
    case LogLevel::kError: return "ERROR";
  }
  return "?????";
}

// The installed simulated-time source and its owner token, per thread:
// parallel trials build worlds on several threads at once, and each
// thread's log lines carry the time of the world it built last.  The
// owner check keeps a dying world from clearing a newer world's source.
thread_local const void* g_time_owner = nullptr;
thread_local std::function<double()> g_time_source;

}  // namespace

void SetLogLevel(LogLevel level) {
  internal::g_log_level.store(static_cast<int>(level),
                              std::memory_order_relaxed);
}

LogLevel GetLogLevel() {
  return static_cast<LogLevel>(
      internal::g_log_level.load(std::memory_order_relaxed));
}

void SetLogTimeSource(const void* owner, std::function<double()> now_seconds) {
  g_time_owner = owner;
  g_time_source = std::move(now_seconds);
}

void ClearLogTimeSource(const void* owner) {
  if (g_time_owner != owner) return;
  g_time_owner = nullptr;
  g_time_source = nullptr;
}

void LogLine(LogLevel level, const std::string& tag,
             const std::string& message) {
  if (!LogEnabled(level)) return;
  std::cerr << "[" << LevelName(level);
  if (g_time_source) {
    std::cerr << " " << std::fixed << std::setprecision(6) << g_time_source()
              << "s" << std::defaultfloat;
  }
  if (!tag.empty()) std::cerr << " " << tag;
  std::cerr << "] " << message << "\n";
}

}  // namespace whitefi
