#include "measure.h"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <functional>
#include <map>
#include <queue>
#include <sstream>

namespace perfbench {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double ReferenceSeconds() {
  using Event = std::pair<std::uint64_t, int>;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue;
  std::map<int, double> state;
  std::uint64_t x = 88172645463325252ULL;
  double acc = 0.0;
  const double start = NowSeconds();
  for (int i = 0; i < 64; ++i) queue.push({static_cast<std::uint64_t>(i), i});
  for (int i = 0; i < 30000; ++i) {
    const auto [time, node] = queue.top();
    queue.pop();
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    double& s = state[node];
    s = s * 0.999 + std::log1p(static_cast<double>(x & 1023));
    acc += s;
    queue.push({time + 1 + (x & 255),
                static_cast<int>((node * 31 + (x >> 20)) % 2048)});
  }
  const double elapsed = NowSeconds() - start;
  static volatile double sink = 0.0;
  sink = sink + acc;
  return elapsed;
}

void SpeedSamples::Add(double raw_speed) {
  raw.push_back(raw_speed);
  reference_s.push_back(ReferenceSeconds());
}

double SpeedSamples::Normalized() const {
  std::vector<double> normalized;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    normalized.push_back(raw[i] * reference_s[i] / kReferenceNominalSeconds);
  }
  return Median(normalized);
}

void RunResult::Check(const std::string& failure) {
  if (failure.empty()) return;
  correct = false;
  check_failures.push_back(failure);
}

std::string FormatNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[64];
  const auto [end, error] = std::to_chars(buffer, buffer + sizeof buffer, value);
  if (error != std::errc()) return "0";
  return std::string(buffer, end);
}

std::string ResultJson(const RunResult& result,
                       const std::vector<MetricSpec>& specs,
                       const std::map<std::string, double>& values) {
  std::ostringstream os;
  os << "{\"correct\": " << (result.correct ? "true" : "false")
     << ", \"attempted\": " << result.attempted
     << ", \"failed\": " << result.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto found = values.find(specs[i].name);
    const double value = found == values.end() ? 0.0 : found->second;
    if (i > 0) os << ", ";
    os << "\"" << specs[i].name << "\": {\"value\": " << FormatNumber(value)
       << ", \"unit\": \"" << specs[i].unit << "\"}";
  }
  os << "}}";
  return os.str();
}

}  // namespace perfbench
