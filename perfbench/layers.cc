#include "layers.h"

namespace perfbench {

CounterMap Counters(const whitefi::MetricsRegistry& registry) {
  CounterMap out;
  for (const auto& entry : registry.Snapshot().counters) {
    out[entry.name] += entry.value;
  }
  return out;
}

void Accumulate(const CounterMap& from, CounterMap& into) {
  for (const auto& [name, value] : from) into[name] += value;
}

namespace {

/// Sum of every counter whose name starts with `prefix` (the medium keeps
/// one counter per frame type, e.g. whitefi.medium.tx.Data).
double SumPrefix(const CounterMap& counters, const std::string& prefix) {
  std::uint64_t total = 0;
  for (auto it = counters.lower_bound(prefix);
       it != counters.end() && it->first.compare(0, prefix.size(), prefix) == 0;
       ++it) {
    total += it->second;
  }
  return static_cast<double>(total);
}

}  // namespace

void AddProtocolCounters(const CounterMap& counters, double passes,
                         RunResult& result) {
  const struct {
    const char* layer;
    const char* counter;
  } kMap[] = {
      {"medium.tx", "whitefi.medium.tx."},
      {"medium.rx", "whitefi.medium.rx."},
      {"medium.drop", "whitefi.medium.drop."},
      {"mac.retries", "whitefi.mac.retries"},
      {"scanner.dwells", "whitefi.scanner.dwells"},
      {"ap.switches", "whitefi.ap.switches"},
      {"client.chirps", "whitefi.client.chirps"},
      {"ap.chirps_heard", "whitefi.ap.chirps_heard"},
      {"fault.injected", "whitefi.fault.injected"},
  };
  for (const auto& entry : kMap) {
    result.layers[entry.layer] = SumPrefix(counters, entry.counter) / passes;
  }
}

}  // namespace perfbench
