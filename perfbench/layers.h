// Per-layer readings taken from the counters the simulator already keeps
// (obs::MetricsRegistry), shared by the workloads that run worlds.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "measure.h"
#include "obs/metrics.h"

namespace perfbench {

using CounterMap = std::map<std::string, std::uint64_t>;

/// Every counter of `registry`, keyed by metric name.
CounterMap Counters(const whitefi::MetricsRegistry& registry);

/// Adds `from` into `into`, key by key.
void Accumulate(const CounterMap& from, CounterMap& into);

/// Records the medium / MAC / scanner / AP / client / fault counters of
/// `counters`, divided by `passes`, as per-layer metrics of `result`.
void AddProtocolCounters(const CounterMap& counters, double passes,
                         RunResult& result);

}  // namespace perfbench
