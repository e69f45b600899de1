// Measurement plumbing shared by the perfbench workloads: wall and CPU
// clocks, peak RSS, order statistics and the result record every workload
// fills in.  Nothing here reaches into the simulator.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Steady-clock seconds since an arbitrary epoch.
double NowSeconds();

/// User + system CPU seconds this process has used so far.
double ProcessCpuSeconds();

/// Peak resident set size of this process, in MB (getrusage ru_maxrss).
double PeakRssMb();

/// Median of `values` (0 for an empty list).
double Median(std::vector<double> values);

/// Nearest-rank percentile `p` in [0, 100] of `values` (0 when empty).
double Percentile(std::vector<double> values, double p);

/// Wall time of one fixed reference job: an event-queue loop (a priority
/// queue of timed events over a map of per-node state, with a little
/// floating point per event) that shares no code with the simulator.
/// This host's speed drifts by up to ~60% for tens of seconds at a time,
/// and the reference job drifts with it.
double ReferenceSeconds();

/// The reference job's wall time on this host in its fast state (4-vCPU
/// KVM Xeon, g++ 12.2, -O3).  A host at this speed reads normalized ==
/// raw speed.
inline constexpr double kReferenceNominalSeconds = 0.0052;

/// Per-pass speeds, each paired with a reference timing taken right after
/// the pass.  Normalized() corrects for host drift: raw speed x reference
/// time / nominal reference time, the median over passes.  The
/// single-World workloads (cell_churn, chaos_recovery) report it; their
/// per-pass cost tracks the reference job (correlation ~0.7).
struct SpeedSamples {
  std::vector<double> raw;
  std::vector<double> reference_s;

  /// Records one pass's raw speed and times the reference job.
  void Add(double raw_speed);
  double Normalized() const;
  double RawMedian() const { return Median(raw); }
};

/// Command-line options every workload receives.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// A metric's name and unit, as BENCHMARK.json declares it.
struct MetricSpec {
  const char* name;
  const char* unit;
};

/// What one benchmark run reports.  `metrics` holds the end-to-end
/// metrics; `layers` the per-layer metrics, filled only by a traced run.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;
  std::map<std::string, double> layers;
  /// One line per failed correctness check (printed to stderr).
  std::vector<std::string> check_failures;

  /// Records a checker's verdict: an empty string passes.
  void Check(const std::string& failure);
};

/// The closing JSON line: correct, attempted, failed and the value of
/// every metric in `specs`, looked up in `values`.  A metric the workload
/// did not measure (a layer it never calls) reads 0.
std::string ResultJson(const RunResult& result,
                       const std::vector<MetricSpec>& specs,
                       const std::map<std::string, double>& values);

/// Shortest round-trip decimal form of `value` (all significant digits).
std::string FormatNumber(double value);

}  // namespace perfbench
