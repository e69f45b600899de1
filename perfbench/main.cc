// perfbench — the end-to-end benchmark binary.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--layers-out PATH]
//   perfbench --self-test
//
// Runs one workload (city, cell_churn, signal_scan, chaos_recovery) and
// prints, as the last line of stdout, one JSON object: the verdict of the
// workload's correctness checks, the operations attempted and failed, and
// the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
// A traced run also writes its per-layer metrics, and its own end-to-end
// figures (for the tracing overhead), to --layers-out.
//
// --self-test hands every correctness check a deliberately wrong result
// and exits non-zero unless each one rejects it.
//
// Timings are only meaningful from an optimized build: anything but a
// Release build refuses to run.
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>

#include "checks.h"
#include "measure.h"
#include "workloads.h"

namespace perfbench {
namespace {

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE ""
#endif

const std::vector<MetricSpec> kEndToEnd = {
    {"sim_speed", "s/s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

const std::vector<MetricSpec> kPerLayer = {
    {"host.raw_sim_speed", "s/s"},
    {"host.reference_ms", "ms"},
    {"shard.round_ms_p50", "ms"},
    {"shard.round_ms_p95", "ms"},
    {"shard.rounds", "count"},
    {"shard.messages", "count"},
    {"shard.ghosts", "count"},
    {"shard.ghosts_per_round", "count"},
    {"shard.roams", "count"},
    {"shard.tile_imbalance", "ratio"},
    {"util.parallel.busy_cores", "cores"},
    {"shard.setup.generate_s", "s"},
    {"shard.setup.build_s", "s"},
    {"sim.events", "count"},
    {"sim.events_per_s", "1/s"},
    {"medium.deliver_ms", "ms"},
    {"mcham.evaluate_ms", "ms"},
    {"sim.unprofiled_share", "ratio"},
    {"medium.tx", "count"},
    {"medium.rx", "count"},
    {"medium.drop", "count"},
    {"mac.retries", "count"},
    {"scanner.dwells", "count"},
    {"ap.switches", "count"},
    {"phy.synth_msps", "MS/s"},
    {"sift.detect_msps", "MS/s"},
    {"sift.match_ms", "ms"},
    {"sift.bursts", "count"},
    {"sift.exchanges", "count"},
    {"sift.duration_match_min", "ratio"},
    {"sift.trace_mb", "MB"},
    {"core.trial_ms_p50", "ms"},
    {"audit.overhead_share", "ratio"},
    {"client.chirps", "count"},
    {"ap.chirps_heard", "count"},
    {"client.stranded", "count"},
    {"client.outage_s_p50", "s"},
    {"fault.injected", "count"},
};

/// A metric a workload filled in that BENCHMARK.json does not declare is
/// a programming error: it would never be printed.
std::string UndeclaredMetric(const std::map<std::string, double>& values,
                             const std::vector<MetricSpec>& specs) {
  for (const auto& [name, value] : values) {
    bool declared = false;
    for (const MetricSpec& spec : specs) declared |= name == spec.name;
    if (!declared) return name;
  }
  return "";
}

void WriteLayers(const std::string& path, const RunOptions& options,
                 const RunResult& result) {
  std::ofstream os(path);
  os << "{\"workload\": \"" << options.workload << "\", \"seed\": "
     << options.seed << ", \"seconds\": " << FormatNumber(options.seconds)
     << ",\n \"traced_end_to_end\": "
     << ResultJson(result, kEndToEnd, result.metrics)
     << ",\n \"per_layer\": " << ResultJson(result, kPerLayer, result.layers)
     << "}\n";
  if (!os.good()) throw std::runtime_error("cannot write " + path);
}

int Usage() {
  std::cerr << "usage: perfbench --workload city|cell_churn|signal_scan|"
               "chaos_recovery --seed N --seconds S --trace 0|1 "
               "[--layers-out PATH]\n"
               "       perfbench --self-test\n";
  return 2;
}

int Main(int argc, char** argv) {
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  if (build_type != "release") {
    std::cerr << "error: perfbench built as '" << build_type
              << "'; timings need a Release build\n";
    return 2;
  }
  RunOptions options;
  std::string layers_out;
  bool self_test = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      auto next = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
        return argv[++i];
      };
      if (flag == "--workload") options.workload = next();
      else if (flag == "--seed") options.seed = std::stoull(next());
      else if (flag == "--seconds") options.seconds = std::stod(next());
      else if (flag == "--trace") options.trace = std::stoi(next()) != 0;
      else if (flag == "--layers-out") layers_out = next();
      else if (flag == "--self-test") self_test = true;
      else return Usage();
    }
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return Usage();
  }
  if (self_test) {
    const int misbehaved = SelfTest();
    std::cout << (misbehaved == 0 ? "self-test passed\n" : "self-test FAILED\n");
    return misbehaved == 0 ? 0 : 1;
  }
  if (!(options.seconds > 0.0)) {
    std::cerr << "error: --seconds must be positive\n";
    return 2;
  }

  RunResult result;
  if (options.workload == "city") result = RunCity(options);
  else if (options.workload == "cell_churn") result = RunCellChurn(options);
  else if (options.workload == "signal_scan") result = RunSignalScan(options);
  else if (options.workload == "chaos_recovery") {
    result = RunChaosRecovery(options);
  } else {
    std::cerr << "error: unknown workload '" << options.workload << "'\n";
    return Usage();
  }
  result.metrics["peak_rss_mb"] = PeakRssMb();

  const std::string stray = UndeclaredMetric(result.metrics, kEndToEnd) +
                            UndeclaredMetric(result.layers, kPerLayer);
  if (!stray.empty()) {
    std::cerr << "error: undeclared metric " << stray << "\n";
    return 1;
  }
  std::cerr << options.workload << ": raw sim_speed "
            << FormatNumber(result.layers["host.raw_sim_speed"])
            << " s/s, reference job "
            << FormatNumber(result.layers["host.reference_ms"]) << " ms\n";
  for (const std::string& failure : result.check_failures) {
    std::cerr << "check failed: " << failure << "\n";
  }
  if (options.trace && !layers_out.empty()) {
    WriteLayers(layers_out, options, result);
  }
  std::cout << (options.trace ? ResultJson(result, kPerLayer, result.layers)
                              : ResultJson(result, kEndToEnd, result.metrics))
            << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
}
