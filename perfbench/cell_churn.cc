// cell_churn: Figure 13's single cell at mid churn, run scenario after
// scenario, serially, through bench::RunScenario.
//
// The campus map, 4 backlogged clients, 34 Markov on/off background pairs
// at Figure 13's p=1/2 d=30s point, adaptive MCham, and a mic that keys
// up on the operating channel mid-measurement.  This is the single-World
// run path behind every paper figure and scenario_cli: the event engine,
// medium, MAC, scanner and MCham do all of its work and src/shard none.
#include <algorithm>

#include "checks.h"
#include "layers.h"
#include "obs/phase_timer.h"
#include "scenario.h"
#include "spectrum/campus.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace whitefi;

constexpr int kClients = 4;
constexpr int kWhiteFiSsid = 1;
constexpr double kWarmupS = 3.0;
constexpr double kMeasureS = 7.0;
constexpr double kMicOnS = 5.0;
constexpr double kMicOffS = 8.0;

bench::ScenarioConfig MakeConfig(std::uint64_t seed) {
  bench::ScenarioConfig config;
  config.seed = seed;
  config.base_map = CampusSimulationMap();
  config.num_clients = kClients;
  config.warmup_s = kWarmupS;
  config.measure_s = kMeasureS;
  ApParams ap;
  ap.assignment_interval = 3 * kTicksPerSec;
  ap.first_assignment_delay = 1 * kTicksPerSec;
  ap.scanner.dwell = 100 * kTicksPerMs;
  config.ap_params = ap;

  // Stationary active probability 1/2 with a 30 s mean holding time.
  MarkovOnOffSource::Params markov;
  markov.initial_active_probability = 0.5;
  markov.mean_active = static_cast<SimTime>(2.0 * 30.0 * 0.5 * kTicksPerSec);
  markov.mean_passive = markov.mean_active;
  for (UhfIndex c : config.base_map.FreeIndices()) {
    for (int k = 0; k < 2; ++k) {  // Two pairs per free channel = 34.
      bench::BackgroundSpec spec;
      spec.channel = c;
      spec.cbr_interval = 25 * kTicksPerMs;
      spec.payload_bytes = 500;
      spec.markov = markov;
      config.background.push_back(spec);
    }
  }
  return config;
}

/// What the scenario's own hooks observe from inside the World.
struct Probe {
  double built_at = 0.0;  ///< Wall clock when the world was ready to run.
  std::vector<std::uint64_t> client_bytes;
  std::uint64_t cell_bytes = 0;
  std::uint64_t events = 0;
  ChannelWidth widest = ChannelWidth::kW5;
};

/// Installs the mic on the operating channel, a width sampler, and an
/// end-of-run reader of per-client bytes and the event count.
void Customize(World& world, Probe& probe) {
  probe.built_at = NowSeconds();
  World* wp = &world;
  const auto mic_at = static_cast<SimTime>(kMicOnS * kTicksPerSec);
  world.sim().Schedule(mic_at, [wp] {
    Device* ap = wp->FindDevice(1);
    if (ap == nullptr) return;
    MicActivation mic;
    mic.channel = ap->TunedChannel().center;
    mic.on_time = ToUs(wp->sim().Now() + kTicksPerMs);
    mic.off_time = ToUs(static_cast<SimTime>(kMicOffS * kTicksPerSec));
    wp->AddMic(mic);
  });
  const auto end = static_cast<SimTime>((kWarmupS + kMeasureS) * kTicksPerSec);
  // The widest channel the AP used after warmup bounds the goodput.
  for (SimTime at = static_cast<SimTime>(kWarmupS * kTicksPerSec); at < end;
       at += 50 * kTicksPerMs) {
    world.sim().Schedule(at, [wp, &probe] {
      if (Device* ap = wp->FindDevice(1)) {
        probe.widest = std::max(probe.widest, ap->TunedChannel().width);
      }
    });
  }
  world.sim().Schedule(end - 1, [wp, &probe] {
    for (int id : wp->NodesInSsid(kWhiteFiSsid)) {
      if (id != 1) probe.client_bytes.push_back(wp->AppBytes(id));
    }
    probe.cell_bytes = wp->AppBytesInSsid(kWhiteFiSsid);
    probe.events = wp->sim().NumProcessed();
  });
}

}  // namespace

RunResult RunCellChurn(const RunOptions& options) {
  RunResult result;
  MetricsRegistry metrics;
  PhaseProfiler profiler;
  SpeedSamples speed;
  std::vector<double> setup_s, trial_ms;
  double run_wall = 0.0;
  std::uint64_t events = 0;

  const std::uint64_t root = DeriveSeed(options.seed, "perfbench.cell_churn");
  const double start = NowSeconds();
  int pass = 0;
  for (; pass == 0 || NowSeconds() - start < options.seconds; ++pass) {
    bench::ScenarioConfig config =
        MakeConfig(DeriveSeed(root, std::to_string(pass)));
    if (options.trace) {
      config.obs.metrics = &metrics;
      config.obs.profiler = &profiler;
    }
    Probe probe;
    config.customize = [&probe](World& world) { Customize(world, probe); };
    const double t0 = NowSeconds();
    bench::RunScenario(config);
    const double t1 = NowSeconds();
    setup_s.push_back(probe.built_at - t0);
    speed.Add((kWarmupS + kMeasureS) / (t1 - probe.built_at));
    trial_ms.push_back(1e3 * (t1 - t0));
    run_wall += t1 - probe.built_at;
    events += probe.events;

    // Operations: scenarios.  One fails if any client received nothing.
    ++result.attempted;
    const bool starved =
        probe.client_bytes.size() != static_cast<std::size_t>(kClients) ||
        std::count(probe.client_bytes.begin(), probe.client_bytes.end(),
                   std::uint64_t{0}) > 0;
    if (starved) ++result.failed;
    result.Check(CheckGoodputBound(probe.cell_bytes, kMeasureS, probe.widest));
  }

  result.metrics["sim_speed"] = speed.Normalized();
  result.layers["host.raw_sim_speed"] = speed.RawMedian();
  result.layers["host.reference_ms"] = 1e3 * Median(speed.reference_s);
  result.metrics["setup_s"] = Median(setup_s);
  if (options.trace) {
    const double passes = pass;
    const auto& phases = profiler.phases();
    const auto self_ms = [&](const char* phase) {
      const auto found = phases.find(phase);
      return found == phases.end() ? 0.0 : found->second.self_us / 1e3;
    };
    double profiled_us = 0.0;
    for (const auto& [name, stats] : phases) profiled_us += stats.self_us;
    result.layers["medium.deliver_ms"] = self_ms("medium.deliver") / passes;
    result.layers["mcham.evaluate_ms"] = self_ms("mcham.evaluate") / passes;
    result.layers["sim.unprofiled_share"] = 1.0 - profiled_us / 1e6 / run_wall;
    result.layers["sim.events"] = static_cast<double>(events) / passes;
    result.layers["sim.events_per_s"] = static_cast<double>(events) / run_wall;
    result.layers["core.trial_ms_p50"] = Percentile(trial_ms, 50);
    AddProtocolCounters(Counters(metrics), passes, result);
  }
  return result;
}

}  // namespace perfbench
