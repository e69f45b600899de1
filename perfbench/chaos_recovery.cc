// chaos_recovery: the fully hardened arm (+scan-retry) of the chaos
// disconnect storm, with an InvariantAuditor attached to every trial.
//
// A mic audible only to the clients keys up on the operating channel at a
// swept onset, while the fault injector drops 25% of chirp detections and
// 5% of beacons and blinds the scanner for 4 s.  Sparse control traffic,
// chirps, the backup -> secondary-backup -> sweep escalation, the AP's
// chirp watch and long idle stretches: the sim layer used unlike in
// cell_churn, and the only workload through src/fault and src/audit.
//
// The trial set is pinned (trial seeds 1..10, onsets drawn from seed 1,
// as bench_chaos_recovery --seed 1 --trials 10): the escalation hand-off
// strands clients on some trial seeds and not on others, so only a pinned
// set fails the same share of disconnections in every run.  The run seed
// sets the order the trials run in.
#include <memory>

#include "audit/audit.h"
#include "checks.h"
#include "layers.h"
#include "scenario.h"
#include "spectrum/campus.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace whitefi;

constexpr int kTrials = 10;
constexpr int kClients = 4;
constexpr int kWhiteFiSsid = 1;
constexpr std::uint64_t kTrialSeed0 = 1;
constexpr double kRunEndS = 40.0;

bench::ScenarioConfig MakeConfig(std::uint64_t seed, double storm_at_s) {
  bench::ScenarioConfig config;
  config.seed = seed;
  config.base_map = CampusSimulationMap();
  config.num_clients = kClients;
  config.warmup_s = 3.0;
  config.measure_s = kRunEndS - config.warmup_s;

  ApParams ap;
  ap.assignment_interval = 3 * kTicksPerSec;
  ap.first_assignment_delay = 1 * kTicksPerSec;
  ap.scanner.dwell = 100 * kTicksPerMs;
  ap.scanner.chirp_scan_interval = 2 * kTicksPerSec;
  ap.scanner.chirp_scan_dwell = 400 * kTicksPerMs;
  ap.scanner.outage_retry = true;
  ap.watch_secondary_backup = true;
  config.ap_params = ap;

  ClientParams client;
  client.chirp_interval = 1 * kTicksPerSec;
  client.chirp_jitter = 0.2;
  client.chirp_backoff = true;
  client.chirp_interval_max = 1500 * kTicksPerMs;
  client.reconnect_escalation = true;
  client.reconnect_stage_timeout = 8 * kTicksPerSec;
  client.scanner.outage_retry = true;
  config.client_params = client;

  config.faults.miss_chirp_p = 0.25;
  config.faults.beacon_drop_p = 0.05;
  FaultWindow outage;
  outage.from = static_cast<SimTime>((storm_at_s + 0.2) * kTicksPerSec);
  outage.until = static_cast<SimTime>((storm_at_s + 4.2) * kTicksPerSec);
  config.faults.scanner_outages.push_back(outage);
  return config;
}

/// Wall clock when the world was ready, and the event count at run end.
struct Probe {
  double built_at = 0.0;
  std::uint64_t events = 0;
};

/// The storm: a mic in the middle of the operating channel, audible only
/// to the clients, so they all vacate at once while the AP keeps going.
void Customize(World& world, double storm_at_s, Probe& probe) {
  probe.built_at = NowSeconds();
  World* wp = &world;
  world.sim().Schedule(static_cast<SimTime>(storm_at_s * kTicksPerSec), [wp] {
    Device* ap = wp->FindDevice(1);
    if (ap == nullptr) return;
    std::vector<int> client_ids;
    for (int id : wp->NodesInSsid(kWhiteFiSsid)) {
      if (id != ap->NodeId()) client_ids.push_back(id);
    }
    MicActivation mic;
    mic.channel = ap->TunedChannel().center;
    mic.on_time = ToUs(wp->sim().Now() + kTicksPerMs);
    mic.off_time = ToUs(wp->sim().Now() + 60 * kTicksPerSec);
    wp->AddMic(mic, client_ids);
  });
  world.sim().Schedule(static_cast<SimTime>(kRunEndS * kTicksPerSec) - 1,
                       [wp, &probe] { probe.events = wp->sim().NumProcessed(); });
}

struct PassTotals {
  double wall_s = 0.0;
  std::uint64_t disconnects = 0;
  std::uint64_t stranded = 0;
  std::uint64_t violations = 0;
  std::uint64_t events = 0;
  double run_wall_s = 0.0;
  std::vector<double> setup_s;
  std::vector<double> trial_ms;
  std::vector<double> outages_s;
};

/// One pass over the pinned trials, starting at trial `first`.
PassTotals RunPass(const std::vector<double>& onsets, int first, bool audit,
                   MetricsRegistry* metrics) {
  PassTotals totals;
  const double p0 = NowSeconds();
  for (int k = 0; k < kTrials; ++k) {
    const int t = (first + k) % kTrials;
    bench::ScenarioConfig config =
        MakeConfig(kTrialSeed0 + static_cast<std::uint64_t>(t),
                   onsets[static_cast<std::size_t>(t)]);
    config.obs.metrics = metrics;
    std::unique_ptr<InvariantAuditor> auditor;
    if (audit) {
      auditor = std::make_unique<InvariantAuditor>();
      config.auditor = auditor.get();
    }
    Probe probe;
    const double storm_at_s = onsets[static_cast<std::size_t>(t)];
    config.customize = [&probe, storm_at_s](World& world) {
      Customize(world, storm_at_s, probe);
    };
    const double t0 = NowSeconds();
    const bench::RunResult run = bench::RunScenario(config);
    const double t1 = NowSeconds();
    totals.setup_s.push_back(probe.built_at - t0);
    totals.trial_ms.push_back(1e3 * (t1 - t0));
    totals.run_wall_s += t1 - probe.built_at;
    totals.events += probe.events;
    totals.disconnects += static_cast<std::uint64_t>(run.disconnects);
    totals.stranded += static_cast<std::uint64_t>(
        run.disconnects - static_cast<int>(run.outages_s.size()));
    totals.outages_s.insert(totals.outages_s.end(), run.outages_s.begin(),
                            run.outages_s.end());
    if (auditor != nullptr) totals.violations += auditor->violation_count();
  }
  totals.wall_s = NowSeconds() - p0;
  return totals;
}

}  // namespace

RunResult RunChaosRecovery(const RunOptions& options) {
  RunResult result;
  // Same onsets as bench_chaos_recovery --seed 1: drawn serially, before
  // any trial runs.
  Rng storm_rng(kTrialSeed0 ^ 0x57A2B0ULL);
  std::vector<double> onsets;
  for (int t = 0; t < kTrials; ++t) onsets.push_back(storm_rng.Uniform(5.0, 6.0));
  const int first = static_cast<int>(options.seed % kTrials);

  MetricsRegistry metrics;
  MetricsRegistry* sink = options.trace ? &metrics : nullptr;
  SpeedSamples speed;
  std::vector<double> setup_s, trial_ms, outages_s, pass_wall, bare_wall;
  std::uint64_t events = 0, stranded = 0;
  double run_wall = 0.0;

  const double start = NowSeconds();
  int pass = 0;
  for (; pass == 0 || NowSeconds() - start < options.seconds; ++pass) {
    const PassTotals totals = RunPass(onsets, first, /*audit=*/true, sink);
    if (options.trace) {
      // The same trials without the auditor, right after: the auditor's
      // cost is the ratio of the two medians.
      bare_wall.push_back(RunPass(onsets, first, /*audit=*/false, sink).wall_s);
    }
    speed.Add(kTrials * kRunEndS / totals.wall_s);
    pass_wall.push_back(totals.wall_s);
    setup_s.insert(setup_s.end(), totals.setup_s.begin(), totals.setup_s.end());
    trial_ms.insert(trial_ms.end(), totals.trial_ms.begin(),
                    totals.trial_ms.end());
    outages_s.insert(outages_s.end(), totals.outages_s.begin(),
                     totals.outages_s.end());
    events += totals.events;
    stranded += totals.stranded;
    run_wall += totals.run_wall_s;

    // Operations: client disconnections.  One fails if the client is
    // still stranded when the trial ends.
    result.attempted += totals.disconnects;
    result.failed += totals.stranded;
    result.Check(CheckAuditClean(totals.violations));
    result.Check(CheckDisconnections(totals.disconnects, kClients, kTrials));
  }

  result.metrics["sim_speed"] = speed.Normalized();
  result.layers["host.raw_sim_speed"] = speed.RawMedian();
  result.layers["host.reference_ms"] = 1e3 * Median(speed.reference_s);
  result.metrics["setup_s"] = Median(setup_s);
  if (options.trace) {
    const double passes = pass;
    result.layers["audit.overhead_share"] =
        Median(pass_wall) / Median(bare_wall) - 1.0;
    result.layers["core.trial_ms_p50"] = Percentile(trial_ms, 50);
    result.layers["client.stranded"] = static_cast<double>(stranded) / passes;
    result.layers["client.outage_s_p50"] = Percentile(outages_s, 50);
    result.layers["sim.events"] = static_cast<double>(events) / passes;
    result.layers["sim.events_per_s"] = static_cast<double>(events) / run_wall;
    // The bare passes fed the registry too.
    AddProtocolCounters(Counters(metrics), 2.0 * passes, result);
  }
  return result;
}

}  // namespace perfbench
