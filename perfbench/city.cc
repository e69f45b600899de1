// city: a ~200-AP grid city through shard::ShardEngine.
//
// The only workload that exercises src/shard (rounds, barrier sort, ghost
// apply, roam hand-off) and util/parallel.  Every pass generates a fresh
// city from the run seed, with CBR uplink, scripted mics and cross-tile
// roams that all fall inside the pass, and runs it for kPassSeconds.
#include <algorithm>
#include <memory>
#include <thread>

#include "checks.h"
#include "layers.h"
#include "shard/engine.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

using whitefi::SimTime;
using whitefi::kTicksPerSec;
namespace shard = whitefi::shard;

/// Short passes, so a run averages over many cities: the cost of one
/// city varies by ~11% with its seed.
constexpr double kPassSeconds = 1.0;

shard::CityParams MakeCity(std::uint64_t seed, int pass) {
  shard::CityParams city;
  city.seed = whitefi::DeriveSeed(whitefi::DeriveSeed(seed, "perfbench.city"),
                                  std::to_string(pass));
  city.num_aps = 200;
  city.clients_per_ap = 2;
  city.traffic = "cbr";
  city.num_mics = 4;
  city.mic_start_s = 0.1;
  city.mic_period_s = 0.2;
  city.mic_duration_s = 0.5;
  city.num_roams = 8;
  city.roam_start_s = 0.1;
  city.roam_period_s = 0.1;
  return city;
}

/// Roams whose scheduled time (as the generator computes it) falls inside
/// a run of `seconds`: the engine applies each at the barrier after it.
std::uint64_t RoamsInside(const shard::CityParams& city, double seconds) {
  const auto end = static_cast<SimTime>(std::llround(seconds * kTicksPerSec));
  std::uint64_t inside = 0;
  for (int k = 0; k < city.num_roams; ++k) {
    const auto at = static_cast<SimTime>(
        (city.roam_start_s + k * city.roam_period_s) * kTicksPerSec);
    if (at <= end) ++inside;
  }
  return inside;
}

/// The CBR load offered in a run of `seconds`: every session (the
/// original clients plus one new session per roam) sends one payload per
/// interval, starting at its start time.
std::uint64_t OfferedBytes(const shard::CityParams& city, double seconds) {
  const auto sessions = static_cast<std::uint64_t>(
      city.num_aps * city.clients_per_ap + city.num_roams);
  const auto sends = static_cast<std::uint64_t>(
      seconds * kTicksPerSec / static_cast<double>(city.cbr_interval)) + 1;
  return sessions * sends * static_cast<std::uint64_t>(city.payload_bytes);
}

int ShardCount() {
  const unsigned hardware = std::max(1u, std::thread::hardware_concurrency());
  return static_cast<int>(std::min(hardware, 4u));
}

}  // namespace

RunResult RunCity(const RunOptions& options) {
  RunResult result;
  const int shards = ShardCount();
  shard::ShardEngineConfig config;
  config.shards = shards;

  SpeedSamples speed;
  std::vector<double> setup_s, round_ms, imbalance, generate_s;
  double run_wall = 0.0, run_cpu = 0.0;
  std::uint64_t events = 0, rounds = 0, messages = 0, ghosts = 0, roams = 0;
  CounterMap counters;
  std::string first_summary;

  const double start = NowSeconds();
  int pass = 0;
  for (; pass == 0 || NowSeconds() - start < options.seconds; ++pass) {
    const shard::CityParams city = MakeCity(options.seed, pass);
    if (options.trace) {
      const double g0 = NowSeconds();
      const shard::CityLayout layout = shard::GenerateCity(city, config.medium);
      generate_s.push_back(NowSeconds() - g0);
    }
    const double t0 = NowSeconds();
    auto engine = std::make_unique<shard::ShardEngine>(city, config);
    const double t1 = NowSeconds();
    const double cpu0 = ProcessCpuSeconds();
    if (options.trace) {
      // One horizon per call, so each barrier round is timed on its own;
      // the sequence of round targets is the same as one Run(kPassSeconds).
      const SimTime end = static_cast<SimTime>(kPassSeconds * kTicksPerSec);
      while (engine->Now() < end) {
        const SimTime step = std::min(engine->horizon(), end - engine->Now());
        const double r0 = NowSeconds();
        engine->Run(static_cast<double>(step) / kTicksPerSec);
        round_ms.push_back(1e3 * (NowSeconds() - r0));
      }
    } else {
      engine->Run(kPassSeconds);
    }
    const double t2 = NowSeconds();
    run_cpu += ProcessCpuSeconds() - cpu0;
    run_wall += t2 - t1;
    setup_s.push_back(t1 - t0);
    speed.Add(kPassSeconds / (t2 - t1));

    // Operations: cells.  A cell fails if it delivered no app bytes.
    const int cells = static_cast<int>(engine->layout().cells.size());
    result.attempted += static_cast<std::uint64_t>(cells);
    for (int c = 0; c < cells; ++c) {
      if (engine->CellAppBytes(c) == 0) ++result.failed;
    }
    result.Check(CheckMessageBalance(engine->messages_shipped(),
                                     engine->ghosts_injected(),
                                     engine->roams_applied()));
    result.Check(CheckRoamsApplied(engine->roams_applied(),
                                   RoamsInside(city, kPassSeconds)));
    result.Check(CheckAppBytesOffered(engine->AppBytesTotal(),
                                      OfferedBytes(city, kPassSeconds)));
    if (pass == 0) first_summary = engine->SummaryText();

    events += engine->EventsProcessed();
    rounds += engine->rounds();
    messages += engine->messages_shipped();
    ghosts += engine->ghosts_injected();
    roams += engine->roams_applied();
    if (options.trace) {
      std::vector<double> per_tile;
      for (int t = 0; t < engine->NumTiles(); ++t) {
        per_tile.push_back(
            static_cast<double>(engine->tile_world(t).sim().NumProcessed()));
      }
      double sum = 0.0, max = 0.0;
      for (double v : per_tile) {
        sum += v;
        max = std::max(max, v);
      }
      imbalance.push_back(sum > 0.0 ? max * per_tile.size() / sum : 0.0);
      Accumulate(engine->MergedCounters(), counters);
    }
  }

  // Determinism: the first pass's city at one shard must reproduce the
  // sharded summary byte for byte.
  {
    shard::ShardEngineConfig single = config;
    single.shards = 1;
    shard::ShardEngine reference(MakeCity(options.seed, 0), single);
    reference.Run(kPassSeconds);
    result.Check(CheckSummaryIdentical(first_summary, reference.SummaryText()));
  }

  // Raw: four threads do not slow down with the single-threaded reference
  // job (scaling by it widened the ten-run spread from 0.06 to 0.28).
  result.metrics["sim_speed"] = speed.RawMedian();
  result.layers["host.raw_sim_speed"] = speed.RawMedian();
  result.layers["host.reference_ms"] = 1e3 * Median(speed.reference_s);
  result.metrics["setup_s"] = Median(setup_s);
  if (options.trace) {
    const double passes = pass;
    result.layers["shard.round_ms_p50"] = Percentile(round_ms, 50);
    result.layers["shard.round_ms_p95"] = Percentile(round_ms, 95);
    result.layers["shard.rounds"] = static_cast<double>(rounds) / passes;
    result.layers["shard.messages"] = static_cast<double>(messages) / passes;
    result.layers["shard.ghosts"] = static_cast<double>(ghosts) / passes;
    result.layers["shard.ghosts_per_round"] =
        static_cast<double>(ghosts) / static_cast<double>(rounds);
    result.layers["shard.roams"] = static_cast<double>(roams) / passes;
    result.layers["shard.tile_imbalance"] = Median(imbalance);
    result.layers["util.parallel.busy_cores"] = run_cpu / run_wall;
    const double generate = Median(generate_s);
    result.layers["shard.setup.generate_s"] = generate;
    result.layers["shard.setup.build_s"] =
        std::max(0.0, Median(setup_s) - generate);
    result.layers["sim.events"] = static_cast<double>(events) / passes;
    result.layers["sim.events_per_s"] = static_cast<double>(events) / run_wall;
    AddProtocolCounters(counters, passes, result);
  }
  return result;
}

}  // namespace perfbench
