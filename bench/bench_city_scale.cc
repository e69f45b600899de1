// bench_city_scale — the sharded-federation throughput driver.
//
// Runs one generated city (shard/city.h) through shard::ShardEngine at
// one or more shard counts and reports simulation throughput.  Output is
// split by determinism:
//
//   stdout  the engine's deterministic run summary — integers only,
//           byte-identical for every shard count (CI diffs shards 1
//           against shards 8 directly) — plus the json-report path.
//   stderr  wall-clock timing and the scaling table (events/s, speedup
//           vs the first count) — machine-dependent, never diffed.
//
// Flags: --shards N (single count), --sweep 1,2,4,8 (several counts in
// one process; the driver additionally asserts the summaries match
// byte-for-byte), --reps K (run each count K times, round-robin over the
// counts, and report the median wall, so one stalled run cannot decide a
// scaling ratio; default 1),
// --aps N, --clients-per-ap N, --seconds S, --seed S, --roams N,
// --mics N, --audit, --json PATH.
//
// --json PATH writes a google-benchmark-compatible report with two kinds
// of entries:
//   city/<metric>           deterministic simulation outputs (events,
//                           app_bytes, ghosts, messages per simulated
//                           second) — gated against the committed
//                           BENCH_city_scale.json at --threshold 0.01,
//                           so a behavior change in the sharded engine
//                           is a red build, not a silent drift.
//   city/shards_N/wall      wall-clock events/s at each swept count
//                           (median wall of the --reps runs) —
//                           machine-dependent, absent from the committed
//                           baseline (compare_bench reports them as new
//                           and does not gate them); CI instead pins the
//                           scaling floor intra-report via --speedup
//                           city/shards_1/wall:city/shards_4/wall:R,
//                           which cancels runner speed out.
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "shard/engine.h"
#include "util/report.h"

namespace whitefi::bench {
namespace {

struct SweepPoint {
  int shards = 1;
  double wall_s = 0.0;
  std::uint64_t events = 0;
};

struct RunOutput {
  std::string summary;
  SweepPoint point;
  bool audit_ok = true;
  std::uint64_t app_bytes = 0;
  std::uint64_t transmissions = 0;
  std::uint64_t ghosts = 0;
  std::uint64_t messages = 0;
  std::uint64_t roams = 0;
};

RunOutput RunOnce(const shard::CityParams& city, int shards, bool audit,
                  double seconds) {
  shard::ShardEngineConfig config;
  config.shards = shards;
  config.audit = audit;
  shard::ShardEngine engine(city, config);
  const auto t0 = std::chrono::steady_clock::now();
  engine.Run(seconds);
  const auto t1 = std::chrono::steady_clock::now();
  RunOutput out;
  out.summary = engine.SummaryText();
  out.point.shards = shards;
  out.point.wall_s = std::chrono::duration<double>(t1 - t0).count();
  out.point.events = engine.EventsProcessed();
  out.audit_ok = !audit || engine.audit_ok();
  out.app_bytes = engine.AppBytesTotal();
  out.transmissions = engine.Transmissions();
  out.ghosts = engine.ghosts_injected();
  out.messages = engine.messages_shipped();
  out.roams = engine.roams_applied();
  return out;
}

/// Google-benchmark-compatible report.  The city/<metric> entries are
/// deterministic per-simulated-second rates (same scenario = same bytes);
/// the city/shards_N/wall entries carry real wall-clock throughput.
void WriteJsonReport(std::ostream& os, const shard::CityParams& city,
                     double seconds, const RunOutput& base,
                     const std::vector<SweepPoint>& sweep) {
  os.setf(std::ios::fixed);
  os.precision(6);
  os << "{\n \"context\": {\n"
     << "  \"executable\": \"bench_city_scale\",\n"
#ifdef WHITEFI_BUILD_TYPE
     << "  \"whitefi_build_type\": \"" << WHITEFI_BUILD_TYPE << "\",\n"
#endif
     << "  \"whitefi_aps\": " << city.num_aps << ",\n"
     << "  \"whitefi_clients_per_ap\": " << city.clients_per_ap << ",\n"
     << "  \"whitefi_roams\": " << city.num_roams << ",\n"
     << "  \"whitefi_mics\": " << city.num_mics << ",\n"
     << "  \"whitefi_seconds\": " << seconds << ",\n"
     << "  \"whitefi_seed\": " << city.seed << "\n"
     << " },\n \"benchmarks\": [\n";
  bool first = true;
  auto entry = [&](const std::string& name, double rate) {
    if (!first) os << ",\n";
    first = false;
    os << "  {\n   \"name\": \"" << name << "\",\n"
       << "   \"run_name\": \"" << name << "\",\n"
       << "   \"run_type\": \"iteration\",\n"
       << "   \"iterations\": 1,\n"
       << "   \"real_time\": " << (rate > 0.0 ? 1.0 / rate : 0.0) << ",\n"
       << "   \"cpu_time\": " << (rate > 0.0 ? 1.0 / rate : 0.0) << ",\n"
       << "   \"time_unit\": \"s\",\n"
       << "   \"items_per_second\": " << rate << "\n  }";
  };
  // Deterministic per-simulated-second rates: the committed baseline.
  entry("city/events", static_cast<double>(base.point.events) / seconds);
  entry("city/app_bytes", static_cast<double>(base.app_bytes) / seconds);
  entry("city/transmissions",
        static_cast<double>(base.transmissions) / seconds);
  entry("city/ghosts", static_cast<double>(base.ghosts) / seconds);
  entry("city/messages", static_cast<double>(base.messages) / seconds);
  // Machine-dependent wall-clock throughput per swept shard count: never
  // committed, gated only intra-report (--speedup) so runner speed
  // cancels out.
  for (const SweepPoint& p : sweep) {
    // Underscore, not a colon: the name must survive compare_bench's
    // colon-separated --speedup BASE:VARIANT:MINRATIO specs.
    entry("city/shards_" + std::to_string(p.shards) + "/wall",
          p.wall_s > 0.0 ? static_cast<double>(p.events) / p.wall_s : 0.0);
  }
  os << "\n ]\n}\n";
}

int Main(int argc, char** argv) {
  shard::CityParams city;
  city.seed = 1;
  double seconds = 3.0;
  int reps = 1;
  bool audit = false;
  std::string json_path;
  std::vector<int> counts;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      auto next = [&]() -> const char* {
        if (i + 1 >= argc) {
          throw std::invalid_argument(flag + " needs a value");
        }
        return argv[++i];
      };
      if (flag == "--shards") counts.assign(1, std::stoi(next()));
      else if (flag == "--sweep") {
        counts.clear();
        const std::string list = next();
        std::size_t start = 0;
        while (start < list.size()) {
          const std::size_t comma = list.find(',', start);
          counts.push_back(std::stoi(list.substr(start, comma - start)));
          if (comma == std::string::npos) break;
          start = comma + 1;
        }
        if (counts.empty()) throw std::invalid_argument("--sweep: empty list");
      }
      else if (flag == "--reps") reps = std::stoi(next());
      else if (flag == "--aps") city.num_aps = std::stoi(next());
      else if (flag == "--clients-per-ap") {
        city.clients_per_ap = std::stoi(next());
      }
      else if (flag == "--roams") city.num_roams = std::stoi(next());
      else if (flag == "--mics") city.num_mics = std::stoi(next());
      else if (flag == "--seconds") seconds = std::stod(next());
      else if (flag == "--seed") city.seed = std::stoull(next());
      else if (flag == "--audit") audit = true;
      else if (flag == "--json") json_path = next();
      else {
        std::cerr << "usage: bench_city_scale [--shards N | --sweep 1,2,4,8] "
                     "[--reps K] [--aps N] [--clients-per-ap N] [--roams N] "
                     "[--mics N] [--seconds S] [--seed S] [--audit] "
                     "[--json PATH]\n";
        return 2;
      }
    }
    if (counts.empty()) counts.push_back(1);
    for (int c : counts) {
      if (c < 1) throw std::invalid_argument("shard count must be >= 1");
    }
    if (reps < 1) throw std::invalid_argument("--reps must be >= 1");
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 2;
  }

  std::cerr << "city: " << city.num_aps << " APs x " << city.clients_per_ap
            << " clients, " << seconds << " s simulated, seed " << city.seed
            << (audit ? ", audited" : "")
            << (reps > 1 ? ", median wall of " + std::to_string(reps) + " runs"
                         : "")
            << "\n";

  // Repetitions go round-robin over the counts, so a stretch of slow host
  // time lands on every count's runs alike instead of on one count's.
  std::vector<RunOutput> runs;  // Each count's first run.
  std::vector<std::vector<double>> walls(counts.size());
  for (int rep = 0; rep < reps; ++rep) {
    for (std::size_t i = 0; i < counts.size(); ++i) {
      RunOutput r = RunOnce(city, counts[i], audit, seconds);
      // Every count and every repetition must produce the same science,
      // byte for byte — the core determinism claim of the sharded engine,
      // asserted here on every run, not only in CI.
      if (!runs.empty() && r.summary != runs[0].summary) {
        std::cerr << "FAIL: summary at shards " << counts[i]
                  << " differs from shards " << counts[0] << "\n";
        return 1;
      }
      if (!r.audit_ok) {
        std::cerr << "FAIL: invariant violation at shards " << counts[i]
                  << "\n";
        return 1;
      }
      walls[i].push_back(r.point.wall_s);
      if (rep == 0) runs.push_back(std::move(r));
    }
  }
  for (std::size_t i = 0; i < counts.size(); ++i) {
    std::vector<double>& w = walls[i];
    std::sort(w.begin(), w.end());
    const std::size_t mid = w.size() / 2;
    SweepPoint& p = runs[i].point;
    p.wall_s = w.size() % 2 == 1 ? w[mid] : (w[mid - 1] + w[mid]) / 2.0;
    std::cerr << "shards " << counts[i] << ": wall "
              << FormatDouble(p.wall_s, 3) << " s, "
              << FormatDouble(static_cast<double>(p.events) / p.wall_s, 0)
              << " events/s\n";
  }

  std::cout << runs[0].summary;

  if (runs.size() > 1) {
    const double base_wall = runs[0].point.wall_s;
    std::cerr << "\nscaling (vs shards " << counts[0] << "):\n";
    for (const RunOutput& r : runs) {
      std::cerr << "  shards " << r.point.shards << ": speedup "
                << FormatDouble(base_wall / r.point.wall_s, 2) << "x\n";
    }
  }

  if (!json_path.empty()) {
    std::vector<SweepPoint> sweep;
    for (const RunOutput& r : runs) sweep.push_back(r.point);
    std::ofstream os(json_path);
    WriteJsonReport(os, city, seconds, runs[0], sweep);
    std::cout << "json report: " << json_path << "\n";
  }
  return 0;
}

}  // namespace
}  // namespace whitefi::bench

int main(int argc, char** argv) { return whitefi::bench::Main(argc, argv); }
