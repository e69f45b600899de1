#include "checks.h"

#include <iostream>

#include "phy/timing.h"
#include "sift/batch.h"
#include "sift_experiment.h"
#include "util/rng.h"

namespace perfbench {

using whitefi::ChannelWidth;
using whitefi::DetectedBurst;

std::string CheckMessageBalance(std::uint64_t messages, std::uint64_t ghosts,
                                std::uint64_t roams) {
  if (messages == ghosts + roams) return "";
  return "city: " + std::to_string(messages) + " messages != " +
         std::to_string(ghosts) + " ghosts + " + std::to_string(roams) +
         " roams";
}

std::string CheckRoamsApplied(std::uint64_t applied, std::uint64_t expected) {
  if (applied == expected) return "";
  return "city: " + std::to_string(applied) + " roams applied, " +
         std::to_string(expected) + " scheduled inside the run";
}

std::string CheckAppBytesOffered(std::uint64_t delivered,
                                 std::uint64_t offered) {
  if (delivered <= offered) return "";
  return "city: " + std::to_string(delivered) +
         " app bytes delivered, above the " + std::to_string(offered) +
         " offered";
}

std::string CheckSummaryIdentical(const std::string& sharded,
                                  const std::string& single) {
  if (sharded == single) return "";
  return "city: sharded summary differs from the 1-shard summary";
}

std::string CheckGoodputBound(std::uint64_t bytes, double measure_s,
                              ChannelWidth widest) {
  const double limit_bits =
      whitefi::PhyTiming::ForWidth(widest).RateMbps() * 1e6 * measure_s;
  if (8.0 * static_cast<double>(bytes) <= limit_bits) return "";
  return "cell_churn: " + std::to_string(bytes) + " bytes in " +
         std::to_string(measure_s) + " s exceed the " +
         whitefi::WidthLabel(widest) + " PHY rate";
}

std::string CheckDetectionFloor(const std::string& cell,
                                double median_ratio) {
  if (median_ratio >= 0.97) return "";
  return "signal_scan: " + cell + " median detection ratio " +
         std::to_string(median_ratio) + " below Table 1's 0.97";
}

std::string CheckBurstsEqual(const std::vector<DetectedBurst>& simd,
                             const std::vector<DetectedBurst>& scalar) {
  bool equal = simd.size() == scalar.size();
  for (std::size_t i = 0; equal && i < simd.size(); ++i) {
    equal = simd[i].start == scalar[i].start && simd[i].end == scalar[i].end &&
            simd[i].peak_average == scalar[i].peak_average;
  }
  if (equal) return "";
  return "signal_scan: SIMD bursts differ from the scalar kernel's";
}

std::string CheckAuditClean(std::uint64_t violations) {
  if (violations == 0) return "";
  return "chaos_recovery: auditor reported " + std::to_string(violations) +
         " violations";
}

std::string CheckDisconnections(std::uint64_t disconnections,
                                std::uint64_t clients, std::uint64_t trials) {
  if (disconnections >= clients * trials) return "";
  return "chaos_recovery: " + std::to_string(disconnections) +
         " disconnections, fewer than " + std::to_string(clients) +
         " clients x " + std::to_string(trials) + " trials";
}

namespace {

/// One synthesized 20 MHz iperf trace and its bursts, for the detection
/// checks' self-test.
struct SampleTrace {
  whitefi::bench::SignalRun run;
  std::vector<DetectedBurst> bursts;
};

SampleTrace MakeSampleTrace() {
  SampleTrace trace;
  trace.run = whitefi::bench::MakeIperfRun(ChannelWidth::kW20, 110, 8000.0,
                                           1000, whitefi::SignalParams{},
                                           whitefi::Rng(7));
  whitefi::SiftBatch batch(whitefi::SiftParams{}, 1);
  const std::vector<std::span<const double>> spans{trace.run.samples};
  trace.bursts = batch.DetectAll(spans).front();
  return trace;
}

double Ratio(const std::vector<whitefi::bench::SentPacket>& packets,
             const std::vector<DetectedBurst>& bursts) {
  return static_cast<double>(whitefi::bench::CountDetected(
             packets, bursts, /*require_duration_match=*/false)) /
         static_cast<double>(packets.size());
}

}  // namespace

int SelfTest() {
  const SampleTrace trace = MakeSampleTrace();
  std::vector<whitefi::bench::SentPacket> shifted = trace.run.packets;
  for (auto& packet : shifted) packet.start += 4000.0;  // Half an interval.
  std::vector<DetectedBurst> perturbed = trace.bursts;
  if (!perturbed.empty()) perturbed.front().end += 1.0;

  struct Case {
    const char* what;
    std::string right;  ///< Verdict on a correct result: must pass.
    std::string wrong;  ///< Verdict on a wrong result: must fail.
  };
  const std::vector<Case> cases{
      {"app bytes above the offered load", CheckAppBytesOffered(1000, 1000),
       CheckAppBytesOffered(1001, 1000)},
      {"messages != ghosts + roams", CheckMessageBalance(12, 10, 2),
       CheckMessageBalance(13, 10, 2)},
      {"roams applied != roams scheduled", CheckRoamsApplied(8, 8),
       CheckRoamsApplied(7, 8)},
      {"shard-1 / shard-N summary mismatch",
       CheckSummaryIdentical("cells 200\n", "cells 200\n"),
       CheckSummaryIdentical("cells 200\n", "cells 201\n")},
      {"shifted packet list",
       CheckDetectionFloor("20MHz sample", Ratio(trace.run.packets,
                                                 trace.bursts)),
       CheckDetectionFloor("20MHz sample", Ratio(shifted, trace.bursts))},
      {"SIMD bursts differ from scalar",
       CheckBurstsEqual(trace.bursts, trace.bursts),
       CheckBurstsEqual(perturbed, trace.bursts)},
      {"non-zero audit count", CheckAuditClean(0), CheckAuditClean(1)},
      {"too few disconnections", CheckDisconnections(40, 4, 10),
       CheckDisconnections(39, 4, 10)},
      {"goodput above the PHY bound",
       CheckGoodputBound(7'500'000, 10.0, ChannelWidth::kW20),
       CheckGoodputBound(7'500'001, 10.0, ChannelWidth::kW20)},
  };
  int misbehaved = 0;
  for (const Case& c : cases) {
    const bool ok = c.right.empty() && !c.wrong.empty();
    std::cout << (ok ? "ok    " : "FAIL  ") << c.what;
    if (!c.right.empty()) std::cout << " (right result rejected: " << c.right << ")";
    if (c.wrong.empty()) std::cout << " (wrong result accepted)";
    std::cout << "\n";
    if (!ok) ++misbehaved;
  }
  return misbehaved;
}

}  // namespace perfbench
