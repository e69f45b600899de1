// Correctness checks on workload outputs.  Each returns an empty string
// when the output passes and a one-line reason when it does not.  The
// bounds come from the workload's inputs and the paper, never from a
// recorded output, and `perfbench --self-test` hands every check a wrong
// result to prove it can fail.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sift/detector.h"
#include "spectrum/channel.h"

namespace perfbench {

/// Every cross-tile message is a ghost or a roam: messages == ghosts + roams.
std::string CheckMessageBalance(std::uint64_t messages, std::uint64_t ghosts,
                                std::uint64_t roams);

/// The roams applied equal the roams scheduled inside the run.
std::string CheckRoamsApplied(std::uint64_t applied, std::uint64_t expected);

/// Delivered app bytes cannot exceed the CBR load offered.
std::string CheckAppBytesOffered(std::uint64_t delivered,
                                 std::uint64_t offered);

/// The run summary at N shards is byte-identical to the 1-shard summary.
std::string CheckSummaryIdentical(const std::string& sharded,
                                  const std::string& single);

/// Aggregate goodput over `measure_s` stays under the base PHY rate of
/// the widest channel used (6 Mbps x W / 20 MHz).
std::string CheckGoodputBound(std::uint64_t bytes, double measure_s,
                              whitefi::ChannelWidth widest);

/// A (width, rate) cell's median detection ratio meets the paper's
/// Table 1 floor of 0.97.
std::string CheckDetectionFloor(const std::string& cell,
                                double median_ratio);

/// The resolved SIMD kernel's bursts are bit-equal to the scalar kernel's.
std::string CheckBurstsEqual(const std::vector<whitefi::DetectedBurst>& simd,
                             const std::vector<whitefi::DetectedBurst>& scalar);

/// The invariant auditor reported no violation.
std::string CheckAuditClean(std::uint64_t violations);

/// Every trial's storm disconnects every client at least once.
std::string CheckDisconnections(std::uint64_t disconnections,
                                std::uint64_t clients, std::uint64_t trials);

/// Runs every check against a deliberately wrong result (and against a
/// right one); returns the number of checks that misbehaved.
int SelfTest();

}  // namespace perfbench
