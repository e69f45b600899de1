// The four perfbench workloads.  Each one builds its inputs from the run
// seed, measures whole passes over them until `seconds` have elapsed,
// checks the outputs, and reports end-to-end metrics (and, in a traced
// run, per-layer metrics).  Counts in the per-layer metrics are per pass:
// one city run, one scenario, one classification pass over the held
// traces, or one pass over the chaos trials.
#pragma once

#include "measure.h"

namespace perfbench {

/// ~200-AP grid city through shard::ShardEngine at min(nproc, 4) shards.
RunResult RunCity(const RunOptions& options);

/// Figure 13's single cell at mid churn, scenario after scenario, through
/// bench::RunScenario.
RunResult RunCellChurn(const RunOptions& options);

/// Table 1's iperf traces, synthesized once and classified repeatedly
/// through SiftBatch and the pattern matcher.
RunResult RunSignalScan(const RunOptions& options);

/// The fully hardened arm of the chaos disconnect storm, audited.
RunResult RunChaosRecovery(const RunOptions& options);

}  // namespace perfbench
