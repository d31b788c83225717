// The benchmark's four workloads. Each runs in the closed loop of
// common.h with tracing off, or, with Options::trace, as the traced
// composition that fills the per-layer block of layers.h.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "perfbench/common.h"

namespace perfbench {

// fleet::RunFleet, health, batch mode, 100k short-lived continuous twins a
// call.
RunResult RunFleetBurst(const Options& options);
// fleet::RunFleet, health, scalar mode, 1,000 twins a call over an 8 h
// horizon of outages.
RunResult RunFleetOutage(const Options& options);
// sweep::RunSweep over a 20,160-point health grid, JSON rendered.
RunResult RunSweepGrid(const Options& options);
// check --analyze of every case in tests/golden/analysis, one at a time.
RunResult RunSpecCheck(const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
