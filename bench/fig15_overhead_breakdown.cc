// Figure 15: the Figure 14 overheads at millisecond resolution.
//
// Expected shape (paper): ARTEMIS incurs more overhead than Mayfly — it
// checks a broader set of properties through separate monitors and pays the
// runtime<->monitor interface crossing — but both remain milliseconds
// against a seconds-scale application.
#include <cstdio>

#include "bench/bench_common.h"

using namespace artemis;
using namespace artemis::bench;

namespace {

double Ms(SimDuration d) { return static_cast<double>(d) / static_cast<double>(kMillisecond); }

}  // namespace

int main() {
  std::printf("=== Figure 15: overhead breakdown (milliseconds) ===\n\n");

  auto artemis_run = Require(RunHealth(DeviceSystem::kArtemis, 0, 0));
  auto mayfly_run = Require(RunHealth(DeviceSystem::kMayfly, 0, 0));

  const OverheadBreakdown a = BreakdownFromStats(artemis_run.result.stats);
  const OverheadBreakdown m = BreakdownFromStats(mayfly_run.result.stats);

  std::printf("%-28s %10s %10s\n", "component (ms)", "ARTEMIS", "Mayfly");
  std::printf("%-28s %10.3f %10.3f\n", "runtime overhead", Ms(a.runtime_overhead),
              Ms(m.runtime_overhead));
  std::printf("%-28s %10.3f %10.3f\n", "monitor overhead", Ms(a.monitor_overhead),
              Ms(m.monitor_overhead));
  std::printf("%-28s %10.3f %10.3f\n", "total overhead",
              Ms(a.runtime_overhead + a.monitor_overhead),
              Ms(m.runtime_overhead + m.monitor_overhead));
  std::printf("\npaper shape: ARTEMIS > Mayfly (separate monitors, broader checks), both\n"
              "negligible; Mayfly has no separate monitor component (checks are fused\n"
              "into its runtime bar).\n");
  return 0;
}
