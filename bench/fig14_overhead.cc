// Figure 14: execution time of the health benchmark and the overheads
// introduced by ARTEMIS and Mayfly on continuous power.
//
// Expected shape (paper): application logic dominates; the two systems'
// total execution times are nearly identical, with ARTEMIS carrying a
// slightly larger (but negligible) overhead for its separate monitors.
#include <cstdio>

#include "bench/bench_common.h"

using namespace artemis;
using namespace artemis::bench;

int main() {
  std::printf("=== Figure 14: execution time on continuous power ===\n\n");

  auto artemis_run = Require(RunHealth(DeviceSystem::kArtemis, 0, 0));
  auto mayfly_run = Require(RunHealth(DeviceSystem::kMayfly, 0, 0));

  const OverheadBreakdown a = BreakdownFromStats(artemis_run.result.stats);
  const OverheadBreakdown m = BreakdownFromStats(mayfly_run.result.stats);

  std::printf("%-10s %-14s %-16s %-16s %-14s\n", "system", "app logic", "runtime overhead",
              "monitor overhead", "total");
  std::printf("%-10s %-14s %-16s %-16s %-14s\n", "ARTEMIS", FormatDuration(a.app_time).c_str(),
              FormatDuration(a.runtime_overhead).c_str(),
              FormatDuration(a.monitor_overhead).c_str(), FormatDuration(a.Total()).c_str());
  std::printf("%-10s %-14s %-16s %-16s %-14s\n", "Mayfly", FormatDuration(m.app_time).c_str(),
              FormatDuration(m.runtime_overhead).c_str(),
              FormatDuration(m.monitor_overhead).c_str(), FormatDuration(m.Total()).c_str());

  const double ratio =
      static_cast<double>(a.Total()) / static_cast<double>(m.Total() ? m.Total() : 1);
  std::printf("\ntotal-time ratio ARTEMIS/Mayfly = %.4f (paper: nearly identical)\n", ratio);
  std::printf("overhead fraction: ARTEMIS %.3f%%, Mayfly %.3f%%\n",
              100.0 * static_cast<double>(a.runtime_overhead + a.monitor_overhead) /
                  static_cast<double>(a.Total()),
              100.0 * static_cast<double>(m.runtime_overhead + m.monitor_overhead) /
                  static_cast<double>(m.Total()));
  return 0;
}
