// The paper's benchmark: the wearable health-monitoring application
// (Figures 4-6) under intermittent power, printing the Figure 13 style
// timeline: three MITD attempts on path #2, then the maxAttempt path skip
// that lets the application finish.
//
//   $ ./examples/health_monitor [charging_minutes]
#include <cstdio>
#include <cstdlib>

#include "src/apps/health_app.h"
#include "src/core/builder.h"
#include "src/core/runtime.h"
#include "src/core/stats.h"
#include "src/obs/bus.h"

using namespace artemis;  // Example code; library code never does this.

int main(int argc, char** argv) {
  const int minutes = argc > 1 ? std::atoi(argv[1]) : 6;

  HealthApp app = BuildHealthApp();
  // 19.5 mJ per on-period: enough to finish `accel` after one retry but
  // never accel+filter+send (~19.95 mJ) in one go — the Section 5.1 failure
  // pattern. The 1 s boot margin is documented in EXPERIMENTS.md.
  std::unique_ptr<Mcu> mcu =
      PlatformBuilder()
          .WithFixedCharge(/*on_budget=*/19'500.0,
                           /*charge_time=*/static_cast<SimDuration>(minutes) * kMinute -
                               1 * kSecond)
          .Build();

  obs::EventBus bus;
  obs::CollectingSink events;
  bus.AddSink(&events);
  ArtemisConfig config;
  config.observer = &bus;
  config.kernel.max_wall_time = 4 * kHour;
  auto runtime = ArtemisRuntime::Create(&app.graph, HealthAppSpec(), mcu.get(), config);
  if (!runtime.ok()) {
    std::fprintf(stderr, "setup failed: %s\n", runtime.status().ToString().c_str());
    return 1;
  }
  for (const std::string& warning : runtime.value()->validation_warnings()) {
    std::fprintf(stderr, "spec warning: %s\n", warning.c_str());
  }

  const KernelRunResult result = runtime.value()->Run();

  std::vector<std::string> names;
  for (TaskId t = 0; t < app.graph.task_count(); ++t) {
    names.push_back(app.graph.TaskName(t));
  }
  std::printf("== health monitor, %d min charging ==\n", minutes);
  std::printf("%s\n", obs::RenderTimeline(events.events(), names).c_str());
  std::printf("completed=%s reboots=%llu wall=%s energy=%s\n",
              result.completed ? "yes" : "NO (non-termination)",
              static_cast<unsigned long long>(result.stats.reboots),
              FormatDuration(result.finished_at).c_str(),
              FormatEnergy(result.stats.TotalEnergy()).c_str());
  std::printf("%s\n",
              FormatOverheadRow("breakdown:", BreakdownFromStats(result.stats)).c_str());
  return result.completed ? 0 : 1;
}
