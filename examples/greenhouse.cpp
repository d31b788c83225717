// Greenhouse sensing on a physics-based power supply: a capacitor charged by
// a pulsed RF harvester. Demonstrates the period, minEnergy, and dpData
// properties and prints per-path statistics.
//
//   $ ./examples/greenhouse
#include <cstdio>

#include "src/apps/greenhouse_app.h"
#include "src/core/builder.h"
#include "src/core/runtime.h"
#include "src/core/stats.h"
#include "src/obs/bus.h"

using namespace artemis;  // Example code; library code never does this.

int main() {
  GreenhouseApp app = BuildGreenhouseApp();

  // 47 uF capacitor fed by a duty-cycled RF field: 4 mW for 1 s out of
  // every 3 s. The device browns out mid-path and recharges repeatedly.
  CapacitorConfig cap;
  cap.capacitance_f = 47e-6;
  std::unique_ptr<Mcu> mcu =
      PlatformBuilder()
          .WithCapacitor(cap, std::make_unique<PulseHarvester>(4.0, 3 * kSecond, 1 * kSecond))
          .Build();

  obs::EventBus bus;
  obs::CollectingSink events;
  bus.AddSink(&events);
  ArtemisConfig config;
  config.observer = &bus;
  config.kernel.max_wall_time = 30 * kMinute;
  auto runtime = ArtemisRuntime::Create(&app.graph, GreenhouseSpec(), mcu.get(), config);
  if (!runtime.ok()) {
    std::fprintf(stderr, "setup failed: %s\n", runtime.status().ToString().c_str());
    return 1;
  }
  const KernelRunResult result = runtime.value()->Run();

  std::vector<std::string> names;
  for (TaskId t = 0; t < app.graph.task_count(); ++t) {
    names.push_back(app.graph.TaskName(t));
  }
  std::printf("== greenhouse on capacitor + pulsed harvester ==\n");
  std::printf("%s\n", obs::RenderTimeline(events.events(), names).c_str());
  std::printf("completed=%s reboots=%llu wall=%s energy=%s\n",
              result.completed ? "yes" : "no",
              static_cast<unsigned long long>(result.stats.reboots),
              FormatDuration(result.finished_at).c_str(),
              FormatEnergy(result.stats.TotalEnergy()).c_str());
  std::printf("monitors: %zu, events processed: %llu, violations: %llu\n",
              runtime.value()->monitors().size(),
              static_cast<unsigned long long>(runtime.value()->monitors().events_processed()),
              static_cast<unsigned long long>(
                  runtime.value()->monitors().violations_reported()));
  return result.completed ? 0 : 1;
}
