// Quickstart: a two-task intermittent application with one ARTEMIS property.
//
// Builds a tiny sense -> transmit app, attaches a `maxTries` property so the
// transmit path is abandoned instead of livelocking when the energy budget
// is too small, and runs it on a simulated harvester with 3-second charging
// delays.
//
//   $ ./examples/quickstart
#include <cstdio>

#include "src/core/builder.h"
#include "src/core/runtime.h"
#include "src/core/stats.h"
#include "src/kernel/channel.h"
#include "src/obs/bus.h"

using namespace artemis;  // Example code; library code never does this.

int main() {
  // 1. Describe the application as atomic tasks on a path.
  AppGraph graph;
  const TaskId sense = graph.AddTask(TaskDef{
      .name = "sense",
      .work = {.duration = 30 * kMillisecond, .power = 2.0},
      .effect = [](TaskContext& ctx) { ctx.Push(21.5 + ctx.rng().Gaussian(0.0, 0.3)); },
      .monitored_var = std::nullopt,
  });
  const TaskId transmit = graph.AddTask(TaskDef{
      .name = "transmit",
      // Deliberately more energy than one charge period delivers, so the
      // task can never complete: the property below rescues the app.
      .work = {.duration = 900 * kMillisecond, .power = 24.0},
      .effect = [](TaskContext& ctx) { ctx.Push(1.0); },
      .monitored_var = std::nullopt,
  });
  graph.AddPath({sense, transmit});

  // 2. Declare the property, separately from the application code.
  const char* spec = R"(
    transmit: {
      maxTries: 3 onFail: skipPath;
    }
  )";

  // 3. Build the simulated platform: each on-period delivers 5 mJ, and
  // recharging after a power failure takes 3 seconds.
  std::unique_ptr<Mcu> mcu =
      PlatformBuilder().WithFixedCharge(/*on_budget=*/5'000.0, /*charge_time=*/3 * kSecond)
          .Build();

  // 4. Assemble and run, collecting the runtime's events for the timeline.
  obs::EventBus bus;
  obs::CollectingSink events;
  bus.AddSink(&events);
  ArtemisConfig config;
  config.observer = &bus;
  auto runtime = ArtemisRuntime::Create(&graph, spec, mcu.get(), config);
  if (!runtime.ok()) {
    std::fprintf(stderr, "setup failed: %s\n", runtime.status().ToString().c_str());
    return 1;
  }
  const KernelRunResult result = runtime.value()->Run();

  std::printf("completed: %s  (reboots: %llu, wall time: %s)\n",
              result.completed ? "yes" : "no",
              static_cast<unsigned long long>(result.stats.reboots),
              FormatDuration(result.finished_at).c_str());
  std::printf("energy: %s\n", FormatEnergy(result.stats.TotalEnergy()).c_str());
  std::printf("\nexecution trace:\n%s",
              obs::RenderTimeline(events.events(), {"sense", "transmit"}).c_str());
  return result.completed ? 0 : 1;
}
