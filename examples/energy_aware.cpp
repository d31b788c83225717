// The Section 4.2.2 extension walkthrough: energy awareness as a *new*
// property type. The paper uses this scenario to argue the framework is
// additively extensible; here the `minEnergy` property skips an expensive
// transmission whenever the capacitor's stored-energy fraction at task start
// is below a threshold, and the example compares runs with and without it.
//
//   $ ./examples/energy_aware
#include <cstdio>

#include "src/core/builder.h"
#include "src/core/runtime.h"
#include "src/core/stats.h"
#include "src/kernel/channel.h"
#include "src/obs/bus.h"

using namespace artemis;  // Example code; library code never does this.

namespace {

AppGraph MakeApp() {
  AppGraph graph;
  const TaskId sample = graph.AddTask(TaskDef{
      .name = "sample",
      .work = {.duration = 40 * kMillisecond, .power = 2.0},
      .effect = [](TaskContext& ctx) { ctx.Push(ctx.rng().NextDouble()); },
      .monitored_var = std::nullopt,
  });
  const TaskWork burst_work{.duration = 300 * kMillisecond, .power = 22.0};  // 6.6 mJ
  const TaskId burst_a = graph.AddTask(TaskDef{
      .name = "burstA",
      .work = burst_work,
      .effect = [](TaskContext& ctx) { ctx.Push(1.0); },
      .monitored_var = std::nullopt,
  });
  const TaskId burst_b = graph.AddTask(TaskDef{
      .name = "burstB",  // Starts on a drained buffer: doomed without help.
      .work = burst_work,
      .effect = [](TaskContext& ctx) { ctx.Push(1.0); },
      .monitored_var = std::nullopt,
  });
  graph.AddPath({sample, burst_a, burst_b});
  return graph;
}

struct Outcome {
  KernelRunResult result;
  std::size_t bursts_skipped;
};

Outcome RunWith(const char* spec) {
  AppGraph graph = MakeApp();
  // Deliberately undersized budget: the burst (6.6 mJ) barely fits the
  // 7 mJ on-period, so attempting it with a half-empty buffer power-fails.
  auto mcu = PlatformBuilder().WithFixedCharge(7'000.0, 10 * kSecond).Build();
  obs::EventBus bus;
  obs::CollectingSink events;
  bus.AddSink(&events);
  ArtemisConfig config;
  config.kernel.max_wall_time = kHour;
  config.observer = &bus;
  auto runtime = ArtemisRuntime::Create(&graph, spec, mcu.get(), config);
  if (!runtime.ok()) {
    std::fprintf(stderr, "setup failed: %s\n", runtime.status().ToString().c_str());
    std::exit(1);
  }
  KernelRunResult result = runtime.value()->Run();
  return Outcome{std::move(result), events.Count(obs::Kind::kTaskSkipped)};
}

}  // namespace

int main() {
  std::printf("== Section 4.2.2 extension: the minEnergy property ==\n\n");

  const Outcome baseline = RunWith(R"(
    burstB: { maxTries: 5 onFail: skipPath; }
  )");
  const Outcome energy_aware = RunWith(R"(
    burstB: {
      minEnergy: 0.9 onFail: skipTask;
      maxTries: 5 onFail: skipPath;
    }
  )");

  std::printf("%-22s %-10s %-10s %-10s %-10s\n", "configuration", "done", "reboots",
              "energy", "skips");
  std::printf("%-22s %-10s %-10llu %-10s %-10zu\n", "maxTries only",
              baseline.result.completed ? "yes" : "no",
              static_cast<unsigned long long>(baseline.result.stats.reboots),
              FormatEnergy(baseline.result.stats.TotalEnergy()).c_str(),
              baseline.bursts_skipped);
  std::printf("%-22s %-10s %-10llu %-10s %-10zu\n", "with minEnergy",
              energy_aware.result.completed ? "yes" : "no",
              static_cast<unsigned long long>(energy_aware.result.stats.reboots),
              FormatEnergy(energy_aware.result.stats.TotalEnergy()).c_str(),
              energy_aware.bursts_skipped);

  std::printf("\nthe energy-aware run avoids doomed burst attempts (fewer reboots, less\n"
              "energy) by checking the stored-energy fraction before starting the task.\n");
  return 0;
}
