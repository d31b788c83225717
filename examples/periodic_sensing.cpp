// Continuous operation with the `period` property: a soil-moisture sampler
// that must run every ~5 seconds across rounds, on a harvester that
// sometimes cannot sustain the cadence. The monitor detects the missed
// periods; the runtime reacts per the spec.
//
//   $ ./examples/periodic_sensing
#include <cstdio>

#include "src/core/builder.h"
#include "src/core/runtime.h"
#include "src/core/stats.h"
#include "src/kernel/channel.h"
#include "src/obs/bus.h"

using namespace artemis;  // Example code; library code never does this.

int main() {
  AppGraph graph;
  const TaskId sample = graph.AddTask(TaskDef{
      .name = "sample",
      .work = {.duration = 60 * kMillisecond, .power = 3.0},
      .effect = [](TaskContext& ctx) { ctx.Push(0.3 + ctx.rng().Gaussian(0.0, 0.02)); },
      .monitored_var = std::nullopt,
  });
  const TaskId log_task = graph.AddTask(TaskDef{
      .name = "log",
      .work = {.duration = 20 * kMillisecond, .power = 1.0},
      .effect = nullptr,
      .monitored_var = std::nullopt,
  });
  graph.AddPath({sample, log_task});

  // Target cadence: one sample every 5 s (+/- 1 s of jitter).
  const char* spec = R"(
    sample: {
      period: 5s jitter: 1s onFail: restartTask;
      maxTries: 4 onFail: skipPath;
    }
  )";

  // 195 uJ per on-period: the sample (180 uJ) fits, the log task dies, and
  // the 9 s recharge blows the 6 s cadence budget for the next round.
  auto mcu = PlatformBuilder().WithFixedCharge(195.0, 9 * kSecond).Build();

  obs::EventBus bus;
  obs::CollectingSink events;
  bus.AddSink(&events);
  ArtemisConfig config;
  config.observer = &bus;
  config.kernel.app_iterations = 12;             // A dozen sampling rounds.
  config.kernel.inter_iteration_gap = 4 * kSecond;  // Duty-cycle sleep.
  config.kernel.max_wall_time = kHour;
  auto runtime = ArtemisRuntime::Create(&graph, spec, mcu.get(), config);
  if (!runtime.ok()) {
    std::fprintf(stderr, "setup failed: %s\n", runtime.status().ToString().c_str());
    return 1;
  }
  const KernelRunResult result = runtime.value()->Run();

  int period_violations = 0;
  for (const obs::Event& e : events.events()) {
    if (e.kind == obs::Kind::kViolation && e.detail.find("period") != std::string::npos) {
      ++period_violations;
    }
  }
  std::printf("== periodic soil sensing, 12 rounds ==\n");
  std::printf("rounds completed: %llu, samples committed: %zu\n",
              static_cast<unsigned long long>(result.iterations_completed),
              runtime.value()->kernel().channels().Samples(sample).size());
  std::printf("period violations detected: %d (charging delays > 6s cadence budget)\n",
              period_violations);
  std::printf("wall=%s reboots=%llu energy=%s\n",
              FormatDuration(result.finished_at).c_str(),
              static_cast<unsigned long long>(result.stats.reboots),
              FormatEnergy(result.stats.TotalEnergy()).c_str());
  return result.completed ? 0 : 1;
}
