// Shared setup for the experiment binaries: the Section 5 testbed
// parameters and helpers to run the health benchmark under ARTEMIS or
// Mayfly on a given power supply.
#ifndef BENCH_BENCH_COMMON_H_
#define BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>

#include "src/apps/health_app.h"
#include "src/base/status.h"
#include "src/core/builder.h"
#include "src/core/runtime.h"
#include "src/core/stats.h"
#include "src/kernel/kernel.h"
#include "src/mayfly/mayfly.h"
#include "src/monitor/shared_spec.h"
#include "src/obs/bus.h"
#include "src/spec/parser.h"
#include "src/sweep/sweep.h"

namespace artemis::bench {

// Per-on-period energy budget (uJ): finishes `accel` (18 mJ) after a retry
// but never accel+filter+send (~19.95 mJ) in one period, reproducing the
// Section 5.1 failure pattern where outages land between accel and send.
inline constexpr EnergyUj kOnBudgetUj = 19'500.0;

// Nominal charging bins carry a 1 s boot margin (see EXPERIMENTS.md): a
// nominal outage equal to the MITD bound must not spuriously violate it
// through millisecond-scale runtime overhead.
inline SimDuration ChargeTime(int minutes) {
  return static_cast<SimDuration>(minutes) * kMinute - 1 * kSecond;
}

struct RunOutput {
  KernelRunResult result;
  std::string label;
};

// Runs the health app under ARTEMIS on the given power model. When
// `observer` is set, the sim/kernel/monitor layers publish into it
// (src/obs) — fig13/fig16 consume that event stream. When `artifact` is
// set (a pre-built shared spec artifact, e.g. from a CompiledSpecCache),
// `spec_text` is ignored and no parse/lower/compile work happens per run. Setup failures come back as
// a Status instead of killing the process, so sweep grids can report them
// as error rows.
inline StatusOr<RunOutput> RunArtemis(std::unique_ptr<Mcu> mcu, SimDuration max_wall,
                                      const std::string& spec_text = HealthAppSpec(),
                                      MonitorBackend backend = MonitorBackend::kBuiltin,
                                      obs::EventBus* observer = nullptr,
                                      const SharedSpecArtifactPtr& artifact = nullptr) {
  HealthApp app = BuildHealthApp();
  ArtemisConfig config;
  config.backend = backend;
  config.kernel.max_wall_time = max_wall;
  config.observer = observer;
  StatusOr<std::unique_ptr<ArtemisRuntime>> runtime =
      artifact != nullptr
          ? ArtemisRuntime::CreateFromArtifact(&app.graph, artifact, mcu.get(), config)
          : ArtemisRuntime::Create(&app.graph, spec_text, mcu.get(), config);
  if (!runtime.ok()) {
    return runtime.status();
  }
  return RunOutput{runtime.value()->Run(), "ARTEMIS"};
}

// Runs the health app under the Mayfly baseline (MITD/collect subset, no
// maxAttempt) on the given power model. As above, a set `artifact` skips
// the per-run spec parse.
inline StatusOr<RunOutput> RunMayfly(std::unique_ptr<Mcu> mcu, SimDuration max_wall,
                                     obs::EventBus* observer = nullptr,
                                     const SharedSpecArtifactPtr& artifact = nullptr) {
  HealthApp app = BuildHealthApp();
  KernelOptions options;
  options.max_wall_time = max_wall;
  options.observer = observer;
  if (observer != nullptr) {
    mcu->set_observer(observer);
  }
  StatusOr<std::unique_ptr<MayflyRuntime>> runtime = [&] {
    if (artifact != nullptr) {
      return MayflyRuntime::Create(&app.graph, artifact->ast, mcu.get(), options);
    }
    StatusOr<SpecAst> parsed = SpecParser::Parse(HealthAppSpec());
    if (!parsed.ok()) {
      return StatusOr<std::unique_ptr<MayflyRuntime>>(parsed.status());
    }
    return MayflyRuntime::Create(&app.graph, parsed.value(), mcu.get(), options);
  }();
  if (!runtime.ok()) {
    return runtime.status();
  }
  return RunOutput{runtime.value()->Run(), "Mayfly"};
}

// Unwraps a run or aborts the bench: for binaries where a setup failure is
// a bug in the bench itself, not a data point.
inline RunOutput Require(StatusOr<RunOutput> output) {
  if (!output.ok()) {
    std::fprintf(stderr, "bench setup failed: %s\n", output.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(output).value();
}

// The Figure 12 grid: ARTEMIS and Mayfly across 1..10 minute charging bins
// (20 points). Shared with bench/sweep_scaling.cc, which measures the sweep
// engine itself on this grid.
inline sweep::SweepSpec Fig12Grid() {
  sweep::SweepSpec grid;
  grid.systems = {"artemis", "mayfly"};
  grid.charges.clear();
  for (int minutes = 1; minutes <= 10; ++minutes) {
    grid.charges.push_back(ChargeTime(minutes));
  }
  grid.budgets = {kOnBudgetUj};
  // A Mayfly livelock cycles once per charging delay; 40 cycles of the
  // longest delay is unambiguous non-termination.
  grid.max_wall = 8 * kHour;
  return grid;
}

// Worker count for sweep-engine benches: SWEEP_JOBS env override, default 4
// (the engine's output is byte-identical for any value).
inline int SweepJobs() {
  const char* env = std::getenv("SWEEP_JOBS");
  const int jobs = env != nullptr ? std::atoi(env) : 4;
  return jobs > 0 ? jobs : 1;
}

inline std::string CompletionCell(const KernelRunResult& result) {
  if (result.completed) {
    return FormatDuration(result.finished_at);
  }
  if (result.timed_out) {
    return "DNF (non-termination)";
  }
  if (result.starved) {
    return "DNF (starved)";
  }
  return "DNF";
}

}  // namespace artemis::bench

#endif  // BENCH_BENCH_COMMON_H_
