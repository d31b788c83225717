#include "src/fleet/instance.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/core/builder.h"
#include "src/sim/cost_model.h"
#include "src/sweep/sweep.h"

namespace artemis::fleet {
namespace {

// MonitorSet's per-event charging for the separate-component placement is
// monitor_call_cycles (the interface crossing) followed by one
// StepCycles charge per monitor; the compiled backend's StepCycles is
// flat. Capture mode mirrors that exactly.
std::vector<double> CompiledStepCycles(const SharedSpecArtifact& artifact,
                                       const CostModel& costs) {
  return std::vector<double>(artifact.compiled.size(),
                             static_cast<double>(costs.compiled_step_cycles));
}

// Mirror of MonitorSet::FramBytes over compiled machines: set bookkeeping
// plus, per monitor, the state word + variable slots + property_t slot.
std::size_t MirroredFramBytes(const SharedSpecArtifact& artifact) {
  std::size_t bytes = sizeof(std::uint64_t) + sizeof(MonitorVerdict) + 16;
  for (const CompiledMachine& machine : artifact.compiled) {
    bytes += sizeof(std::uint16_t) + machine.initial_slots.size() * sizeof(double);
    bytes += 24;
  }
  return bytes;
}

std::uint64_t EnergyNj(EnergyUj uj) {
  return uj <= 0.0 ? 0 : static_cast<std::uint64_t>(std::llround(uj * 1000.0));
}

}  // namespace

std::uint64_t DeviceSeed(std::uint64_t fleet_seed, std::uint64_t device_index) {
  // One SplitMix64 scramble of the combined coordinates; the +1 offsets
  // keep (0, 0) away from the all-zero fixed point.
  std::uint64_t z = (fleet_seed + 1) * 0x9E3779B97F4A7C15ull + (device_index + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  z ^= z >> 31;
  return z == 0 ? 1 : z;
}

// ---- CaptureChecker ------------------------------------------------------

CaptureChecker::CaptureChecker(std::vector<double> step_cycles, std::size_t fram_bytes)
    : step_cycles_(std::move(step_cycles)), fram_bytes_(fram_bytes) {}

void CaptureChecker::HardReset(Mcu& mcu) {
  if (!arena_registered_) {
    mcu.nvm().Allocate(MemOwner::kMonitor, fram_bytes_, "monitor-set");
    arena_registered_ = true;
  }
  in_progress_ = false;
  cursor_seq_ = 0;
  cursor_ = 0;
  has_done_ = false;
  done_seq_ = 0;
}

void CaptureChecker::Finalize(Mcu& mcu) {
  if (in_progress_) {
    mcu.ExecuteCycles(mcu.costs().timestamp_read_cycles, CostTag::kMonitor);
  }
}

CheckOutcome CaptureChecker::OnEvent(const MonitorEvent& event, Mcu& mcu) {
  CheckOutcome outcome;
  const ExecStatus call =
      mcu.ExecuteCycles(mcu.costs().monitor_call_cycles, CostTag::kMonitor);
  if (call != ExecStatus::kOk) {
    outcome.status = static_cast<int>(call);
    return outcome;
  }
  // Exactly-once capture: a boundary retry after the event was fully
  // consumed replays from the (empty) verdict cache.
  if (has_done_ && event.seq == done_seq_) {
    return outcome;
  }
  if (!in_progress_ || cursor_seq_ != event.seq) {
    in_progress_ = true;
    cursor_seq_ = event.seq;
    cursor_ = 0;
  }
  for (std::size_t i = cursor_; i < step_cycles_.size(); ++i) {
    const ExecStatus step = mcu.ExecuteCycles(step_cycles_[i], CostTag::kMonitor);
    if (step != ExecStatus::kOk) {
      // Power failed before this monitor durably consumed the event; the
      // cursor still points at it, so the re-delivered event resumes here.
      outcome.status = static_cast<int>(step);
      return outcome;
    }
    cursor_ = i + 1;
  }
  CapturedRecord record;
  record.kind = CapturedRecord::Kind::kEvent;
  record.event = event;
  records_.push_back(std::move(record));
  ++events_captured_;
  in_progress_ = false;
  done_seq_ = event.seq;
  has_done_ = true;
  return outcome;
}

void CaptureChecker::OnPathRestart(PathId path, Mcu& mcu) {
  mcu.ExecuteCycles(mcu.costs().action_apply_cycles, CostTag::kMonitor);
  CapturedRecord record;
  record.kind = CapturedRecord::Kind::kPathRestart;
  record.restart_path = path;
  records_.push_back(record);
}

// ---- DeviceInstance ------------------------------------------------------

DeviceInstance::DeviceInstance(const FleetContext& ctx, const DeviceConfig& config)
    : ctx_(ctx), config_(config) {}

DeviceResult DeviceInstance::Finish(const KernelRunResult& run,
                                    const IntermittentKernel& kernel,
                                    std::uint64_t monitor_events, std::uint64_t violations,
                                    const ObsStatsAggregator* agg) const {
  DeviceResult r;
  r.ok = true;
  r.completed = run.completed;
  r.starved = run.starved;
  r.timed_out = run.timed_out;
  r.finished_at_us = run.finished_at;
  r.iterations = run.iterations_completed;
  r.reboots = run.stats.reboots;
  r.charging_us = run.stats.charging_time;
  r.energy_nj = EnergyNj(run.stats.TotalEnergy());
  r.monitor_energy_nj = EnergyNj(run.stats.energy[static_cast<int>(CostTag::kMonitor)]);
  r.monitor_events = monitor_events;
  r.violations = violations;
  for (const TaskProfile& profile : kernel.profiles()) {
    r.commits += profile.commits;
    r.aborts += profile.aborts;
    r.skips += profile.skips;
    if (profile.commits > 0) {
      const std::uint64_t attempts =
          (profile.commits + profile.aborts + profile.commits - 1) / profile.commits;
      r.max_attempts_per_commit = std::max(r.max_attempts_per_commit, attempts);
    }
  }
  if (agg != nullptr) {
    r.has_obs = true;
    for (int k = 0; k < obs::kNumKinds; ++k) {
      r.obs_counts[static_cast<std::size_t>(k)] = agg->CountFor(static_cast<obs::Kind>(k));
    }
    r.obs_total = agg->total_events();
    r.obs_completed_paths = agg->completed_paths();
    r.obs_committed_bytes = agg->committed_bytes();
  }
  return r;
}

DeviceResult DeviceInstance::RunScalar() {
  AppGraph graph = sweep::BuildAppGraphByName(ctx_.app);
  PlatformBuilder builder;
  if (config_.charge == 0) {
    builder.WithContinuousPower();
  } else {
    builder.WithFixedCharge(config_.budget, config_.charge);
  }
  std::unique_ptr<Mcu> mcu = builder.Build();

  obs::EventBus bus;
  ObsStatsAggregator aggregator;
  obs::EventBus* observer = nullptr;
  if (config_.collect_obs) {
    bus.AddSink(&aggregator);
    observer = &bus;
  }

  ArtemisConfig config;
  config.backend = config_.backend;
  config.kernel.seed = config_.seed;
  config.kernel.max_wall_time = config_.horizon;
  config.kernel.app_iterations = config_.iterations == 0 ? UINT64_MAX : config_.iterations;
  config.kernel.max_steps = config_.max_steps;
  config.observer = observer;
  StatusOr<std::unique_ptr<ArtemisRuntime>> runtime =
      ArtemisRuntime::CreateFromArtifact(&graph, ctx_.artifact, mcu.get(), config);
  if (!runtime.ok()) {
    DeviceResult r;
    r.error = runtime.status().ToString();
    return r;
  }
  const KernelRunResult run = runtime.value()->Run();
  return Finish(run, runtime.value()->kernel(),
                runtime.value()->monitors().events_processed(),
                runtime.value()->monitors().violations_reported(),
                config_.collect_obs ? &aggregator : nullptr);
}

DeviceResult DeviceInstance::RunCapture(std::vector<CapturedRecord>* records) {
  AppGraph graph = sweep::BuildAppGraphByName(ctx_.app);
  PlatformBuilder builder;
  if (config_.charge == 0) {
    builder.WithContinuousPower();
  } else {
    builder.WithFixedCharge(config_.budget, config_.charge);
  }
  std::unique_ptr<Mcu> mcu = builder.Build();

  obs::EventBus bus;
  ObsStatsAggregator aggregator;
  obs::EventBus* observer = nullptr;
  if (config_.collect_obs) {
    bus.AddSink(&aggregator);
    observer = &bus;
    mcu->set_observer(observer);
  }

  CaptureChecker checker(CompiledStepCycles(*ctx_.artifact, mcu->costs()),
                         MirroredFramBytes(*ctx_.artifact));
  KernelOptions options;
  options.seed = config_.seed;
  options.max_wall_time = config_.horizon;
  options.app_iterations = config_.iterations == 0 ? UINT64_MAX : config_.iterations;
  options.max_steps = config_.max_steps;
  options.observer = observer;
  IntermittentKernel kernel(&graph, &checker, mcu.get(), options);
  const KernelRunResult run = kernel.Run();
  *records = checker.TakeRecords();
  // monitor_events/violations stay 0 here: the batch pass owns them.
  return Finish(run, kernel, 0, 0, config_.collect_obs ? &aggregator : nullptr);
}

}  // namespace artemis::fleet
