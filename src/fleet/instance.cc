#include "src/fleet/instance.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/core/device.h"
#include "src/sim/cost_model.h"
#include "src/sweep/sweep.h"

namespace artemis::fleet {
namespace {

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

CaptureChecker::CaptureChecker(std::vector<double> step_cycles, std::size_t fram_bytes,
                               std::vector<CapturedRecord>* records)
    : step_cycles_(std::move(step_cycles)), fram_bytes_(fram_bytes), records_(records) {}

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
  const ExecStatus step = ChargeMonitorSteps(mcu, step_cycles_, cursor_, CostTag::kMonitor,
                                             [this](std::size_t i) { cursor_ = i + 1; });
  if (step != ExecStatus::kOk) {
    // Power failed before the next monitor durably consumed the event; the
    // cursor still points at it, so the re-delivered event resumes there.
    outcome.status = static_cast<int>(step);
    return outcome;
  }
  CapturedRecord record;
  record.kind = CapturedRecord::Kind::kEvent;
  record.event = event;
  records_->push_back(std::move(record));
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
  records_->push_back(record);
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
  obs::EventBus bus;
  ObsStatsAggregator aggregator;
  DeviceSetup setup;
  setup.backend = config_.backend;
  setup.budget = config_.budget;
  setup.charge = config_.charge;
  setup.kernel = KernelLimits();
  if (config_.collect_obs) {
    bus.AddSink(&aggregator);
    setup.observer = &bus;
  }
  StatusOr<Device> device =
      BuildDevice(sweep::SharedAppGraph(ctx_.app), ctx_.artifact, std::move(setup));
  if (!device.ok()) {
    DeviceResult r;
    r.error = device.status().ToString();
    return r;
  }
  const KernelRunResult run = device.value().Run();
  const MonitorSet& monitors = device.value().artemis()->monitors();
  return Finish(run, device.value().kernel(), monitors.events_processed(),
                monitors.violations_reported(), config_.collect_obs ? &aggregator : nullptr);
}

DeviceResult DeviceInstance::RunCapture(std::vector<CapturedRecord>* records) {
  std::unique_ptr<Mcu> mcu = BuildDeviceMcu(config_.budget, config_.charge);
  obs::EventBus bus;
  ObsStatsAggregator aggregator;
  KernelOptions options = KernelLimits();
  if (config_.collect_obs) {
    bus.AddSink(&aggregator);
    options.observer = &bus;
    mcu->set_observer(&bus);
  }

  records->clear();
  // The separate-component placement's charges, priced by MonitorSet
  // itself: monitor_call_cycles, then each monitor's step cycles.
  MonitorCharges charges = MonitorSet::CompiledCharges(ctx_.artifact->compiled, mcu->costs());
  CaptureChecker checker(std::move(charges.step_cycles), charges.fram_bytes, records);
  IntermittentKernel kernel(&sweep::SharedAppGraph(ctx_.app), &checker, mcu.get(), options);
  const KernelRunResult run = kernel.Run();
  // monitor_events/violations stay 0 here: the batch pass owns them.
  return Finish(run, kernel, 0, 0, config_.collect_obs ? &aggregator : nullptr);
}

KernelOptions DeviceInstance::KernelLimits() const {
  KernelOptions options;
  options.seed = config_.seed;
  options.max_wall_time = config_.horizon;
  options.app_iterations = config_.iterations == 0 ? UINT64_MAX : config_.iterations;
  options.max_steps = config_.max_steps;
  return options;
}

}  // namespace artemis::fleet
