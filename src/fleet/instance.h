// DeviceInstance: one simulated intermittent device, packaged as a
// compact, relocatable record for fleet-scale time-slicing (src/fleet).
//
// A fleet run provisions and retires millions of these, so the contract
// is strict:
//
//  * everything a device owns — NvmArena image, capacitor + persistent
//    clock scalars, kernel/monitor state — hangs off this one object; no
//    pointer reaches into another instance, so instances can be built,
//    run, and destroyed on any shard worker in any order;
//  * everything devices share — the compiled spec artifact, cost model,
//    the app graph (sweep::SharedAppGraph) — is read-only, so sharing it
//    across worker threads is safe by construction;
//  * a device's result depends only on its DeviceConfig (index, seed,
//    energy axes); never on which shard ran it or when.
//
// Two monitor modes:
//
//  * scalar — the full in-loop MonitorSet stack, verdicts feed back into
//    the kernel (corrective actions fire). A single-device fleet run in
//    this mode is the same computation as one sweep point
//    (tests/fleet_test.cc pins this equivalence).
//  * capture — monitor *costs* are charged in-loop (same cycles, same
//    resume-after-outage accounting as MonitorSet), but events are
//    recorded into a host-side stream instead of being stepped; the
//    fleet layer later advances all devices' monitors together through
//    the batched SoA VM (src/monitor/compiled_batch.h). Verdicts cannot
//    feed back, so corrective actions never fire: capture mode is the
//    observe-only device twin, and diverges from scalar mode exactly
//    when a scalar run would have fired a corrective action.
#ifndef SRC_FLEET_INSTANCE_H_
#define SRC_FLEET_INSTANCE_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/base/units.h"
#include "src/core/obs_stats.h"
#include "src/core/runtime.h"
#include "src/kernel/app_graph.h"
#include "src/kernel/checker.h"
#include "src/kernel/kernel.h"
#include "src/monitor/monitor_set.h"
#include "src/monitor/shared_spec.h"
#include "src/obs/bus.h"
#include "src/sim/mcu.h"

namespace artemis::fleet {

// Everything that distinguishes device i from device j. Integral where
// possible so configs can be derived from the fleet axes without
// accumulating float state.
struct DeviceConfig {
  std::uint64_t index = 0;
  std::uint64_t seed = 1;
  EnergyUj budget = 19'500.0;
  SimDuration charge = 0;  // charging delay after each on-period; 0 = continuous
  MonitorBackend backend = MonitorBackend::kCompiled;
  // Horizon: run `iterations` full passes over the path set, or — when
  // iterations == 0 — loop until `horizon` simulated time is reached.
  std::uint64_t iterations = 1;
  SimDuration horizon = 8 * kHour;
  std::uint64_t max_steps = 2'000'000;
  bool collect_obs = false;
};

// Per-device outcome, reduced to integers (plus the rare error string) so
// shard merges are associative and byte-exact for any shard count:
// energy folds as nanojoules, never as a float sum.
struct DeviceResult {
  bool ok = false;
  std::string error;

  bool completed = false;
  bool starved = false;
  bool timed_out = false;
  std::uint64_t finished_at_us = 0;
  std::uint64_t iterations = 0;
  std::uint64_t reboots = 0;
  std::uint64_t charging_us = 0;
  std::uint64_t energy_nj = 0;          // total simulated energy
  std::uint64_t monitor_energy_nj = 0;  // CostTag::kMonitor share
  std::uint64_t monitor_events = 0;
  // Of monitor_events, how many the batch pass consumed via the dead-column
  // check without dispatching (provably self-loops in every machine).
  // Always 0 in scalar mode. Subset of monitor_events, never additional.
  std::uint64_t monitor_events_elided = 0;
  std::uint64_t violations = 0;  // scalar: in-loop; capture: batch pass fills it
  std::uint64_t commits = 0;
  std::uint64_t aborts = 0;
  std::uint64_t skips = 0;
  // Worst per-task executions-per-commit observed on this device
  // ((commits + aborts) / commits, ceil'd), the Figure 13 re-execution
  // metric; 0 when nothing committed.
  std::uint64_t max_attempts_per_commit = 0;

  // Obs-bus fold (DeviceConfig::collect_obs): counts by obs::Kind plus the
  // aggregator's scalar totals.
  bool has_obs = false;
  std::array<std::uint64_t, obs::kNumKinds> obs_counts{};
  std::uint64_t obs_total = 0;
  std::uint64_t obs_completed_paths = 0;
  std::uint64_t obs_committed_bytes = 0;
};

// Captured monitor traffic from one capture-mode device: the events in
// delivery order, interleaved with the path-restart notifications the
// batch pass must replay to reset path-scoped machines at the right spot.
struct CapturedRecord {
  enum class Kind : std::uint8_t { kEvent, kPathRestart };
  Kind kind = Kind::kEvent;
  MonitorEvent event;        // kEvent
  PathId restart_path = kNoPath;  // kPathRestart
};

// PropertyChecker that charges exactly the cycles MonitorSet would charge
// (interface crossing, per-monitor step, resume-after-outage continuation,
// path-restart application) but appends the event stream to `records`
// instead of stepping monitors. Never returns a verdict.
class CaptureChecker final : public PropertyChecker {
 public:
  // `step_cycles[i]` is monitor i's per-event cost; `fram_bytes` the
  // MonitorSet footprint to mirror in the NVM arena image; `records` (not
  // owned) receives the captured stream.
  CaptureChecker(std::vector<double> step_cycles, std::size_t fram_bytes,
                 std::vector<CapturedRecord>* records);

  void HardReset(Mcu& mcu) override;
  void Finalize(Mcu& mcu) override;
  CheckOutcome OnEvent(const MonitorEvent& event, Mcu& mcu) override;
  void OnPathRestart(PathId path, Mcu& mcu) override;
  std::string Name() const override { return "fleet-capture"; }

  std::uint64_t events_captured() const { return events_captured_; }

 private:
  std::vector<double> step_cycles_;
  std::size_t fram_bytes_ = 0;
  bool arena_registered_ = false;

  // Mirror of MonitorSet's FRAM-resident progress state.
  bool in_progress_ = false;
  std::uint64_t cursor_seq_ = 0;
  std::size_t cursor_ = 0;
  bool has_done_ = false;
  std::uint64_t done_seq_ = 0;

  std::vector<CapturedRecord>* records_;
  std::uint64_t events_captured_ = 0;
};

// Read-only state shared by every instance of one fleet run. Every
// instance runs over the process-wide immutable sweep::SharedAppGraph(app)
// (a graph holds no per-device state; see src/kernel/task.h), and the
// compiled artifact is immutable by construction; both are shared across
// all shards.
struct FleetContext {
  std::string app = "health";
  SharedSpecArtifactPtr artifact;
};

class DeviceInstance {
 public:
  DeviceInstance(const FleetContext& ctx, const DeviceConfig& config);

  // Builds the device (power model, NVM arena, kernel, monitors) and runs
  // it to completion with in-loop monitors. One-shot.
  DeviceResult RunScalar();

  // Capture-mode run: same device, monitor cycles charged but events
  // captured into `records` for the batched monitor pass. `records` is
  // cleared first and refilled in place (its capacity is reused), so on
  // return it holds exactly this device's stream. `monitor_events` and
  // `violations` are left 0 in the result; the fleet layer fills them
  // after the batch pass. One-shot.
  DeviceResult RunCapture(std::vector<CapturedRecord>* records);

 private:
  DeviceResult Finish(const KernelRunResult& run, const IntermittentKernel& kernel,
                      std::uint64_t monitor_events, std::uint64_t violations,
                      const ObsStatsAggregator* agg) const;

  const FleetContext& ctx_;
  DeviceConfig config_;
};

// Deterministic per-device seed stream: SplitMix64 over (fleet_seed,
// index), so a device's RNG depends only on its fleet coordinates — never
// on the shard that runs it. Seeds are never 0 (Rng requirement).
std::uint64_t DeviceSeed(std::uint64_t fleet_seed, std::uint64_t device_index);

}  // namespace artemis::fleet

#endif  // SRC_FLEET_INSTANCE_H_
