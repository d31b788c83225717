// Device: one simulated intermittent device, the Figure 1 loop — a power
// supply with FRAM, the intermittent kernel, and the monitors whose verdicts
// feed corrective actions back to the kernel — assembled in one place.
//
// Every simulated device in the tree is built here: a sweep point, a scalar
// fleet twin, an `artemisc` run and a figure bench all describe their device
// as a DeviceSetup over a shared spec artifact (src/monitor/shared_spec.h),
// so rebuilding exactly the device a run used is one BuildDevice call with
// the same setup. The only other device shape is the fleet's capture twin
// (src/fleet/instance.h), which takes its Mcu from BuildDeviceMcu but runs
// its own capture checker instead of monitors.
#ifndef SRC_CORE_DEVICE_H_
#define SRC_CORE_DEVICE_H_

#include <cstddef>
#include <cstdint>
#include <memory>

#include "src/base/status.h"
#include "src/base/time.h"
#include "src/core/runtime.h"
#include "src/flight/recorder.h"
#include "src/kernel/app_graph.h"
#include "src/kernel/kernel.h"
#include "src/mayfly/mayfly.h"
#include "src/monitor/shared_spec.h"
#include "src/obs/bus.h"
#include "src/sim/mcu.h"
#include "src/sim/timekeeper.h"
#include "src/swap/hotswap.h"

namespace artemis {

// ARTEMIS monitors, or the Mayfly baseline (src/mayfly), whose checks are
// derived from the artifact's AST and fused into the runtime.
enum class DeviceSystem { kArtemis, kMayfly };

struct DeviceSetup {
  DeviceSystem system = DeviceSystem::kArtemis;
  MonitorBackend backend = MonitorBackend::kBuiltin;  // ARTEMIS only
  // Fixed-charge power: `budget` uJ per on-period, then `charge` of
  // charging after each power failure; charge 0 = continuous power.
  EnergyUj budget = 0.0;
  SimDuration charge = 0;
  // Persistent-clock model across outages; null keeps the ideal clock.
  std::unique_ptr<OutageTimekeeper> timekeeper;
  // Seed, wall-time, iteration and step limits. The device fills in the
  // kernel's observer, flight recorder and swap hook from the fields below.
  KernelOptions kernel;
  // Observability bus that the Mcu, the kernel and the monitors publish
  // into; attaching it costs no simulated cycles. Not owned.
  obs::EventBus* observer = nullptr;
  // Anything but kOff attaches a flight recorder with a ring of
  // `flight_bytes`; its appends are charged to this device.
  flight::FlightLevel flight = flight::FlightLevel::kOff;
  std::size_t flight_bytes = 1024;
  // Hot swap (docs/hotswap.md): a kCompiled replacement, delivered as image
  // epoch 2 over the installed epoch 1 at the first task-boundary
  // quiescence point at or after `swap_at` device time. Needs the ARTEMIS
  // system with the compiled backend.
  SharedSpecArtifactPtr replacement;
  SimTime swap_at = 0;
};

// The spec artifact stage `setup`'s device runs from: Mayfly derives its
// rules from the AST, ARTEMIS needs the stage its backend runs.
SpecArtifactStage StageForDevice(const DeviceSetup& setup);

// The device's Mcu: the power supply of `budget` and `charge` (as in
// DeviceSetup) and the optional outage timekeeper.
std::unique_ptr<Mcu> BuildDeviceMcu(EnergyUj budget, SimDuration charge,
                                    std::unique_ptr<OutageTimekeeper> timekeeper = nullptr);

class Device {
 public:
  KernelRunResult Run();

  const IntermittentKernel& kernel() const;
  // Exactly one of the two runtimes is set, per DeviceSetup::system.
  const ArtemisRuntime* artemis() const { return artemis_.get(); }
  const MayflyRuntime* mayfly() const { return mayfly_.get(); }
  // Null when the flight level is kOff.
  const flight::FlightRecorder* recorder() const { return recorder_.get(); }
  // The swap's bookkeeping; null without a replacement.
  const SwapStats* swap_stats() const { return swap_ ? &swap_->stats() : nullptr; }
  // The running monitor image's epoch: 1, or 2 once the replacement
  // committed.
  std::uint32_t image_epoch() const { return swap_ ? swap_->installed().epoch : 1; }

 private:
  friend StatusOr<Device> BuildDevice(const AppGraph& graph,
                                      const SharedSpecArtifactPtr& artifact, DeviceSetup setup);
  Device() = default;

  // Declared in dependency order, so each part is destroyed before what
  // it points at.
  std::unique_ptr<Mcu> mcu_;
  std::unique_ptr<flight::FlightRecorder> recorder_;
  std::unique_ptr<ArtemisRuntime> artemis_;
  std::unique_ptr<MayflyRuntime> mayfly_;
  std::unique_ptr<HotSwapController> swap_;
};

// Builds the device that runs `graph` under `artifact`'s properties. The
// recorder is attached to the Mcu before the runtime is built; image
// headers are SpecHash of each artifact's text. `graph` must outlive the
// device.
StatusOr<Device> BuildDevice(const AppGraph& graph, const SharedSpecArtifactPtr& artifact,
                             DeviceSetup setup);

}  // namespace artemis

#endif  // SRC_CORE_DEVICE_H_
