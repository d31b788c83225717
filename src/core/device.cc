#include "src/core/device.h"

#include <utility>

#include "src/core/builder.h"
#include "src/swap/image.h"

namespace artemis {

SpecArtifactStage StageForDevice(const DeviceSetup& setup) {
  return setup.system == DeviceSystem::kMayfly ? SpecArtifactStage::kAst
                                               : StageForBackend(setup.backend);
}

std::unique_ptr<Mcu> BuildDeviceMcu(EnergyUj budget, SimDuration charge,
                                    std::unique_ptr<OutageTimekeeper> timekeeper) {
  PlatformBuilder builder;
  if (charge != 0) {
    builder.WithFixedCharge(budget, charge);
  }
  if (timekeeper != nullptr) {
    builder.WithTimekeeper(std::move(timekeeper));
  }
  return builder.Build();
}

KernelRunResult Device::Run() {
  return artemis_ != nullptr ? artemis_->Run() : mayfly_->Run();
}

const IntermittentKernel& Device::kernel() const {
  return artemis_ != nullptr ? artemis_->kernel() : mayfly_->kernel();
}

StatusOr<Device> BuildDevice(const AppGraph& graph, const SharedSpecArtifactPtr& artifact,
                             DeviceSetup setup) {
  if (artifact == nullptr) {
    return Status::Invalid("null spec artifact");
  }
  if (setup.replacement != nullptr && (setup.system != DeviceSystem::kArtemis ||
                                       setup.backend != MonitorBackend::kCompiled)) {
    return Status::Invalid("hot swap needs the artemis system with the compiled backend");
  }
  Device device;
  device.mcu_ = BuildDeviceMcu(setup.budget, setup.charge, std::move(setup.timekeeper));
  // The ring lives in this device's NVM arena and every append is charged
  // to this device's Mcu.
  if (setup.flight != flight::FlightLevel::kOff) {
    device.recorder_ = std::make_unique<flight::FlightRecorder>(setup.flight_bytes, setup.flight);
    if (const Status attached = device.mcu_->AttachFlightRecorder(device.recorder_.get());
        !attached.ok()) {
      return attached;
    }
  }

  if (setup.system == DeviceSystem::kMayfly) {
    setup.kernel.observer = setup.observer;
    setup.kernel.flight = device.recorder_.get();
    device.mcu_->set_observer(setup.observer);
    StatusOr<std::unique_ptr<MayflyRuntime>> runtime =
        MayflyRuntime::Create(&graph, artifact->ast, device.mcu_.get(), setup.kernel);
    if (!runtime.ok()) {
      return runtime.status();
    }
    device.mayfly_ = std::move(runtime).value();
    return device;
  }

  ArtemisConfig config;
  config.backend = setup.backend;
  config.kernel = setup.kernel;
  config.observer = setup.observer;
  config.flight = device.recorder_.get();
  StatusOr<std::unique_ptr<ArtemisRuntime>> runtime =
      ArtemisRuntime::CreateFromArtifact(&graph, artifact, device.mcu_.get(), config);
  if (!runtime.ok()) {
    return runtime.status();
  }
  device.artemis_ = std::move(runtime).value();
  if (setup.replacement != nullptr) {
    MonitorImage installed{{SpecHash(artifact->spec_text), 1}, artifact};
    MonitorImage next{{SpecHash(setup.replacement->spec_text), 2}, std::move(setup.replacement)};
    device.swap_ = std::make_unique<HotSwapController>(&device.artemis_->monitors(),
                                                       std::move(installed), &graph);
    device.swap_->set_flight(device.recorder_.get());
    if (const Status queued = device.swap_->RequestSwap(std::move(next), setup.swap_at);
        !queued.ok()) {
      return queued;
    }
    device.artemis_->kernel().set_swap_hook(device.swap_.get());
  }
  return device;
}

}  // namespace artemis
