#include "src/core/runtime.h"

#include <string>
#include <utility>

#include "src/sim/cost_model.h"

namespace artemis {

ArtemisRuntime::ArtemisRuntime(const AppGraph* graph, SharedSpecArtifactPtr artifact, Mcu* mcu,
                               std::unique_ptr<MonitorSet> monitors, const ArtemisConfig& config)
    : graph_(graph), artifact_(std::move(artifact)), mcu_(mcu), monitors_(std::move(monitors)) {
  KernelOptions kernel_options = config.kernel;
  if (config.observer != nullptr) {
    kernel_options.observer = config.observer;
    monitors_->set_observer(config.observer);
    mcu_->set_observer(config.observer);
  }
  if (config.flight != nullptr) {
    kernel_options.flight = config.flight;
    monitors_->set_flight(config.flight);
  }
  kernel_ = std::make_unique<IntermittentKernel>(graph_, monitors_.get(), mcu_, kernel_options);
}

StatusOr<std::unique_ptr<ArtemisRuntime>> ArtemisRuntime::Create(const AppGraph* graph,
                                                                 std::string_view spec_source,
                                                                 Mcu* mcu,
                                                                 const ArtemisConfig& config) {
  StatusOr<SharedSpecArtifactPtr> artifact = BuildSpecArtifact(
      std::string(spec_source), *graph, StageForBackend(config.backend), config.lowering);
  if (!artifact.ok()) {
    return artifact.status();
  }
  return CreateFromArtifact(graph, artifact.value(), mcu, config);
}

StatusOr<std::unique_ptr<ArtemisRuntime>> ArtemisRuntime::CreateFromArtifact(
    const AppGraph* graph, const SharedSpecArtifactPtr& artifact, Mcu* mcu,
    const ArtemisConfig& config) {
  if (const Status status = graph->Validate(); !status.ok()) {
    return status;
  }
  if (artifact == nullptr) {
    return Status::Invalid("null spec artifact");
  }
  const MonitorSetOptions monitor_options{
      .policy = config.arbitration, .placement = config.placement, .radio = config.radio};
  StatusOr<std::unique_ptr<MonitorSet>> monitors = BuildMonitorSetFromArtifact(
      artifact, *graph, config.backend, config.lowering, monitor_options);
  if (!monitors.ok()) {
    return monitors.status();
  }
  return std::unique_ptr<ArtemisRuntime>(
      new ArtemisRuntime(graph, artifact, mcu, std::move(monitors).value(), config));
}

KernelRunResult ArtemisRuntime::Run() { return kernel_->Run(); }

std::size_t ArtemisRuntime::RuntimeTextBytes() {
  const CostModel& costs = DefaultCostModel();
  return costs.text_kernel_base + costs.text_artemis_runtime_extra;
}

}  // namespace artemis
