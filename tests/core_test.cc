// Tests for the ARTEMIS runtime facade, the platform builder, and the
// reporting helpers.
#include <gtest/gtest.h>

#include "src/apps/health_app.h"
#include "src/core/builder.h"
#include "src/core/device.h"
#include "src/core/runtime.h"
#include "src/core/stats.h"

namespace artemis {
namespace {

TEST(ArtemisRuntimeTest, CreateRejectsBadSpecSyntax) {
  HealthApp app = BuildHealthApp();
  auto mcu = PlatformBuilder().WithContinuousPower().Build();
  auto runtime = ArtemisRuntime::Create(&app.graph, "send: { huh }", mcu.get(), {});
  EXPECT_FALSE(runtime.ok());
}

TEST(ArtemisRuntimeTest, CreateRejectsSemanticErrors) {
  HealthApp app = BuildHealthApp();
  auto mcu = PlatformBuilder().WithContinuousPower().Build();
  auto runtime = ArtemisRuntime::Create(
      &app.graph, "ghost: { maxTries: 1 onFail: skipPath; }", mcu.get(), {});
  EXPECT_FALSE(runtime.ok());
}

TEST(ArtemisRuntimeTest, CreateRejectsEmptyGraph) {
  AppGraph graph;
  auto mcu = PlatformBuilder().WithContinuousPower().Build();
  auto runtime = ArtemisRuntime::Create(&graph, "", mcu.get(), {});
  EXPECT_FALSE(runtime.ok());
}

TEST(ArtemisRuntimeTest, KeepsValidationWarnings) {
  HealthApp app = BuildHealthApp();
  auto mcu = PlatformBuilder().WithContinuousPower().Build();
  // send never completes before bodyTemp on any path: a warning, not an
  // error, so the runtime is built and keeps it.
  auto runtime = ArtemisRuntime::Create(
      &app.graph, "bodyTemp: { collect: 1 dpTask: send onFail: restartPath; }", mcu.get(), {});
  ASSERT_TRUE(runtime.ok()) << runtime.status().ToString();
  ASSERT_EQ(runtime.value()->validation_warnings().size(), 1u);
  EXPECT_NE(runtime.value()->validation_warnings()[0].find("never completes before"),
            std::string::npos);
}

TEST(ArtemisRuntimeTest, RunsHealthAppOnContinuousPower) {
  HealthApp app = BuildHealthApp();
  auto mcu = PlatformBuilder().WithContinuousPower().Build();
  auto runtime = ArtemisRuntime::Create(&app.graph, HealthAppSpec(), mcu.get(), {});
  ASSERT_TRUE(runtime.ok()) << runtime.status().ToString();
  const KernelRunResult result = runtime.value()->Run();
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.stats.reboots, 0u);
  // Path #1 restarted until ten bodyTemp samples were collected.
  EXPECT_EQ(runtime.value()->kernel().channels().CompletionCount(app.body_temp), 10u);
  EXPECT_EQ(runtime.value()->monitors().size(), 8u);
}

TEST(ArtemisRuntimeTest, BackendsProduceIdenticalExecution) {
  for (const SimDuration charge : {kSecond, kMinute}) {
    // Ordered by simulated per-step cost: builtin < compiled < interpreted.
    KernelRunResult results[3];
    std::uint64_t sends[3];
    int i = 0;
    for (const MonitorBackend backend :
         {MonitorBackend::kBuiltin, MonitorBackend::kCompiled, MonitorBackend::kInterpreted}) {
      HealthApp app = BuildHealthApp();
      auto mcu = PlatformBuilder().WithFixedCharge(19'500.0, charge).Build();
      ArtemisConfig config;
      config.backend = backend;
      config.kernel.max_wall_time = 2 * kHour;
      auto runtime = ArtemisRuntime::Create(&app.graph, HealthAppSpec(), mcu.get(), config);
      ASSERT_TRUE(runtime.ok());
      results[i] = runtime.value()->Run();
      sends[i] = runtime.value()->kernel().channels().CompletionCount(app.send);
      ++i;
    }
    for (int j = 1; j < 3; ++j) {
      EXPECT_EQ(results[0].completed, results[j].completed) << j;
      EXPECT_EQ(results[0].stats.reboots, results[j].stats.reboots) << j;
      EXPECT_EQ(sends[0], sends[j]) << j;
      // App time nearly identical: a backend's extra monitor cycles shift
      // where power failures land inside task bodies, which perturbs the
      // aborted-partial-run accounting by microseconds.
      const double app0 =
          static_cast<double>(results[0].stats.busy_time[static_cast<int>(CostTag::kApp)]);
      const double appj =
          static_cast<double>(results[j].stats.busy_time[static_cast<int>(CostTag::kApp)]);
      EXPECT_NEAR(app0 / appj, 1.0, 0.01);
      EXPECT_LT(results[j - 1].stats.busy_time[static_cast<int>(CostTag::kMonitor)],
                results[j].stats.busy_time[static_cast<int>(CostTag::kMonitor)]);
    }
  }
}

TEST(ArtemisRuntimeTest, FeverTriggersCompletePath) {
  HealthAppOptions options;
  options.force_fever = true;
  HealthApp app = BuildHealthApp(options);
  auto mcu = PlatformBuilder().WithContinuousPower().Build();
  obs::EventBus bus;
  obs::CollectingSink events;
  bus.AddSink(&events);
  ArtemisConfig config;
  config.kernel.observer = &bus;
  auto runtime = ArtemisRuntime::Create(&app.graph, HealthAppSpec(), mcu.get(), config);
  ASSERT_TRUE(runtime.ok());
  const KernelRunResult result = runtime.value()->Run();
  EXPECT_TRUE(result.completed);
  // dpData(avgTemp) fired and the rest of path #1 ran unmonitored.
  EXPECT_GE(events.Count(obs::Kind::kPathCompleteUnmonitored), 1u);
  bool saw_dpdata = false;
  for (const obs::Event& e : events.events()) {
    saw_dpdata =
        saw_dpdata || (e.kind == obs::Kind::kViolation &&
                       e.detail.find("dpData") != std::string::npos);
  }
  EXPECT_TRUE(saw_dpdata);
}

// ---------------------------------------------------------------- builder --

TEST(PlatformBuilderTest, SelectsPowerModels) {
  EXPECT_EQ(PlatformBuilder().WithContinuousPower().Build()->power_model().Name(),
            "always-on");
  EXPECT_EQ(PlatformBuilder().WithFixedCharge(1000.0, kSecond).Build()->power_model().Name(),
            "fixed-charge");
  EXPECT_EQ(PlatformBuilder()
                .WithCapacitor(CapacitorConfig{}, std::make_unique<ConstantHarvester>(1.0))
                .Build()
                ->power_model()
                .Name(),
            "capacitor");
  EXPECT_EQ(PlatformBuilder().WithPowerTrace({{0, kSecond}}).Build()->power_model().Name(),
            "trace");
  EXPECT_EQ(
      PlatformBuilder().WithStochasticPower(kSecond, kSecond, 1).Build()->power_model().Name(),
      "stochastic");
}

TEST(PlatformBuilderTest, ClockDriftConfigured) {
  auto mcu = PlatformBuilder()
                 .WithFixedCharge(100.0, kSecond)
                 .WithClockDrift(50 * kMillisecond)
                 .Build();
  // Induce outages; the device clock may now diverge from true time.
  for (int i = 0; i < 5; ++i) {
    (void)mcu->Execute(kSecond, 10.0, CostTag::kApp);
  }
  EXPECT_EQ(mcu->clock().outage_count(), 5u);
}

TEST(PlatformBuilderTest, ReusableAfterBuild) {
  PlatformBuilder builder;
  builder.WithFixedCharge(1000.0, kSecond);
  auto first = builder.Build();
  auto second = builder.Build();  // Falls back to the default supply.
  EXPECT_EQ(first->power_model().Name(), "fixed-charge");
  EXPECT_EQ(second->power_model().Name(), "always-on");
}

// ------------------------------------------------------------------ stats --

TEST(StatsTest, BreakdownMatchesTags) {
  McuStats stats;
  stats.busy_time[static_cast<int>(CostTag::kApp)] = 4 * kSecond;
  stats.busy_time[static_cast<int>(CostTag::kRuntime)] = 15 * kMillisecond;
  stats.busy_time[static_cast<int>(CostTag::kMonitor)] = 10 * kMillisecond;
  stats.busy_time[static_cast<int>(CostTag::kReboot)] = kMillisecond;
  const OverheadBreakdown b = BreakdownFromStats(stats);
  EXPECT_EQ(b.app_time, 4 * kSecond);
  EXPECT_EQ(b.runtime_overhead, 15 * kMillisecond);
  EXPECT_EQ(b.monitor_overhead, 10 * kMillisecond);
  EXPECT_EQ(b.Total(), 4 * kSecond + 26 * kMillisecond);
  const std::string row = FormatOverheadRow("x", b);
  EXPECT_NE(row.find("app=4s"), std::string::npos);
  EXPECT_NE(row.find("monitor=10ms"), std::string::npos);
}

TEST(StatsTest, MemoryTableFormatting) {
  const std::string table = FormatMemoryTable(
      {MemoryRow{.component = "Mayfly runtime", .text = 1152, .ram = 2, .fram = 6354}});
  EXPECT_NE(table.find("Mayfly runtime"), std::string::npos);
  EXPECT_NE(table.find("6354"), std::string::npos);
  EXPECT_NE(table.find(".text"), std::string::npos);
}

TEST(StatsTest, EnergyUnitsScale) {
  EXPECT_EQ(FormatEnergy(12.3), "12.3uJ");
  EXPECT_EQ(FormatEnergy(32'270.0), "32.27mJ");
  EXPECT_EQ(FormatEnergy(2.5e6), "2.50J");
}

TEST(ArtemisRuntimeTest, TextProxyLargerThanMayfly) {
  EXPECT_EQ(ArtemisRuntime::RuntimeTextBytes(), 1512u);
}

SharedSpecArtifactPtr HealthArtifact(const AppGraph& graph, SpecArtifactStage stage,
                                     const std::string& text = HealthAppSpec()) {
  StatusOr<SharedSpecArtifactPtr> artifact = BuildSpecArtifact(text, graph, stage);
  EXPECT_TRUE(artifact.ok()) << artifact.status().ToString();
  return artifact.value();
}

// The device over an artifact runs exactly what a hand-built runtime over
// the same artifact and power supply runs.
TEST(DeviceTest, MatchesAHandBuiltRuntime) {
  HealthApp app = BuildHealthApp();
  const SharedSpecArtifactPtr artifact = HealthArtifact(app.graph, SpecArtifactStage::kCompiled);
  auto mcu = PlatformBuilder().WithFixedCharge(19'500.0, 6 * kMinute - 1 * kSecond).Build();
  ArtemisConfig config;
  config.backend = MonitorBackend::kCompiled;
  config.kernel.max_wall_time = 12 * kHour;
  auto runtime = ArtemisRuntime::CreateFromArtifact(&app.graph, artifact, mcu.get(), config);
  ASSERT_TRUE(runtime.ok());
  const KernelRunResult expected = runtime.value()->Run();

  DeviceSetup setup;
  setup.backend = MonitorBackend::kCompiled;
  setup.budget = 19'500.0;
  setup.charge = 6 * kMinute - 1 * kSecond;
  setup.kernel.max_wall_time = 12 * kHour;
  StatusOr<Device> device = BuildDevice(app.graph, artifact, std::move(setup));
  ASSERT_TRUE(device.ok()) << device.status().ToString();
  const KernelRunResult actual = device.value().Run();
  EXPECT_TRUE(actual.completed);
  EXPECT_GT(actual.stats.reboots, 0u);
  EXPECT_EQ(actual.finished_at, expected.finished_at);
  EXPECT_EQ(actual.stats.reboots, expected.stats.reboots);
  EXPECT_EQ(actual.stats.TotalEnergy(), expected.stats.TotalEnergy());
  EXPECT_EQ(device.value().artemis()->monitors().violations_reported(),
            runtime.value()->monitors().violations_reported());
  EXPECT_EQ(device.value().mayfly(), nullptr);
  EXPECT_EQ(device.value().recorder(), nullptr);
  EXPECT_EQ(device.value().swap_stats(), nullptr);
  EXPECT_EQ(device.value().image_epoch(), 1u);
}

// The observer reaches the Mcu (sim.*), the kernel and the monitors.
TEST(DeviceTest, ObserverReachesEveryLayer) {
  HealthApp app = BuildHealthApp();
  obs::EventBus bus;
  obs::CollectingSink sink;
  bus.AddSink(&sink);
  DeviceSetup setup;
  setup.budget = 19'500.0;
  setup.charge = 6 * kMinute - 1 * kSecond;
  setup.observer = &bus;
  StatusOr<Device> device =
      BuildDevice(app.graph, HealthArtifact(app.graph, SpecArtifactStage::kAst), std::move(setup));
  ASSERT_TRUE(device.ok()) << device.status().ToString();
  device.value().Run();
  bool power_fail = false;
  bool verdict = false;
  bool boot = false;
  for (const obs::Event& e : sink.events()) {
    power_fail |= e.kind == obs::Kind::kSimPowerFail;
    verdict |= e.kind == obs::Kind::kMonitorVerdict;
    boot |= e.kind == obs::Kind::kKernelBoot;
  }
  EXPECT_TRUE(power_fail);
  EXPECT_TRUE(verdict);
  EXPECT_TRUE(boot);
}

// A replacement is delivered as epoch 2 over epoch 1, with the recorder
// sealing the swap; the headers hash each artifact's text.
TEST(DeviceTest, HotSwapsTheReplacementWithTheRecorderAttached) {
  HealthApp app = BuildHealthApp();
  DeviceSetup setup;
  setup.backend = MonitorBackend::kCompiled;
  setup.budget = 19'500.0;
  setup.charge = 6 * kMinute - 1 * kSecond;
  setup.kernel.max_wall_time = 12 * kHour;
  setup.flight = flight::FlightLevel::kFull;
  setup.replacement = HealthArtifact(app.graph, SpecArtifactStage::kCompiled,
                                     HealthAppSpec() + "\n// v2\n");
  setup.swap_at = 2 * kMinute;
  StatusOr<Device> device = BuildDevice(
      app.graph, HealthArtifact(app.graph, SpecArtifactStage::kCompiled), std::move(setup));
  ASSERT_TRUE(device.ok()) << device.status().ToString();
  EXPECT_TRUE(device.value().Run().completed);
  ASSERT_NE(device.value().swap_stats(), nullptr);
  EXPECT_EQ(device.value().swap_stats()->swaps_applied, 1u);
  EXPECT_EQ(device.value().image_epoch(), 2u);
  ASSERT_NE(device.value().recorder(), nullptr);
  EXPECT_GT(device.value().recorder()->stats().records_sealed, 0u);
}

TEST(DeviceTest, RunsTheMayflyBaseline) {
  HealthApp app = BuildHealthApp();
  DeviceSetup setup;
  setup.system = DeviceSystem::kMayfly;
  StatusOr<Device> device =
      BuildDevice(app.graph, HealthArtifact(app.graph, SpecArtifactStage::kAst), std::move(setup));
  ASSERT_TRUE(device.ok()) << device.status().ToString();
  EXPECT_TRUE(device.value().Run().completed);
  EXPECT_EQ(device.value().artemis(), nullptr);
  ASSERT_NE(device.value().mayfly(), nullptr);
  EXPECT_GT(device.value().mayfly()->checker().rule_count(), 0u);
}

TEST(DeviceTest, RejectsANullArtifactAndAnUnservableBackend) {
  HealthApp app = BuildHealthApp();
  EXPECT_FALSE(BuildDevice(app.graph, nullptr, DeviceSetup{}).ok());
  DeviceSetup setup;
  setup.backend = MonitorBackend::kCompiled;
  EXPECT_FALSE(
      BuildDevice(app.graph, HealthArtifact(app.graph, SpecArtifactStage::kAst), std::move(setup))
          .ok());
}

// Only a compiled ARTEMIS monitor set has the versioned image a swap needs.
TEST(DeviceTest, RejectsAReplacementWithoutTheCompiledBackend) {
  HealthApp app = BuildHealthApp();
  const SharedSpecArtifactPtr artifact = HealthArtifact(app.graph, SpecArtifactStage::kCompiled);
  DeviceSetup setup;
  setup.backend = MonitorBackend::kInterpreted;
  setup.replacement = artifact;
  EXPECT_FALSE(BuildDevice(app.graph, artifact, std::move(setup)).ok());
}

}  // namespace
}  // namespace artemis
