// Tests for the ARTEMIS runtime facade, the platform builder, and the
// reporting helpers.
#include <gtest/gtest.h>

#include "src/apps/health_app.h"
#include "src/core/builder.h"
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

TEST(ArtemisRuntimeTest, WarningsAreErrorsMode) {
  HealthApp app = BuildHealthApp();
  auto mcu = PlatformBuilder().WithContinuousPower().Build();
  ArtemisConfig config;
  config.warnings_are_errors = true;
  // maxDuration below accel's work time triggers a warning.
  auto runtime = ArtemisRuntime::Create(
      &app.graph, "accel: { maxDuration: 1ms onFail: skipTask; }", mcu.get(), config);
  EXPECT_FALSE(runtime.ok());
  // Default mode keeps the warning but succeeds.
  auto mcu2 = PlatformBuilder().WithContinuousPower().Build();
  auto lenient = ArtemisRuntime::Create(
      &app.graph, "accel: { maxDuration: 1ms onFail: skipTask; }", mcu2.get(), {});
  ASSERT_TRUE(lenient.ok());
  EXPECT_FALSE(lenient.value()->validation_warnings().empty());
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

}  // namespace
}  // namespace artemis
