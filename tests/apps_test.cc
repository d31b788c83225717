// Tests for the bundled applications: graph structure, effect semantics,
// and end-to-end property behaviour (health, greenhouse, activity
// recognition).
#include <gtest/gtest.h>

#include "src/apps/ar_app.h"
#include "src/apps/greenhouse_app.h"
#include "src/apps/health_app.h"
#include "src/core/builder.h"
#include "src/core/runtime.h"
#include "src/spec/parser.h"
#include "src/spec/validator.h"

namespace artemis {
namespace {

// ----------------------------------------------------------------- health --

TEST(HealthAppTest, GraphMatchesFigure6) {
  HealthApp app = BuildHealthApp();
  EXPECT_EQ(app.graph.task_count(), 8u);
  EXPECT_EQ(app.graph.path_count(), 3u);
  // `send` merges all three paths.
  EXPECT_EQ(app.graph.PathsContaining(app.send).size(), 3u);
  EXPECT_TRUE(app.graph.Validate().ok());
  EXPECT_EQ(app.graph.task(app.calc_avg).monitored_var, "avgTemp");
}

TEST(HealthAppTest, ForceFeverShiftsTemperature) {
  HealthAppOptions options;
  options.force_fever = true;
  HealthApp app = BuildHealthApp(options);
  auto mcu = PlatformBuilder().WithContinuousPower().Build();
  NullChecker checker;
  KernelOptions kernel_options;
  IntermittentKernel kernel(&app.graph, &checker, mcu.get(), kernel_options);
  ASSERT_TRUE(kernel.Run().completed);
  // calcAvg consumed the (single, unenforced) bodyTemp sample and committed
  // an average around the fever mean.
  const auto avg = kernel.channels().MonitoredValue(app.calc_avg);
  ASSERT_TRUE(avg.has_value());
  EXPECT_GT(*avg, 38.0);
}

TEST(HealthAppTest, SpecNoMaxAttemptVariantParses) {
  HealthApp app = BuildHealthApp();
  auto parsed = SpecParser::Parse(HealthAppSpecNoMaxAttempt());
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(SpecValidator::Validate(parsed.value(), app.graph).ok());
  // The variant's MITD carries no maxAttempt escalation.
  for (const TaskBlockAst& block : parsed.value().blocks) {
    for (const PropertyAst& p : block.properties) {
      if (p.kind == PropertyKind::kMitd) {
        EXPECT_EQ(p.max_attempt, 0u);
      }
    }
  }
}

// ------------------------------------------------------------- greenhouse --

TEST(GreenhouseAppTest, StructureAndSpec) {
  GreenhouseApp app = BuildGreenhouseApp();
  EXPECT_EQ(app.graph.task_count(), 5u);
  EXPECT_EQ(app.graph.path_count(), 2u);
  EXPECT_EQ(app.graph.task(app.soil_sense).monitored_var, "moisture");
  auto parsed = SpecParser::Parse(GreenhouseSpec());
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(SpecValidator::Validate(parsed.value(), app.graph).ok());
}

// ----------------------------------------------------- activity recognition --

TEST(ArAppTest, StructureAndSpecValidate) {
  ArApp app = BuildArApp();
  EXPECT_EQ(app.graph.task_count(), 5u);
  EXPECT_EQ(app.graph.path_count(), 2u);
  auto parsed = SpecParser::Parse(ArAppSpec());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const ValidationResult validation = SpecValidator::Validate(parsed.value(), app.graph);
  EXPECT_TRUE(validation.ok()) << validation.status.ToString();
}

TEST(ArAppTest, CollectDrivesFourWindowsPerReport) {
  ArApp app = BuildArApp();
  auto mcu = PlatformBuilder().WithContinuousPower().Build();
  auto runtime = ArtemisRuntime::Create(&app.graph, ArAppSpec(), mcu.get(), {});
  ASSERT_TRUE(runtime.ok()) << runtime.status().ToString();
  const KernelRunResult result = runtime.value()->Run();
  EXPECT_TRUE(result.completed);
  // The cross-path collect(4) restarted path #1 until four windows were
  // counted, then report consumed them.
  const ChannelStore& channels = runtime.value()->kernel().channels();
  EXPECT_EQ(channels.CompletionCount(app.count), 4u);
  EXPECT_EQ(channels.CompletionCount(app.report), 1u);
  EXPECT_TRUE(channels.Samples(app.count).empty());  // Consumed at report.
}

TEST(ArAppTest, ClassifierSeparatesTheClasses) {
  // With a forced all-moving mix, every window classifies as moving.
  ArAppOptions options;
  options.moving_fraction = 1.0;
  ArApp app = BuildArApp(options);
  auto mcu = PlatformBuilder().WithContinuousPower().Build();
  auto runtime = ArtemisRuntime::Create(&app.graph, ArAppSpec(), mcu.get(), {});
  ASSERT_TRUE(runtime.ok());
  ASSERT_TRUE(runtime.value()->Run().completed);
  const auto fraction =
      runtime.value()->kernel().channels().MonitoredValue(app.count);
  ASSERT_TRUE(fraction.has_value());
  EXPECT_GT(*fraction, 0.9);  // This trips the dpData completePath guard too.
}

TEST(ArAppTest, AllStillMixStaysInRange) {
  ArAppOptions options;
  options.moving_fraction = 0.0;
  ArApp app = BuildArApp(options);
  auto mcu = PlatformBuilder().WithContinuousPower().Build();
  auto runtime = ArtemisRuntime::Create(&app.graph, ArAppSpec(), mcu.get(), {});
  ASSERT_TRUE(runtime.ok());
  ASSERT_TRUE(runtime.value()->Run().completed);
  const auto fraction =
      runtime.value()->kernel().channels().MonitoredValue(app.count);
  ASSERT_TRUE(fraction.has_value());
  EXPECT_LT(*fraction, 0.1);
}

TEST(ArAppTest, SurvivesIntermittentPower) {
  ArApp app = BuildArApp();
  // sampleWindow needs ~1 mJ; 3 mJ per period with 5 s recharges.
  auto mcu = PlatformBuilder().WithFixedCharge(3'000.0, 5 * kSecond).Build();
  ArtemisConfig config;
  config.kernel.max_wall_time = kHour;
  auto runtime = ArtemisRuntime::Create(&app.graph, ArAppSpec(), mcu.get(), config);
  ASSERT_TRUE(runtime.ok());
  const KernelRunResult result = runtime.value()->Run();
  EXPECT_TRUE(result.completed);
  EXPECT_GE(result.stats.reboots, 1u);
}

TEST(ArAppTest, CrossPathRestartTargetsProducerPath) {
  ArApp app = BuildArApp();
  auto mcu = PlatformBuilder().WithContinuousPower().Build();
  obs::EventBus bus;
  obs::CollectingSink events;
  bus.AddSink(&events);
  ArtemisConfig config;
  config.kernel.observer = &bus;
  auto runtime = ArtemisRuntime::Create(&app.graph, ArAppSpec(), mcu.get(), config);
  ASSERT_TRUE(runtime.ok());
  ASSERT_TRUE(runtime.value()->Run().completed);
  // Every collect-triggered restart re-entered path #1, not report's path.
  for (const obs::Event& e : events.events()) {
    if (e.kind == obs::Kind::kPathRestart &&
        e.detail.find("collect(report") != std::string::npos) {
      EXPECT_EQ(e.action, ActionTypeName(ActionType::kRestartPath));
    }
  }
  EXPECT_EQ(events.Count(obs::Kind::kPathRestart), 3u);
}

}  // namespace
}  // namespace artemis
