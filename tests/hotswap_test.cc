// Tests for the live monitor hot-swap subsystem (src/swap): versioned
// images, the migrate-block grammar, the state-migration planner and its
// ART015 diagnostics, the ART016 swap-window analysis, batch-lane
// migration, and an end-to-end kernel-driven swap on the health app.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/apps/health_app.h"
#include "src/core/builder.h"
#include "src/core/runtime.h"
#include "src/monitor/compiled.h"
#include "src/monitor/compiled_batch.h"
#include "src/monitor/shared_spec.h"
#include "src/spec/parser.h"
#include "src/swap/hotswap.h"
#include "src/swap/image.h"
#include "src/swap/migration.h"

namespace artemis {
namespace {

// Minimal one-property specs over health-app tasks; both lower to a single
// maxTries machine (states NotStarted/Started, one kCounter slot `i`), so
// they pair only via an explicit machine rule.
constexpr char kSpecMic[] = "micSense: { maxTries: 10 onFail: skipPath; }\n";
constexpr char kSpecAccel[] = "accel: { maxTries: 10 onFail: skipPath; }\n";

MonitorImage MustImage(const std::string& spec, const AppGraph& graph, std::uint32_t epoch) {
  StatusOr<MonitorImage> image = BuildMonitorImage(spec, graph, epoch);
  EXPECT_TRUE(image.ok()) << image.status().ToString();
  return image.value();
}

int StateId(const CompiledMachine& machine, const std::string& name) {
  for (std::size_t i = 0; i < machine.state_names.size(); ++i) {
    if (machine.state_names[i] == name) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

std::size_t CountSeverity(const DiagnosticEngine& engine, DiagSeverity severity) {
  std::size_t n = 0;
  for (const Diagnostic& d : engine.diagnostics()) {
    if (d.severity == severity) {
      ++n;
    }
  }
  return n;
}

// ---------------------------------------------------------------- image --

TEST(SwapImageTest, SpecHashDistinguishesTexts) {
  EXPECT_EQ(SpecHash(HealthAppSpec()), SpecHash(HealthAppSpec()));
  EXPECT_NE(SpecHash(HealthAppSpec()), SpecHash(HealthAppSpec() + "\n"));
  EXPECT_NE(SpecHash(kSpecMic), SpecHash(kSpecAccel));
}

TEST(SwapImageTest, BuildMonitorImageCompilesAndStampsHeader) {
  HealthApp app = BuildHealthApp();
  const MonitorImage image = MustImage(HealthAppSpec(), app.graph, 3);
  EXPECT_EQ(image.header.epoch, 3u);
  EXPECT_EQ(image.header.spec_hash, SpecHash(HealthAppSpec()));
  ASSERT_NE(image.artifact, nullptr);
  EXPECT_EQ(image.artifact->stage, SpecArtifactStage::kCompiled);
  EXPECT_EQ(image.artifact->compiled.size(), 8u);  // Figure 5 lowers to 8 FSMs
}

TEST(SwapImageTest, BuildMonitorImageRejectsBrokenSpec) {
  HealthApp app = BuildHealthApp();
  EXPECT_FALSE(BuildMonitorImage("micSense: { maxTries: ;", app.graph, 1).ok());
}

// --------------------------------------------------------------- parser --

TEST(MigrateParserTest, ParsesAllThreeRuleKindsAndRoundTrips) {
  const std::string source = std::string(kSpecAccel) +
                             "migrate {\n"
                             "  machine maxTries_micSense -> maxTries_accel;\n"
                             "  state maxTries_accel: Started -> initial;\n"
                             "  slot maxTries_accel: i -> i;\n"
                             "}\n";
  StatusOr<SpecAst> spec = SpecParser::Parse(source);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  ASSERT_EQ(spec.value().migration.rules.size(), 3u);
  EXPECT_EQ(spec.value().migration.rules[0].kind, MigrationRuleAst::Kind::kMachine);
  EXPECT_EQ(spec.value().migration.rules[0].from, "maxTries_micSense");
  EXPECT_EQ(spec.value().migration.rules[0].to, "maxTries_accel");
  EXPECT_EQ(spec.value().migration.rules[1].kind, MigrationRuleAst::Kind::kState);
  EXPECT_EQ(spec.value().migration.rules[1].machine, "maxTries_accel");
  EXPECT_EQ(spec.value().migration.rules[2].kind, MigrationRuleAst::Kind::kSlot);

  // Pretty() must round-trip the block through a reparse.
  StatusOr<SpecAst> again = SpecParser::Parse(spec.value().Pretty());
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again.value().migration.rules.size(), 3u);
  EXPECT_EQ(again.value().migration.rules[1].to, "initial");
}

TEST(MigrateParserTest, RejectsDuplicateBlockAndUnknownRule) {
  EXPECT_FALSE(
      SpecParser::Parse("migrate { machine a -> b; } migrate { machine c -> d; }").ok());
  EXPECT_FALSE(SpecParser::Parse("migrate { frobnicate a -> b; }").ok());
}

// -------------------------------------------------------------- planner --

TEST(MigrationPlanTest, IdenticalSpecsMigrateOneToOneWithNoFindings) {
  HealthApp app = BuildHealthApp();
  const MonitorImage v1 = MustImage(HealthAppSpec(), app.graph, 1);
  const MonitorImage v2 = MustImage(HealthAppSpec(), app.graph, 2);
  DiagnosticEngine engine;
  const MigrationPlan plan = PlanMigration(v1, v2, app.graph, &engine);
  EXPECT_EQ(engine.diagnostics().size(), 0u) << engine.RenderText("plan");
  ASSERT_EQ(plan.machines.size(), 8u);
  std::size_t slots = 0;
  for (std::size_t j = 0; j < plan.machines.size(); ++j) {
    EXPECT_EQ(plan.machines[j].old_index, static_cast<int>(j));
    // Name-identical machines carry every state and slot over unchanged.
    const CompiledMachine& m = v2.artifact->compiled[j];
    ASSERT_EQ(plan.machines[j].state_map.size(), m.state_names.size());
    for (std::size_t s = 0; s < m.state_names.size(); ++s) {
      EXPECT_EQ(plan.machines[j].state_map[s], s) << m.name;
    }
    for (std::size_t t = 0; t < plan.machines[j].slot_sources.size(); ++t) {
      EXPECT_EQ(plan.machines[j].slot_sources[t], static_cast<int>(t)) << m.name;
    }
    slots += m.initial_slots.size();
  }
  // 2 bytes of state id + 8 per slot per machine (docs/hotswap.md).
  EXPECT_EQ(plan.StagedBytes(), 2 * plan.machines.size() + 8 * slots);
  EXPECT_EQ(plan.StagedBytes(), 80u);  // pinned: the health image stages 80 bytes
}

TEST(MigrationPlanTest, UnpairedMachinesDropAndStartFreshWithWarnings) {
  HealthApp app = BuildHealthApp();
  const MonitorImage v1 = MustImage(kSpecMic, app.graph, 1);
  const MonitorImage v2 = MustImage(kSpecAccel, app.graph, 2);
  DiagnosticEngine engine;
  const MigrationPlan plan = PlanMigration(v1, v2, app.graph, &engine);
  ASSERT_EQ(plan.machines.size(), 1u);
  EXPECT_EQ(plan.machines[0].old_index, -1);  // fresh: no name match
  EXPECT_FALSE(engine.HasErrors()) << engine.RenderText("plan");
  // The old maxTries_micSense machine is dropped — a warning, not an error.
  EXPECT_GE(CountSeverity(engine, DiagSeverity::kWarning), 1u);
}

// Findings render against the replacement spec, so the dropped installed
// machine carries no span there; its installed position is in the note.
TEST(MigrationPlanTest, DroppedInstalledMachineIsPlacedInTheNote) {
  HealthApp app = BuildHealthApp();
  const MonitorImage v1 = MustImage(kSpecMic, app.graph, 1);
  const MonitorImage v2 = MustImage(kSpecAccel, app.graph, 2);
  DiagnosticEngine engine;
  PlanMigration(v1, v2, app.graph, &engine);
  ASSERT_EQ(engine.diagnostics().size(), 1u) << engine.RenderText("v2");
  const Diagnostic& dropped = engine.diagnostics()[0];
  EXPECT_EQ(dropped.machine, "maxTries_micSense");
  EXPECT_FALSE(dropped.span.valid());
  EXPECT_EQ(dropped.note.rfind("declared at " + v1.artifact->machines[0].source.ToString() +
                                   " of the installed spec;",
                               0),
            0u)
      << dropped.note;
}

TEST(MigrationPlanTest, ExplicitMachineRuleCarriesARenamedMachine) {
  HealthApp app = BuildHealthApp();
  const MonitorImage v1 = MustImage(kSpecMic, app.graph, 1);
  const MonitorImage v2 = MustImage(
      std::string(kSpecAccel) + "migrate { machine maxTries_micSense -> maxTries_accel; }\n",
      app.graph, 2);
  DiagnosticEngine engine;
  const MigrationPlan plan = PlanMigration(v1, v2, app.graph, &engine);
  EXPECT_FALSE(engine.HasErrors()) << engine.RenderText("plan");
  ASSERT_EQ(plan.machines.size(), 1u);
  EXPECT_EQ(plan.machines[0].old_index, 0);
  // Same lowering on both sides: states and the counter slot map 1:1.
  const CompiledMachine& m = v2.artifact->compiled[0];
  const int started = StateId(m, "Started");
  ASSERT_GE(started, 0);
  EXPECT_EQ(plan.machines[0].state_map[started], started);
  ASSERT_EQ(plan.machines[0].slot_sources.size(), 1u);
  EXPECT_EQ(plan.machines[0].slot_sources[0], 0);
}

TEST(MigrationPlanTest, ExplicitStateRuleResetsToInitial) {
  HealthApp app = BuildHealthApp();
  const MonitorImage v1 = MustImage(kSpecAccel, app.graph, 1);
  const MonitorImage v2 = MustImage(
      std::string(kSpecAccel) + "migrate { state maxTries_accel: Started -> initial; }\n",
      app.graph, 2);
  DiagnosticEngine engine;
  const MigrationPlan plan = PlanMigration(v1, v2, app.graph, &engine);
  EXPECT_EQ(engine.diagnostics().size(), 0u) << engine.RenderText("plan");
  const CompiledMachine& m = v2.artifact->compiled[0];
  const int started = StateId(m, "Started");
  ASSERT_GE(started, 0);
  EXPECT_EQ(plan.machines[0].state_map[started], m.initial);
}

TEST(MigrationPlanTest, ExplicitCrossTypeSlotCarryIsAnError) {
  HealthApp app = BuildHealthApp();
  const MonitorImage v1 = MustImage(HealthAppSpec(), app.graph, 1);
  // MITD_send_accel has endB (kTime, 8 bytes) and att (kCounter, 4 bytes):
  // carrying a time value into a counter slot narrows it on device.
  const MonitorImage v2 = MustImage(
      HealthAppSpec() + "\nmigrate { slot MITD_send_accel: endB -> att; }\n", app.graph, 2);
  DiagnosticEngine engine;
  PlanMigration(v1, v2, app.graph, &engine);
  EXPECT_TRUE(engine.HasErrors()) << engine.RenderText("plan");
  bool saw_type_error = false;
  for (const Diagnostic& d : engine.diagnostics()) {
    if (d.severity == DiagSeverity::kError && d.code == diag::kMigrationMismatch) {
      saw_type_error = true;
    }
  }
  EXPECT_TRUE(saw_type_error);
}

TEST(MigrationPlanTest, RuleNamesThatResolveToNothingAreErrors) {
  HealthApp app = BuildHealthApp();
  const MonitorImage v1 = MustImage(kSpecAccel, app.graph, 1);
  const MonitorImage v2 = MustImage(std::string(kSpecAccel) +
                                        "migrate {\n"
                                        "  machine bogus -> maxTries_accel;\n"
                                        "  state maxTries_accel: Nowhere -> Started;\n"
                                        "  slot maxTries_accel: zz -> i;\n"
                                        "}\n",
                                    app.graph, 2);
  DiagnosticEngine engine;
  PlanMigration(v1, v2, app.graph, &engine);
  EXPECT_EQ(CountSeverity(engine, DiagSeverity::kError), 3u) << engine.RenderText("plan");
}

TEST(MigrationPlanTest, DuplicateRulesForOneSourceAreErrors) {
  HealthApp app = BuildHealthApp();
  const MonitorImage v1 = MustImage(kSpecAccel, app.graph, 1);
  const MonitorImage v2 = MustImage(std::string(kSpecAccel) +
                                        "migrate {\n"
                                        "  state maxTries_accel: Started -> Started;\n"
                                        "  state maxTries_accel: Started -> initial;\n"
                                        "}\n",
                                    app.graph, 2);
  DiagnosticEngine engine;
  PlanMigration(v1, v2, app.graph, &engine);
  EXPECT_TRUE(engine.HasErrors()) << engine.RenderText("plan");
}

// ------------------------------------------------------------- analysis --

TEST(AnalyzeSwapTest, StaleEpochIsAnError) {
  HealthApp app = BuildHealthApp();
  const MonitorImage v1 = MustImage(HealthAppSpec(), app.graph, 2);
  const MonitorImage v2 = MustImage(HealthAppSpec(), app.graph, 2);
  const DiagnosticEngine engine = AnalyzeSwap(v1, v2, app.graph);
  EXPECT_TRUE(engine.HasErrors());
  EXPECT_EQ(engine.diagnostics()[0].code, diag::kMigrationMismatch);
}

TEST(AnalyzeSwapTest, WindowInfeasibilityScalesWithBudgets) {
  HealthApp app = BuildHealthApp();
  const MonitorImage v1 = MustImage(HealthAppSpec(), app.graph, 1);
  const MonitorImage v2 = MustImage(HealthAppSpec(), app.graph, 2);

  AnalysisOptions options;
  const DiagnosticEngine feasible = AnalyzeSwap(v1, v2, app.graph, options);
  EXPECT_FALSE(feasible.HasErrors()) << feasible.RenderText("swap");

  options.budgets = {1.0};  // 1 uJ cannot even cover the boot restore
  const DiagnosticEngine dead = AnalyzeSwap(v1, v2, app.graph, options);
  EXPECT_TRUE(dead.HasErrors());
  bool saw_016_error = false;
  for (const Diagnostic& d : dead.diagnostics()) {
    saw_016_error |= d.code == diag::kSwapWindowInfeasible && d.severity == DiagSeverity::kError;
  }
  EXPECT_TRUE(saw_016_error) << dead.RenderText("swap");

  options.budgets = {1.0, 19'500.0};  // feasible under the larger budget
  const DiagnosticEngine partial = AnalyzeSwap(v1, v2, app.graph, options);
  EXPECT_FALSE(partial.HasErrors()) << partial.RenderText("swap");
  bool saw_016_warning = false;
  for (const Diagnostic& d : partial.diagnostics()) {
    saw_016_warning |=
        d.code == diag::kSwapWindowInfeasible && d.severity == DiagSeverity::kWarning;
  }
  EXPECT_TRUE(saw_016_warning) << partial.RenderText("swap");
}

// The delivery gate also runs the analyzer over the replacement alone: a
// period below accel's own work time migrates fine but can never hold.
TEST(AnalyzeReplacementTest, AddsTheReplacementsAnalyzerFindings) {
  HealthApp app = BuildHealthApp();
  const MonitorImage v1 = MustImage(kSpecAccel, app.graph, 1);
  const MonitorImage v2 =
      MustImage("accel: { period: 1s onFail: restartTask; }\n", app.graph, 2);
  const AnalysisOptions options;
  EXPECT_FALSE(AnalyzeSwap(v1, v2, app.graph, options).HasErrors());
  const DiagnosticEngine gate = AnalyzeReplacement(v1, v2, app.graph, options);
  ASSERT_TRUE(gate.HasErrors());
  EXPECT_EQ(gate.diagnostics()[0].code, diag::kTimeBoundInfeasible) << gate.RenderText("v2");
}

// ----------------------------------------------------------- controller --

TEST(HotSwapControllerTest, RefusesStaleEpochsAndBrokenPlans) {
  HealthApp app = BuildHealthApp();
  MonitorImage v1 = MustImage(HealthAppSpec(), app.graph, 2);
  StatusOr<std::unique_ptr<MonitorSet>> set = BuildMonitorSetFromArtifact(
      v1.artifact, app.graph, MonitorBackend::kCompiled);
  ASSERT_TRUE(set.ok()) << set.status().ToString();
  HotSwapController swap(set.value().get(), v1, &app.graph);

  // Same epoch: refused, nothing queued.
  EXPECT_FALSE(swap.RequestSwap(MustImage(HealthAppSpec(), app.graph, 2)).ok());
  EXPECT_FALSE(swap.pending());

  // ART015 error in the plan: refused, old image untouched.
  const MonitorImage bad = MustImage(
      HealthAppSpec() + "\nmigrate { slot MITD_send_accel: endB -> att; }\n", app.graph, 3);
  EXPECT_FALSE(swap.RequestSwap(bad).ok());
  EXPECT_FALSE(swap.pending());
  EXPECT_EQ(swap.installed().epoch, 2u);

  // A clean plan queues.
  EXPECT_TRUE(swap.RequestSwap(MustImage(HealthAppSpec() + "\n", app.graph, 3)).ok());
  EXPECT_TRUE(swap.pending());
}

TEST(HotSwapControllerTest, KernelDrivenSwapOnTheHealthApp) {
  HealthApp app = BuildHealthApp();
  auto mcu = PlatformBuilder().WithFixedCharge(19'500.0, 6 * kMinute - 1 * kSecond).Build();

  MonitorImage v1 = MustImage(HealthAppSpec(), app.graph, 1);
  const std::string v2_text = HealthAppSpec() + "\n// image v2\n";
  MonitorImage v2 = MustImage(v2_text, app.graph, 2);

  ArtemisConfig config;
  config.backend = MonitorBackend::kCompiled;
  config.kernel.max_wall_time = 12 * kHour;
  StatusOr<std::unique_ptr<ArtemisRuntime>> runtime =
      ArtemisRuntime::CreateFromArtifact(&app.graph, v1.artifact, mcu.get(), config);
  ASSERT_TRUE(runtime.ok()) << runtime.status().ToString();

  HotSwapController swap(&runtime.value()->monitors(), v1, &app.graph);
  ASSERT_TRUE(swap.RequestSwap(v2, /*not_before=*/2 * kMinute).ok());
  runtime.value()->kernel().set_swap_hook(&swap);

  const KernelRunResult result = runtime.value()->Run();
  EXPECT_TRUE(result.completed);
  EXPECT_GT(mcu->stats().reboots, 0u);  // the charge schedule forces outages
  EXPECT_EQ(swap.stats().swaps_applied, 1u);
  EXPECT_FALSE(swap.pending());
  EXPECT_EQ(swap.installed().epoch, 2u);
  EXPECT_EQ(swap.installed().spec_hash, SpecHash(v2_text));
  EXPECT_EQ(swap.stats().bytes_staged % 80, 0u);  // whole attempts only
}

// ------------------------------------------------------------ batch VM --

TEST(BatchMigrationTest, ApplyMigrationFromCarriesAndResetsLanes) {
  HealthApp app = BuildHealthApp();
  const MonitorImage image = MustImage(kSpecAccel, app.graph, 1);
  auto machine = std::shared_ptr<const CompiledMachine>(image.artifact,
                                                        &image.artifact->compiled[0]);

  BatchCompiledMonitor old_batch(machine, 2);
  MonitorEvent start;
  start.kind = EventKind::kStartTask;
  start.task = app.accel;
  start.path = app.path_resp;
  BatchVerdict verdict;
  old_batch.StepLaneGeneral(0, start, &verdict);  // lane 0: Started, i = 1
  old_batch.StepLaneGeneral(0, start, &verdict);  // lane 0: Started, i = 2
  ASSERT_EQ(old_batch.lane_state(0), "Started");
  ASSERT_EQ(old_batch.lane_state(1), "NotStarted");

  // Identity carry: both lanes' state and counter move over.
  BatchCompiledMonitor carried(machine, 2);
  carried.ApplyMigrationFrom(old_batch, /*state_map=*/{0, 1}, /*slot_sources=*/{0});
  EXPECT_EQ(carried.lane_state(0), "Started");
  EXPECT_DOUBLE_EQ(carried.LaneVarValue(0, "i"), 2.0);
  EXPECT_EQ(carried.lane_state(1), "NotStarted");

  // Conservative reset: every state maps to initial, the slot resets.
  BatchCompiledMonitor reset(machine, 2);
  reset.ApplyMigrationFrom(old_batch, /*state_map=*/{machine->initial, machine->initial},
                           /*slot_sources=*/{-1});
  EXPECT_EQ(reset.lane_state(0), "NotStarted");
  EXPECT_DOUBLE_EQ(reset.LaneVarValue(0, "i"), machine->initial_slots[0]);
}

// Regression for the cohort-partitioned StepBatch: the counting sort
// inside StepBatch permutes lanes into state cohorts while stepping, and
// ApplyMigrationFrom reads the per-lane arrays afterwards. If the
// partition ever left lane state or slots scrambled, the migrated batch
// would disagree with per-lane scalar replicas that never get permuted.
TEST(BatchMigrationTest, ApplyMigrationFromAfterCohortStepping) {
  constexpr std::uint32_t kLanes = 8;
  HealthApp app = BuildHealthApp();
  const MonitorImage image = MustImage(kSpecAccel, app.graph, 1);
  auto machine = std::shared_ptr<const CompiledMachine>(image.artifact,
                                                        &image.artifact->compiled[0]);

  BatchCompiledMonitor old_batch(machine, kLanes);
  std::vector<BatchCompiledMonitor> scalar_like;  // 1-lane references
  for (std::uint32_t lane = 0; lane < kLanes; ++lane) {
    scalar_like.emplace_back(machine, 1);
  }

  // Stagger the lanes so every StepBatch pass partitions into multiple
  // cohorts: lane L only steps on rounds >= L, so after the warmup the
  // lanes sit in a mix of states with distinct slot values.
  MonitorEvent start;
  start.kind = EventKind::kStartTask;
  start.task = app.accel;
  start.path = app.path_resp;
  std::vector<MonitorEvent> events(kLanes);
  std::vector<const MonitorEvent*> cursors(kLanes, nullptr);
  std::vector<BatchFailure> failures;
  for (std::uint32_t round = 0; round < kLanes; ++round) {
    for (std::uint32_t lane = 0; lane < kLanes; ++lane) {
      if (round < lane) {
        cursors[lane] = nullptr;
        continue;
      }
      events[lane] = start;
      events[lane].timestamp = (round + 1) * 100;
      events[lane].seq = round + 1;
      cursors[lane] = &events[lane];
      BatchVerdict verdict;
      scalar_like[lane].StepLaneGeneral(0, events[lane], &verdict);
    }
    failures.clear();
    old_batch.StepBatch(cursors.data(), kLanes, &failures);
  }

  // Identity migration into a fresh batch must land every lane exactly
  // where its never-permuted reference sits.
  std::vector<std::uint16_t> identity_states;
  for (std::size_t s = 0; s < machine->state_names.size(); ++s) {
    identity_states.push_back(static_cast<std::uint16_t>(s));
  }
  std::vector<int> identity_slots;
  for (std::size_t v = 0; v < machine->var_names.size(); ++v) {
    identity_slots.push_back(static_cast<int>(v));
  }
  BatchCompiledMonitor carried(machine, kLanes);
  carried.ApplyMigrationFrom(old_batch, identity_states, identity_slots);
  for (std::uint32_t lane = 0; lane < kLanes; ++lane) {
    EXPECT_EQ(carried.lane_state(lane), scalar_like[lane].lane_state(0))
        << "lane " << lane;
    for (const std::string& var : machine->var_names) {
      EXPECT_EQ(carried.LaneVarValue(lane, var), scalar_like[lane].LaneVarValue(0, var))
          << "lane " << lane << " var " << var;
    }
  }
}

}  // namespace
}  // namespace artemis
