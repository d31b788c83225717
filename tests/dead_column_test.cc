// The dead-column table (CompiledMachine::ColumnDead) lets MonitorSet skip
// a compiled monitor's Step and the batch VM skip a lane. Both skips are
// only sound if a dead column really is a no-op. These tests check that
// for every compiled machine of every shipped spec: from every state, with
// random slots, a Step on a dead column returns false and leaves state and
// slots untouched. A second group covers the verdict cache across a hot
// swap: the cached verdict borrows its label from the retiring image, so
// the swap must leave the cache readable after that image is gone (the
// Sanitize stage turns a dangling label into a hard failure).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/apps/health_app.h"
#include "src/base/rng.h"
#include "src/core/builder.h"
#include "src/kernel/kernel.h"
#include "src/monitor/compiled.h"
#include "src/monitor/shared_spec.h"
#include "src/spec/app_lang.h"
#include "src/spec/mayfly_frontend.h"
#include "src/swap/hotswap.h"
#include "src/swap/image.h"
#include "src/sweep/sweep.h"

#ifndef ARTEMIS_SOURCE_DIR
#define ARTEMIS_SOURCE_DIR "."
#endif

namespace artemis {
namespace {

std::string ReadRepoFile(const std::string& relative) {
  std::ifstream in(std::string(ARTEMIS_SOURCE_DIR) + "/" + relative);
  EXPECT_TRUE(in.good()) << "cannot read " << relative;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

struct SpecCase {
  std::string name;
  SharedSpecArtifactPtr artifact;
};

SharedSpecArtifactPtr MustCompile(const std::string& text, const AppGraph& graph) {
  StatusOr<SharedSpecArtifactPtr> artifact =
      BuildSpecArtifact(text, graph, SpecArtifactStage::kCompiled);
  EXPECT_TRUE(artifact.ok()) << artifact.status().ToString();
  return artifact.ok() ? artifact.value() : nullptr;
}

// Every spec under examples/specs except bad/, plus the default spec of
// each demo app.
std::vector<SpecCase> AllSpecs() {
  std::vector<SpecCase> cases;
  const AppGraph& health = sweep::SharedAppGraph("health");
  cases.push_back({"examples/specs/health.prop",
                   MustCompile(ReadRepoFile("examples/specs/health.prop"), health)});
  StatusOr<SpecAst> mayfly = MayflyFrontend::Parse(ReadRepoFile("examples/specs/health.mayfly"));
  EXPECT_TRUE(mayfly.ok()) << mayfly.status().ToString();
  if (mayfly.ok()) {
    StatusOr<SharedSpecArtifactPtr> artifact =
        BuildSpecArtifactFromAst(mayfly.value(), health, SpecArtifactStage::kCompiled);
    EXPECT_TRUE(artifact.ok()) << artifact.status().ToString();
    if (artifact.ok()) {
      cases.push_back({"examples/specs/health.mayfly", artifact.value()});
    }
  }
  StatusOr<AppDescription> sensornet =
      ParseAppDescription(ReadRepoFile("examples/specs/sensornet.app"));
  EXPECT_TRUE(sensornet.ok()) << sensornet.status().ToString();
  if (sensornet.ok()) {
    cases.push_back({"examples/specs/sensornet.prop",
                     MustCompile(ReadRepoFile("examples/specs/sensornet.prop"),
                                 sensornet.value().graph)});
  }
  for (const char* app : {"health", "greenhouse", "ar"}) {
    cases.push_back({std::string("default spec of ") + app,
                     MustCompile(sweep::DefaultSpecForApp(app).value(),
                                 sweep::SharedAppGraph(app))});
  }
  return cases;
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

TEST(DeadColumnTest, DeadColumnsAreNoOpsFromEveryState) {
  Rng rng(0xDEADC01);
  std::size_t dead_checked = 0;
  for (const SpecCase& c : AllSpecs()) {
    ASSERT_NE(c.artifact, nullptr) << c.name;
    ASSERT_FALSE(c.artifact->compiled.empty()) << c.name;
    for (const CompiledMachine& machine : c.artifact->compiled) {
      SCOPED_TRACE(c.name + " / " + machine.name);
      const auto shared = std::shared_ptr<const CompiledMachine>(c.artifact, &machine);
      ASSERT_EQ(machine.dead_columns.size(), 2u * (machine.max_task + 2u));
      for (std::uint32_t kind = 0; kind < 2; ++kind) {
        // Task ids past max_task all resolve to the any-task column.
        for (std::uint32_t task = 0; task <= machine.max_task + 2u; ++task) {
          const auto event_kind = static_cast<EventKind>(kind);
          if (!machine.ColumnDead(event_kind, task)) {
            continue;
          }
          for (std::uint16_t state = 0; state < machine.state_names.size(); ++state) {
            for (int trial = 0; trial < 4; ++trial) {
              CompiledMonitor monitor(shared);
              std::vector<double> slots(machine.initial_slots.size());
              for (double& slot : slots) {
                slot = rng.UniformDouble(-1e7, 1e7);
              }
              monitor.InstallMigratedState(state, slots);
              // Alternate the machine's own scope with arbitrary paths so
              // the in-scope dispatch is what gets checked.
              const PathId path = trial % 2 == 0 && machine.path_scope != kNoPath
                                      ? machine.path_scope
                                      : static_cast<PathId>(rng.UniformU64(0, 3));
              const MonitorEvent event{
                  .kind = event_kind,
                  .timestamp = static_cast<SimTime>(rng.UniformU64(0, 10 * kHour)),
                  .task = task,
                  .path = path,
                  .seq = rng.UniformU64(1, 1000),
                  .has_dep_data = trial >= 2,
                  .dep_data = rng.UniformDouble(-100.0, 100.0),
                  .energy_fraction = rng.NextDouble()};
              MonitorVerdict verdict;
              EXPECT_FALSE(monitor.Step(event, &verdict))
                  << "kind " << kind << " task " << task << " state " << state;
              EXPECT_EQ(monitor.current_id(), state);
              EXPECT_TRUE(SameBits(monitor.slots(), slots));
              ++dead_checked;
            }
          }
        }
      }
    }
  }
  // The check is vacuous unless the shipped specs have dead columns.
  EXPECT_GT(dead_checked, 0u);
}

// ------------------------------------------------- verdict cache + swap --

MonitorImage MustImage(const std::string& spec, const AppGraph& graph, std::uint32_t epoch) {
  StatusOr<MonitorImage> image = BuildMonitorImage(spec, graph, epoch);
  EXPECT_TRUE(image.ok()) << image.status().ToString();
  return image.value();
}

TEST(DeadColumnTest, CachedVerdictSurvivesTheSwapThatRetiresItsLabel) {
  HealthApp app = BuildHealthApp();
  auto mcu = PlatformBuilder().Build();  // continuous power
  std::optional<MonitorImage> v1 = MustImage(HealthAppSpec(), app.graph, 1);
  StatusOr<std::unique_ptr<MonitorSet>> set =
      BuildMonitorSetFromArtifact(v1->artifact, app.graph, MonitorBackend::kCompiled);
  ASSERT_TRUE(set.ok()) << set.status().ToString();
  set.value()->HardReset(*mcu);

  // calcAvg starting before any bodyTemp sample: collect fails.
  const MonitorEvent early{.kind = EventKind::kStartTask,
                           .timestamp = kSecond,
                           .task = app.calc_avg,
                           .path = 1,
                           .seq = 7};
  const CheckOutcome first = set.value()->OnEvent(early, *mcu);
  ASSERT_EQ(first.status, 0);
  ASSERT_TRUE(first.verdict.violated());
  const std::string label(first.verdict.property);
  EXPECT_EQ(label, "collect(calcAvg<-bodyTemp)");

  // Swap to v2 with the violation still cached. The controller takes the
  // last reference to v1, so once the swap commits v1's programs — and the
  // fail_pool the cached label was borrowed from — are freed.
  {
    HotSwapController swap(set.value().get(), std::move(*v1), &app.graph);
    v1.reset();
    ASSERT_TRUE(swap.RequestSwap(MustImage(HealthAppSpec() + "\n// v2\n", app.graph, 2)).ok());
    ASSERT_EQ(swap.AtQuiescence(*mcu), ExecStatus::kOk);
    ASSERT_EQ(swap.installed().epoch, 2u);

    // An outage between the verdict and the event's retirement: the
    // kernel reboots and re-delivers the same event, which replays the
    // cache instead of stepping the new machines.
    set.value()->Finalize(*mcu);
    const CheckOutcome replay = set.value()->OnEvent(early, *mcu);
    ASSERT_EQ(replay.status, 0);
    EXPECT_EQ(replay.verdict.action, first.verdict.action);
    EXPECT_EQ(std::string(replay.verdict.property), label);
  }

  // The next event is stepped by the v2 machines and borrows from them.
  const MonitorEvent next{.kind = EventKind::kStartTask,
                          .timestamp = 2 * kSecond,
                          .task = app.calc_avg,
                          .path = 1,
                          .seq = 8};
  const CheckOutcome after = set.value()->OnEvent(next, *mcu);
  ASSERT_EQ(after.status, 0);
  ASSERT_TRUE(after.verdict.violated());
  EXPECT_EQ(std::string(after.verdict.property), label);
  EXPECT_EQ(set.value()->violations_reported(), 2u);
}

// Forwards to a MonitorSet and records what the kernel is told.
class VerdictProbe : public PropertyChecker {
 public:
  explicit VerdictProbe(MonitorSet* set) : set_(set) {}
  void HardReset(Mcu& mcu) override { set_->HardReset(mcu); }
  void Finalize(Mcu& mcu) override { set_->Finalize(mcu); }
  CheckOutcome OnEvent(const MonitorEvent& event, Mcu& mcu) override {
    const CheckOutcome outcome = set_->OnEvent(event, mcu);
    if (outcome.status == 0) {
      last_violated = outcome.verdict.violated();
      if (last_violated) {
        labels.emplace_back(outcome.verdict.property);
      }
    }
    return outcome;
  }
  void OnPathRestart(PathId path, Mcu& mcu) override { set_->OnPathRestart(path, mcu); }
  std::string Name() const override { return set_->Name(); }

  bool last_violated = false;
  std::vector<std::string> labels;

 private:
  MonitorSet* set_;
};

// Lets the swap through at the first quiescence point that follows a
// violated verdict, so the swap always lands on a cached violation.
class AfterViolationHook : public SwapHook {
 public:
  AfterViolationHook(HotSwapController* swap, const VerdictProbe* probe, const Mcu* mcu)
      : swap_(swap), probe_(probe), mcu_(mcu) {}
  ExecStatus AtQuiescence(Mcu& mcu) override {
    if (!swap_->pending() || !probe_->last_violated) {
      return ExecStatus::kOk;
    }
    const ExecStatus status = swap_->AtQuiescence(mcu);
    if (!swap_->pending()) {
      reboots_at_swap = mcu_->stats().reboots;
      labels_at_swap = probe_->labels.size();
    }
    return status;
  }

  std::uint64_t reboots_at_swap = 0;
  std::size_t labels_at_swap = 0;

 private:
  HotSwapController* swap_;
  const VerdictProbe* probe_;
  const Mcu* mcu_;
};

TEST(DeadColumnTest, KernelRunSwapsOnACachedViolationAndContinuesAcrossOutages) {
  HealthApp app = BuildHealthApp();
  auto mcu = PlatformBuilder().WithFixedCharge(19'500.0, 1 * kMinute - 1 * kSecond).Build();
  std::optional<MonitorImage> v1 = MustImage(HealthAppSpec(), app.graph, 1);
  StatusOr<std::unique_ptr<MonitorSet>> set =
      BuildMonitorSetFromArtifact(v1->artifact, app.graph, MonitorBackend::kCompiled);
  ASSERT_TRUE(set.ok()) << set.status().ToString();

  std::set<std::string> known;
  for (const CompiledMachine& machine : v1->artifact->compiled) {
    for (const FailRecord& fail : machine.fail_pool) {
      known.insert(fail.property);
    }
  }

  VerdictProbe probe(set.value().get());
  HotSwapController swap(set.value().get(), std::move(*v1), &app.graph);
  v1.reset();
  ASSERT_TRUE(swap.RequestSwap(MustImage(HealthAppSpec() + "\n// v2\n", app.graph, 2)).ok());
  AfterViolationHook hook(&swap, &probe, mcu.get());

  KernelOptions options;
  options.max_wall_time = 2 * kHour;
  options.app_iterations = UINT64_MAX;
  options.swap_hook = &hook;
  IntermittentKernel kernel(&app.graph, &probe, mcu.get(), options);
  const KernelRunResult result = kernel.Run();

  EXPECT_TRUE(result.timed_out);
  ASSERT_EQ(swap.stats().swaps_applied, 1u);
  // The run went on past the swap, through more outages and violations.
  EXPECT_GT(mcu->stats().reboots, hook.reboots_at_swap);
  EXPECT_GT(probe.labels.size(), hook.labels_at_swap);
  for (const std::string& label : probe.labels) {
    EXPECT_EQ(known.count(label), 1u) << "unexpected verdict label '" << label << "'";
  }
}

}  // namespace
}  // namespace artemis
