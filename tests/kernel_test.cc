// Unit and failure-injection tests for the intermittent kernel: atomic task
// execution, event delivery, corrective actions, and power-failure
// semantics.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "src/kernel/app_graph.h"
#include "src/kernel/channel.h"
#include "src/kernel/immortal.h"
#include "src/kernel/kernel.h"
#include "src/sim/mcu.h"

namespace artemis {
namespace {

std::unique_ptr<Mcu> AlwaysOnMcu() {
  return std::make_unique<Mcu>(std::make_unique<AlwaysOnPowerModel>(), DefaultCostModel());
}

std::unique_ptr<Mcu> BudgetMcu(EnergyUj budget, SimDuration charge = kSecond) {
  return std::make_unique<Mcu>(std::make_unique<FixedChargePowerModel>(budget, charge),
                               DefaultCostModel());
}

// Kernel options whose observer collects every published event.
struct EventLog {
  EventLog() {
    bus.AddSink(&events);
    options.observer = &bus;
  }
  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;
  obs::EventBus bus;
  obs::CollectingSink events;
  KernelOptions options;
};

TaskDef SimpleTask(const std::string& name, SimDuration duration = 10 * kMillisecond,
                   Milliwatts power = 1.0, TaskEffect effect = nullptr) {
  return TaskDef{.name = name,
                 .work = {.duration = duration, .power = power},
                 .effect = std::move(effect),
                 .monitored_var = std::nullopt};
}

// A checker that records every event and fires scripted verdicts: the Nth
// event matching (kind, task) triggers the given verdict.
class ScriptedChecker : public PropertyChecker {
 public:
  struct Rule {
    EventKind kind;
    TaskId task;
    int occurrence;  // 1-based among matching events
    MonitorVerdict verdict;
  };

  void AddRule(Rule rule) { rules_.push_back(std::move(rule)); }

  void HardReset(Mcu&) override { resets_++; }
  void Finalize(Mcu&) override { finalizes_++; }
  CheckOutcome OnEvent(const MonitorEvent& event, Mcu&) override {
    events.push_back(event);
    const std::pair<int, TaskId> key{static_cast<int>(event.kind), event.task};
    const int n = ++seen_[key];
    CheckOutcome outcome;
    for (const Rule& rule : rules_) {
      if (rule.kind == event.kind && rule.task == event.task && rule.occurrence == n) {
        outcome.verdict = rule.verdict;
        break;
      }
    }
    return outcome;
  }
  void OnPathRestart(PathId path, Mcu&) override { path_restarts.push_back(path); }
  std::string Name() const override { return "scripted"; }

  std::vector<MonitorEvent> events;
  std::vector<PathId> path_restarts;
  int resets_ = 0;
  int finalizes_ = 0;

 private:
  std::vector<Rule> rules_;
  std::map<std::pair<int, TaskId>, int> seen_;
};

// ------------------------------------------------------------ app graph --

TEST(AppGraphTest, ValidateRejectsEmpty) {
  AppGraph graph;
  EXPECT_FALSE(graph.Validate().ok());
}

TEST(AppGraphTest, ValidateRejectsEmptyPath) {
  AppGraph graph;
  graph.AddTask(SimpleTask("a"));
  graph.AddPath({});
  EXPECT_FALSE(graph.Validate().ok());
}

TEST(AppGraphTest, FindTaskByName) {
  AppGraph graph;
  const TaskId a = graph.AddTask(SimpleTask("a"));
  EXPECT_EQ(graph.FindTask("a"), a);
  EXPECT_FALSE(graph.FindTask("zzz").has_value());
}

TEST(AppGraphTest, PathsAreOneBased) {
  AppGraph graph;
  const TaskId a = graph.AddTask(SimpleTask("a"));
  const TaskId b = graph.AddTask(SimpleTask("b"));
  EXPECT_EQ(graph.AddPath({a}), 1u);
  EXPECT_EQ(graph.AddPath({b, a}), 2u);
  EXPECT_EQ(graph.path(2).size(), 2u);
}

TEST(AppGraphTest, PathsContainingHandlesMerging) {
  AppGraph graph;
  const TaskId a = graph.AddTask(SimpleTask("a"));
  const TaskId b = graph.AddTask(SimpleTask("b"));
  const TaskId send = graph.AddTask(SimpleTask("send"));
  graph.AddPath({a, send});
  graph.AddPath({b, send});
  EXPECT_EQ(graph.PathsContaining(send), (std::vector<PathId>{1, 2}));
  EXPECT_EQ(graph.PathsContaining(a), (std::vector<PathId>{1}));
}

TEST(AppGraphTest, AddPathByNamesResolves) {
  AppGraph graph;
  graph.AddTask(SimpleTask("x"));
  graph.AddTask(SimpleTask("y"));
  auto path = graph.AddPathByNames({"x", "y"});
  ASSERT_TRUE(path.ok());
  EXPECT_EQ(path.value(), 1u);
  EXPECT_FALSE(graph.AddPathByNames({"x", "nope"}).ok());
}

TEST(AppGraphTest, DotContainsTasksAndEdges) {
  AppGraph graph;
  const TaskId a = graph.AddTask(SimpleTask("alpha"));
  const TaskId b = graph.AddTask(SimpleTask("beta"));
  graph.AddPath({a, b});
  const std::string dot = graph.ToDot();
  EXPECT_NE(dot.find("alpha"), std::string::npos);
  EXPECT_NE(dot.find("t0 -> t1"), std::string::npos);
}

// ------------------------------------------------------------- channels --

TEST(ChannelStoreTest, CommitTracksCompletionsAndSamples) {
  ChannelStore store(2);
  store.AppendSamples(0, {1.0, 2.0});
  store.RecordCompletion(0, kSecond);
  EXPECT_EQ(store.Samples(0).size(), 2u);
  EXPECT_EQ(store.CompletionCount(0), 1u);
  EXPECT_EQ(store.LastCompletion(0), kSecond);
  EXPECT_FALSE(store.LastCompletion(1).has_value());
}

TEST(TaskContextTest, StagesWithoutMutatingCommitted) {
  AppGraph graph;
  const TaskId a = graph.AddTask(SimpleTask("a"));
  const TaskId b = graph.AddTask(SimpleTask("b"));
  graph.AddPath({a, b});
  ChannelStore store(2);
  store.AppendSamples(a, {5.0});
  Rng rng(1);
  TaskStaging staging;
  TaskContext ctx(&graph, &store, b, 0, &rng, &staging);
  ctx.Push(9.0);
  ctx.ConsumeAll("a");
  ctx.SetMonitored(3.3);
  // Nothing committed yet.
  EXPECT_EQ(store.Samples(a).size(), 1u);
  EXPECT_TRUE(store.Samples(b).empty());
  EXPECT_EQ(ctx.staged_samples().size(), 1u);
  EXPECT_EQ(ctx.staged_consumes().size(), 1u);
  EXPECT_EQ(ctx.staged_monitored(), 3.3);
  EXPECT_EQ(ctx.SamplesOf("a").size(), 1u);
  EXPECT_TRUE(ctx.SamplesOf("missing").empty());
}

// ------------------------------------------------------------- immortal --

TEST(ImmortalContextTest, FreshItemStartsAtZero) {
  ImmortalContext ctx(nullptr, MemOwner::kMonitor, "t");
  EXPECT_EQ(ctx.Begin(1), 0u);
  ctx.CompleteStep();
  ctx.CompleteStep();
  ctx.Finish();
  EXPECT_FALSE(ctx.InProgress());
}

TEST(ImmortalContextTest, ResumesInterruptedItem) {
  ImmortalContext ctx(nullptr, MemOwner::kMonitor, "t");
  ctx.Begin(7);
  ctx.CompleteStep();
  ctx.CompleteStep();
  // "Power failure": Begin again with the same item id.
  EXPECT_EQ(ctx.Begin(7), 2u);
  ctx.Finish();
  // A new item restarts at zero.
  EXPECT_EQ(ctx.Begin(8), 0u);
}

TEST(ImmortalContextTest, DifferentItemResetsCursor) {
  ImmortalContext ctx(nullptr, MemOwner::kMonitor, "t");
  ctx.Begin(1);
  ctx.CompleteStep();
  EXPECT_EQ(ctx.Begin(2), 0u);
}

// --------------------------------------------------------------- kernel --

TEST(KernelTest, RunsLinearPathToCompletion) {
  AppGraph graph;
  std::vector<std::string> order;
  const TaskId a = graph.AddTask(SimpleTask("a", 10 * kMillisecond, 1.0,
                                            [&order](TaskContext&) { order.push_back("a"); }));
  const TaskId b = graph.AddTask(SimpleTask("b", 10 * kMillisecond, 1.0,
                                            [&order](TaskContext&) { order.push_back("b"); }));
  graph.AddPath({a, b});
  auto mcu = AlwaysOnMcu();
  NullChecker checker;
  IntermittentKernel kernel(&graph, &checker, mcu.get(), {});
  const KernelRunResult result = kernel.Run();
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(order, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(result.stats.reboots, 0u);
}

TEST(KernelTest, PathsExecuteInDeclarationOrder) {
  AppGraph graph;
  std::vector<std::string> order;
  auto rec = [&order](const std::string& n) {
    return [&order, n](TaskContext&) { order.push_back(n); };
  };
  const TaskId a = graph.AddTask(SimpleTask("a", kMillisecond, 1.0, rec("a")));
  const TaskId b = graph.AddTask(SimpleTask("b", kMillisecond, 1.0, rec("b")));
  const TaskId c = graph.AddTask(SimpleTask("c", kMillisecond, 1.0, rec("c")));
  graph.AddPath({a});
  graph.AddPath({b, c});
  auto mcu = AlwaysOnMcu();
  NullChecker checker;
  IntermittentKernel kernel(&graph, &checker, mcu.get(), {});
  EXPECT_TRUE(kernel.Run().completed);
  EXPECT_EQ(order, (std::vector<std::string>{"a", "b", "c"}));
}

TEST(KernelTest, EffectsCommitAtomicallyAcrossPowerFailures) {
  // `drain` eats half the 2 mJ budget, so the first attempt of `a` (1.5 mJ)
  // dies mid-body; after the reboot refills the budget, `a` completes. The
  // effect must run exactly once despite the re-execution.
  AppGraph graph;
  int effect_runs = 0;
  const TaskId drain = graph.AddTask(SimpleTask("drain", 100 * kMillisecond, 10.0));
  const TaskId a = graph.AddTask(SimpleTask("a", 150 * kMillisecond, 10.0,
                                            [&effect_runs](TaskContext& ctx) {
                                              ++effect_runs;
                                              ctx.Push(1.0);
                                            }));
  graph.AddPath({drain, a});
  auto mcu = BudgetMcu(2'000.0);
  NullChecker checker;
  EventLog log;
  IntermittentKernel kernel(&graph, &checker, mcu.get(), log.options);
  const KernelRunResult result = kernel.Run();
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(effect_runs, 1);
  EXPECT_EQ(kernel.channels().Samples(a).size(), 1u);
  EXPECT_GE(result.stats.reboots, 1u);
  EXPECT_GE(log.events.Count(obs::Kind::kTaskAborted, a), 1u);
}

TEST(KernelTest, StartEventPerAttemptEndEventOnce) {
  AppGraph graph;
  const TaskId drain = graph.AddTask(SimpleTask("drain", 100 * kMillisecond, 10.0));
  const TaskId a = graph.AddTask(SimpleTask("a", 150 * kMillisecond, 10.0));
  graph.AddPath({drain, a});
  auto mcu = BudgetMcu(2'000.0);
  ScriptedChecker checker;
  IntermittentKernel kernel(&graph, &checker, mcu.get(), {});
  EXPECT_TRUE(kernel.Run().completed);
  int starts = 0, ends = 0;
  for (const MonitorEvent& e : checker.events) {
    if (e.task != a) {
      continue;
    }
    starts += e.kind == EventKind::kStartTask ? 1 : 0;
    ends += e.kind == EventKind::kEndTask ? 1 : 0;
  }
  EXPECT_GE(starts, 2);  // One per re-execution attempt.
  EXPECT_EQ(ends, 1);    // Exactly one committed completion.
}

TEST(KernelTest, EventSeqsAreUniqueAndMonotonic) {
  AppGraph graph;
  const TaskId a = graph.AddTask(SimpleTask("a"));
  const TaskId b = graph.AddTask(SimpleTask("b"));
  graph.AddPath({a, b});
  auto mcu = AlwaysOnMcu();
  ScriptedChecker checker;
  IntermittentKernel kernel(&graph, &checker, mcu.get(), {});
  EXPECT_TRUE(kernel.Run().completed);
  for (std::size_t i = 1; i < checker.events.size(); ++i) {
    EXPECT_GT(checker.events[i].seq, checker.events[i - 1].seq);
  }
}

TEST(KernelTest, EndEventCarriesMonitoredValue) {
  AppGraph graph;
  TaskDef def = SimpleTask("a", kMillisecond, 1.0,
                           [](TaskContext& ctx) { ctx.SetMonitored(37.2); });
  def.monitored_var = "temp";
  const TaskId a = graph.AddTask(std::move(def));
  graph.AddPath({a});
  auto mcu = AlwaysOnMcu();
  ScriptedChecker checker;
  IntermittentKernel kernel(&graph, &checker, mcu.get(), {});
  EXPECT_TRUE(kernel.Run().completed);
  bool saw_end = false;
  for (const MonitorEvent& e : checker.events) {
    if (e.kind == EventKind::kEndTask && e.task == a) {
      saw_end = true;
      EXPECT_TRUE(e.has_dep_data);
      EXPECT_DOUBLE_EQ(e.dep_data, 37.2);
    }
  }
  EXPECT_TRUE(saw_end);
}

TEST(KernelTest, EventsCarryCurrentPath) {
  AppGraph graph;
  const TaskId a = graph.AddTask(SimpleTask("a"));
  const TaskId send = graph.AddTask(SimpleTask("send"));
  const TaskId b = graph.AddTask(SimpleTask("b"));
  graph.AddPath({a, send});
  graph.AddPath({b, send});
  auto mcu = AlwaysOnMcu();
  ScriptedChecker checker;
  IntermittentKernel kernel(&graph, &checker, mcu.get(), {});
  EXPECT_TRUE(kernel.Run().completed);
  std::vector<PathId> send_paths;
  for (const MonitorEvent& e : checker.events) {
    if (e.task == send && e.kind == EventKind::kStartTask) {
      send_paths.push_back(e.path);
    }
  }
  EXPECT_EQ(send_paths, (std::vector<PathId>{1, 2}));
}

TEST(KernelTest, RestartTaskRerunsCurrentTask) {
  AppGraph graph;
  int runs = 0;
  const TaskId a = graph.AddTask(
      SimpleTask("a", kMillisecond, 1.0, [&runs](TaskContext&) { ++runs; }));
  graph.AddPath({a});
  auto mcu = AlwaysOnMcu();
  ScriptedChecker checker;
  checker.AddRule({EventKind::kEndTask, a, 1,
                   MonitorVerdict{ActionType::kRestartTask, kNoPath, "p"}});
  IntermittentKernel kernel(&graph, &checker, mcu.get(), {});
  EXPECT_TRUE(kernel.Run().completed);
  EXPECT_EQ(runs, 2);
}

TEST(KernelTest, SkipTaskAtStartSkipsExecution) {
  AppGraph graph;
  int runs = 0;
  const TaskId a = graph.AddTask(
      SimpleTask("a", kMillisecond, 1.0, [&runs](TaskContext&) { ++runs; }));
  const TaskId b = graph.AddTask(SimpleTask("b"));
  graph.AddPath({a, b});
  auto mcu = AlwaysOnMcu();
  ScriptedChecker checker;
  checker.AddRule({EventKind::kStartTask, a, 1,
                   MonitorVerdict{ActionType::kSkipTask, kNoPath, "p"}});
  EventLog log;
  IntermittentKernel kernel(&graph, &checker, mcu.get(), log.options);
  EXPECT_TRUE(kernel.Run().completed);
  EXPECT_EQ(runs, 0);
  EXPECT_EQ(log.events.Count(obs::Kind::kTaskSkipped, a), 1u);
}

TEST(KernelTest, RestartPathReentersFromFirstTaskAndNotifiesChecker) {
  AppGraph graph;
  std::vector<std::string> order;
  auto rec = [&order](const std::string& n) {
    return [&order, n](TaskContext&) { order.push_back(n); };
  };
  const TaskId a = graph.AddTask(SimpleTask("a", kMillisecond, 1.0, rec("a")));
  const TaskId b = graph.AddTask(SimpleTask("b", kMillisecond, 1.0, rec("b")));
  graph.AddPath({a, b});
  auto mcu = AlwaysOnMcu();
  ScriptedChecker checker;
  checker.AddRule({EventKind::kStartTask, b, 1,
                   MonitorVerdict{ActionType::kRestartPath, kNoPath, "p"}});
  IntermittentKernel kernel(&graph, &checker, mcu.get(), {});
  EXPECT_TRUE(kernel.Run().completed);
  EXPECT_EQ(order, (std::vector<std::string>{"a", "a", "b"}));
  EXPECT_EQ(checker.path_restarts, (std::vector<PathId>{1}));
}

TEST(KernelTest, RestartPathWithExplicitTarget) {
  AppGraph graph;
  const TaskId a = graph.AddTask(SimpleTask("a"));
  const TaskId send = graph.AddTask(SimpleTask("send"));
  const TaskId b = graph.AddTask(SimpleTask("b"));
  graph.AddPath({a, send});
  graph.AddPath({b, send});
  auto mcu = AlwaysOnMcu();
  ScriptedChecker checker;
  // While executing path 2, demand a restart of path 2 explicitly.
  checker.AddRule({EventKind::kStartTask, send, 2,
                   MonitorVerdict{ActionType::kRestartPath, 2, "p"}});
  EventLog log;
  IntermittentKernel kernel(&graph, &checker, mcu.get(), log.options);
  EXPECT_TRUE(kernel.Run().completed);
  // b runs twice (path 2 restarted once).
  EXPECT_EQ(log.events.Count(obs::Kind::kTaskEnd, b), 2u);
}

TEST(KernelTest, SkipPathAdvancesToNextPath) {
  AppGraph graph;
  int b_runs = 0;
  const TaskId a = graph.AddTask(SimpleTask("a"));
  const TaskId b = graph.AddTask(
      SimpleTask("b", kMillisecond, 1.0, [&b_runs](TaskContext&) { ++b_runs; }));
  const TaskId c = graph.AddTask(SimpleTask("c"));
  graph.AddPath({a, b});
  graph.AddPath({c});
  auto mcu = AlwaysOnMcu();
  ScriptedChecker checker;
  checker.AddRule({EventKind::kStartTask, a, 1,
                   MonitorVerdict{ActionType::kSkipPath, kNoPath, "p"}});
  EventLog log;
  IntermittentKernel kernel(&graph, &checker, mcu.get(), log.options);
  EXPECT_TRUE(kernel.Run().completed);
  EXPECT_EQ(b_runs, 0);
  EXPECT_EQ(log.events.Count(obs::Kind::kTaskEnd, c), 1u);
}

TEST(KernelTest, SkipLastPathCompletesApp) {
  AppGraph graph;
  const TaskId a = graph.AddTask(SimpleTask("a"));
  graph.AddPath({a});
  auto mcu = AlwaysOnMcu();
  ScriptedChecker checker;
  checker.AddRule({EventKind::kStartTask, a, 1,
                   MonitorVerdict{ActionType::kSkipPath, kNoPath, "p"}});
  EventLog log;
  IntermittentKernel kernel(&graph, &checker, mcu.get(), log.options);
  const KernelRunResult result = kernel.Run();
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(log.events.Count(obs::Kind::kTaskEnd, a), 0u);
}

TEST(KernelTest, CompletePathRunsTailUnmonitored) {
  AppGraph graph;
  const TaskId a = graph.AddTask(SimpleTask("a"));
  const TaskId b = graph.AddTask(SimpleTask("b"));
  const TaskId c = graph.AddTask(SimpleTask("c"));
  const TaskId d = graph.AddTask(SimpleTask("d"));
  graph.AddPath({a, b, c});
  graph.AddPath({d});
  auto mcu = AlwaysOnMcu();
  ScriptedChecker checker;
  checker.AddRule({EventKind::kEndTask, a, 1,
                   MonitorVerdict{ActionType::kCompletePath, kNoPath, "p"}});
  EventLog log;
  IntermittentKernel kernel(&graph, &checker, mcu.get(), log.options);
  EXPECT_TRUE(kernel.Run().completed);
  // b and c ran, but produced no checker events (monitoring halted).
  EXPECT_EQ(log.events.Count(obs::Kind::kTaskEnd, b), 1u);
  EXPECT_EQ(log.events.Count(obs::Kind::kTaskEnd, c), 1u);
  for (const MonitorEvent& e : checker.events) {
    EXPECT_NE(e.task, b);
    EXPECT_NE(e.task, c);
  }
  // Monitoring resumed for path 2: d produced events.
  bool saw_d = false;
  for (const MonitorEvent& e : checker.events) {
    saw_d = saw_d || e.task == d;
  }
  EXPECT_TRUE(saw_d);
  // Monitors of the silently completed path were re-initialized.
  EXPECT_EQ(log.events.Count(obs::Kind::kPathCompleteUnmonitored), 1u);
  EXPECT_EQ(checker.path_restarts, (std::vector<PathId>{1}));
}

TEST(KernelTest, TimedOutWhenCheckerLoopsForever) {
  AppGraph graph;
  const TaskId a = graph.AddTask(SimpleTask("a"));
  const TaskId b = graph.AddTask(SimpleTask("b"));
  graph.AddPath({a, b});
  auto mcu = AlwaysOnMcu();

  // Restart the path on every completion of b: a livelock.
  class LoopingChecker : public ScriptedChecker {
   public:
    CheckOutcome OnEvent(const MonitorEvent& event, Mcu& mcu_ref) override {
      CheckOutcome outcome = ScriptedChecker::OnEvent(event, mcu_ref);
      if (event.kind == EventKind::kStartTask && event.task == 1) {
        outcome.verdict = MonitorVerdict{ActionType::kRestartPath, kNoPath, "loop"};
      }
      return outcome;
    }
  } checker;

  KernelOptions options;
  options.max_wall_time = kMinute;
  IntermittentKernel kernel(&graph, &checker, mcu.get(), options);
  const KernelRunResult result = kernel.Run();
  EXPECT_FALSE(result.completed);
  EXPECT_TRUE(result.timed_out);
}

TEST(KernelTest, StarvedDeviceReported) {
  AppGraph graph;
  const TaskId a = graph.AddTask(SimpleTask("a", kSecond, 50.0));
  graph.AddPath({a});
  auto mcu = BudgetMcu(0.5);  // Below even the boot restore cost.
  NullChecker checker;
  IntermittentKernel kernel(&graph, &checker, mcu.get(), {});
  const KernelRunResult result = kernel.Run();
  EXPECT_FALSE(result.completed);
  EXPECT_TRUE(result.starved);
}

TEST(KernelTest, HardResetAndFinalizeCalls) {
  AppGraph graph;
  const TaskId drain = graph.AddTask(SimpleTask("drain", 150 * kMillisecond, 10.0));
  const TaskId a = graph.AddTask(SimpleTask("a", 150 * kMillisecond, 10.0));
  graph.AddPath({drain, a});
  auto mcu = BudgetMcu(2'000.0);
  ScriptedChecker checker;
  IntermittentKernel kernel(&graph, &checker, mcu.get(), {});
  EXPECT_TRUE(kernel.Run().completed);
  EXPECT_EQ(checker.resets_, 1);     // Once per application lifetime.
  EXPECT_GE(checker.finalizes_, 1);  // Once per reboot.
}

TEST(KernelTest, ConsumeAllClearsProducerSamplesAtCommit) {
  AppGraph graph;
  const TaskId producer = graph.AddTask(
      SimpleTask("producer", kMillisecond, 1.0, [](TaskContext& ctx) { ctx.Push(1.0); }));
  const TaskId consumer = graph.AddTask(SimpleTask(
      "consumer", kMillisecond, 1.0, [](TaskContext& ctx) { ctx.ConsumeAll("producer"); }));
  graph.AddPath({producer, consumer});
  auto mcu = AlwaysOnMcu();
  NullChecker checker;
  IntermittentKernel kernel(&graph, &checker, mcu.get(), {});
  EXPECT_TRUE(kernel.Run().completed);
  EXPECT_TRUE(kernel.channels().Samples(producer).empty());
}

TEST(KernelTest, EndTimestampPreservedAcrossRedelivery) {
  // Force a power failure between the task's commit and the EndTask
  // delivery by draining the budget to nearly zero with the task body.
  AppGraph graph;
  const TaskId a = graph.AddTask(SimpleTask("a", 190 * kMillisecond, 10.0));  // 1900 uJ
  graph.AddPath({a});
  auto mcu = BudgetMcu(1'930.0, 7 * kSecond);  // Commit cost kills it after the body.
  ScriptedChecker checker;
  IntermittentKernel kernel(&graph, &checker, mcu.get(), {});
  EXPECT_TRUE(kernel.Run().completed);
  // Find the end event; its timestamp must equal the recorded commit time,
  // i.e. strictly before the 7 s recharge that followed.
  for (const MonitorEvent& e : checker.events) {
    if (e.kind == EventKind::kEndTask) {
      EXPECT_LT(e.timestamp, 7 * kSecond);
    }
  }
}

TEST(KernelTest, TaskProfilesTrackCommitsAbortsAndEnergy) {
  AppGraph graph;
  const TaskId drain = graph.AddTask(SimpleTask("drain", 100 * kMillisecond, 10.0));
  const TaskId a = graph.AddTask(SimpleTask("a", 150 * kMillisecond, 10.0));
  graph.AddPath({drain, a});
  auto mcu = BudgetMcu(2'000.0);
  NullChecker checker;
  IntermittentKernel kernel(&graph, &checker, mcu.get(), {});
  ASSERT_TRUE(kernel.Run().completed);
  const std::vector<TaskProfile>& profiles = kernel.profiles();
  EXPECT_EQ(profiles[drain].commits, 1u);
  EXPECT_EQ(profiles[drain].aborts, 0u);
  EXPECT_EQ(profiles[a].commits, 1u);
  EXPECT_GE(profiles[a].aborts, 1u);
  // The aborted partial run is part of a's measured busy time/energy.
  EXPECT_GT(profiles[a].busy_time, 150 * kMillisecond);
  EXPECT_GT(profiles[a].energy, EnergyFor(10.0, 150 * kMillisecond));
  EXPECT_EQ(profiles[drain].busy_time, 100 * kMillisecond);
}

TEST(KernelTest, AppIterationsRepeatThePathSet) {
  AppGraph graph;
  int runs = 0;
  const TaskId a = graph.AddTask(
      SimpleTask("a", kMillisecond, 1.0, [&runs](TaskContext&) { ++runs; }));
  graph.AddPath({a});
  auto mcu = AlwaysOnMcu();
  NullChecker checker;
  KernelOptions options;
  options.app_iterations = 5;
  IntermittentKernel kernel(&graph, &checker, mcu.get(), options);
  const KernelRunResult result = kernel.Run();
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.iterations_completed, 5u);
  EXPECT_EQ(runs, 5);
}

TEST(KernelTest, InterIterationGapAdvancesTimeWithoutEnergy) {
  AppGraph graph;
  const TaskId a = graph.AddTask(SimpleTask("a", kMillisecond, 1.0));
  graph.AddPath({a});
  auto mcu = AlwaysOnMcu();
  NullChecker checker;
  KernelOptions options;
  options.app_iterations = 3;
  options.inter_iteration_gap = 10 * kSecond;
  IntermittentKernel kernel(&graph, &checker, mcu.get(), options);
  const KernelRunResult result = kernel.Run();
  EXPECT_TRUE(result.completed);
  // Two gaps between three iterations.
  EXPECT_GE(result.finished_at, 20 * kSecond);
  EXPECT_LT(result.stats.TotalEnergy(), 100.0);  // Gaps draw no compute power.
}

TEST(KernelTest, IterationCounterStopsAtWallLimit) {
  AppGraph graph;
  const TaskId a = graph.AddTask(SimpleTask("a", kSecond, 1.0));
  graph.AddPath({a});
  auto mcu = AlwaysOnMcu();
  NullChecker checker;
  KernelOptions options;
  options.app_iterations = 1'000'000;
  options.max_wall_time = 10 * kSecond;
  IntermittentKernel kernel(&graph, &checker, mcu.get(), options);
  const KernelRunResult result = kernel.Run();
  EXPECT_FALSE(result.completed);
  EXPECT_TRUE(result.timed_out);
  EXPECT_GE(result.iterations_completed, 8u);
  EXPECT_LE(result.iterations_completed, 11u);
}

TEST(ActionSeverityTest, OrderingMatchesArbitrationDoc) {
  EXPECT_LT(ActionSeverity(ActionType::kNone), ActionSeverity(ActionType::kRestartTask));
  EXPECT_LT(ActionSeverity(ActionType::kRestartTask), ActionSeverity(ActionType::kSkipTask));
  EXPECT_LT(ActionSeverity(ActionType::kSkipTask), ActionSeverity(ActionType::kRestartPath));
  EXPECT_LT(ActionSeverity(ActionType::kRestartPath), ActionSeverity(ActionType::kSkipPath));
  EXPECT_LT(ActionSeverity(ActionType::kSkipPath), ActionSeverity(ActionType::kCompletePath));
}

}  // namespace
}  // namespace artemis
