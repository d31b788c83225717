// Tests for the compiled (bytecode) monitor backend: compilation-pass
// structure (interning, dispatch index, disassembly), semantics of the
// executor against hand-built machines, and — the load-bearing part — a
// differential fuzz harness that replays thousands of randomized event
// traces through interpreted and compiled monitors in lockstep for all
// three example apps' specs, asserting identical verdicts, states, and
// variable values at every step.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "src/apps/ar_app.h"
#include "src/apps/greenhouse_app.h"
#include "src/apps/health_app.h"
#include "src/base/rng.h"
#include "src/ir/compile.h"
#include "src/ir/lowering.h"
#include "src/monitor/compiled.h"
#include "src/monitor/compiled_batch.h"
#include "src/monitor/interp.h"
#include "src/monitor/monitor_set.h"
#include "src/sim/cost_model.h"
#include "src/spec/parser.h"
#include "src/spec/validator.h"

namespace artemis {
namespace {

// ------------------------------------------------ compilation structure --

StateMachine CounterMachine() {
  // S0 --start(0)[i < 3]/i=i+1--> S0
  // S0 --start(0)[i >= 3]/fail;i=0--> S1
  // S1 --anyEvent--> S0
  StateMachine m;
  m.name = "counter";
  m.property_label = "counter";
  m.states = {"S0", "S1"};
  m.initial = "S0";
  m.variables = {{"i", 0.0}};
  Transition bump;
  bump.from = "S0";
  bump.to = "S0";
  bump.trigger = TriggerKind::kStartTask;
  bump.task = 0;
  bump.guard = Bin(BinOp::kLt, Var("i"), Const(3));
  bump.body = {Assign("i", Bin(BinOp::kAdd, Var("i"), Const(1)))};
  Transition fire;
  fire.from = "S0";
  fire.to = "S1";
  fire.trigger = TriggerKind::kStartTask;
  fire.task = 0;
  fire.guard = Bin(BinOp::kGe, Var("i"), Const(3));
  fire.body = {Fail(ActionType::kSkipPath, kNoPath, "counter"), Assign("i", Const(0))};
  Transition back;
  back.from = "S1";
  back.to = "S0";
  back.trigger = TriggerKind::kAnyEvent;
  m.transitions = {bump, fire, back};
  return m;
}

TEST(CompileTest, InternsStatesAndSlots) {
  auto compiled = CompileStateMachine(CounterMachine());
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  const CompiledMachine& m = compiled.value();
  EXPECT_EQ(m.state_names, (std::vector<std::string>{"S0", "S1"}));
  EXPECT_EQ(m.initial, 0);
  EXPECT_EQ(m.var_names, (std::vector<std::string>{"i"}));
  EXPECT_EQ(m.initial_slots, (std::vector<double>{0.0}));
  EXPECT_EQ(m.transitions.size(), 3u);
  // Both S0 transitions share one (start, task 0) bucket, fused into a
  // single handler program in declaration order.
  ASSERT_EQ(m.buckets[0].size(), 1u);
  EXPECT_EQ(m.buckets[0][0].candidates, 2u);
  EXPECT_NE(m.buckets[0][0].handler_pc, kNoProgram);
  // S1 has no specific trigger; its anyEvent transition is the fallback.
  EXPECT_TRUE(m.buckets[1].empty());
  EXPECT_NE(m.any_handler[1], kNoProgram);
  // S0 has no anyEvent transition; its fallback is the shared kNoMatch
  // program, which both handlers' fall-through paths also hit.
  EXPECT_EQ(m.code[m.any_handler[0]].op, OpCode::kNoMatch);
  // Dispatch on an uncovered (kind, task) lands on the empty fallback.
  EXPECT_EQ(m.HandlerFor(0, EventKind::kEndTask, 5), m.any_handler[0]);
  EXPECT_GE(m.max_stack, 2u);
  EXPECT_FALSE(Disassemble(m).empty());
}

TEST(CompileTest, RejectsInvalidMachine) {
  StateMachine bad = CounterMachine();
  bad.transitions[0].guard = Bin(BinOp::kLt, Var("undeclared"), Const(3));
  EXPECT_FALSE(CompileStateMachine(bad).ok());
}

TEST(CompiledMonitorTest, ExecutesCounterSemantics) {
  auto compiled = CompileStateMachine(CounterMachine());
  ASSERT_TRUE(compiled.ok());
  CompiledMonitor monitor(std::move(compiled).value());
  MonitorEvent start;
  start.kind = EventKind::kStartTask;
  start.task = 0;
  MonitorVerdict verdict;
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(monitor.Step(start, &verdict)) << i;
  }
  EXPECT_EQ(monitor.VarValue("i"), 3.0);
  EXPECT_TRUE(monitor.Step(start, &verdict));
  EXPECT_EQ(verdict.action, ActionType::kSkipPath);
  EXPECT_EQ(verdict.property, "counter");
  EXPECT_EQ(monitor.current_state(), "S1");
  EXPECT_EQ(monitor.VarValue("i"), 0.0);
  // anyEvent returns to S0; unrelated events in S0 self-transition.
  MonitorEvent other;
  other.kind = EventKind::kEndTask;
  other.task = 7;
  EXPECT_FALSE(monitor.Step(other, &verdict));
  EXPECT_EQ(monitor.current_state(), "S0");
  EXPECT_FALSE(monitor.Step(other, &verdict));
  EXPECT_EQ(monitor.current_state(), "S0");
}

TEST(CompiledMonitorTest, HardResetRestoresInitialSlots) {
  auto compiled = CompileStateMachine(CounterMachine());
  ASSERT_TRUE(compiled.ok());
  CompiledMonitor monitor(std::move(compiled).value());
  MonitorEvent start;
  start.kind = EventKind::kStartTask;
  start.task = 0;
  MonitorVerdict verdict;
  monitor.Step(start, &verdict);
  EXPECT_EQ(monitor.VarValue("i"), 1.0);
  monitor.HardReset();
  EXPECT_EQ(monitor.VarValue("i"), 0.0);
  EXPECT_EQ(monitor.current_state(), "S0");
}

TEST(CompiledMonitorTest, FramBytesMatchesInterpreter) {
  auto parsed = SpecParser::Parse(HealthAppSpec());
  ASSERT_TRUE(parsed.ok());
  HealthApp app = BuildHealthApp();
  auto machines = LowerSpec(parsed.value(), app.graph, {});
  ASSERT_TRUE(machines.ok());
  for (const StateMachine& machine : machines.value()) {
    InterpretedMonitor interp{StateMachine(machine)};
    CompiledMonitor compiled{std::move(CompileStateMachine(machine)).value()};
    EXPECT_EQ(interp.FramBytes(), compiled.FramBytes()) << machine.name;
  }
}

// ------------------------------------------------- differential fuzzing --

struct FuzzApp {
  const char* name;
  AppGraph graph;
  std::string spec;
};

std::vector<FuzzApp> FuzzApps() {
  std::vector<FuzzApp> apps;
  {
    HealthApp app = BuildHealthApp();
    apps.push_back({"health", std::move(app.graph), HealthAppSpec()});
  }
  {
    GreenhouseApp app = BuildGreenhouseApp();
    apps.push_back({"greenhouse", std::move(app.graph), GreenhouseSpec()});
  }
  {
    ArApp app = BuildArApp();
    apps.push_back({"ar", std::move(app.graph), ArAppSpec()});
  }
  return apps;
}

class DifferentialFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DifferentialFuzzTest, CompiledEquivalentToInterpretedOnAllApps) {
  for (FuzzApp& app : FuzzApps()) {
    auto parsed = SpecParser::Parse(app.spec);
    ASSERT_TRUE(parsed.ok()) << app.name;
    auto machines = LowerSpec(parsed.value(), app.graph, {});
    ASSERT_TRUE(machines.ok()) << app.name;

    std::vector<std::unique_ptr<InterpretedMonitor>> interp;
    std::vector<std::unique_ptr<CompiledMonitor>> compiled;
    for (const StateMachine& machine : machines.value()) {
      auto c = CompileStateMachine(machine);
      ASSERT_TRUE(c.ok()) << app.name << "/" << machine.name << ": "
                          << c.status().ToString();
      compiled.push_back(std::make_unique<CompiledMonitor>(std::move(c).value()));
      interp.push_back(std::make_unique<InterpretedMonitor>(StateMachine(machine)));
    }

    Rng rng(GetParam());
    const auto task_count = static_cast<std::uint64_t>(app.graph.task_count());
    const auto path_count = static_cast<std::uint64_t>(app.graph.path_count());
    SimTime now = 0;
    for (int i = 0; i < 3000; ++i) {
      // Occasional path restarts exercise OnPathRestart symmetry.
      if (rng.NextDouble() < 0.02) {
        const PathId path = static_cast<PathId>(rng.UniformU64(1, path_count));
        for (std::size_t k = 0; k < interp.size(); ++k) {
          interp[k]->OnPathRestart(path);
          compiled[k]->OnPathRestart(path);
        }
      }
      now += rng.UniformU64(1, 3 * kMinute);
      MonitorEvent e;
      e.kind = rng.NextDouble() < 0.5 ? EventKind::kStartTask : EventKind::kEndTask;
      e.task = static_cast<TaskId>(rng.UniformU64(0, task_count - 1));
      e.timestamp = now;
      e.path = static_cast<PathId>(rng.UniformU64(1, path_count));
      e.seq = static_cast<std::uint64_t>(i) + 1;
      e.has_dep_data = e.kind == EventKind::kEndTask && rng.NextDouble() < 0.5;
      e.dep_data = rng.UniformDouble(-10.0, 50.0);
      e.energy_fraction = rng.NextDouble();

      for (std::size_t k = 0; k < interp.size(); ++k) {
        MonitorVerdict vi, vc;
        const bool fi = interp[k]->Step(e, &vi);
        const bool fc = compiled[k]->Step(e, &vc);
        ASSERT_EQ(fi, fc) << app.name << "/" << interp[k]->machine().name << " event #" << i
                          << " kind=" << static_cast<int>(e.kind) << " task=" << e.task
                          << " path=" << e.path;
        if (fi) {
          ASSERT_EQ(vi.action, vc.action) << app.name << " event #" << i;
          ASSERT_EQ(vi.target_path, vc.target_path) << app.name << " event #" << i;
          ASSERT_EQ(vi.property, vc.property) << app.name << " event #" << i;
        }
        // FRAM-visible state must match exactly at every step.
        ASSERT_EQ(interp[k]->current_state(), compiled[k]->current_state())
            << app.name << "/" << interp[k]->machine().name << " event #" << i;
        for (const auto& [var, unused] : interp[k]->machine().variables) {
          ASSERT_EQ(interp[k]->VarValue(var), compiled[k]->VarValue(var))
              << app.name << "/" << interp[k]->machine().name << " var " << var
              << " event #" << i;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialFuzzTest,
                         ::testing::Values(0x1u, 0x2u, 0xA5A5u, 0xDEADBEEFu, 0x123456789u));

// ---------------------------------------- batch VM differential fuzzing --
//
// The SoA batch engine (src/monitor/compiled_batch.h) must be lane-by-lane
// equivalent to the scalar CompiledMonitor: each lane consumes its own
// randomized event stream (lanes advance at different rates, sit out
// rounds, and restart paths independently) while a scalar monitor per lane
// replays the identical stream. Both the classified fast path (StepBatch)
// and the always-bytecode reference path (StepLaneGeneral) are checked
// against the scalar truth at every step.

class BatchDifferentialFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BatchDifferentialFuzzTest, BatchLanesEquivalentToScalarCompiled) {
  constexpr std::uint32_t kLanes = 8;
  for (FuzzApp& app : FuzzApps()) {
    auto parsed = SpecParser::Parse(app.spec);
    ASSERT_TRUE(parsed.ok()) << app.name;
    auto machines = LowerSpec(parsed.value(), app.graph, {});
    ASSERT_TRUE(machines.ok()) << app.name;

    const auto task_count = static_cast<std::uint64_t>(app.graph.task_count());
    const auto path_count = static_cast<std::uint64_t>(app.graph.path_count());

    for (const StateMachine& machine : machines.value()) {
      auto c = CompileStateMachine(machine);
      ASSERT_TRUE(c.ok()) << app.name << "/" << machine.name;
      auto shared = std::make_shared<const CompiledMachine>(std::move(c).value());
      BatchCompiledMonitor batch(shared, kLanes);
      BatchCompiledMonitor general(shared, kLanes);  // StepLaneGeneral reference

      std::vector<std::unique_ptr<CompiledMonitor>> scalar;
      for (std::uint32_t lane = 0; lane < kLanes; ++lane) {
        auto c2 = CompileStateMachine(machine);
        ASSERT_TRUE(c2.ok());
        scalar.push_back(std::make_unique<CompiledMonitor>(std::move(c2).value()));
      }

      // Every dispatch entry lands in exactly one handler class.
      std::uint64_t classified = 0;
      for (const std::uint64_t n : batch.ClassHistogram()) {
        classified += n;
      }
      EXPECT_EQ(classified, shared->dispatch.size()) << app.name << "/" << machine.name;

      std::vector<Rng> rng;
      for (std::uint32_t lane = 0; lane < kLanes; ++lane) {
        rng.emplace_back(GetParam() * 0x9E3779B9u + lane + 1);
      }
      std::vector<MonitorEvent> events(kLanes);
      std::vector<const MonitorEvent*> cursors(kLanes, nullptr);
      std::vector<BatchFailure> failures;
      std::vector<const BatchFailure*> fail_by_lane(kLanes, nullptr);
      std::vector<SimTime> now(kLanes, 0);
      std::vector<std::uint64_t> seq(kLanes, 0);

      for (int round = 0; round < 1200; ++round) {
        for (std::uint32_t lane = 0; lane < kLanes; ++lane) {
          if (rng[lane].NextDouble() < 0.02) {
            const PathId path = static_cast<PathId>(rng[lane].UniformU64(1, path_count));
            batch.OnPathRestartLane(lane, path);
            general.OnPathRestartLane(lane, path);
            scalar[lane]->OnPathRestart(path);
          }
          if (rng[lane].NextDouble() < 0.1) {
            cursors[lane] = nullptr;  // exhausted cursor this round
            continue;
          }
          now[lane] += rng[lane].UniformU64(1, 3 * kMinute);
          MonitorEvent& e = events[lane];
          e = MonitorEvent{};
          e.kind = rng[lane].NextDouble() < 0.5 ? EventKind::kStartTask : EventKind::kEndTask;
          e.task = static_cast<TaskId>(rng[lane].UniformU64(0, task_count - 1));
          e.timestamp = now[lane];
          e.path = static_cast<PathId>(rng[lane].UniformU64(1, path_count));
          e.seq = ++seq[lane];
          e.has_dep_data = e.kind == EventKind::kEndTask && rng[lane].NextDouble() < 0.5;
          e.dep_data = rng[lane].UniformDouble(-10.0, 50.0);
          e.energy_fraction = rng[lane].NextDouble();
          cursors[lane] = &e;
        }

        failures.clear();
        batch.StepBatch(cursors.data(), kLanes, &failures);
        std::fill(fail_by_lane.begin(), fail_by_lane.end(), nullptr);
        for (const BatchFailure& f : failures) {
          fail_by_lane[f.lane] = &f;
        }

        for (std::uint32_t lane = 0; lane < kLanes; ++lane) {
          if (cursors[lane] == nullptr) {
            EXPECT_EQ(fail_by_lane[lane], nullptr);
            continue;
          }
          MonitorVerdict vs;
          const bool fs = scalar[lane]->Step(events[lane], &vs);
          BatchVerdict vg;
          const bool fg = general.StepLaneGeneral(lane, events[lane], &vg);
          ASSERT_EQ(fail_by_lane[lane] != nullptr, fs)
              << app.name << "/" << machine.name << " lane " << lane << " round " << round;
          ASSERT_EQ(fg, fs) << app.name << "/" << machine.name << " lane " << lane;
          if (fs) {
            const BatchFailure& f = *fail_by_lane[lane];
            ASSERT_EQ(f.action, vs.action) << app.name << " round " << round;
            ASSERT_EQ(f.target_path, vs.target_path) << app.name << " round " << round;
            ASSERT_EQ(batch.fail_record(f.fail_index).property, vs.property)
                << app.name << " round " << round;
            ASSERT_EQ(vg.action, vs.action);
            ASSERT_EQ(vg.target_path, vs.target_path);
            ASSERT_EQ(general.fail_record(vg.fail_index).property, vs.property);
          }
          ASSERT_EQ(batch.lane_state(lane), scalar[lane]->current_state())
              << app.name << "/" << machine.name << " lane " << lane << " round " << round;
          ASSERT_EQ(general.lane_state(lane), scalar[lane]->current_state())
              << app.name << "/" << machine.name << " lane " << lane << " round " << round;
          for (const auto& [var, unused] : machine.variables) {
            ASSERT_EQ(batch.LaneVarValue(lane, var), scalar[lane]->VarValue(var))
                << app.name << "/" << machine.name << " var " << var << " lane " << lane;
            ASSERT_EQ(general.LaneVarValue(lane, var), scalar[lane]->VarValue(var))
                << app.name << "/" << machine.name << " var " << var << " lane " << lane;
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchDifferentialFuzzTest,
                         ::testing::Values(0x11u, 0xBEEFu, 0x5EED5EEDu));

TEST(BatchCompiledMonitorTest, HardResetLaneIsolatesNeighbours) {
  auto c = CompileStateMachine(CounterMachine());
  ASSERT_TRUE(c.ok());
  auto shared = std::make_shared<const CompiledMachine>(std::move(c).value());
  BatchCompiledMonitor batch(shared, 2);
  MonitorEvent start;
  start.kind = EventKind::kStartTask;
  start.task = 0;
  const MonitorEvent* cursors[2] = {&start, &start};
  std::vector<BatchFailure> failures;
  batch.StepBatch(cursors, 2, &failures);
  EXPECT_TRUE(failures.empty());
  EXPECT_EQ(batch.LaneVarValue(0, "i"), 1.0);
  EXPECT_EQ(batch.LaneVarValue(1, "i"), 1.0);
  batch.HardResetLane(0);
  EXPECT_EQ(batch.LaneVarValue(0, "i"), 0.0);
  EXPECT_EQ(batch.LaneVarValue(1, "i"), 1.0);  // neighbour untouched
}

TEST(BatchCompiledMonitorTest, FastClassesCoverAppDispatch) {
  // The whole point of the batch engine: the apps' hot-loop handlers must
  // summarize into the non-kGeneral classes.
  for (FuzzApp& app : FuzzApps()) {
    auto parsed = SpecParser::Parse(app.spec);
    ASSERT_TRUE(parsed.ok());
    auto machines = LowerSpec(parsed.value(), app.graph, {});
    ASSERT_TRUE(machines.ok());
    for (const StateMachine& machine : machines.value()) {
      auto c = CompileStateMachine(machine);
      ASSERT_TRUE(c.ok());
      auto shared = std::make_shared<const CompiledMachine>(std::move(c).value());
      BatchCompiledMonitor batch(shared, 1);
      const std::vector<std::uint64_t> hist = batch.ClassHistogram();
      ASSERT_EQ(hist.size(), 5u);
      std::uint64_t fast = 0;
      for (std::size_t i = 0; i + 1 < hist.size(); ++i) {
        fast += hist[i];
      }
      EXPECT_GT(fast, 0u) << app.name << "/" << machine.name;
    }
  }
}

// ------------------------------------ per-class and cohort-shape fuzzing --
//
// Synthetic machines built so that ONE handler class takes all dispatched
// traffic, mirroring bench/batch_step.cc: if the compiler stops
// classifying a shape into its intended class, the ClassOf assertions here
// fail before any timing ever runs. Each machine is then fuzzed
// differentially (StepBatch vs StepLaneGeneral vs scalar CompiledMonitor),
// which exercises the vectorized kernel for that class specifically —
// with and without ARTEMIS_SIMD, since tools/ci.sh builds this suite both
// ways.

// S0 <-> S1 on start(0), guard-free, empty body: kCommit.
StateMachine CommitMachine() {
  StateMachine m;
  m.name = "fuzz_commit";
  m.property_label = "fuzz_commit";
  m.states = {"S0", "S1"};
  m.initial = "S0";
  Transition fwd;
  fwd.from = "S0";
  fwd.to = "S1";
  fwd.trigger = TriggerKind::kStartTask;
  fwd.task = 0;
  Transition back = fwd;
  back.from = "S1";
  back.to = "S0";
  m.transitions = {fwd, back};
  return m;
}

// Same shape plus `t0 = event.timestamp`: kStoreFieldCommit.
StateMachine StoreFieldMachine() {
  StateMachine m = CommitMachine();
  m.name = "fuzz_store";
  m.property_label = "fuzz_store";
  m.variables = {{"t0", 0.0}};
  for (Transition& t : m.transitions) {
    t.body = {Assign("t0", Field(EventField::kTimestamp))};
  }
  return m;
}

// `(event.timestamp - t0) >= 100` guard, empty body, single candidate:
// kGuardElapsedCommit.
StateMachine GuardElapsedMachine() {
  StateMachine m = CommitMachine();
  m.name = "fuzz_guard";
  m.property_label = "fuzz_guard";
  m.variables = {{"t0", 0.0}};
  for (Transition& t : m.transitions) {
    t.guard = Bin(BinOp::kGe,
                  Bin(BinOp::kSub, Field(EventField::kTimestamp), Var("t0")),
                  Const(100));
  }
  return m;
}

using HandlerClass = BatchCompiledMonitor::HandlerClass;

TEST(BatchClassTest, SyntheticShapesClassifyAsIntended) {
  struct Case {
    StateMachine machine;
    HandlerClass expected;
  };
  const Case cases[] = {
      {CommitMachine(), HandlerClass::kCommit},
      {StoreFieldMachine(), HandlerClass::kStoreFieldCommit},
      {GuardElapsedMachine(), HandlerClass::kGuardElapsedCommit},
      {CounterMachine(), HandlerClass::kGeneral},
  };
  for (const Case& c : cases) {
    auto compiled = CompileStateMachine(c.machine);
    ASSERT_TRUE(compiled.ok()) << c.machine.name;
    auto shared = std::make_shared<const CompiledMachine>(std::move(compiled).value());
    BatchCompiledMonitor batch(shared, 1);
    EXPECT_EQ(batch.ClassOf(0, EventKind::kStartTask, 0), c.expected) << c.machine.name;
    // Columns no transition triggers on are provably self-loops — and for
    // the commit-family machines (no anyEvent fallback, start(0) only)
    // every end-task column is statically dead.
    EXPECT_EQ(batch.ClassOf(0, EventKind::kEndTask, 0), HandlerClass::kSelfLoop)
        << c.machine.name;
    if (c.expected != HandlerClass::kGeneral) {
      EXPECT_TRUE(batch.ColumnDead(EventKind::kEndTask, 0)) << c.machine.name;
      EXPECT_TRUE(batch.ColumnDead(EventKind::kEndTask, 7)) << c.machine.name;
      EXPECT_FALSE(batch.ColumnDead(EventKind::kStartTask, 0)) << c.machine.name;
    }
  }
  // CounterMachine's S1 takes anyEvent, so no column is dead machine-wide.
  auto compiled = CompileStateMachine(CounterMachine());
  ASSERT_TRUE(compiled.ok());
  BatchCompiledMonitor counter(
      std::make_shared<const CompiledMachine>(std::move(compiled).value()), 1);
  EXPECT_EQ(counter.dead_column_count(), 0u);
}

class BatchClassFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BatchClassFuzzTest, EveryClassKernelMatchesScalarLaneByLane) {
  constexpr std::uint32_t kLanes = 8;
  const StateMachine machines[] = {CommitMachine(), StoreFieldMachine(),
                                   GuardElapsedMachine(), CounterMachine()};
  for (const StateMachine& machine : machines) {
    auto c = CompileStateMachine(machine);
    ASSERT_TRUE(c.ok()) << machine.name;
    auto shared = std::make_shared<const CompiledMachine>(std::move(c).value());
    BatchCompiledMonitor batch(shared, kLanes);
    BatchCompiledMonitor general(shared, kLanes);

    std::vector<std::unique_ptr<CompiledMonitor>> scalar;
    for (std::uint32_t lane = 0; lane < kLanes; ++lane) {
      auto c2 = CompileStateMachine(machine);
      ASSERT_TRUE(c2.ok());
      scalar.push_back(std::make_unique<CompiledMonitor>(std::move(c2).value()));
    }

    std::vector<Rng> rng;
    for (std::uint32_t lane = 0; lane < kLanes; ++lane) {
      rng.emplace_back(GetParam() * 0x9E3779B9u + lane + 17);
    }
    std::vector<MonitorEvent> events(kLanes);
    std::vector<const MonitorEvent*> cursors(kLanes, nullptr);
    std::vector<BatchFailure> failures;
    std::vector<SimTime> now(kLanes, 0);
    for (int round = 0; round < 800; ++round) {
      for (std::uint32_t lane = 0; lane < kLanes; ++lane) {
        if (rng[lane].NextDouble() < 0.1) {
          cursors[lane] = nullptr;
          continue;
        }
        // Small timestamp increments so the elapsed guard fails often:
        // both branches of the fused guard kernel get traffic.
        now[lane] += rng[lane].UniformU64(1, 150);
        MonitorEvent& e = events[lane];
        e = MonitorEvent{};
        e.kind =
            rng[lane].NextDouble() < 0.7 ? EventKind::kStartTask : EventKind::kEndTask;
        e.task = static_cast<TaskId>(rng[lane].UniformU64(0, 2));
        e.timestamp = now[lane];
        e.path = 1;
        e.seq = static_cast<std::uint64_t>(round) + 1;
        cursors[lane] = &e;
      }
      failures.clear();
      batch.StepBatch(cursors.data(), kLanes, &failures);
      std::size_t fi = 0;
      for (std::uint32_t lane = 0; lane < kLanes; ++lane) {
        if (cursors[lane] == nullptr) {
          continue;
        }
        MonitorVerdict vs;
        const bool fs = scalar[lane]->Step(events[lane], &vs);
        BatchVerdict vg;
        const bool fg = general.StepLaneGeneral(lane, events[lane], &vg);
        ASSERT_EQ(fg, fs) << machine.name << " lane " << lane << " round " << round;
        const bool fb = fi < failures.size() && failures[fi].lane == lane;
        ASSERT_EQ(fb, fs) << machine.name << " lane " << lane << " round " << round;
        if (fs) {
          ASSERT_EQ(failures[fi].action, vs.action) << machine.name;
          ++fi;
        }
        ASSERT_EQ(batch.lane_state(lane), scalar[lane]->current_state())
            << machine.name << " lane " << lane << " round " << round;
        for (const auto& [var, unused] : machine.variables) {
          ASSERT_EQ(batch.LaneVarValue(lane, var), scalar[lane]->VarValue(var))
              << machine.name << " var " << var << " lane " << lane << " round " << round;
        }
      }
      ASSERT_EQ(fi, failures.size()) << machine.name << " round " << round;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchClassFuzzTest,
                         ::testing::Values(0x21u, 0xFACEu, 0x7777777u));

// Cohort-boundary shapes: the counting-sort partition has three regimes —
// one dense cohort (all lanes share a state, kernel runs index-free),
// strided cohorts (alternating states), and singleton cohorts (a cohort
// of exactly one lane). Each shape is set up deterministically and the
// stepped result compared against scalar truth.
TEST(BatchCohortShapeTest, DenseAlternatingAndSingletonCohorts) {
  constexpr std::uint32_t kLanes = 8;
  auto c = CompileStateMachine(StoreFieldMachine());
  ASSERT_TRUE(c.ok());
  auto shared = std::make_shared<const CompiledMachine>(std::move(c).value());

  MonitorEvent start;
  start.kind = EventKind::kStartTask;
  start.task = 0;
  start.path = 1;

  const auto check_against_scalar = [&](BatchCompiledMonitor& batch,
                                        const std::vector<int>& prior_steps) {
    for (std::uint32_t lane = 0; lane < kLanes; ++lane) {
      auto c2 = CompileStateMachine(StoreFieldMachine());
      ASSERT_TRUE(c2.ok());
      CompiledMonitor ref(std::move(c2).value());
      MonitorVerdict verdict;
      for (int i = 0; i < prior_steps[lane]; ++i) {
        MonitorEvent e = start;
        e.timestamp = 10 * (i + 1);
        ref.Step(e, &verdict);
      }
      ASSERT_EQ(batch.lane_state(lane), ref.current_state()) << "lane " << lane;
      ASSERT_EQ(batch.LaneVarValue(lane, "t0"), ref.VarValue("t0")) << "lane " << lane;
    }
  };

  const auto run_shape = [&](const std::vector<int>& warmup) {
    BatchCompiledMonitor batch(shared, kLanes);
    std::vector<MonitorEvent> events(kLanes);
    std::vector<const MonitorEvent*> cursors(kLanes, nullptr);
    std::vector<BatchFailure> failures;
    int max_warm = 0;
    for (const int w : warmup) {
      max_warm = std::max(max_warm, w);
    }
    std::vector<int> steps(kLanes, 0);
    for (int round = 0; round < max_warm + 1; ++round) {
      for (std::uint32_t lane = 0; lane < kLanes; ++lane) {
        // Warm up each lane its own number of rounds, then one final round
        // steps everyone — that final pass is the shaped partition.
        const bool live = round < warmup[lane] || round == max_warm;
        if (!live) {
          cursors[lane] = nullptr;
          continue;
        }
        events[lane] = start;
        events[lane].timestamp = 10 * (steps[lane] + 1);
        cursors[lane] = &events[lane];
        ++steps[lane];
      }
      failures.clear();
      batch.StepBatch(cursors.data(), kLanes, &failures);
      EXPECT_TRUE(failures.empty());
    }
    check_against_scalar(batch, steps);
  };

  run_shape({0, 0, 0, 0, 0, 0, 0, 0});  // dense: one cohort, all lanes S0
  run_shape({1, 0, 1, 0, 1, 0, 1, 0});  // alternating: two strided cohorts
  run_shape({0, 0, 0, 1, 0, 0, 0, 0});  // singleton: lone S1 cohort
  run_shape({1, 1, 1, 0, 1, 1, 1, 1});  // singleton at the other boundary
}

// StepBatchLanes (the fleet feed's lane-list entry point) must be exactly
// StepBatch restricted to the listed lanes: same states, same slots, same
// failures in the same order — across every app machine, including the
// path-scoped ones, with lanes randomly dead or out of scope.
class BatchLaneListFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BatchLaneListFuzzTest, StepBatchLanesMatchesStepBatch) {
  constexpr std::uint32_t kLanes = 16;
  for (FuzzApp& app : FuzzApps()) {
    auto parsed = SpecParser::Parse(app.spec);
    ASSERT_TRUE(parsed.ok()) << app.name;
    auto machines = LowerSpec(parsed.value(), app.graph, {});
    ASSERT_TRUE(machines.ok()) << app.name;
    const auto task_count = static_cast<std::uint64_t>(app.graph.task_count());
    const auto path_count = static_cast<std::uint64_t>(app.graph.path_count());

    for (const StateMachine& machine : machines.value()) {
      auto c = CompileStateMachine(machine);
      ASSERT_TRUE(c.ok()) << app.name << "/" << machine.name;
      auto shared = std::make_shared<const CompiledMachine>(std::move(c).value());
      BatchCompiledMonitor full(shared, kLanes);
      BatchCompiledMonitor listed(shared, kLanes);
      const PathId scope = shared->path_scope;

      Rng rng(GetParam() * 0x51ED2705u + shared->path_scope + 3);
      std::vector<MonitorEvent> events(kLanes);
      std::vector<const MonitorEvent*> cursors(kLanes, nullptr);
      std::vector<std::uint32_t> lane_list;
      std::vector<BatchFailure> f_full, f_listed;
      SimTime now = 0;
      for (int round = 0; round < 600; ++round) {
        lane_list.clear();
        for (std::uint32_t lane = 0; lane < kLanes; ++lane) {
          if (rng.NextDouble() < 0.2) {
            cursors[lane] = nullptr;
            continue;
          }
          now += rng.UniformU64(1, kMinute);
          MonitorEvent& e = events[lane];
          e = MonitorEvent{};
          e.kind = rng.NextDouble() < 0.5 ? EventKind::kStartTask : EventKind::kEndTask;
          e.task = static_cast<TaskId>(rng.UniformU64(0, task_count - 1));
          e.timestamp = now;
          e.path = static_cast<PathId>(rng.UniformU64(1, path_count));
          e.seq = static_cast<std::uint64_t>(round) + 1;
          e.has_dep_data = e.kind == EventKind::kEndTask && rng.NextDouble() < 0.5;
          e.dep_data = rng.UniformDouble(-10.0, 50.0);
          e.energy_fraction = rng.NextDouble();
          cursors[lane] = &e;
          // The fleet feed's filter: live lanes whose event is in scope,
          // in ascending lane order.
          if (scope == kNoPath || e.path == scope) {
            lane_list.push_back(lane);
          }
        }
        f_full.clear();
        f_listed.clear();
        full.StepBatch(cursors.data(), kLanes, &f_full);
        listed.StepBatchLanes(cursors.data(), lane_list.data(),
                              static_cast<std::uint32_t>(lane_list.size()), &f_listed);
        ASSERT_EQ(f_full.size(), f_listed.size())
            << app.name << "/" << machine.name << " round " << round;
        for (std::size_t i = 0; i < f_full.size(); ++i) {
          ASSERT_EQ(f_full[i].lane, f_listed[i].lane) << app.name << "/" << machine.name;
          ASSERT_EQ(f_full[i].action, f_listed[i].action);
          ASSERT_EQ(f_full[i].target_path, f_listed[i].target_path);
        }
        for (std::uint32_t lane = 0; lane < kLanes; ++lane) {
          ASSERT_EQ(full.lane_state(lane), listed.lane_state(lane))
              << app.name << "/" << machine.name << " lane " << lane << " round " << round;
          for (const auto& [var, unused] : machine.variables) {
            ASSERT_EQ(full.LaneVarValue(lane, var), listed.LaneVarValue(lane, var))
                << app.name << "/" << machine.name << " var " << var << " lane " << lane;
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchLaneListFuzzTest,
                         ::testing::Values(0x31u, 0xC0FFEEu));

TEST(BatchTrafficTest, CountersAttributeEventsToDispatchColumns) {
  auto c = CompileStateMachine(CommitMachine());
  ASSERT_TRUE(c.ok());
  auto shared = std::make_shared<const CompiledMachine>(std::move(c).value());
  BatchCompiledMonitor batch(shared, 2);
  EXPECT_TRUE(batch.ClassTraffic().empty() ||
              batch.ClassTraffic() == std::vector<std::uint64_t>(5, 0));
  batch.EnableTraffic();

  MonitorEvent start;
  start.kind = EventKind::kStartTask;
  start.task = 0;
  start.path = 1;
  MonitorEvent other;
  other.kind = EventKind::kEndTask;
  other.task = 5;  // above max_task: lands in the padded any-task column
  other.path = 1;
  const MonitorEvent* cursors[2];
  std::vector<BatchFailure> failures;
  cursors[0] = cursors[1] = &start;
  batch.StepBatch(cursors, 2, &failures);  // both lanes commit S0 -> S1
  batch.StepBatch(cursors, 2, &failures);  // both lanes commit S1 -> S0
  cursors[0] = cursors[1] = &other;
  batch.StepBatch(cursors, 2, &failures);  // both lanes self-loop

  const std::vector<std::uint64_t> by_class = batch.ClassTraffic();
  ASSERT_EQ(by_class.size(), BatchCompiledMonitor::kNumClasses);
  EXPECT_EQ(by_class[static_cast<std::size_t>(HandlerClass::kCommit)], 4u);
  EXPECT_EQ(by_class[static_cast<std::size_t>(HandlerClass::kSelfLoop)], 2u);
  std::uint64_t total = 0;
  for (const std::uint64_t n : by_class) {
    total += n;
  }
  EXPECT_EQ(total, 6u);  // every stepped event attributed exactly once
}

// The MonitorSet-level view: the compiled backend builds one monitor per
// property and produces the same verdict stream as the interpreted set.
TEST(CompiledBackendTest, BuildMonitorSetParity) {
  for (FuzzApp& app : FuzzApps()) {
    auto parsed = SpecParser::Parse(app.spec);
    ASSERT_TRUE(parsed.ok());
    auto interp_set = BuildMonitorSet(parsed.value(), app.graph, MonitorBackend::kInterpreted);
    auto compiled_set = BuildMonitorSet(parsed.value(), app.graph, MonitorBackend::kCompiled);
    ASSERT_TRUE(interp_set.ok()) << app.name;
    ASSERT_TRUE(compiled_set.ok()) << app.name;
    EXPECT_EQ(interp_set.value()->size(), compiled_set.value()->size()) << app.name;
    EXPECT_EQ(interp_set.value()->FramBytes(), compiled_set.value()->FramBytes()) << app.name;
  }
}

// Fleet's capture twins charge MonitorSet::CompiledCharges instead of
// building a set; those charges must be the built set's to the byte.
TEST(CompiledBackendTest, CompiledChargesMatchTheBuiltSet) {
  const CostModel& costs = DefaultCostModel();
  for (FuzzApp& app : FuzzApps()) {
    auto parsed = SpecParser::Parse(app.spec);
    ASSERT_TRUE(parsed.ok());
    auto lowered = LowerSpec(parsed.value(), app.graph);
    ASSERT_TRUE(lowered.ok()) << app.name;
    std::vector<CompiledMachine> machines;
    for (const StateMachine& machine : lowered.value()) {
      auto compiled = CompileStateMachine(machine);
      ASSERT_TRUE(compiled.ok()) << app.name;
      machines.push_back(std::move(compiled).value());
    }
    auto set = BuildMonitorSet(parsed.value(), app.graph, MonitorBackend::kCompiled);
    ASSERT_TRUE(set.ok()) << app.name;
    const MonitorCharges charges = MonitorSet::CompiledCharges(machines, costs);
    EXPECT_EQ(charges.fram_bytes, set.value()->FramBytes()) << app.name;
    ASSERT_EQ(charges.step_cycles.size(), set.value()->size()) << app.name;
    for (std::size_t i = 0; i < set.value()->size(); ++i) {
      EXPECT_EQ(charges.step_cycles[i], set.value()->monitor(i).StepCycles(costs)) << app.name;
    }
  }
}

}  // namespace
}  // namespace artemis
