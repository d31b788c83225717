// Tests for the intermediate language: expression/statement evaluation,
// machine validation, property lowering (the Figure 7 templates), and the
// model-to-text generators.
#include <gtest/gtest.h>

#include "src/apps/health_app.h"
#include "src/ir/codegen_c.h"
#include "src/ir/codegen_dot.h"
#include "src/ir/lowering.h"
#include "src/ir/state_machine.h"
#include "src/spec/parser.h"

namespace artemis {
namespace {

// ----------------------------------------------------------------- expr --

struct BinCase {
  BinOp op;
  double lhs, rhs, expected;
};

class BinOpTest : public ::testing::TestWithParam<BinCase> {};

TEST_P(BinOpTest, Evaluates) {
  const BinCase& c = GetParam();
  const ExprPtr expr = Bin(c.op, Const(c.lhs), Const(c.rhs));
  EXPECT_DOUBLE_EQ(EvalExpr(*expr, {}, MonitorEvent{}), c.expected);
}

INSTANTIATE_TEST_SUITE_P(
    Arithmetic, BinOpTest,
    ::testing::Values(BinCase{BinOp::kAdd, 2, 3, 5}, BinCase{BinOp::kSub, 2, 3, -1},
                      BinCase{BinOp::kMul, 2, 3, 6}, BinCase{BinOp::kDiv, 6, 3, 2},
                      BinCase{BinOp::kDiv, 6, 0, 0},  // Guarded division.
                      BinCase{BinOp::kLt, 2, 3, 1}, BinCase{BinOp::kLt, 3, 2, 0},
                      BinCase{BinOp::kLe, 3, 3, 1}, BinCase{BinOp::kGt, 3, 2, 1},
                      BinCase{BinOp::kGe, 2, 3, 0}, BinCase{BinOp::kEq, 3, 3, 1},
                      BinCase{BinOp::kNe, 3, 3, 0}, BinCase{BinOp::kAnd, 1, 0, 0},
                      BinCase{BinOp::kAnd, 1, 2, 1}, BinCase{BinOp::kOr, 0, 0, 0},
                      BinCase{BinOp::kOr, 0, 5, 1}));

TEST(ExprTest, VariablesAndUnknownsReadZero) {
  const VarEnv env{{"x", 7.0}};
  EXPECT_DOUBLE_EQ(EvalExpr(*Var("x"), env, MonitorEvent{}), 7.0);
  EXPECT_DOUBLE_EQ(EvalExpr(*Var("missing"), env, MonitorEvent{}), 0.0);
}

TEST(ExprTest, EventFields) {
  MonitorEvent e;
  e.timestamp = 123;
  e.dep_data = 36.5;
  e.has_dep_data = true;
  e.energy_fraction = 0.4;
  e.path = 2;
  EXPECT_DOUBLE_EQ(EvalExpr(*Field(EventField::kTimestamp), {}, e), 123.0);
  EXPECT_DOUBLE_EQ(EvalExpr(*Field(EventField::kDepData), {}, e), 36.5);
  EXPECT_DOUBLE_EQ(EvalExpr(*Field(EventField::kHasDepData), {}, e), 1.0);
  EXPECT_DOUBLE_EQ(EvalExpr(*Field(EventField::kEnergyFraction), {}, e), 0.4);
  EXPECT_DOUBLE_EQ(EvalExpr(*Field(EventField::kPath), {}, e), 2.0);
}

TEST(ExprTest, UnaryOps) {
  EXPECT_DOUBLE_EQ(EvalExpr(*Un(UnOp::kNot, Const(0)), {}, MonitorEvent{}), 1.0);
  EXPECT_DOUBLE_EQ(EvalExpr(*Un(UnOp::kNot, Const(3)), {}, MonitorEvent{}), 0.0);
  EXPECT_DOUBLE_EQ(EvalExpr(*Un(UnOp::kNeg, Const(3)), {}, MonitorEvent{}), -3.0);
}

TEST(ExprTest, RendersCSyntax) {
  const ExprPtr expr =
      Bin(BinOp::kGt, Bin(BinOp::kSub, Field(EventField::kTimestamp), Var("start")),
          Const(3000000.0));
  EXPECT_EQ(ExprToC(*expr), "((e->timestamp - m->start) > 3000000)");
}

TEST(StmtTest, AssignMutatesEnv) {
  VarEnv env{{"i", 1.0}};
  MonitorVerdict verdict;
  const bool failed = ExecStmts({Assign("i", Bin(BinOp::kAdd, Var("i"), Const(1.0)))}, &env,
                                MonitorEvent{}, &verdict);
  EXPECT_FALSE(failed);
  EXPECT_DOUBLE_EQ(env["i"], 2.0);
}

TEST(StmtTest, IfBranches) {
  VarEnv env{{"x", 0.0}};
  MonitorVerdict verdict;
  ExecStmts({If(Bin(BinOp::kGt, Const(2), Const(1)), {Assign("x", Const(1.0))},
                {Assign("x", Const(2.0))})},
            &env, MonitorEvent{}, &verdict);
  EXPECT_DOUBLE_EQ(env["x"], 1.0);
  ExecStmts({If(Bin(BinOp::kGt, Const(1), Const(2)), {Assign("x", Const(1.0))},
                {Assign("x", Const(2.0))})},
            &env, MonitorEvent{}, &verdict);
  EXPECT_DOUBLE_EQ(env["x"], 2.0);
}

TEST(StmtTest, FailFillsVerdict) {
  VarEnv env;
  MonitorVerdict verdict;
  // The verdict borrows its label from the statement, which must outlive it.
  const std::vector<StmtPtr> body = {Fail(ActionType::kSkipPath, 2, "p")};
  const bool failed = ExecStmts(body, &env, MonitorEvent{}, &verdict);
  EXPECT_TRUE(failed);
  EXPECT_EQ(verdict.action, ActionType::kSkipPath);
  EXPECT_EQ(verdict.target_path, 2u);
  EXPECT_EQ(verdict.property, "p");
}

TEST(CollectVarsTest, FindsAllReferences) {
  std::map<std::string, int> vars;
  CollectVars({Assign("a", Bin(BinOp::kAdd, Var("b"), Const(1))),
               If(Bin(BinOp::kLt, Var("c"), Const(2)), {Assign("d", Const(0))}, {})},
              &vars);
  EXPECT_EQ(vars.size(), 4u);
  EXPECT_TRUE(vars.count("a") && vars.count("b") && vars.count("c") && vars.count("d"));
}

// -------------------------------------------------------------- machine --

TEST(StateMachineTest, ValidateAcceptsWellFormed) {
  StateMachine m;
  m.name = "m";
  m.states = {"A", "B"};
  m.initial = "A";
  m.variables["x"] = 0.0;
  m.transitions.push_back(Transition{.from = "A",
                                     .to = "B",
                                     .trigger = TriggerKind::kStartTask,
                                     .task = 0,
                                     .guard = Bin(BinOp::kLt, Var("x"), Const(1)),
                                     .body = {Assign("x", Const(1))}});
  EXPECT_TRUE(m.Validate().ok());
}

TEST(StateMachineTest, ValidateRejectsUnknownStates) {
  StateMachine m;
  m.name = "m";
  m.states = {"A"};
  m.initial = "Z";
  EXPECT_FALSE(m.Validate().ok());
}

TEST(StateMachineTest, ValidateRejectsUndeclaredVariable) {
  StateMachine m;
  m.name = "m";
  m.states = {"A"};
  m.initial = "A";
  m.transitions.push_back(Transition{.from = "A",
                                     .to = "A",
                                     .trigger = TriggerKind::kAnyEvent,
                                     .task = kInvalidTask,
                                     .guard = Var("ghost"),
                                     .body = {}});
  EXPECT_FALSE(m.Validate().ok());
}

TEST(StateMachineTest, ValidateRejectsTasklessTrigger) {
  StateMachine m;
  m.name = "m";
  m.states = {"A"};
  m.initial = "A";
  m.transitions.push_back(Transition{.from = "A",
                                     .to = "A",
                                     .trigger = TriggerKind::kStartTask,
                                     .task = kInvalidTask,
                                     .guard = nullptr,
                                     .body = {}});
  EXPECT_FALSE(m.Validate().ok());
}

// ------------------------------------------------------------- lowering --

class LoweringTest : public ::testing::Test {
 protected:
  LoweringTest() : app_(BuildHealthApp()) {}

  StateMachine Lower(const std::string& block) {
    auto parsed = SpecParser::Parse(block);
    EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
    auto machine = LowerProperty(parsed.value().blocks[0].properties[0],
                                 parsed.value().blocks[0].task, app_.graph, {});
    EXPECT_TRUE(machine.ok()) << machine.status().ToString();
    return std::move(machine).value();
  }

  HealthApp app_;
};

TEST_F(LoweringTest, MaxTriesMatchesFigure7Shape) {
  const StateMachine m = Lower("accel: { maxTries: 10 onFail: skipPath; }");
  EXPECT_EQ(m.states, (std::vector<std::string>{"NotStarted", "Started"}));
  EXPECT_EQ(m.initial, "NotStarted");
  EXPECT_EQ(m.variables.size(), 1u);
  EXPECT_EQ(m.transitions.size(), 4u);
  EXPECT_EQ(m.anchor_task, app_.accel);
  EXPECT_TRUE(m.Validate().ok());
}

TEST_F(LoweringTest, MaxDurationHasAnyEventViolation) {
  const StateMachine m = Lower("send: { maxDuration: 100ms onFail: skipTask; }");
  bool any_event = false;
  for (const Transition& t : m.transitions) {
    any_event = any_event || t.trigger == TriggerKind::kAnyEvent;
  }
  EXPECT_TRUE(any_event);
  EXPECT_TRUE(m.reset_on_path_restart);
}

TEST_F(LoweringTest, MitdWithMaxAttemptHasEscalation) {
  const StateMachine m = Lower(
      "send: { MITD: 5min dpTask: accel onFail: restartPath maxAttempt: 3 "
      "onFail: skipPath Path: 2; }");
  EXPECT_EQ(m.states, (std::vector<std::string>{"WaitEndB", "WaitStartA"}));
  EXPECT_EQ(m.path_scope, 2u);
  // end(B) entry + end(B) refresh + in-time + end(A) reset + 2 escalation.
  EXPECT_EQ(m.transitions.size(), 6u);
}

TEST_F(LoweringTest, MitdWithoutMaxAttemptSingleViolation) {
  const StateMachine m =
      Lower("send: { MITD: 5min dpTask: accel onFail: restartPath Path: 2; }");
  EXPECT_EQ(m.transitions.size(), 5u);
}

TEST_F(LoweringTest, CollectAccumulatesByDefault) {
  const StateMachine m =
      Lower("calcAvg: { collect: 10 dpTask: bodyTemp onFail: restartPath; }");
  // No assignment of i inside the fail transition body.
  for (const Transition& t : m.transitions) {
    bool has_fail = false, resets = false;
    for (const StmtPtr& s : t.body) {
      has_fail = has_fail || s->kind == StmtKind::kFail;
      resets = resets || (s->kind == StmtKind::kAssign && s->var == "i" &&
                          s->value->kind == ExprKind::kConst && s->value->constant == 0.0);
    }
    EXPECT_FALSE(has_fail && resets) << "fail transition must not reset the counter";
  }
}

TEST_F(LoweringTest, CollectResetOnFailOption) {
  auto parsed =
      SpecParser::Parse("calcAvg: { collect: 10 dpTask: bodyTemp onFail: restartPath; }");
  LoweringOptions options;
  options.collect_reset_on_fail = true;
  auto machine =
      LowerProperty(parsed.value().blocks[0].properties[0], "calcAvg", app_.graph, options);
  ASSERT_TRUE(machine.ok());
  bool fail_resets = false;
  for (const Transition& t : machine.value().transitions) {
    bool has_fail = false, resets = false;
    for (const StmtPtr& s : t.body) {
      has_fail = has_fail || s->kind == StmtKind::kFail;
      resets = resets || s->kind == StmtKind::kAssign;
    }
    fail_resets = fail_resets || (has_fail && resets);
  }
  EXPECT_TRUE(fail_resets);
}

TEST_F(LoweringTest, LowerSpecProducesOneMachinePerProperty) {
  auto parsed = SpecParser::Parse(HealthAppSpec());
  auto machines = LowerSpec(parsed.value(), app_.graph, {});
  ASSERT_TRUE(machines.ok());
  EXPECT_EQ(machines.value().size(), parsed.value().PropertyCount());
  // Names are unique even with two collect properties on `send`.
  for (std::size_t i = 0; i < machines.value().size(); ++i) {
    for (std::size_t j = i + 1; j < machines.value().size(); ++j) {
      EXPECT_NE(machines.value()[i].name, machines.value()[j].name);
    }
  }
  for (const StateMachine& m : machines.value()) {
    EXPECT_TRUE(m.Validate().ok()) << m.name;
  }
}

TEST_F(LoweringTest, ToStringMentionsStatesAndGuards) {
  const StateMachine m = Lower("accel: { maxTries: 10 onFail: skipPath; }");
  const std::string text = m.ToString();
  EXPECT_NE(text.find("NotStarted"), std::string::npos);
  EXPECT_NE(text.find("startTask"), std::string::npos);
  EXPECT_NE(text.find("m->i"), std::string::npos);
}

// -------------------------------------------------------------- codegen --

class CodegenTest : public ::testing::Test {
 protected:
  CodegenTest() : app_(BuildHealthApp()) {
    auto parsed = SpecParser::Parse(HealthAppSpec());
    machines_ = std::move(LowerSpec(parsed.value(), app_.graph, {})).value();
  }

  HealthApp app_;
  std::vector<StateMachine> machines_;
};

TEST_F(CodegenTest, UnitHasFigure10Structure) {
  const CCodeGenerator generator;
  const std::string code = generator.Generate(machines_, app_.graph);
  EXPECT_NE(code.find("callMonitor"), std::string::npos);
  EXPECT_NE(code.find("_begin(callMonitor)"), std::string::npos);
  EXPECT_NE(code.find("__fram"), std::string::npos);
  EXPECT_NE(code.find("#define TASK_send"), std::string::npos);
  EXPECT_NE(code.find("monitorPathRestart"), std::string::npos);
  // One step function per property machine.
  for (const StateMachine& m : machines_) {
    EXPECT_NE(code.find(m.name + "_step"), std::string::npos) << m.name;
  }
}

TEST_F(CodegenTest, MachineEmitsGuardsAndActions) {
  const CCodeGenerator generator;
  // Find the MITD machine.
  const StateMachine* mitd = nullptr;
  for (const StateMachine& m : machines_) {
    if (m.property_label.find("MITD") != std::string::npos) {
      mitd = &m;
    }
  }
  ASSERT_NE(mitd, nullptr);
  const std::string code = generator.GenerateMachine(*mitd, app_.graph);
  EXPECT_NE(code.find("e->kind == EndTask && e->task == TASK_accel"), std::string::npos);
  EXPECT_NE(code.find("ACTION_restartPath"), std::string::npos);
  EXPECT_NE(code.find("ACTION_skipPath"), std::string::npos);
  EXPECT_NE(code.find("e->path != 2"), std::string::npos);  // Path scope guard.
}

TEST_F(CodegenTest, ImmortalMacrosCanBeDisabled) {
  CodegenOptions options;
  options.immortal_macros = false;
  const CCodeGenerator generator(options);
  const std::string code = generator.Generate(machines_, app_.graph);
  EXPECT_EQ(code.find("_begin("), std::string::npos);
  EXPECT_EQ(code.find("immortal.h"), std::string::npos);
}

TEST_F(CodegenTest, TextEstimateGrowsWithMachines) {
  const std::size_t all = CCodeGenerator::EstimateTextBytes(machines_);
  const std::vector<StateMachine> one(machines_.begin(), machines_.begin() + 1);
  const std::size_t single = CCodeGenerator::EstimateTextBytes(one);
  EXPECT_GT(all, single);
  EXPECT_GT(single, 0u);
}

TEST_F(CodegenTest, DotOutputHasStatesAndLabels) {
  const std::string dot = MachineToDot(machines_[0], app_.graph);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("peripheries=2"), std::string::npos);  // Initial state marker.
  const std::string all = MachinesToDot(machines_, app_.graph);
  EXPECT_NE(all.find("subgraph cluster_0"), std::string::npos);
  EXPECT_NE(all.find("MITD"), std::string::npos);
}

}  // namespace
}  // namespace artemis
