// Unit tests for the FSM IR static analyzer: the interval domain, the
// per-machine facts, each of the passes (triggering and non-triggering
// machines), the Section 7 consistency cases they cover, diagnostics
// rendering, and the end-to-end guarantee that every shipped example spec
// analyzes clean.
#include <gtest/gtest.h>

#include <cmath>

#include "src/analysis/analyzer.h"
#include "src/analysis/system_passes.h"
#include "src/apps/ar_app.h"
#include "src/apps/greenhouse_app.h"
#include "src/apps/health_app.h"
#include "src/ir/lowering.h"
#include "src/spec/mayfly_frontend.h"
#include "src/spec/parser.h"
#include "src/spec/validator.h"

namespace artemis {
namespace {

// ---- fixtures -----------------------------------------------------------

// Two tasks on one path: taskA then taskB.
AppGraph TwoTaskGraph() {
  AppGraph graph;
  TaskDef a;
  a.name = "taskA";
  TaskDef b;
  b.name = "taskB";
  const TaskId ta = graph.AddTask(std::move(a));
  const TaskId tb = graph.AddTask(std::move(b));
  graph.AddPath({ta, tb});
  return graph;
}

Transition MakeTransition(const std::string& from, const std::string& to, TriggerKind trigger,
                          TaskId task, ExprPtr guard = nullptr,
                          std::vector<StmtPtr> body = {}) {
  Transition t;
  t.from = from;
  t.to = to;
  t.trigger = trigger;
  t.task = task;
  t.guard = std::move(guard);
  t.body = std::move(body);
  return t;
}

// A minimal live machine: one state, one counting self-loop on start(taskA).
StateMachine CounterMachine() {
  StateMachine m;
  m.name = "counter";
  m.property_label = "counter(taskA)";
  m.states = {"S0"};
  m.initial = "S0";
  m.variables["i"] = 0.0;
  m.anchor_task = 0;
  m.transitions.push_back(MakeTransition(
      "S0", "S0", TriggerKind::kStartTask, 0, Bin(BinOp::kLt, Var("i"), Const(3.0)),
      {Assign("i", Bin(BinOp::kAdd, Var("i"), Const(1.0)))}));
  m.transitions.push_back(MakeTransition("S0", "S0", TriggerKind::kStartTask, 0,
                                         Bin(BinOp::kGe, Var("i"), Const(3.0)),
                                         {Assign("i", Const(0.0))}));
  return m;
}

std::vector<Diagnostic> Analyze(const StateMachine& machine, const AppGraph& graph,
                                const AnalysisOptions& options = {}) {
  return AnalyzeMachines({machine}, graph, options).diagnostics();
}

int CountCode(const std::vector<Diagnostic>& diagnostics, const std::string& code) {
  int count = 0;
  for (const Diagnostic& d : diagnostics) {
    count += d.code == code ? 1 : 0;
  }
  return count;
}

// ---- interval domain ----------------------------------------------------

TEST(IntervalTest, JoinMeetAndEmptiness) {
  const Interval a{0.0, 2.0};
  const Interval b{5.0, 7.0};
  EXPECT_TRUE(MeetIntervals(a, b).IsEmpty());
  const Interval hull = JoinIntervals(a, b);
  EXPECT_EQ(hull.lo, 0.0);
  EXPECT_EQ(hull.hi, 7.0);
  EXPECT_TRUE(SameInterval(MeetIntervals(a, Interval{1.0, 9.0}), Interval{1.0, 2.0}));
}

TEST(IntervalTest, TriBoolConnectives) {
  EXPECT_EQ(TriAnd(TriBool::kFalse, TriBool::kUnknown), TriBool::kFalse);
  EXPECT_EQ(TriAnd(TriBool::kTrue, TriBool::kUnknown), TriBool::kUnknown);
  EXPECT_EQ(TriOr(TriBool::kTrue, TriBool::kUnknown), TriBool::kTrue);
  EXPECT_EQ(TriNot(TriBool::kUnknown), TriBool::kUnknown);
}

TEST(IntervalTest, EvalIntervalArithmetic) {
  IntervalEnv env;
  env["x"] = Interval{1.0, 3.0};
  const auto expr = Bin(BinOp::kAdd, Bin(BinOp::kMul, Var("x"), Const(2.0)), Const(1.0));
  const Interval v = EvalInterval(*expr, env);
  EXPECT_EQ(v.lo, 3.0);
  EXPECT_EQ(v.hi, 7.0);
}

TEST(IntervalTest, EvalPredicateTriState) {
  IntervalEnv env;
  env["x"] = Interval{0.0, 5.0};
  EXPECT_EQ(EvalPredicate(*Bin(BinOp::kLt, Var("x"), Const(0.0)), env), TriBool::kFalse);
  EXPECT_EQ(EvalPredicate(*Bin(BinOp::kGe, Var("x"), Const(0.0)), env), TriBool::kTrue);
  EXPECT_EQ(EvalPredicate(*Bin(BinOp::kLt, Var("x"), Const(3.0)), env), TriBool::kUnknown);
  // And short-circuits on a definitely-false conjunct.
  const auto conj = Bin(BinOp::kAnd, Bin(BinOp::kLt, Var("x"), Const(3.0)),
                        Bin(BinOp::kLt, Var("x"), Const(0.0)));
  EXPECT_EQ(EvalPredicate(*conj, env), TriBool::kFalse);
}

TEST(IntervalTest, ProvablyDisjointSplitsOnSharedExpression) {
  const auto lt = Bin(BinOp::kLt, Var("i"), Const(3.0));
  const auto ge = Bin(BinOp::kGe, Var("i"), Const(3.0));
  const auto lt5 = Bin(BinOp::kLt, Var("i"), Const(5.0));
  EXPECT_TRUE(ProvablyDisjoint(lt, ge));
  EXPECT_FALSE(ProvablyDisjoint(lt, lt5));
  EXPECT_FALSE(ProvablyDisjoint(nullptr, ge));  // missing guard = always true
  // Composite shared subexpression: ts - start <= D vs ts - start > D.
  const auto delta = Bin(BinOp::kSub, Field(EventField::kTimestamp), Var("start"));
  EXPECT_TRUE(ProvablyDisjoint(Bin(BinOp::kLe, delta, Const(100.0)),
                               Bin(BinOp::kGt, delta, Const(100.0))));
}

TEST(IntervalTest, DisjointBoundsRespectsOpenEndpoints) {
  const Bound lt3{-1e308, 3.0, false, true};  // x < 3
  const Bound ge3{3.0, 1e308, false, false};  // x >= 3
  const Bound le3{-1e308, 3.0, false, false};  // x <= 3
  EXPECT_TRUE(DisjointBounds(lt3, ge3));
  EXPECT_FALSE(DisjointBounds(le3, ge3));  // both admit x == 3
}

TEST(IntervalTest, ExprToTextRendersBareVariables) {
  const auto guard = Bin(
      BinOp::kAnd,
      Bin(BinOp::kGt, Bin(BinOp::kSub, Field(EventField::kTimestamp), Var("endB")),
          Const(300.0)),
      Bin(BinOp::kLt, Var("att"), Const(2.0)));
  EXPECT_EQ(ExprToText(*guard), "(((ts - endB) > 300) && (att < 2))");
}

// ---- machine facts ------------------------------------------------------

TEST(MachineFactsTest, ScopedMachineSeesOnlyItsPath) {
  AppGraph graph;
  TaskDef a;
  a.name = "taskA";
  TaskDef b;
  b.name = "taskB";
  const TaskId ta = graph.AddTask(std::move(a));
  const TaskId tb = graph.AddTask(std::move(b));
  graph.AddPath({ta});
  graph.AddPath({tb});

  StateMachine m = CounterMachine();
  m.anchor_task = ta;
  m.path_scope = 2;  // taskB only; start(taskA) is unproducible
  const MachineFacts facts = ComputeMachineFacts(m, graph);
  EXPECT_EQ(facts.scope_tasks.size(), 1u);
  EXPECT_FALSE(facts.producible[0]);
  EXPECT_FALSE(facts.producible[1]);
}

TEST(MachineFactsTest, FixpointBoundsGuardedCounter) {
  const AppGraph graph = TwoTaskGraph();
  const MachineFacts facts = ComputeMachineFacts(CounterMachine(), graph);
  // i is incremented only under i < 3 and reset to 0 otherwise, so its range
  // stays finite: [0, 3] with the closed-bound approximation of i < 3.
  const Interval i = facts.env.at("i");
  EXPECT_EQ(i.lo, 0.0);
  EXPECT_LE(i.hi, 4.0);
  EXPECT_TRUE(facts.reachable_state[0]);
  EXPECT_TRUE(facts.reachable_transition[0]);
}

TEST(MachineFactsTest, UnboundedCounterWidensToInfinity) {
  const AppGraph graph = TwoTaskGraph();
  StateMachine m = CounterMachine();
  m.transitions.clear();
  m.transitions.push_back(
      MakeTransition("S0", "S0", TriggerKind::kStartTask, 0, nullptr,
                     {Assign("i", Bin(BinOp::kAdd, Var("i"), Const(1.0)))}));
  const MachineFacts facts = ComputeMachineFacts(m, graph);
  EXPECT_TRUE(std::isinf(facts.env.at("i").hi));
  EXPECT_EQ(facts.env.at("i").lo, 0.0);
}

// ---- pass 1: reachability -----------------------------------------------

TEST(ReachabilityPassTest, FlagsOrphanState) {
  const AppGraph graph = TwoTaskGraph();
  StateMachine m = CounterMachine();
  m.states.push_back("Orphan");
  const std::vector<Diagnostic> diags = Analyze(m, graph);
  ASSERT_EQ(CountCode(diags, diag::kUnreachableState), 1);
  EXPECT_EQ(diags[0].state, "Orphan");
  EXPECT_EQ(diags[0].severity, DiagSeverity::kError);
}

TEST(ReachabilityPassTest, FlagsUnproducibleTrigger) {
  AppGraph graph;
  TaskDef a;
  a.name = "taskA";
  TaskDef b;
  b.name = "taskB";
  const TaskId ta = graph.AddTask(std::move(a));
  const TaskId tb = graph.AddTask(std::move(b));
  graph.AddPath({ta});
  graph.AddPath({tb});

  StateMachine m;
  m.name = "scoped";
  m.states = {"S0"};
  m.initial = "S0";
  m.anchor_task = ta;
  m.path_scope = 1;  // taskA only
  m.transitions.push_back(MakeTransition("S0", "S0", TriggerKind::kEndTask, tb));
  const std::vector<Diagnostic> diags = Analyze(m, graph);
  EXPECT_EQ(CountCode(diags, diag::kDeadTransition), 1);
}

TEST(ReachabilityPassTest, LiveMachineIsClean) {
  const AppGraph graph = TwoTaskGraph();
  EXPECT_TRUE(Analyze(CounterMachine(), graph).empty());
}

// ---- pass 2: guard satisfiability ---------------------------------------

TEST(GuardSatisfiabilityPassTest, FlagsAlwaysFalseGuard) {
  const AppGraph graph = TwoTaskGraph();
  StateMachine m = CounterMachine();
  // i stays in [0, 3]; i > 100 can never hold.
  m.transitions.push_back(MakeTransition("S0", "S0", TriggerKind::kEndTask, 0,
                                         Bin(BinOp::kGt, Var("i"), Const(100.0))));
  const std::vector<Diagnostic> diags = Analyze(m, graph);
  ASSERT_EQ(CountCode(diags, diag::kUnsatisfiableGuard), 1);
  EXPECT_NE(diags[0].note.find("i in"), std::string::npos);
}

TEST(GuardSatisfiabilityPassTest, FlagsShadowingAlwaysTrueGuard) {
  const AppGraph graph = TwoTaskGraph();
  StateMachine m;
  m.name = "shadow";
  m.states = {"S0"};
  m.initial = "S0";
  m.variables["i"] = 0.0;
  m.anchor_task = 0;
  // i >= 0 always holds, so the second end(taskA) transition is dead.
  m.transitions.push_back(MakeTransition("S0", "S0", TriggerKind::kEndTask, 0,
                                         Bin(BinOp::kGe, Var("i"), Const(0.0))));
  m.transitions.push_back(MakeTransition("S0", "S0", TriggerKind::kEndTask, 0, nullptr,
                                         {Assign("i", Const(1.0))}));
  const std::vector<Diagnostic> diags = Analyze(m, graph);
  EXPECT_EQ(CountCode(diags, diag::kShadowingGuard), 1);
  // The same pair must not also be reported as an ART005 overlap.
  EXPECT_EQ(CountCode(diags, diag::kOverlappingTransitions), 0);
}

TEST(GuardSatisfiabilityPassTest, SatisfiableGuardIsClean) {
  const AppGraph graph = TwoTaskGraph();
  const std::vector<Diagnostic> diags = Analyze(CounterMachine(), graph);
  EXPECT_EQ(CountCode(diags, diag::kUnsatisfiableGuard), 0);
}

// ---- pass 3: determinism ------------------------------------------------

TEST(DeterminismPassTest, FlagsOverlappingGuards) {
  const AppGraph graph = TwoTaskGraph();
  StateMachine m = CounterMachine();
  // i < 3 and i < 5 overlap on [0, 3); dispatch order silently decides.
  m.transitions[1].guard = Bin(BinOp::kLt, Var("i"), Const(5.0));
  const std::vector<Diagnostic> diags = Analyze(m, graph);
  ASSERT_EQ(CountCode(diags, diag::kOverlappingTransitions), 1);
  EXPECT_EQ(diags[0].severity, DiagSeverity::kError);
}

TEST(DeterminismPassTest, DisjointGuardsAreClean) {
  const AppGraph graph = TwoTaskGraph();
  const std::vector<Diagnostic> diags = Analyze(CounterMachine(), graph);
  EXPECT_EQ(CountCode(diags, diag::kOverlappingTransitions), 0);
}

TEST(DeterminismPassTest, DifferentTriggersAreClean) {
  const AppGraph graph = TwoTaskGraph();
  StateMachine m = CounterMachine();
  m.transitions[1].guard = nullptr;
  m.transitions[1].trigger = TriggerKind::kEndTask;  // start vs end never collide
  const std::vector<Diagnostic> diags = Analyze(m, graph);
  EXPECT_EQ(CountCode(diags, diag::kOverlappingTransitions), 0);
}

// ---- pass 4: liveness ---------------------------------------------------

TEST(LivenessPassTest, FlagsDeadWriteAndUnusedVariable) {
  const AppGraph graph = TwoTaskGraph();
  StateMachine m = CounterMachine();
  m.variables["scratch"] = 0.0;  // written, never read
  m.transitions[0].body.push_back(Assign("scratch", Const(7.0)));
  m.variables["ghost"] = 0.0;  // never referenced at all
  const std::vector<Diagnostic> diags = Analyze(m, graph);
  EXPECT_EQ(CountCode(diags, diag::kDeadWrite), 1);
  EXPECT_EQ(CountCode(diags, diag::kUnusedVariable), 1);
  for (const Diagnostic& d : diags) {
    EXPECT_NE(d.note.find("FRAM"), std::string::npos) << d.note;
  }
}

TEST(LivenessPassTest, ReadVariableIsClean) {
  const AppGraph graph = TwoTaskGraph();
  const std::vector<Diagnostic> diags = Analyze(CounterMachine(), graph);
  EXPECT_EQ(CountCode(diags, diag::kDeadWrite), 0);
  EXPECT_EQ(CountCode(diags, diag::kUnusedVariable), 0);
}

// ---- pass 5: verdict conflict -------------------------------------------

StateMachine FailingMachine(const std::string& name, TaskId anchor, ActionType action,
                            PathId target) {
  StateMachine m;
  m.name = name;
  m.property_label = name;
  m.states = {"S0"};
  m.initial = "S0";
  m.anchor_task = anchor;
  m.transitions.push_back(MakeTransition("S0", "S0", TriggerKind::kEndTask, anchor, nullptr,
                                         {Fail(action, target, name)}));
  return m;
}

TEST(VerdictConflictPassTest, FlagsEqualSeverityTargetDisagreement) {
  const AppGraph graph = TwoTaskGraph();
  const StateMachine a = FailingMachine("m1", 0, ActionType::kRestartPath, 1);
  const StateMachine b = FailingMachine("m2", 0, ActionType::kRestartPath, 2);
  const std::vector<Diagnostic> diags = AnalyzeMachines({a, b}, graph).diagnostics();
  EXPECT_EQ(CountCode(diags, diag::kVerdictConflict), 1);
}

TEST(VerdictConflictPassTest, SeverityOrderResolvesCleanly) {
  const AppGraph graph = TwoTaskGraph();
  const StateMachine a = FailingMachine("m1", 0, ActionType::kRestartPath, 1);
  const StateMachine b = FailingMachine("m2", 0, ActionType::kSkipPath, 1);
  const std::vector<Diagnostic> diags = AnalyzeMachines({a, b}, graph).diagnostics();
  EXPECT_EQ(CountCode(diags, diag::kVerdictConflict), 0);
}

TEST(VerdictConflictPassTest, FirstWinsFlagsAnyDisagreement) {
  const AppGraph graph = TwoTaskGraph();
  const StateMachine a = FailingMachine("m1", 0, ActionType::kRestartPath, 1);
  const StateMachine b = FailingMachine("m2", 0, ActionType::kSkipPath, 1);
  AnalysisOptions options;
  options.policy = ArbitrationPolicy::kFirstWins;
  const std::vector<Diagnostic> diags = AnalyzeMachines({a, b}, graph, options).diagnostics();
  EXPECT_EQ(CountCode(diags, diag::kVerdictConflict), 1);
}

TEST(VerdictConflictPassTest, DisjointPathScopesAreClean) {
  const AppGraph graph = TwoTaskGraph();
  StateMachine a = FailingMachine("m1", 0, ActionType::kRestartPath, 1);
  StateMachine b = FailingMachine("m2", 0, ActionType::kRestartPath, 2);
  a.path_scope = 1;
  b.path_scope = 2;
  const std::vector<Diagnostic> diags = AnalyzeMachines({a, b}, graph).diagnostics();
  EXPECT_EQ(CountCode(diags, diag::kVerdictConflict), 0);
}

// ---- engine / rendering -------------------------------------------------

TEST(DiagnosticEngineTest, WerrorPromotesWarnings) {
  const AppGraph graph = TwoTaskGraph();
  StateMachine m = CounterMachine();
  m.variables["ghost"] = 0.0;
  AnalysisOptions options;
  options.werror = true;
  const DiagnosticEngine engine = AnalyzeMachines({m}, graph, options);
  EXPECT_TRUE(engine.HasErrors());
  EXPECT_EQ(engine.WarningCount(), 0u);
  EXPECT_NE(engine.diagnostics()[0].note.find("-Werror"), std::string::npos);
}

TEST(DiagnosticEngineTest, TextAndJsonRendering) {
  Diagnostic d;
  d.code = diag::kUnreachableState;
  d.severity = DiagSeverity::kError;
  d.machine = "m";
  d.property = "p";
  d.state = "Dead";
  d.span = SourceSpan{4, 7};
  d.message = "msg";
  d.note = "hint";
  EXPECT_EQ(RenderDiagnosticText(d, "spec.prop"),
            "spec.prop:4:7: error[ART001]: machine 'm' (p): msg\n    note: hint\n");
  const std::string json = RenderDiagnosticsJson({d});
  EXPECT_NE(json.find("\"code\": \"ART001\""), std::string::npos);
  EXPECT_NE(json.find("\"transition\": null"), std::string::npos);
  EXPECT_EQ(RenderDiagnosticsJson({}), "[]\n");
}

TEST(AnnotationsTest, DeadStatesAndTransitionsShadeTheDot) {
  const AppGraph graph = TwoTaskGraph();
  StateMachine m = CounterMachine();
  m.states.push_back("Orphan");
  const DiagnosticEngine engine = AnalyzeMachines({m}, graph);
  const DotAnnotations annotations = AnnotationsFromDiagnostics(engine.diagnostics());
  ASSERT_EQ(annotations.count("counter"), 1u);
  EXPECT_EQ(annotations.at("counter").dead_states.count("Orphan"), 1u);
  const std::string dot = MachinesToDot({m}, graph, &annotations);
  EXPECT_NE(dot.find("fillcolor=\"gray88\""), std::string::npos);
  // Without annotations the same machine renders unshaded.
  EXPECT_EQ(MachinesToDot({m}, graph).find("fillcolor"), std::string::npos);
}

// ---- source spans & shipped specs ---------------------------------------

TEST(AnalyzeSpecTest, SourceSpansThreadFromSpecToMachines) {
  const HealthApp app = BuildHealthApp();
  const auto parsed = SpecParser::Parse(HealthAppSpec());
  ASSERT_TRUE(parsed.ok());
  const auto machines = LowerSpec(parsed.value(), app.graph, {});
  ASSERT_TRUE(machines.ok());
  for (const StateMachine& m : machines.value()) {
    EXPECT_TRUE(m.source.valid()) << m.name;
  }
}

void ExpectSpecAnalyzesClean(const std::string& source, const AppGraph& graph,
                             bool mayfly = false) {
  const auto parsed = mayfly ? MayflyFrontend::Parse(source) : SpecParser::Parse(source);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const ValidationResult validation = SpecValidator::Validate(parsed.value(), graph);
  ASSERT_TRUE(validation.ok()) << validation.status.ToString();
  const auto machines = LowerSpec(parsed.value(), graph, {});
  ASSERT_TRUE(machines.ok()) << machines.status().ToString();
  const DiagnosticEngine engine = AnalyzeMachines(machines.value(), graph);
  EXPECT_TRUE(engine.diagnostics().empty()) << engine.RenderText("spec");
}

TEST(AnalyzeSpecTest, HealthSpecIsClean) {
  const HealthApp app = BuildHealthApp();
  ExpectSpecAnalyzesClean(HealthAppSpec(), app.graph);
}

TEST(AnalyzeSpecTest, HealthSpecNoMaxAttemptIsClean) {
  const HealthApp app = BuildHealthApp();
  ExpectSpecAnalyzesClean(HealthAppSpecNoMaxAttempt(), app.graph);
}

TEST(AnalyzeSpecTest, GreenhouseSpecIsClean) {
  const GreenhouseApp app = BuildGreenhouseApp();
  ExpectSpecAnalyzesClean(GreenhouseSpec(), app.graph);
}

TEST(AnalyzeSpecTest, ArSpecIsClean) {
  const ArApp app = BuildArApp();
  ExpectSpecAnalyzesClean(ArAppSpec(), app.graph);
}

// ---- whole-system passes 6..8 (ART009-ART014) ---------------------------

std::vector<StateMachine> LowerForGraph(const std::string& text, const AppGraph& graph) {
  const auto parsed = SpecParser::Parse(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  const ValidationResult validation = SpecValidator::Validate(parsed.value(), graph);
  EXPECT_TRUE(validation.ok()) << validation.status.ToString();
  auto machines = LowerSpec(parsed.value(), graph, {});
  EXPECT_TRUE(machines.ok()) << machines.status().ToString();
  return std::move(machines).value();
}

const Diagnostic* FindCode(const std::vector<Diagnostic>& diagnostics,
                           const std::string& code) {
  for (const Diagnostic& d : diagnostics) {
    if (d.code == code) {
      return &d;
    }
  }
  return nullptr;
}

constexpr char kAccelTriesSpec[] = "accel: {\n  maxTries: 10 onFail: skipPath;\n}\n";

// The budget comparison is closed: a budget exactly equal to the attempt
// cost commits the task (the capacitor cannot flap on equality), one
// hundredth of a microjoule less can never commit it.
TEST(EnergyFeasibilityPassTest, BudgetBoundaryAroundAttemptCost) {
  const HealthApp app = BuildHealthApp();
  const std::vector<StateMachine> machines = LowerForGraph(kAccelTriesSpec, app.graph);
  std::vector<MachineFacts> facts;
  facts.reserve(machines.size());
  for (const StateMachine& m : machines) {
    facts.push_back(ComputeMachineFacts(m, app.graph));
  }
  const TaskId accel = *app.graph.FindTask("accel");
  const EnergyUj attempt =
      TaskAttemptEnergy(app.graph, accel, machines, facts, DefaultCostModel());
  // accel (an 18 ms peripheral burst) dominates every other health task, so
  // a budget at exactly its attempt cost clears the whole graph.
  AnalysisOptions options;
  options.budgets = {attempt};
  EXPECT_EQ(CountCode(AnalyzeMachines(machines, app.graph, options).diagnostics(),
                      diag::kEnergyInfeasibleTask),
            0);

  options.budgets = {attempt - 0.01};
  const std::vector<Diagnostic> short_diags =
      AnalyzeMachines(machines, app.graph, options).diagnostics();
  const Diagnostic* d = FindCode(short_diags, diag::kEnergyInfeasibleTask);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, DiagSeverity::kError);
  EXPECT_NE(d->message.find("accel"), std::string::npos);
}

// Infeasible under only some of the supplied budgets demotes ART009 to a
// warning: part of the deployment grid still commits.
TEST(EnergyFeasibilityPassTest, PartialBudgetCoverageIsAWarning) {
  const HealthApp app = BuildHealthApp();
  const std::vector<StateMachine> machines = LowerForGraph(kAccelTriesSpec, app.graph);
  std::vector<MachineFacts> facts;
  facts.reserve(machines.size());
  for (const StateMachine& m : machines) {
    facts.push_back(ComputeMachineFacts(m, app.graph));
  }
  const TaskId accel = *app.graph.FindTask("accel");
  const EnergyUj attempt =
      TaskAttemptEnergy(app.graph, accel, machines, facts, DefaultCostModel());
  AnalysisOptions options;
  options.budgets = {attempt - 0.01, attempt + 1.0};
  const std::vector<Diagnostic> diags =
      AnalyzeMachines(machines, app.graph, options).diagnostics();
  const Diagnostic* d = FindCode(diags, diag::kEnergyInfeasibleTask);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, DiagSeverity::kWarning);
}

// The best-case accel -> send delay on health path 2 is filter's 15 ms of
// work plus the two 1 ms boundary slacks: an MITD bound at exactly 17 ms is
// feasible on continuous power, 16 ms is not.
TEST(EnergyFeasibilityPassTest, MitdBoundBoundaryAroundBestCaseDelay) {
  const HealthApp app = BuildHealthApp();
  const std::vector<StateMachine> feasible = LowerForGraph(
      "send: {\n  MITD: 17ms dpTask: accel onFail: restartPath Path: 2;\n}\n", app.graph);
  EXPECT_EQ(CountCode(AnalyzeMachines(feasible, app.graph).diagnostics(),
                      diag::kTimeBoundInfeasible),
            0);

  const std::vector<StateMachine> infeasible = LowerForGraph(
      "send: {\n  MITD: 16ms dpTask: accel onFail: restartPath Path: 2;\n}\n", app.graph);
  const std::vector<Diagnostic> diags =
      AnalyzeMachines(infeasible, app.graph).diagnostics();
  const Diagnostic* d = FindCode(diags, diag::kTimeBoundInfeasible);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, DiagSeverity::kError);
}

// A task recurs no faster than one traversal of its shortest containing
// path: accel's is path 2, 2 s + 15 ms + 80 ms of work plus three 1 ms
// boundary slacks, so a period of exactly 2098 ms is feasible and 2097 ms
// is not.
TEST(EnergyFeasibilityPassTest, PeriodBoundaryAroundBestCaseRecurrence) {
  const HealthApp app = BuildHealthApp();
  const std::vector<StateMachine> feasible =
      LowerForGraph("accel: {\n  period: 2098ms onFail: restartTask;\n}\n", app.graph);
  EXPECT_EQ(CountCode(AnalyzeMachines(feasible, app.graph).diagnostics(),
                      diag::kTimeBoundInfeasible),
            0);

  const std::vector<StateMachine> infeasible =
      LowerForGraph("accel: {\n  period: 2097ms onFail: restartTask;\n}\n", app.graph);
  const std::vector<Diagnostic> diags = AnalyzeMachines(infeasible, app.graph).diagnostics();
  const Diagnostic* d = FindCode(diags, diag::kTimeBoundInfeasible);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, DiagSeverity::kError);
  EXPECT_NE(d->message.find("next start of 'accel'"), std::string::npos);
}

// ---- time-aware consistency (Section 7), through ART009/ART010 ----------

std::vector<Diagnostic> AnalyzeHealthSpec(const std::string& text,
                                          const AnalysisOptions& options = {}) {
  const HealthApp app = BuildHealthApp();
  return AnalyzeMachines(LowerForGraph(text, app.graph), app.graph, options).diagnostics();
}

// Charge axes with and without an outage.
AnalysisOptions ChargeOptions(std::vector<SimDuration> charges) {
  AnalysisOptions options;
  options.charges = std::move(charges);
  return options;
}

TEST(ConsistencyTest, HealthSpecIsCleanUnderTheChargeGrid) {
  const AnalysisOptions options =
      ChargeOptions({0, kMinute - kSecond, 3 * kMinute - kSecond, 6 * kMinute - kSecond});
  const std::vector<Diagnostic> diags = AnalyzeHealthSpec(HealthAppSpec(), options);
  EXPECT_TRUE(diags.empty()) << RenderDiagnosticsJson(diags);
}

TEST(ConsistencyTest, MaxDurationBelowWorkIsAnError) {
  // accel's work is 2 s.
  const std::vector<Diagnostic> diags =
      AnalyzeHealthSpec("accel: { maxDuration: 500ms onFail: skipTask; }");
  const Diagnostic* d = FindCode(diags, diag::kTimeBoundInfeasible);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, DiagSeverity::kError);
}

TEST(ConsistencyTest, MitdBelowInterveningWorkIsAnError) {
  // Between accel and send on path 2 sits filter (15 ms): a 1 ms window can
  // never be met even without failures.
  const std::vector<Diagnostic> diags =
      AnalyzeHealthSpec("send: { MITD: 1ms dpTask: accel onFail: restartPath Path: 2; }");
  const Diagnostic* d = FindCode(diags, diag::kTimeBoundInfeasible);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, DiagSeverity::kError);
  EXPECT_NE(d->message.find("end(accel) -> start(send)"), std::string::npos);
}

TEST(ConsistencyTest, GenerousMitdIsFine) {
  EXPECT_EQ(CountCode(AnalyzeHealthSpec(
                          "send: { MITD: 5min dpTask: accel onFail: restartPath Path: 2; }"),
                      diag::kTimeBoundInfeasible),
            0);
}

TEST(ConsistencyTest, PeriodFasterThanPathIsAnError) {
  // accel's shortest containing path takes > 2 s (the accel burst alone).
  const std::vector<Diagnostic> diags =
      AnalyzeHealthSpec("accel: { period: 1s onFail: restartTask; }");
  const Diagnostic* d = FindCode(diags, diag::kTimeBoundInfeasible);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, DiagSeverity::kError);
}

TEST(ConsistencyTest, PeriodMaxDurationConflictIsAnError) {
  const std::vector<Diagnostic> diags = AnalyzeHealthSpec(
      "bodyTemp: { period: 50ms onFail: restartTask; "
      "maxDuration: 10s onFail: skipTask; }");
  int conflicts = 0;
  for (const Diagnostic& d : diags) {
    if (d.code == diag::kTimeBoundInfeasible &&
        d.message.find("maxDuration(bodyTemp)") != std::string::npos) {
      EXPECT_EQ(d.severity, DiagSeverity::kError);
      EXPECT_EQ(d.property, "period(bodyTemp)");
      ++conflicts;
    }
  }
  EXPECT_EQ(conflicts, 1);
}

TEST(ConsistencyTest, PeriodAboveMaxDurationIsNoConflict) {
  EXPECT_EQ(CountCode(AnalyzeHealthSpec("bodyTemp: { period: 10s onFail: restartTask; "
                                        "maxDuration: 5s onFail: skipTask; }"),
                      diag::kTimeBoundInfeasible),
            0);
}

TEST(ConsistencyTest, TightMaxDurationIsAWarningUnderOutages) {
  // send's work is 80 ms; an 81 ms limit is satisfiable but has no slack.
  const std::vector<Diagnostic> diags = AnalyzeHealthSpec(
      "send: { maxDuration: 81ms onFail: skipTask; }", ChargeOptions({0, 6 * kMinute}));
  const Diagnostic* d = FindCode(diags, diag::kTimeBoundInfeasible);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, DiagSeverity::kWarning);
  EXPECT_NE(d->message.find("no slack"), std::string::npos);
}

TEST(ConsistencyTest, TightMaxDurationIsSilentOnContinuousPower) {
  // No outage can interrupt the task, so the missing slack never matters.
  EXPECT_TRUE(AnalyzeHealthSpec("send: { maxDuration: 81ms onFail: skipTask; }",
                                ChargeOptions({0}))
                  .empty());
}

TEST(ConsistencyTest, CollectRestartPathHasNoFinding) {
  // The default (accumulating) collect semantics converge under restarts.
  EXPECT_TRUE(
      AnalyzeHealthSpec("calcAvg: { collect: 10 dpTask: bodyTemp onFail: restartPath; }")
          .empty());
}

TEST(ConsistencyTest, TightBoundWarnsButBrokenBoundErrs) {
  const AnalysisOptions outages = ChargeOptions({6 * kMinute});
  const HealthApp app = BuildHealthApp();
  EXPECT_FALSE(AnalyzeMachines(LowerForGraph("send: { maxDuration: 81ms onFail: skipTask; }",
                                             app.graph),
                               app.graph, outages)
                   .HasErrors());
  EXPECT_TRUE(AnalyzeMachines(LowerForGraph("accel: { maxDuration: 10ms onFail: skipTask; }",
                                            app.graph),
                              app.graph, outages)
                  .HasErrors());
}

// ART009 needs only the graph: no machine steps, so an empty spec prices
// each task's bare attempt.
TEST(ConsistencyTest, OversizedTasksAreEnergyInfeasible) {
  const HealthApp app = BuildHealthApp();
  AnalysisOptions options;
  options.budgets = {10'000.0};
  int accel = 0;
  const DiagnosticEngine engine = AnalyzeMachines({}, app.graph, options);
  for (const Diagnostic& d : engine.diagnostics()) {
    ASSERT_EQ(d.code, diag::kEnergyInfeasibleTask);
    EXPECT_EQ(d.severity, DiagSeverity::kError);
    EXPECT_EQ(d.property.find("bodyTemp"), std::string::npos);
    if (d.property == "task 'accel'") {
      ++accel;  // 18 mJ per attempt > 10 mJ budget.
      EXPECT_NE(d.message.find("needs 18001"), std::string::npos);
    }
  }
  EXPECT_EQ(accel, 1);
}

TEST(ConsistencyTest, GenerousBudgetIsEnergyFeasible) {
  const HealthApp app = BuildHealthApp();
  AnalysisOptions options;
  options.budgets = {100'000.0};
  EXPECT_TRUE(AnalyzeMachines({}, app.graph, options).diagnostics().empty());
}

// The maxDuration and period windows do not depend on the budget: a budget
// below accel's ~18 mJ attempt makes ART009 fire for accel, and the fixed
// windows are still reported.
TEST(ConsistencyTest, FixedWindowsAreReportedUnderAnInfeasibleBudget) {
  AnalysisOptions options;
  options.budgets = {1'000.0};
  for (const char* spec : {"accel: { maxDuration: 10ms onFail: skipTask; }",
                           "accel: { period: 1s onFail: restartTask; }"}) {
    const std::vector<Diagnostic> diags = AnalyzeHealthSpec(spec, options);
    EXPECT_GT(CountCode(diags, diag::kEnergyInfeasibleTask), 0) << spec;
    const Diagnostic* d = FindCode(diags, diag::kTimeBoundInfeasible);
    ASSERT_NE(d, nullptr) << spec;
    EXPECT_EQ(d->severity, DiagSeverity::kError) << spec;
  }
}

TEST(ProductReachabilityPassTest, ScopeMismatchMakesFailSitesDead) {
  const HealthApp app = BuildHealthApp();
  const std::vector<StateMachine> machines = LowerForGraph(
      "send: {\n  MITD: 5min dpTask: classify onFail: restartPath Path: 2;\n}\n", app.graph);
  const std::vector<Diagnostic> diags = AnalyzeMachines(machines, app.graph).diagnostics();
  EXPECT_EQ(CountCode(diags, diag::kDeadViolation), 1);
  EXPECT_EQ(CountCode(diags, diag::kInevitableViolation), 0);
}

TEST(ProductReachabilityPassTest, UnmeetableCollectIsInevitable) {
  const HealthApp app = BuildHealthApp();
  const std::vector<StateMachine> machines = LowerForGraph(
      "send: {\n  collect: 1 dpTask: micSense onFail: skipTask Path: 2;\n}\n", app.graph);
  const std::vector<Diagnostic> diags = AnalyzeMachines(machines, app.graph).diagnostics();
  const Diagnostic* d = FindCode(diags, diag::kInevitableViolation);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, DiagSeverity::kError);
  EXPECT_EQ(CountCode(diags, diag::kDeadViolation), 0);
}

TEST(ProductReachabilityPassTest, SatisfiableCollectIsClean) {
  const HealthApp app = BuildHealthApp();
  const std::vector<StateMachine> machines = LowerForGraph(
      "send: {\n  collect: 1 dpTask: accel onFail: restartPath Path: 2;\n}\n", app.graph);
  const std::vector<Diagnostic> diags = AnalyzeMachines(machines, app.graph).diagnostics();
  EXPECT_EQ(CountCode(diags, diag::kInevitableViolation), 0);
  EXPECT_EQ(CountCode(diags, diag::kDeadViolation), 0);
}

TEST(ReExecutionHazardPassTest, WarSlotOnlyFlaggedWithoutTwoPhaseCommit) {
  const HealthApp app = BuildHealthApp();
  const std::vector<StateMachine> machines =
      LowerForGraph("micSense: {\n  maxTries: 3 onFail: skipPath;\n}\n", app.graph);
  EXPECT_EQ(CountCode(AnalyzeMachines(machines, app.graph).diagnostics(),
                      diag::kReExecutionWarHazard),
            0);
  AnalysisOptions options;
  options.two_phase_commit = false;
  const std::vector<Diagnostic> diags =
      AnalyzeMachines(machines, app.graph, options).diagnostics();
  const Diagnostic* d = FindCode(diags, diag::kReExecutionWarHazard);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, DiagSeverity::kError);
}

TEST(ReExecutionHazardPassTest, FlightRingSizeBoundaries) {
  const HealthApp app = BuildHealthApp();
  const std::vector<StateMachine> machines = LowerForGraph(kAccelTriesSpec, app.graph);
  AnalysisOptions options;
  options.flight_enabled = true;
  options.flight_bytes = 20;  // below the 38-byte worst-case footprint
  const std::vector<Diagnostic> tiny =
      AnalyzeMachines(machines, app.graph, options).diagnostics();
  const Diagnostic* d = FindCode(tiny, diag::kFlightRingHazard);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, DiagSeverity::kError);

  options.flight_bytes = 50;  // holds one record but not two: erosion warning
  const std::vector<Diagnostic> cramped =
      AnalyzeMachines(machines, app.graph, options).diagnostics();
  d = FindCode(cramped, diag::kFlightRingHazard);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, DiagSeverity::kWarning);

  options.flight_bytes = 1024;
  EXPECT_EQ(CountCode(AnalyzeMachines(machines, app.graph, options).diagnostics(),
                      diag::kFlightRingHazard),
            0);
}

}  // namespace
}  // namespace artemis
