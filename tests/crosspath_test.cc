// Cross-path dependency semantics: the Path qualifier as restart target vs
// event scope (the split introduced for producer-path dependencies), plus
// assorted coverage of the supporting pieces (power literals, validator path
// rules).
#include <gtest/gtest.h>

#include "src/apps/health_app.h"
#include "src/core/builder.h"
#include "src/core/runtime.h"
#include "src/ir/lowering.h"
#include "src/monitor/builtin.h"
#include "src/monitor/interp.h"
#include "src/base/units.h"
#include "src/spec/lexer.h"
#include "src/spec/parser.h"
#include "src/spec/validator.h"

namespace artemis {
namespace {

// Producer on path 1, consumer alone on path 2 — no merging.
AppGraph CrossPathGraph() {
  AppGraph graph;
  graph.AddTask(TaskDef{.name = "producer",
                        .work = {.duration = 5 * kMillisecond, .power = 1.0},
                        .effect = [](TaskContext& ctx) { ctx.Push(1.0); },
                        .monitored_var = std::nullopt});
  graph.AddTask(TaskDef{.name = "consumer",
                        .work = {.duration = 5 * kMillisecond, .power = 1.0},
                        .effect = nullptr,
                        .monitored_var = std::nullopt});
  graph.AddPath({0});
  graph.AddPath({1});
  return graph;
}

TEST(CrossPathTest, ValidatorAcceptsProducerPathQualifier) {
  const AppGraph graph = CrossPathGraph();
  auto parsed = SpecParser::Parse(
      "consumer: { collect: 3 dpTask: producer onFail: restartPath Path: 1; }");
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(SpecValidator::Validate(parsed.value(), graph).ok());
}

TEST(CrossPathTest, ValidatorStillRejectsUnrelatedPath) {
  // Path 2 contains neither a dependency nor the anchor of this property.
  const AppGraph graph = CrossPathGraph();
  auto parsed =
      SpecParser::Parse("producer: { maxTries: 2 onFail: skipPath Path: 2; }");
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(SpecValidator::Validate(parsed.value(), graph).ok());
}

TEST(CrossPathTest, LoweredMachineHasTargetButNoScope) {
  const AppGraph graph = CrossPathGraph();
  auto parsed = SpecParser::Parse(
      "consumer: { collect: 3 dpTask: producer onFail: restartPath Path: 1; }");
  auto machine = LowerProperty(parsed.value().blocks[0].properties[0], "consumer", graph, {});
  ASSERT_TRUE(machine.ok());
  // No scope: the consumer is not on path 1, so its events (path 2) must
  // still reach the machine.
  EXPECT_EQ(machine.value().path_scope, kNoPath);
  // The fail statement targets path 1.
  bool found_target = false;
  for (const Transition& t : machine.value().transitions) {
    for (const StmtPtr& s : t.body) {
      if (s->kind == StmtKind::kFail) {
        EXPECT_EQ(s->target_path, 1u);
        found_target = true;
      }
    }
  }
  EXPECT_TRUE(found_target);
}

TEST(CrossPathTest, RestartTargetsProducerPathEndToEnd) {
  AppGraph graph = CrossPathGraph();
  auto mcu = PlatformBuilder().WithContinuousPower().Build();
  auto runtime = ArtemisRuntime::Create(
      &graph, "consumer: { collect: 3 dpTask: producer onFail: restartPath Path: 1; }",
      mcu.get(), {});
  ASSERT_TRUE(runtime.ok()) << runtime.status().ToString();
  const KernelRunResult result = runtime.value()->Run();
  ASSERT_TRUE(result.completed);
  // The producer ran three times (two collect-triggered restarts of path 1).
  EXPECT_EQ(runtime.value()->kernel().channels().CompletionCount(0), 3u);
  EXPECT_EQ(runtime.value()->kernel().channels().CompletionCount(1), 1u);
}

TEST(CrossPathTest, BothBackendsAgreeOnCrossPathCollect) {
  const AppGraph graph = CrossPathGraph();
  auto parsed = SpecParser::Parse(
      "consumer: { collect: 2 dpTask: producer onFail: restartPath Path: 1; }");
  const PropertyAst& property = parsed.value().blocks[0].properties[0];
  auto builtin = std::move(MakeBuiltinMonitor(property, "consumer", graph, false)).value();
  auto machine = LowerProperty(property, "consumer", graph, {});
  InterpretedMonitor interp(std::move(machine).value());

  auto event = [](EventKind kind, TaskId task, PathId path, SimTime ts) {
    MonitorEvent e;
    e.kind = kind;
    e.task = task;
    e.path = path;
    e.timestamp = ts;
    e.seq = ts;
    return e;
  };
  // Consumer start on path 2 with one sample: both must fail with target 1.
  MonitorVerdict vb, vi;
  builtin->Step(event(EventKind::kEndTask, 0, 1, 1), &vb);
  interp.Step(event(EventKind::kEndTask, 0, 1, 1), &vi);
  const bool fb = builtin->Step(event(EventKind::kStartTask, 1, 2, 2), &vb);
  const bool fi = interp.Step(event(EventKind::kStartTask, 1, 2, 2), &vi);
  EXPECT_TRUE(fb);
  EXPECT_TRUE(fi);
  EXPECT_EQ(vb.target_path, 1u);
  EXPECT_EQ(vi.target_path, 1u);
}

// ------------------------------------------------------- assorted coverage --

TEST(PowerLiteralTest, LexerProducesPowerTokens) {
  const std::vector<Token> tokens = Lexer("9mW 500uW 0.5W").Tokenize();
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_EQ(tokens[0].kind, TokenKind::kPower);
  EXPECT_DOUBLE_EQ(tokens[0].power, 9.0);
  EXPECT_DOUBLE_EQ(tokens[1].power, 0.5);
  EXPECT_DOUBLE_EQ(tokens[2].power, 500.0);
}

TEST(PowerLiteralTest, ParsePowerRejectsNonsense) {
  EXPECT_FALSE(ParsePower("5kg").has_value());
  EXPECT_FALSE(ParsePower("W").has_value());
  EXPECT_FALSE(ParsePower("-1mW").has_value());
  EXPECT_EQ(ParsePower("2.5mW"), 2.5);
}

}  // namespace
}  // namespace artemis
