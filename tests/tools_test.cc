// CLI-level tests for the artemisc toolchain binary: exit codes and key
// output fragments across the check / pretty / codegen / dot / simulate
// verbs. The binary path comes from CMake via ARTEMISC_BIN, the source tree
// (for goldens) via ARTEMIS_SOURCE_DIR.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

namespace artemis {
namespace {

#ifndef ARTEMISC_BIN
#define ARTEMISC_BIN "artemisc"
#endif
#ifndef ARTEMIS_SOURCE_DIR
#define ARTEMIS_SOURCE_DIR "."
#endif

std::string WriteTempSpec(const std::string& name, const std::string& content) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::ofstream out(path);
  out << content;
  return path;
}

struct RunResult {
  int exit_code;
  std::string output;
};

RunResult RunCli(const std::string& args) {
  const std::string out_path = ::testing::TempDir() + "/artemisc_out.txt";
  const std::string cmd =
      std::string(ARTEMISC_BIN) + " " + args + " > '" + out_path + "' 2>&1";
  const int raw = std::system(cmd.c_str());
  std::ifstream in(out_path);
  std::string output((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
  return RunResult{WEXITSTATUS(raw), std::move(output)};
}

TEST(ArtemiscTest, NoArgsPrintsUsage) {
  const RunResult result = RunCli("");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("usage:"), std::string::npos);
}

TEST(ArtemiscTest, CheckAcceptsCleanSpec) {
  const std::string spec =
      WriteTempSpec("ok.prop", "accel: { maxTries: 10 onFail: skipPath; }\n");
  const RunResult result = RunCli("check " + spec);
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("OK"), std::string::npos);
}

TEST(ArtemiscTest, CheckFlagsUnsatisfiableProperty) {
  const std::string spec =
      WriteTempSpec("bad.prop", "accel: { maxDuration: 10ms onFail: skipTask; }\n");
  const RunResult result = RunCli("check " + spec);
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.output.find("UNSATISFIABLE"), std::string::npos);
}

TEST(ArtemiscTest, CheckFlagsEnergyInfeasibleTask) {
  const std::string spec =
      WriteTempSpec("e.prop", "accel: { maxTries: 10 onFail: skipPath; }\n");
  // accel needs ~18 mJ per attempt; a 1000 uJ budget can never finish it.
  const RunResult result = RunCli("check " + spec + " --budget 1000");
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.output.find("ENERGY"), std::string::npos);
}

TEST(ArtemiscTest, CheckRejectsParseError) {
  const std::string spec = WriteTempSpec("syntax.prop", "send: { wat }\n");
  const RunResult result = RunCli("check " + spec);
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.output.find("parse error"), std::string::npos);
}

TEST(ArtemiscTest, CheckMayflyLangFrontend) {
  const std::string spec =
      WriteTempSpec("mf.prop", "expires(accel -> send, 5min) path 2;\n");
  const RunResult result = RunCli("check " + spec + " --mayfly-lang");
  EXPECT_EQ(result.exit_code, 0) << result.output;
}

TEST(ArtemiscTest, UsageDocumentsExitCodes) {
  const RunResult result = RunCli("");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("exit codes:"), std::string::npos);
}

// The collect-on-own-dependency spec lowers to two transitions that both
// match end(send) with non-disjoint guards — the canonical ART005 fixture
// (mirrors examples/specs/bad/overlap.prop).
const char kOverlapSpec[] = "send: { collect: 2 dpTask: send onFail: restartPath; }\n";

TEST(ArtemiscTest, CheckAnalyzeAcceptsCleanSpec) {
  const std::string spec =
      WriteTempSpec("an_ok.prop", "accel: { maxTries: 10 onFail: skipPath; }\n");
  const RunResult result = RunCli("check " + spec + " --analyze");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("analyzer: 0 error(s)"), std::string::npos);
}

TEST(ArtemiscTest, CheckAnalyzeFlagsOverlappingTransitions) {
  const std::string spec = WriteTempSpec("an_overlap.prop", kOverlapSpec);
  const RunResult result = RunCli("check " + spec + " --analyze");
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.output.find("ART005"), std::string::npos);
}

TEST(ArtemiscTest, CheckAnalyzeJsonEmitsDiagnosticsArray) {
  const std::string spec = WriteTempSpec("an_json.prop", kOverlapSpec);
  const RunResult result = RunCli("check " + spec + " --analyze --json");
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.output.find("\"code\": \"ART005\""), std::string::npos);
  EXPECT_NE(result.output.find("\"severity\": \"error\""), std::string::npos);
}

TEST(ArtemiscTest, CheckAnalyzeWerrorKeepsCleanSpecClean) {
  const std::string spec =
      WriteTempSpec("an_werror.prop", "accel: { maxTries: 10 onFail: skipPath; }\n");
  const RunResult result = RunCli("check " + spec + " --analyze --Werror");
  EXPECT_EQ(result.exit_code, 0) << result.output;
}

TEST(ArtemiscTest, CodegenRefusesOnAnalyzerErrors) {
  const std::string spec = WriteTempSpec("an_refuse.prop", kOverlapSpec);
  const RunResult result = RunCli("codegen " + spec);
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.output.find("refusing to emit C code"), std::string::npos);
}

TEST(ArtemiscTest, CodegenNoAnalyzeOverridesTheGate) {
  const std::string spec = WriteTempSpec("an_override.prop", kOverlapSpec);
  const RunResult result = RunCli("codegen " + spec + " --no-analyze");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("callMonitor"), std::string::npos);
}

TEST(ArtemiscTest, DotShadesDeadStatesAndFails) {
  // micSense runs on path 3, so a machine scoped to path 2 can never see
  // end(micSense): WaitStartA is dead and rendered gray.
  const std::string spec = WriteTempSpec(
      "an_dot.prop", "send: { MITD: 5min dpTask: micSense onFail: restartPath Path: 2; }\n");
  const RunResult result = RunCli("dot " + spec);
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.output.find("fillcolor=\"gray88\""), std::string::npos);
  EXPECT_NE(result.output.find("digraph"), std::string::npos);
}

TEST(ArtemiscTest, PrettyRoundTrips) {
  const std::string spec = WriteTempSpec(
      "p.prop", "send: { MITD: 5min dpTask: accel onFail: restartPath Path: 2; }\n");
  const RunResult result = RunCli("pretty " + spec);
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.output.find("MITD: 5min"), std::string::npos);
}

TEST(ArtemiscTest, CodegenEmitsCallMonitor) {
  const std::string spec =
      WriteTempSpec("g.prop", "accel: { maxTries: 10 onFail: skipPath; }\n");
  const RunResult result = RunCli("codegen " + spec);
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.output.find("callMonitor"), std::string::npos);
  EXPECT_NE(result.output.find("__fram"), std::string::npos);
}

TEST(ArtemiscTest, DotEmitsDigraph) {
  const std::string spec =
      WriteTempSpec("d.prop", "accel: { maxTries: 10 onFail: skipPath; }\n");
  const RunResult result = RunCli("dot " + spec);
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.output.find("digraph"), std::string::npos);
}

TEST(ArtemiscTest, SimulateHealthContinuous) {
  const RunResult result = RunCli("simulate --app health");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("completed=yes"), std::string::npos);
}

TEST(ArtemiscTest, SimulateMayflyNonTermination) {
  const RunResult result =
      RunCli("simulate --app health --system mayfly --charge 6min --budget 19500");
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.output.find("non-termination"), std::string::npos);
}

// The text timeline, pinned byte for byte: boot, power-failure aborts, MITD
// violations, path restarts and the maxAttempt path skip.
TEST(ArtemiscTest, SimulateTraceMatchesGolden) {
  const RunResult result =
      RunCli("simulate --app health --charge 6min --budget 19500 --trace");
  EXPECT_EQ(result.exit_code, 0);
  std::ifstream in(std::string(ARTEMIS_SOURCE_DIR) +
                   "/tests/golden/cli/simulate_health_6min_trace.txt");
  ASSERT_TRUE(in.good());
  const std::string golden((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
  EXPECT_EQ(result.output, golden);
}

TEST(ArtemiscTest, SimulateGreenhouse) {
  const RunResult result = RunCli("simulate --app greenhouse");
  EXPECT_EQ(result.exit_code, 0) << result.output;
}

TEST(ArtemiscTest, ProfileRanksAccelHighest) {
  // Section 5.1: "the accel task is the highest power-consuming".
  const RunResult result = RunCli("profile --app health");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  const std::size_t header = result.output.find("task");
  const std::size_t accel = result.output.find("accel");
  ASSERT_NE(header, std::string::npos);
  ASSERT_NE(accel, std::string::npos);
  // accel is the first data row (highest energy).
  const std::size_t first_newline = result.output.find('\n', header);
  EXPECT_LT(accel, result.output.find('\n', first_newline + 1));
}

TEST(ArtemiscTest, UnknownAppRejected) {
  const RunResult result = RunCli("simulate --app toaster");
  EXPECT_EQ(result.exit_code, 2);
}

// ----------------------------------------------------------------- trace --

TEST(ArtemiscTest, TraceEmitsVersionedJsonl) {
  const RunResult result = RunCli("trace --app health --schedule 6min --format jsonl");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_EQ(result.output.rfind("{\"schema\":\"artemis-trace/1\"", 0), 0u);
  EXPECT_NE(result.output.find("\"kind\":\"sim.power-fail\""), std::string::npos);
  EXPECT_NE(result.output.find("\"kind\":\"monitor.verdict\""), std::string::npos);
}

TEST(ArtemiscTest, TraceEmitsPerfettoDocument) {
  const RunResult result = RunCli("trace --app health --schedule 6min --format perfetto");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(result.output.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(result.output.find("\"name\":\"charge-fraction\""), std::string::npos);
}

TEST(ArtemiscTest, TraceStatsReportsCompletedPaths) {
  const RunResult result = RunCli("trace --app health --schedule 6min --format stats");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("events: total="), std::string::npos);
  EXPECT_NE(result.output.find("paths: completed=3"), std::string::npos);
}

TEST(ArtemiscTest, TraceDiffIdenticalRunsExitZero) {
  const std::string a = ::testing::TempDir() + "/trace_a.jsonl";
  const std::string b = ::testing::TempDir() + "/trace_b.jsonl";
  EXPECT_EQ(RunCli("trace --app health --schedule 6min --out " + a).exit_code, 0);
  EXPECT_EQ(RunCli("trace --app health --schedule 6min --out " + b).exit_code, 0);
  const RunResult diff = RunCli("trace diff " + a + " " + b);
  EXPECT_EQ(diff.exit_code, 0) << diff.output;
  EXPECT_NE(diff.output.find("traces identical"), std::string::npos);
}

TEST(ArtemiscTest, TraceDiffDifferentSchedulesExitOne) {
  const std::string a = ::testing::TempDir() + "/trace_6min.jsonl";
  const std::string b = ::testing::TempDir() + "/trace_cont.jsonl";
  EXPECT_EQ(RunCli("trace --app health --schedule 6min --out " + a).exit_code, 0);
  EXPECT_EQ(RunCli("trace --app health --schedule continuous --out " + b).exit_code, 0);
  const RunResult diff = RunCli("trace diff " + a + " " + b);
  EXPECT_EQ(diff.exit_code, 1);
  EXPECT_NE(diff.output.find("difference(s)"), std::string::npos);
}

TEST(ArtemiscTest, TraceDiffMissingFileExitTwo) {
  const RunResult diff = RunCli("trace diff /nonexistent/a.jsonl /nonexistent/b.jsonl");
  EXPECT_EQ(diff.exit_code, 2);
}

TEST(ArtemiscTest, TraceRejectsBadScheduleAndFormat) {
  EXPECT_EQ(RunCli("trace --app health --schedule nonsense").exit_code, 2);
  EXPECT_EQ(RunCli("trace --app health --format xml").exit_code, 2);
}

}  // namespace
}  // namespace artemis
