// CLI-level tests for the artemisc toolchain binary: exit codes and key
// output fragments across the subcommands, and the argument table's
// contract (generated help, per-command flags, strict values). The binary
// path comes from CMake via ARTEMISC_BIN, the source tree (for goldens) via
// ARTEMIS_SOURCE_DIR.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>

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

// Runs artemisc with `args`; the output is stdout and stderr interleaved,
// or stdout alone when `with_stderr` is false.
RunResult RunCli(const std::string& args, bool with_stderr = true) {
  const std::string out_path = ::testing::TempDir() + "/artemisc_out.txt";
  const std::string cmd = std::string(ARTEMISC_BIN) + " " + args + " > '" + out_path + "' " +
                          (with_stderr ? "2>&1" : "2> /dev/null");
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
  EXPECT_NE(result.output.find("error[ART010]"), std::string::npos);
}

TEST(ArtemiscTest, CheckFlagsEnergyInfeasibleTask) {
  const std::string spec =
      WriteTempSpec("e.prop", "accel: { maxTries: 10 onFail: skipPath; }\n");
  // accel needs ~18 mJ per attempt; a 1000 uJ budget can never finish it.
  const RunResult result = RunCli("check " + spec + " --budget 1000");
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.output.find("error[ART009]"), std::string::npos);
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
  const RunResult result = RunCli("check " + spec);
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("analyzer: 0 error(s)"), std::string::npos);
}

TEST(ArtemiscTest, CheckAnalyzeFlagsOverlappingTransitions) {
  const std::string spec = WriteTempSpec("an_overlap.prop", kOverlapSpec);
  const RunResult result = RunCli("check " + spec);
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.output.find("ART005"), std::string::npos);
}

TEST(ArtemiscTest, CheckAnalyzeJsonEmitsDiagnosticsArray) {
  const std::string spec = WriteTempSpec("an_json.prop", kOverlapSpec);
  const RunResult result = RunCli("check " + spec + " --json");
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.output.find("\"code\": \"ART005\""), std::string::npos);
  EXPECT_NE(result.output.find("\"severity\": \"error\""), std::string::npos);
}

// The analyzer always runs, so --json alone puts the diagnostics array, and
// only it, on stdout.
TEST(ArtemiscTest, CheckJsonAlonePrintsTheArrayOnStdout) {
  const std::string spec = std::string(ARTEMIS_SOURCE_DIR) + "/examples/specs/health.prop";
  const RunResult result = RunCli("check " + spec + " --app health --json", false);
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_EQ(result.output, "[]\n");
}

// A --spec2 that does not parse stops the swap gate, but the primary spec's
// diagnostics still reach stdout as the one JSON array.
TEST(ArtemiscTest, CheckJsonPrintsTheArrayWhenSpec2DoesNotParse) {
  const std::string spec =
      WriteTempSpec("j_bad1.prop", "accel: { maxDuration: 10ms onFail: skipTask; }\n");
  const std::string spec2 = WriteTempSpec("j_bad2.prop", "send: { wat }\n");
  const RunResult result = RunCli("check " + spec + " --json --spec2 " + spec2, false);
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_EQ(result.output.rfind("[", 0), 0u) << result.output;
  EXPECT_NE(result.output.find("\"code\": \"ART010\""), std::string::npos) << result.output;
}

TEST(ArtemiscTest, CheckAnalyzeWerrorKeepsCleanSpecClean) {
  const std::string spec =
      WriteTempSpec("an_werror.prop", "accel: { maxTries: 10 onFail: skipPath; }\n");
  const RunResult result = RunCli("check " + spec + " --Werror");
  EXPECT_EQ(result.exit_code, 0) << result.output;
}

TEST(ArtemiscTest, CodegenRefusesOnAnalyzerErrors) {
  const std::string spec = WriteTempSpec("an_refuse.prop", kOverlapSpec);
  const RunResult result = RunCli("codegen " + spec);
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.output.find("refusing to emit C code"), std::string::npos);
}

// A period faster than the task's best-case recurrence is an ART010 error,
// so the codegen gate refuses it like any other analyzer error.
TEST(ArtemiscTest, CodegenRefusesAnUnmeetablePeriod) {
  const std::string spec =
      WriteTempSpec("an_period.prop", "accel: { period: 1s onFail: restartTask; }\n");
  const RunResult result = RunCli("codegen " + spec);
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.output.find("ART010"), std::string::npos) << result.output;
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

std::string ReadCliGolden(const std::string& name) {
  std::ifstream in(std::string(ARTEMIS_SOURCE_DIR) + "/tests/golden/cli/" + name);
  EXPECT_TRUE(in.good()) << name;
  return std::string((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
}

std::string SpecFile(const std::string& name) {
  return std::string(ARTEMIS_SOURCE_DIR) + "/examples/specs/" + name;
}

// The text timeline, pinned byte for byte: boot, power-failure aborts, MITD
// violations, path restarts and the maxAttempt path skip.
TEST(ArtemiscTest, SimulateTraceMatchesGolden) {
  const RunResult result =
      RunCli("simulate --app health --charge 6min --budget 19500 --trace");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_EQ(result.output, ReadCliGolden("simulate_health_6min_trace.txt"));
}

// The Mayfly baseline's timeline under the same outages: its MITD restarts
// never let the app finish (Figure 12's non-termination).
TEST(ArtemiscTest, SimulateMayflyTraceMatchesGolden) {
  const RunResult result =
      RunCli("simulate --app health --system mayfly --trace --charge 6min --budget 19500");
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_EQ(result.output, ReadCliGolden("simulate_mayfly_health_6min_trace.txt"));
}

TEST(ArtemiscTest, ProfileMatchesGolden) {
  const RunResult result = RunCli("profile --app health");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_EQ(result.output, ReadCliGolden("profile_health.txt"));
}

TEST(ArtemiscTest, SwapMatchesGolden) {
  const std::string spec = SpecFile("health.prop");
  const RunResult result =
      RunCli("swap " + spec + " " + spec + " --app health --schedule 6min");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_EQ(result.output, ReadCliGolden("swap_health_6min.txt"));
}

TEST(ArtemiscTest, ForensicsSwapTimelineMatchesGolden) {
  const RunResult result = RunCli("forensics timeline --app health --spec2 " +
                                  SpecFile("health.prop") + " --swap-at 2min --schedule 6min");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_EQ(result.output, ReadCliGolden("forensics_timeline_swap_health_6min.txt"));
}

// --mayfly-lang reaches the ARTEMIS system too: the device runs the
// monitors of the Mayfly-syntax spec.
TEST(ArtemiscTest, SimulateArtemisReadsMayflyLang) {
  const RunResult result = RunCli("simulate --app health --system artemis --mayfly-lang --spec " +
                                  SpecFile("health.mayfly"));
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("system=artemis app=health completed=yes"), std::string::npos)
      << result.output;
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

// ------------------------------------------------------- argument table --

const char* const kCommands[] = {"check", "pretty",     "codegen", "dot",   "simulate",  "profile",
                                 "trace", "trace diff", "sweep",   "fleet", "forensics", "swap"};

std::string HealthSpec() { return std::string(ARTEMIS_SOURCE_DIR) + "/examples/specs/health.prop"; }

TEST(ArtemiscArgsTest, TopLevelHelpListsEveryCommand) {
  const RunResult result = RunCli("--help");
  EXPECT_EQ(result.exit_code, 0);
  for (const char* command : kCommands) {
    EXPECT_NE(result.output.find(std::string("\n  ") + command + " "), std::string::npos)
        << command;
  }
  EXPECT_NE(result.output.find("exit codes:"), std::string::npos);
}

TEST(ArtemiscArgsTest, HelpExitsZeroForEveryCommand) {
  for (const char* command : kCommands) {
    const RunResult result = RunCli(std::string(command) + " --help");
    EXPECT_EQ(result.exit_code, 0) << command;
    EXPECT_EQ(result.output.rfind(std::string("usage: artemisc ") + command, 0), 0u) << command;
  }
  // --help wins wherever it stands, even after operands.
  EXPECT_EQ(RunCli("check " + HealthSpec() + " --help").exit_code, 0);
}

TEST(ArtemiscArgsTest, HelpShowsOnlyTheCommandsFlags) {
  const RunResult pretty = RunCli("pretty --help");
  EXPECT_NE(pretty.output.find("--mayfly-lang"), std::string::npos);
  EXPECT_EQ(pretty.output.find("--devices"), std::string::npos);
  EXPECT_EQ(pretty.output.find("--app"), std::string::npos);
  const RunResult fleet = RunCli("fleet --help");
  EXPECT_NE(fleet.output.find("--devices <n>"), std::string::npos);
  EXPECT_NE(fleet.output.find("(default compiled)"), std::string::npos);
  EXPECT_NE(fleet.output.find("--format json|table"), std::string::npos);
  EXPECT_EQ(fleet.output.find("--mayfly-lang"), std::string::npos);
  const RunResult simulate = RunCli("simulate --help");
  EXPECT_NE(simulate.output.find("health, greenhouse or ar"), std::string::npos);
}

TEST(ArtemiscArgsTest, FlagOfAnotherCommandExitsTwo) {
  const RunResult result = RunCli("pretty " + HealthSpec() + " --devices 5");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("--devices"), std::string::npos);
  EXPECT_EQ(RunCli("simulate --jobs 3").exit_code, 2);
}

// Values the old flag loop read with atoi/atof and ran with anyway.
TEST(ArtemiscArgsTest, MalformedValuesExitTwoAndNameTheFlag) {
  const std::string spec = HealthSpec();
  const std::pair<std::string, std::string> cases[] = {
      {"sweep --jobs 3x", "--jobs"},
      {"fleet --seed abc", "--seed"},
      {"check " + spec + " --budgets abc", "--budgets"},
      {"simulate --charge 6min --budget abc", "--budget"},
      {"check " + spec + " --budget 0", "--budget"},
      {"check " + spec + " --budgets 19500,inf", "--budgets"},
      {"fleet --tile 4294967296", "--tile"},
      {"fleet --devices -1", "--devices"},
      {"fleet --minutes 99999999999999999999", "--minutes"},
      {"sweep --seeds 1,,2", "--seeds"},
      {"forensics detect --min-attempts 2.5", "--min-attempts"},
      {"trace --schedule 1s", "--schedule"},
      {"check " + spec + " --flight on", "--flight"},
  };
  for (const auto& [args, flag] : cases) {
    const RunResult result = RunCli(args);
    EXPECT_EQ(result.exit_code, 2) << args;
    EXPECT_NE(result.output.find("for " + flag + " "), std::string::npos) << args;
  }
}

TEST(ArtemiscArgsTest, DocumentedValuesStillParse) {
  const std::string spec = HealthSpec();
  // A 1 uJ budget parses and reaches the analyzer, which refuses every task.
  const RunResult starved = RunCli("check " + spec + " --app health --budgets 1 --charges 6min");
  EXPECT_EQ(starved.exit_code, 1);
  EXPECT_NE(starved.output.find("error[ART009]"), std::string::npos);
  EXPECT_EQ(RunCli("check " + spec + " --budgets 18005,19500 --charges continuous,1min")
                .exit_code,
            0);
}

TEST(ArtemiscArgsTest, SweepAndFleetRejectTheTraceFormat) {
  EXPECT_EQ(RunCli("sweep --format jsonl").exit_code, 2);
  EXPECT_EQ(RunCli("fleet --format jsonl").exit_code, 2);
}

TEST(ArtemiscArgsTest, SweepAcceptsAxisFlags) {
  const RunResult result =
      RunCli("sweep --systems artemis --charges continuous --budgets 19500 --seeds 0 "
             "--jobs 2 --format csv");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("artemis"), std::string::npos);
}

TEST(ArtemiscArgsTest, SweepRejectsExtraOperand) {
  EXPECT_EQ(RunCli("sweep a.json b.json").exit_code, 2);
}

TEST(ArtemiscArgsTest, FleetAcceptsDeviceFlags) {
  const RunResult result =
      RunCli("fleet --devices 8 --shards 2 --tile 4 --seed 0 --iterations 1 --format json");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("\"devices\": 8"), std::string::npos);
}

TEST(ArtemiscArgsTest, FleetRejectsMonitorMode) {
  EXPECT_EQ(RunCli("fleet --monitor vectorized").exit_code, 2);
}

TEST(ArtemiscArgsTest, ForensicsAcceptsDetectFlags) {
  const RunResult result =
      RunCli("forensics detect --app health --schedule 6min --gap 10min --min-attempts 3");
  EXPECT_EQ(result.exit_code, 0) << result.output;
}

TEST(ArtemiscArgsTest, ForensicsRejectsUnknownModeAndLevel) {
  EXPECT_EQ(RunCli("forensics replay").exit_code, 2);
  EXPECT_EQ(RunCli("forensics dump --level off").exit_code, 2);
}

// --spec2 runs the compiled image whatever --backend says; the dump header
// names the backend that ran.
TEST(ArtemiscArgsTest, ForensicsDumpWithSpec2NamesTheCompiledBackend) {
  const RunResult result =
      RunCli("forensics dump --app health --spec2 " + HealthSpec() + " --swap-at 2min", false);
  EXPECT_EQ(result.exit_code, 0) << result.output;
  const std::string header = result.output.substr(0, result.output.find('\n'));
  EXPECT_NE(header.find("\"backend\":\"compiled\""), std::string::npos) << header;
}

// A ring larger than the device's FRAM is a bad --flight-bytes value.
TEST(ArtemiscArgsTest, FlightRingBeyondTheFramExitsTwo) {
  const RunResult forensics = RunCli("forensics dump --app health --flight-bytes 100000000");
  EXPECT_EQ(forensics.exit_code, 2) << forensics.output;
  EXPECT_NE(forensics.output.find("NVM arena exhausted"), std::string::npos);
  const RunResult swap = RunCli("swap " + HealthSpec() + " " + HealthSpec() +
                                " --app health --flight full --flight-bytes 100000000");
  EXPECT_EQ(swap.exit_code, 2) << swap.output;
}

TEST(ArtemiscArgsTest, ForensicsSwapAtWithoutSpec2ExitsTwo) {
  const RunResult result = RunCli("forensics dump --app health --swap-at 2min");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("--swap-at needs --spec2"), std::string::npos);
}

// --flight-bytes resizes the ring of a grid file's flight recorder without
// --flight: a 64-byte ring drops records that the default 1024 bytes keep.
TEST(ArtemiscArgsTest, SweepFlightBytesAppliesWithoutFlight) {
  const std::string grid = WriteTempSpec(
      "flight_grid.json",
      "{\"app\": \"health\", \"systems\": [\"artemis\"], \"charges\": [\"6min\"], "
      "\"backends\": [\"builtin\"], \"flight\": \"full\"}\n");
  const RunResult plain = RunCli("sweep " + grid + " --format csv", false);
  const RunResult small = RunCli("sweep " + grid + " --flight-bytes 64 --format csv", false);
  EXPECT_EQ(plain.exit_code, 0) << plain.output;
  EXPECT_EQ(small.exit_code, 0) << small.output;
  EXPECT_NE(plain.output, small.output);
}

TEST(ArtemiscArgsTest, SwapAcceptsTwoSpecs) {
  const std::string spec = HealthSpec();
  const RunResult result =
      RunCli("swap " + spec + " " + spec + " --app health --schedule 6min --swap-at 2min");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("APPLIED"), std::string::npos);
}

// The replacement gate: `swap` refuses a v2 that analyzes dirty on its own,
// as `sweep --spec2` does, and --no-analyze still delivers it.
TEST(ArtemiscArgsTest, SwapRefusesWhatSweepRefuses) {
  const std::string spec = HealthSpec();
  const std::string v2 = SpecFile("bad/unmeetable_period.prop");
  const RunResult swap = RunCli("swap " + spec + " " + v2 + " --app health");
  EXPECT_EQ(swap.exit_code, 1) << swap.output;
  EXPECT_NE(swap.output.find("error[ART010]"), std::string::npos) << swap.output;
  const RunResult sweep = RunCli("sweep --spec2 " + v2 + " --backends compiled");
  EXPECT_EQ(sweep.exit_code, 2) << sweep.output;
  EXPECT_NE(sweep.output.find("error[ART010]"), std::string::npos) << sweep.output;
  const RunResult forced = RunCli("swap " + spec + " " + v2 + " --app health --no-analyze");
  EXPECT_EQ(forced.exit_code, 0) << forced.output;
  EXPECT_NE(forced.output.find("APPLIED"), std::string::npos) << forced.output;
}

// An installed machine with no counterpart lives in the installed spec, so
// the warning carries no position in the replacement; the note names it.
TEST(ArtemiscArgsTest, SwapPlacesUnmatchedInstalledMachinesInTheNote) {
  const std::string v2 =
      WriteTempSpec("one_line_v2.prop", "accel: { maxTries: 3 onFail: skipTask; }\n");
  const RunResult result = RunCli("swap " + HealthSpec() + " " + v2 + " --app health", false);
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find(v2 + ": warning[ART015]: machine 'MITD_send_accel'"),
            std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("note: declared at 8:3 of the installed spec"), std::string::npos)
      << result.output;
  EXPECT_EQ(result.output.find(v2 + ":8:3"), std::string::npos) << result.output;
}

TEST(ArtemiscArgsTest, SwapRejectsMissingReplacementAndBadSwapTime) {
  const std::string spec = HealthSpec();
  EXPECT_EQ(RunCli("swap " + spec).exit_code, 2);
  EXPECT_EQ(RunCli("swap " + spec + " " + spec + " --swap-at soon").exit_code, 2);
}

}  // namespace
}  // namespace artemis
