// artemisc — the ARTEMIS command-line toolchain, the CLI counterpart of the
// paper's Xtext/Eclipse workbench (Figure 3). `artemisc --help` lists the
// commands and `artemisc <command> --help` prints one command's operands and
// flags; both are generated from the kCommands and kFlags tables below.
//
// `check` runs parse -> validate -> lower -> the FSM IR static analyzer
// (src/analysis); `codegen`/`dot` run the full generator pipeline with the
// analyzer in front (codegen refuses to emit on error-severity findings,
// dot shades dead states/transitions).
// `simulate` executes the chosen demo app on the simulated platform. Spec
// files may use the native Figure 5 syntax or, with --mayfly-lang, the
// Mayfly-style edge-annotation frontend. `trace` runs the app under the
// observability bus (src/obs) and exports the event stream as deterministic
// JSONL, a Perfetto-loadable Chrome trace, or an aggregate report; `trace
// diff` compares two JSONL traces line by line (docs/tracing.md). `sweep`
// expands a declarative grid of independent simulations (from a grid JSON
// file and/or axis flags) and executes it on the parallel deterministic
// sweep engine (src/sweep, docs/sweep.md): output bytes are identical for
// any --jobs value. `fleet` runs N independent device twins of one app on
// the sharded fleet engine (src/fleet, docs/fleet.md) and reports
// fleet-wide aggregates; output bytes are identical for any --shards
// value. `forensics` runs the app with the on-device flight
// recorder attached (src/flight, docs/forensics.md), then decodes the
// recovered ring: `dump` exports deterministic JSONL, `timeline` stitches
// boot epochs into a human-readable reconstruction, `audit` cross-validates
// the flight log against the omniscient obs-bus capture of the same run,
// and `detect` scans for failure signatures (non-termination, restart
// without progress, silence gaps); with --spec2 the instrumented run also
// hot-swaps to the replacement image at --swap-at, so the recovered ring
// spans a swap epoch (the timeline stitches the cross-version history
// through the sealed swap record). `swap` runs the app with <spec-v1>
// installed as the epoch-1 monitor image, delivers <spec-v2> over the air as
// epoch 2 (after the replacement gate: the analyzer over <spec-v2>, then the
// ART015/ART016 swap analyzer), and hot-swaps it at
// a task-boundary quiescence point via the crash-consistent two-phase
// protocol (src/swap, docs/hotswap.md); `check --spec2 <file>` runs the same
// static gate without simulating.
//
// Exit codes: 0 = clean, 1 = findings / failures, 2 = usage or I/O error.
#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "src/analysis/analyzer.h"
#include "src/base/units.h"
#include "src/core/device.h"
#include "src/core/obs_stats.h"
#include "src/core/stats.h"
#include "src/flight/decoder.h"
#include "src/flight/forensics.h"
#include "src/flight/recorder.h"
#include "src/ir/codegen_c.h"
#include "src/ir/codegen_dot.h"
#include "src/obs/bus.h"
#include "src/obs/jsonl_sink.h"
#include "src/obs/perfetto_sink.h"
#include "src/obs/trace_diff.h"
#include "src/spec/app_lang.h"
#include "src/spec/mayfly_frontend.h"
#include "src/spec/parser.h"
#include "src/swap/hotswap.h"
#include "src/fleet/fleet.h"
#include "src/sweep/sweep.h"

namespace artemis {
namespace {

// Exit codes, also part of the CLI contract for CI scripts (tools/ci.sh):
// kExitClean when no error-severity findings, kExitFindings when the spec
// has errors (parse, validation, or analyzer), kExitUsage for bad
// invocations and unreadable files.
constexpr int kExitClean = 0;
constexpr int kExitFindings = 1;
constexpr int kExitUsage = 2;

// One invocation. Only the command's operands and its flags write it; every
// default comes from the flag table or the command's overrides.
struct Args {
  std::string spec_path;   // <spec>, <spec-v1> or --spec; empty = the app's spec
  std::string spec2_path;  // <spec-v2> or --spec2: the hot-swap replacement
  std::string grid_path;   // sweep's <grid.json>
  std::string mode;        // forensics mode
  std::string diff_left;   // trace diff operands
  std::string diff_right;
  std::string app;       // empty = the sweep grid file's app
  std::string app_file;  // app-description-language source; replaces --app
  std::string out_path;  // empty = stdout
  bool mayfly_lang = false;
  bool no_analyze = false;  // skip the analyzer gate
  bool json = false;        // machine-readable diagnostics on stdout
  bool werror = false;      // promote analyzer warnings to errors
  bool no_immortal = false;
  bool trace = false;
  bool stats = false;
  std::string system;
  MonitorBackend backend = MonitorBackend::kBuiltin;
  ArbitrationPolicy policy = ArbitrationPolicy::kSeverity;
  std::string format;
  SimDuration charge = 0;  // simulate --charge; 0 = continuous power
  EnergyUj budget = 0;
  std::string schedule;             // --schedule as given, echoed in reports
  SimDuration schedule_charge = 0;  // the same as a charge time; 0 = continuous
  std::string flight;               // --flight as given; empty = not set
  flight::FlightLevel flight_level = flight::FlightLevel::kOff;  // --flight or --level
  std::size_t flight_bytes = 0;
  std::optional<SimDuration> swap_at;
  // Axes; empty = the analyzer's, the engine's or the grid file's default.
  std::vector<std::string> systems;
  std::vector<std::string> backends;
  std::vector<std::string> timekeepers;
  std::vector<SimDuration> charges;
  std::vector<EnergyUj> budgets;
  std::vector<std::uint64_t> seeds;
  std::optional<SimDuration> max_wall;
  int jobs = 0;
  std::uint64_t devices = 0;
  int shards = 0;
  SimDuration horizon = 0;  // fleet --minutes; 0 = fixed-pass mode
  std::uint64_t iterations = 0;
  std::string monitor;
  std::uint32_t tile = 0;
  std::uint64_t seed = 0;
  SimDuration gap = 0;
  std::uint32_t min_attempts = 0;
};

// ---- value parsers: each takes the whole token or rejects it ------------

// A number in [min, max] spelled by the whole token: no '+', blanks or
// trailing bytes, and no overflow of T. NaN lies outside every range.
template <typename T>
bool ParseNumber(std::string_view text, T min, T max, T* out) {
  T value = 0;
  const char* end = text.data() + text.size();
  const std::from_chars_result result = std::from_chars(text.data(), end, value);
  if (result.ec != std::errc() || result.ptr != end || !(value >= min && value <= max)) {
    return false;
  }
  *out = value;
  return true;
}

template <typename T>
bool ParsePositive(std::string_view text, T* out) {
  return ParseNumber(text, T{1}, std::numeric_limits<T>::max(), out);
}

bool ParseSeed(std::string_view text, std::uint64_t* out) {
  return ParseNumber(text, std::uint64_t{0}, std::numeric_limits<std::uint64_t>::max(), out);
}

// An energy budget in uJ: finite and greater than 0.
bool ParseBudget(std::string_view text, EnergyUj* out) {
  return ParseNumber(text, std::numeric_limits<EnergyUj>::denorm_min(),
                     std::numeric_limits<EnergyUj>::max(), out);
}

// A charge schedule, "continuous" or a period like "6min", as the charge
// time after each on-period (the benches' charge-bin convention).
bool ParseCharge(std::string_view text, SimDuration* out) {
  const StatusOr<SimDuration> charge = sweep::ParseChargeSchedule(std::string(text));
  if (!charge.ok()) {
    return false;
  }
  *out = charge.value();
  return true;
}

bool ParseText(std::string_view text, std::string* out) {
  *out = text;
  return true;
}

// A comma-separated list whose every item `parse_item` accepts.
template <typename T, typename ParseItem>
bool ParseList(std::string_view text, ParseItem parse_item, std::vector<T>* out) {
  out->clear();
  while (true) {
    const std::size_t comma = std::min(text.find(','), text.size());
    T item{};
    if (!parse_item(text.substr(0, comma), &item)) {
      return false;
    }
    out->push_back(std::move(item));
    if (comma == text.size()) {
      return true;
    }
    text.remove_prefix(comma + 1);
  }
}

// Parsers that store a switch, a string, a positive integer or a duration
// into one Args member.
template <bool Args::*kField>
bool SetSwitch(std::string_view /*value*/, Args& args) {
  args.*kField = true;
  return true;
}

template <std::string Args::*kField>
bool SetText(std::string_view value, Args& args) {
  args.*kField = value;
  return true;
}

template <auto kField>
bool SetPositive(std::string_view value, Args& args) {
  return ParsePositive(value, &(args.*kField));
}

template <auto kField>
bool SetDuration(std::string_view value, Args& args) {
  const std::optional<SimDuration> parsed = ParseDuration(value);
  if (parsed.has_value()) {
    args.*kField = *parsed;
  }
  return parsed.has_value();
}

// ---- helpers shared by the commands ------------------------------------

std::optional<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "artemisc: cannot read '%s'\n", path.c_str());
    return std::nullopt;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// Writes `text` to --out, or to stdout without one; false if --out cannot
// be written.
bool WriteOutput(const Args& args, const std::string& text) {
  if (args.out_path.empty()) {
    std::fwrite(text.data(), 1, text.size(), stdout);
    return true;
  }
  std::ofstream out(args.out_path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "artemisc: cannot write '%s'\n", args.out_path.c_str());
    return false;
  }
  out << text;
  return true;
}

// The app graph and the spec that monitors it: the file named by <spec> or
// --spec, else the app's embedded spec (none for --app-file).
struct DemoApp {
  AppGraph graph;
  std::string spec;
};

std::optional<DemoApp> LoadApp(const Args& args) {
  DemoApp app;
  if (!args.app_file.empty()) {
    const std::optional<std::string> source = ReadFile(args.app_file);
    if (!source.has_value()) {
      return std::nullopt;
    }
    StatusOr<AppDescription> parsed = ParseAppDescription(*source);
    if (!parsed.ok()) {
      std::fprintf(stderr, "app-file error: %s\n", parsed.status().ToString().c_str());
      return std::nullopt;
    }
    app.graph = std::move(parsed.value().graph);
  } else {
    StatusOr<std::string> spec = sweep::DefaultSpecForApp(args.app);
    if (!spec.ok()) {
      std::fprintf(stderr, "artemisc: %s\n", spec.status().message().c_str());
      return std::nullopt;
    }
    app.graph = sweep::BuildAppGraphByName(args.app);
    app.spec = std::move(spec).value();
  }
  if (!args.spec_path.empty()) {
    std::optional<std::string> file = ReadFile(args.spec_path);
    if (!file.has_value()) {
      return std::nullopt;
    }
    app.spec = std::move(*file);
  }
  return app;
}

// The app's name in reports: the --app-file path or the --app name.
const std::string& AppLabel(const Args& args) {
  return args.app_file.empty() ? args.app : args.app_file;
}

std::vector<std::string> TaskNames(const AppGraph& graph) {
  std::vector<std::string> names;
  for (TaskId t = 0; t < graph.task_count(); ++t) {
    names.push_back(graph.TaskName(t));
  }
  return names;
}

StatusOr<SpecAst> ParseSpec(const Args& args, const std::string& source) {
  if (args.mayfly_lang) {
    return MayflyFrontend::Parse(source);
  }
  return SpecParser::Parse(source);
}

// The app's spec in the syntax --mayfly-lang selects, built up to `stage`.
// Only the .prop syntax keeps its text, which image headers hash.
StatusOr<SharedSpecArtifactPtr> BuildAppArtifact(const Args& args, const DemoApp& app,
                                                 SpecArtifactStage stage) {
  if (!args.mayfly_lang) {
    return BuildSpecArtifact(app.spec, app.graph, stage);
  }
  StatusOr<SpecAst> parsed = MayflyFrontend::Parse(app.spec);
  if (!parsed.ok()) {
    return parsed.status();
  }
  return BuildSpecArtifactFromAst(parsed.value(), app.graph, stage);
}

// The app's spec in the syntax --mayfly-lang selects, validated and
// lowered; null, with the error on stderr, when a step fails.
SharedSpecArtifactPtr LowerAppSpec(const Args& args, const DemoApp& app) {
  StatusOr<SpecAst> parsed = ParseSpec(args, app.spec);
  if (!parsed.ok()) {
    std::fprintf(stderr, "parse error: %s\n", parsed.status().ToString().c_str());
    return nullptr;
  }
  StatusOr<SharedSpecArtifactPtr> artifact =
      BuildSpecArtifactFromAst(parsed.value(), app.graph, SpecArtifactStage::kLowered);
  if (!artifact.ok()) {
    std::fprintf(stderr, "spec error: %s\n", artifact.status().ToString().c_str());
    return nullptr;
  }
  return artifact.value();
}

// The device `setup` describes, over the app's spec.
StatusOr<Device> BuildAppDevice(const Args& args, const DemoApp& app, DeviceSetup setup) {
  StatusOr<SharedSpecArtifactPtr> artifact = BuildAppArtifact(args, app, StageForDevice(setup));
  if (!artifact.ok()) {
    return artifact.status();
  }
  return BuildDevice(app.graph, artifact.value(), std::move(setup));
}

// Reports a device that could not be built. A flight ring that does not
// fit the FRAM is a bad --flight-bytes value, so a usage error.
int SetupError(const Status& status) {
  std::fprintf(stderr, "setup error: %s\n", status.ToString().c_str());
  return status.code() == StatusCode::kResourceExhausted ? kExitUsage : kExitFindings;
}

// Deployment axes for the whole-system analyzer passes (ART009-ART014).
// Defaults: the single --budget value, continuous power, two-phase commit
// on, flight recorder off.
AnalysisOptions AnalysisOptionsFor(const Args& args) {
  AnalysisOptions options;
  options.policy = args.policy;
  options.werror = args.werror;
  options.budgets = args.budgets.empty() ? std::vector<EnergyUj>{args.budget} : args.budgets;
  if (!args.charges.empty()) {
    options.charges = args.charges;
  }
  options.two_phase_commit = !args.no_immortal;
  options.flight_enabled = args.flight_level != flight::FlightLevel::kOff;
  options.flight_bytes = args.flight_bytes;
  return options;
}

// ---- commands ------------------------------------------------------------

int RunCheck(const Args& args) {
  const std::optional<DemoApp> app = LoadApp(args);
  if (!app.has_value()) {
    return kExitUsage;
  }
  const SharedSpecArtifactPtr spec = LowerAppSpec(args, *app);
  if (spec == nullptr) {
    return kExitFindings;
  }
  // With --json, stdout carries only the diagnostics array; the human
  // summary moves to stderr.
  FILE* chatter = args.json ? stderr : stdout;
  for (const std::string& warning : spec->validation_warnings) {
    std::fprintf(chatter, "warning: %s\n", warning.c_str());
  }
  const AnalysisOptions options = AnalysisOptionsFor(args);
  const DiagnosticEngine engine = AnalyzeMachines(spec->machines, app->graph, options);
  std::vector<Diagnostic> diagnostics = engine.diagnostics();
  if (!args.json) {
    std::printf("%s", engine.RenderText(args.spec_path).c_str());
  }
  std::fprintf(chatter, "analyzer: %zu error(s), %zu warning(s) across %zu machine(s)\n",
               engine.ErrorCount(), engine.WarningCount(), spec->machines.size());
  std::size_t errors = engine.ErrorCount();
  // With --json, stdout gets one array of every diagnostic found, also when
  // the swap gate below stops early.
  const auto finish = [&](int code) {
    if (args.json) {
      std::printf("%s", RenderDiagnosticsJson(diagnostics).c_str());
    }
    return code;
  };
  // --spec2: the hot-swap gate. Treats this spec as the installed epoch-1
  // image and --spec2 as the epoch-2 replacement, then runs the replacement
  // gate `swap` and `sweep --spec2` run: the analyzer over --spec2, the
  // migration planner (ART015) and the swap-window feasibility pass (ART016).
  if (!args.spec2_path.empty()) {
    const std::optional<std::string> spec2 = ReadFile(args.spec2_path);
    if (!spec2.has_value()) {
      return finish(kExitUsage);
    }
    StatusOr<MonitorImage> old_image = BuildMonitorImage(app->spec, app->graph, 1);
    StatusOr<MonitorImage> new_image = BuildMonitorImage(*spec2, app->graph, 2);
    if (!old_image.ok() || !new_image.ok()) {
      const Status& bad = !old_image.ok() ? old_image.status() : new_image.status();
      std::fprintf(stderr, "swap gate error: %s\n", bad.ToString().c_str());
      return finish(kExitFindings);
    }
    const DiagnosticEngine swap =
        AnalyzeReplacement(old_image.value(), new_image.value(), app->graph, options);
    diagnostics.insert(diagnostics.end(), swap.diagnostics().begin(), swap.diagnostics().end());
    if (!args.json) {
      std::printf("%s", swap.RenderText(args.spec2_path).c_str());
    }
    std::fprintf(chatter, "swap analyzer: %zu error(s), %zu warning(s) migrating to '%s'\n",
                 swap.ErrorCount(), swap.WarningCount(), args.spec2_path.c_str());
    errors += swap.ErrorCount();
  }
  std::fprintf(chatter, "%zu properties across %zu task blocks: %s\n",
               spec->ast.PropertyCount(), spec->ast.blocks.size(),
               errors == 0 ? "OK" : "INCONSISTENT");
  return finish(errors == 0 ? kExitClean : kExitFindings);
}

int RunPretty(const Args& args) {
  const std::optional<std::string> source = ReadFile(args.spec_path);
  if (!source.has_value()) {
    return kExitUsage;
  }
  auto parsed = ParseSpec(args, *source);
  if (!parsed.ok()) {
    std::fprintf(stderr, "parse error: %s\n", parsed.status().ToString().c_str());
    return kExitFindings;
  }
  std::printf("%s", parsed.value().Pretty().c_str());
  return kExitClean;
}

int RunCodegen(const Args& args, bool dot) {
  const std::optional<DemoApp> app = LoadApp(args);
  if (!app.has_value()) {
    return kExitUsage;
  }
  const SharedSpecArtifactPtr spec = LowerAppSpec(args, *app);
  if (spec == nullptr) {
    return kExitFindings;
  }
  const std::vector<StateMachine>& machines = spec->machines;
  // The analyzer gates code generation: diagnostics go to stderr, and
  // error-severity findings block C emission (override with --no-analyze).
  // The DOT backend still emits, shading dead states/transitions gray.
  bool analyzer_errors = false;
  DotAnnotations annotations;
  if (!args.no_analyze) {
    const DiagnosticEngine engine =
        AnalyzeMachines(machines, app->graph, AnalysisOptionsFor(args));
    std::fprintf(stderr, "%s", engine.RenderText(args.spec_path).c_str());
    analyzer_errors = engine.HasErrors();
    annotations = AnnotationsFromDiagnostics(engine.diagnostics());
  }
  if (dot) {
    std::printf("%s", MachinesToDot(machines, app->graph, &annotations).c_str());
    return analyzer_errors ? kExitFindings : kExitClean;
  }
  if (analyzer_errors) {
    std::fprintf(stderr,
                 "artemisc: refusing to emit C code: the analyzer reported errors "
                 "(use --no-analyze to override)\n");
    return kExitFindings;
  }
  CodegenOptions options;
  options.immortal_macros = !args.no_immortal;
  std::printf("%s", CCodeGenerator(options).Generate(machines, app->graph).c_str());
  return kExitClean;
}

// Per-task energy/time profile on continuous power — the Section 5.1
// measurement methodology ("According to our measurements, the accel task
// is the highest power-consuming among other tasks").
int RunProfile(const Args& args) {
  std::optional<DemoApp> app = LoadApp(args);
  if (!app.has_value()) {
    return kExitUsage;
  }
  DeviceSetup setup;
  setup.backend = args.backend;
  StatusOr<Device> device = BuildAppDevice(args, *app, std::move(setup));
  if (!device.ok()) {
    return SetupError(device.status());
  }
  const KernelRunResult result = device.value().Run();
  const std::vector<TaskProfile>& profiles = device.value().kernel().profiles();

  std::vector<TaskId> order;
  for (TaskId t = 0; t < app->graph.task_count(); ++t) {
    order.push_back(t);
  }
  std::sort(order.begin(), order.end(), [&profiles](TaskId a, TaskId b) {
    return profiles[a].energy > profiles[b].energy;
  });
  std::printf("%-12s %10s %8s %8s %12s %12s\n", "task", "commits", "aborts", "skips",
              "busy", "energy");
  for (const TaskId t : order) {
    const TaskProfile& p = profiles[t];
    std::printf("%-12s %10llu %8llu %8llu %12s %12s\n", app->graph.TaskName(t).c_str(),
                static_cast<unsigned long long>(p.commits),
                static_cast<unsigned long long>(p.aborts),
                static_cast<unsigned long long>(p.skips), FormatDuration(p.busy_time).c_str(),
                FormatEnergy(p.energy).c_str());
  }
  return result.completed ? kExitClean : kExitFindings;
}

int RunSimulate(const Args& args) {
  std::optional<DemoApp> app = LoadApp(args);
  if (!app.has_value()) {
    return kExitUsage;
  }
  // The timeline is rendered from the kernel's bus events, so they are
  // only collected when --trace asks for them.
  obs::EventBus bus;
  obs::CollectingSink events;
  DeviceSetup setup;
  setup.system = args.system == "mayfly" ? DeviceSystem::kMayfly : DeviceSystem::kArtemis;
  setup.backend = args.backend;
  setup.budget = args.budget;
  setup.charge = args.charge;
  setup.kernel.max_wall_time = 12 * kHour;
  if (args.trace) {
    bus.AddSink(&events);
    setup.observer = &bus;
  }
  StatusOr<Device> device = BuildAppDevice(args, *app, std::move(setup));
  if (!device.ok()) {
    return SetupError(device.status());
  }
  const KernelRunResult result = device.value().Run();

  if (args.trace) {
    std::printf("%s", obs::RenderTimeline(events.events(), TaskNames(app->graph)).c_str());
  }
  std::printf("system=%s app=%s completed=%s wall=%s reboots=%llu energy=%s\n",
              args.system.c_str(), AppLabel(args).c_str(),
              result.completed ? "yes" : (result.timed_out ? "NO(non-termination)" : "NO"),
              FormatDuration(result.finished_at).c_str(),
              static_cast<unsigned long long>(result.stats.reboots),
              FormatEnergy(result.stats.TotalEnergy()).c_str());
  std::printf("%s\n", FormatOverheadRow("overheads:", BreakdownFromStats(result.stats)).c_str());
  return result.completed ? kExitClean : kExitFindings;
}

// Runs the app under the observability bus and exports the event stream.
// The JSONL output is deterministic (docs/tracing.md), so two runs with the
// same arguments are byte-identical — the property `trace diff` and the
// golden-trace CI gate build on.
int RunTrace(const Args& args) {
  std::optional<DemoApp> app = LoadApp(args);
  if (!app.has_value()) {
    return kExitUsage;
  }
  const std::vector<std::string> names = TaskNames(app->graph);

  std::ostringstream trace_out;
  obs::EventBus bus;
  std::unique_ptr<obs::JsonlSink> jsonl;
  std::unique_ptr<obs::PerfettoSink> perfetto;
  ObsStatsAggregator stats;
  if (args.format == "jsonl") {
    obs::JsonlOptions options;
    options.app = AppLabel(args);
    options.power = args.schedule_charge != 0 ? "fixed-charge" : "always-on";
    options.schedule = args.schedule;
    options.backend = MonitorBackendName(args.backend);
    options.task_names = names;
    jsonl = std::make_unique<obs::JsonlSink>(trace_out, options);
    bus.AddSink(jsonl.get());
  } else if (args.format == "perfetto") {
    perfetto = std::make_unique<obs::PerfettoSink>(trace_out, names);
    bus.AddSink(perfetto.get());
  } else {
    bus.AddSink(&stats);
  }

  DeviceSetup setup;
  setup.backend = args.backend;
  setup.budget = args.budget;
  setup.charge = args.schedule_charge;
  setup.kernel.max_wall_time = 12 * kHour;
  setup.observer = &bus;
  StatusOr<Device> device = BuildAppDevice(args, *app, std::move(setup));
  if (!device.ok()) {
    return SetupError(device.status());
  }
  const KernelRunResult result = device.value().Run();
  bus.Flush();
  if (args.format == "stats") {
    trace_out << stats.Render();
  }
  if (!WriteOutput(args, trace_out.str())) {
    return kExitUsage;
  }
  std::fprintf(stderr, "trace: app=%s schedule=%s format=%s completed=%s reboots=%llu\n",
               AppLabel(args).c_str(), args.schedule.c_str(), args.format.c_str(),
               result.completed ? "yes" : "no",
               static_cast<unsigned long long>(result.stats.reboots));
  return result.completed ? kExitClean : kExitFindings;
}

int RunTraceDiff(const Args& args) {
  const std::optional<std::string> left = ReadFile(args.diff_left);
  if (!left.has_value()) {
    return kExitUsage;
  }
  const std::optional<std::string> right = ReadFile(args.diff_right);
  if (!right.has_value()) {
    return kExitUsage;
  }
  const obs::TraceDiffResult result = obs::DiffJsonlTraces(*left, *right);
  std::printf("%s", obs::RenderTraceDiff(result, args.diff_left, args.diff_right).c_str());
  return result.identical() ? kExitClean : kExitFindings;
}

// Runs the app with the flight recorder attached, recovers the ring image,
// and analyzes it. Unlike `trace`, the recorder costs simulated cycles
// (every appended byte is charged through the cost model), so the run here
// is the instrumented run — the obs bus rides along for free and gives
// `audit` its ground truth.
int RunForensics(const Args& args) {
  if (args.swap_at.has_value() && args.spec2_path.empty()) {
    std::fprintf(stderr, "artemisc: forensics --swap-at needs --spec2\n");
    return kExitUsage;
  }
  std::optional<DemoApp> app = LoadApp(args);
  if (!app.has_value()) {
    return kExitUsage;
  }
  obs::EventBus bus;
  obs::CollectingSink capture;
  bus.AddSink(&capture);
  DeviceSetup setup;
  setup.backend = args.backend;
  setup.budget = args.budget;
  setup.charge = args.schedule_charge;
  setup.kernel.max_wall_time = 12 * kHour;
  setup.observer = &bus;
  setup.flight = args.flight_level;
  setup.flight_bytes = args.flight_bytes;
  // --spec2: deliver a hot-swap replacement image mid-run (src/swap,
  // docs/hotswap.md) so the recovered ring spans a swap epoch: `timeline`
  // renders the stitched image-epoch line at the commit point, and `audit`
  // cross-validates records from both images against one obs-bus capture.
  // The swap needs the versioned on-device image, i.e. the compiled backend.
  if (!args.spec2_path.empty()) {
    const std::optional<std::string> source2 = ReadFile(args.spec2_path);
    if (!source2.has_value()) {
      return kExitUsage;
    }
    StatusOr<SharedSpecArtifactPtr> next =
        BuildSpecArtifact(*source2, app->graph, SpecArtifactStage::kCompiled);
    if (!next.ok()) {
      std::fprintf(stderr, "spec2 error: %s\n", next.status().ToString().c_str());
      return kExitFindings;
    }
    setup.backend = MonitorBackend::kCompiled;
    setup.replacement = std::move(next).value();
    setup.swap_at = args.swap_at.value_or(0);
  }
  const MonitorBackend backend = setup.backend;
  StatusOr<Device> device = BuildAppDevice(args, *app, std::move(setup));
  if (!device.ok()) {
    return SetupError(device.status());
  }
  const KernelRunResult result = device.value().Run();
  bus.Flush();

  const flight::FlightRecorder& recorder = *device.value().recorder();
  StatusOr<std::vector<flight::FlightRecord>> records = flight::DecodeRing(recorder.Image());
  if (!records.ok()) {
    std::fprintf(stderr, "artemisc: flight log corrupt: %s\n",
                 records.status().ToString().c_str());
    return kExitFindings;
  }

  flight::FlightMeta meta = flight::MetaFromRecorder(recorder);
  meta.app = AppLabel(args);
  meta.power = args.schedule_charge != 0 ? "fixed-charge" : "always-on";
  meta.schedule = args.schedule;
  meta.backend = MonitorBackendName(backend);
  meta.task_names = TaskNames(app->graph);

  std::string rendered;
  bool clean = true;
  if (args.mode == "dump") {
    rendered = flight::RenderDumpJsonl(records.value(), meta);
  } else if (args.mode == "timeline") {
    rendered = flight::RenderTimeline(records.value(), meta);
  } else if (args.mode == "audit") {
    const flight::AuditReport report = flight::Audit(records.value(), capture.events());
    rendered = flight::RenderAudit(report, meta);
    clean = report.ok();
  } else {
    flight::DetectOptions options;
    options.min_attempts = args.min_attempts;
    options.max_gap = args.gap;
    const std::vector<flight::Finding> findings = flight::Detect(records.value(), options);
    rendered = flight::RenderDetect(findings, meta);
    clean = findings.empty();
  }
  if (!WriteOutput(args, rendered)) {
    return kExitUsage;
  }
  std::fprintf(stderr,
               "forensics: app=%s schedule=%s level=%s completed=%s reboots=%llu "
               "sealed=%llu decoded=%zu\n",
               meta.app.c_str(), args.schedule.c_str(), flight::FlightLevelName(args.flight_level),
               result.completed ? "yes" : "no",
               static_cast<unsigned long long>(result.stats.reboots),
               static_cast<unsigned long long>(recorder.stats().records_sealed),
               records.value().size());
  if (const SwapStats* swap_stats = device.value().swap_stats(); swap_stats != nullptr) {
    std::fprintf(stderr, "forensics: swap epoch=%u %s attempts=%llu failed=%llu\n",
                 device.value().image_epoch(),
                 swap_stats->swaps_applied > 0 ? "APPLIED" : "NOT APPLIED",
                 static_cast<unsigned long long>(swap_stats->attempts_started),
                 static_cast<unsigned long long>(swap_stats->attempts_failed));
    if (swap_stats->swaps_applied == 0) {
      clean = false;
    }
  }
  return clean ? kExitClean : kExitFindings;
}

// Over-the-air monitor replacement on the simulated device (src/swap,
// docs/hotswap.md): installs <spec-v1> as the epoch-1 monitor image, queues
// <spec-v2> as the epoch-2 replacement, and runs the app while the kernel
// delivers the swap at the first task-boundary quiescence point at or after
// --swap-at. The replacement gate (AnalyzeReplacement, the one `sweep
// --spec2` runs) comes first and refuses a <spec-v2> that the analyzer
// rejects or that cannot migrate, unless --no-analyze.
int RunSwapCmd(const Args& args) {
  std::optional<DemoApp> app = LoadApp(args);
  if (!app.has_value()) {
    return kExitUsage;
  }
  const std::optional<std::string> source2 = ReadFile(args.spec2_path);
  if (!source2.has_value()) {
    return kExitUsage;
  }
  StatusOr<MonitorImage> old_image = BuildMonitorImage(app->spec, app->graph, 1);
  if (!old_image.ok()) {
    std::fprintf(stderr, "spec-v1 error: %s\n", old_image.status().ToString().c_str());
    return kExitFindings;
  }
  StatusOr<MonitorImage> new_image = BuildMonitorImage(*source2, app->graph, 2);
  if (!new_image.ok()) {
    std::fprintf(stderr, "spec-v2 error: %s\n", new_image.status().ToString().c_str());
    return kExitFindings;
  }

  FILE* chatter = args.json ? stderr : stdout;
  if (!args.no_analyze) {
    const DiagnosticEngine engine = AnalyzeReplacement(old_image.value(), new_image.value(),
                                                       app->graph, AnalysisOptionsFor(args));
    if (args.json) {
      std::printf("%s", engine.RenderJson().c_str());
    } else {
      std::printf("%s", engine.RenderText(args.spec2_path).c_str());
    }
    std::fprintf(chatter, "swap analyzer: %zu error(s), %zu warning(s)\n",
                 engine.ErrorCount(), engine.WarningCount());
    if (engine.HasErrors()) {
      std::fprintf(stderr,
                   "artemisc: refusing to deliver the image: the swap analyzer reported "
                   "errors (use --no-analyze to override)\n");
      return kExitFindings;
    }
  }

  DeviceSetup setup;
  setup.backend = MonitorBackend::kCompiled;  // The only versioned backend.
  setup.budget = args.budget;
  setup.charge = args.schedule_charge;
  setup.kernel.max_wall_time = 12 * kHour;
  setup.flight = args.flight_level;
  setup.flight_bytes = args.flight_bytes;
  setup.replacement = new_image.value().artifact;
  setup.swap_at = args.swap_at.value_or(0);
  StatusOr<Device> device =
      BuildDevice(app->graph, old_image.value().artifact, std::move(setup));
  if (!device.ok()) {
    return SetupError(device.status());
  }
  const KernelRunResult result = device.value().Run();

  const SwapStats& stats = *device.value().swap_stats();
  std::fprintf(chatter, "swap: %016llx (epoch 1) -> %016llx (epoch %u): %s\n",
               static_cast<unsigned long long>(old_image.value().header.spec_hash),
               static_cast<unsigned long long>(new_image.value().header.spec_hash),
               device.value().image_epoch(), stats.swaps_applied > 0 ? "APPLIED" : "NOT APPLIED");
  std::fprintf(chatter,
               "swap: attempts=%llu failed=%llu staged_bytes=%llu fallback_commits=%llu\n",
               static_cast<unsigned long long>(stats.attempts_started),
               static_cast<unsigned long long>(stats.attempts_failed),
               static_cast<unsigned long long>(stats.bytes_staged),
               static_cast<unsigned long long>(stats.fallback_commits));
  std::fprintf(chatter, "app=%s completed=%s wall=%s reboots=%llu energy=%s\n",
               AppLabel(args).c_str(),
               result.completed ? "yes" : (result.timed_out ? "NO(non-termination)" : "NO"),
               FormatDuration(result.finished_at).c_str(),
               static_cast<unsigned long long>(result.stats.reboots),
               FormatEnergy(result.stats.TotalEnergy()).c_str());
  return result.completed && stats.swaps_applied > 0 ? kExitClean : kExitFindings;
}

int RunSweepCmd(const Args& args) {
  sweep::SweepSpec grid;
  if (!args.grid_path.empty()) {
    const std::optional<std::string> source = ReadFile(args.grid_path);
    if (!source.has_value()) {
      return kExitUsage;
    }
    StatusOr<sweep::SweepSpec> parsed =
        sweep::ParseGridJson(*source, [](const std::string& path) -> StatusOr<std::string> {
          std::optional<std::string> text = ReadFile(path);
          if (!text.has_value()) {
            return Status::Invalid("sweep grid: cannot read spec file '" + path + "'");
          }
          return std::move(*text);
        });
    if (!parsed.ok()) {
      std::fprintf(stderr, "artemisc: %s\n", parsed.status().ToString().c_str());
      return kExitUsage;
    }
    grid = std::move(parsed).value();
  }

  // Axis flags override the grid file (and the engine defaults).
  if (!args.app.empty()) {
    grid.app = args.app;
  }
  if (!args.spec_path.empty()) {
    std::optional<std::string> text = ReadFile(args.spec_path);
    if (!text.has_value()) {
      return kExitUsage;
    }
    grid.specs = {{args.spec_path, std::move(*text)}};
  }
  if (!args.systems.empty()) {
    grid.systems = args.systems;
  }
  if (!args.backends.empty()) {
    grid.backends = args.backends;
  }
  if (!args.timekeepers.empty()) {
    grid.timekeepers = args.timekeepers;
  }
  if (!args.charges.empty()) {
    grid.charges = args.charges;
  }
  if (!args.budgets.empty()) {
    grid.budgets = args.budgets;
  }
  if (!args.seeds.empty()) {
    grid.seeds = args.seeds;
  }
  if (args.max_wall.has_value()) {
    grid.max_wall = *args.max_wall;
  }
  if (args.stats) {
    grid.collect_stats = true;
  }
  if (!args.flight.empty()) {
    grid.flight = args.flight;
  }
  if (args.flight_bytes != 0) {
    grid.flight_bytes = args.flight_bytes;
  }
  if (!args.spec2_path.empty()) {
    std::optional<std::string> text = ReadFile(args.spec2_path);
    if (!text.has_value()) {
      return kExitUsage;
    }
    grid.spec2 = {args.spec2_path, std::move(*text)};
  }
  if (args.swap_at.has_value()) {
    grid.swap_at = *args.swap_at;
  }
  if (args.no_analyze) {
    grid.analyze = false;
  }

  StatusOr<sweep::SweepOutcome> outcome = sweep::RunSweep(grid, args.jobs);
  if (!outcome.ok()) {
    std::fprintf(stderr, "artemisc: %s\n", outcome.status().ToString().c_str());
    return kExitUsage;
  }
  const std::string rendered = args.format == "json" ? sweep::RenderJson(grid, outcome.value())
                               : args.format == "csv" ? sweep::RenderCsv(outcome.value())
                                                      : sweep::RenderTable(outcome.value());
  if (!WriteOutput(args, rendered)) {
    return kExitUsage;
  }
  // A point that failed setup is a finding, not a usage error: the sweep
  // itself executed and the row carries the diagnosis.
  return outcome.value().AllOk() ? kExitClean : kExitFindings;
}

int RunFleetCmd(const Args& args) {
  fleet::FleetSpec spec;
  spec.app = args.app;
  if (!args.spec_path.empty()) {
    std::optional<std::string> text = ReadFile(args.spec_path);
    if (!text.has_value()) {
      return kExitUsage;
    }
    spec.spec_text = std::move(*text);
    spec.spec_label = args.spec_path;
  }
  spec.backend = args.backend;
  spec.monitor = args.monitor;
  spec.devices = args.devices;
  spec.shards = args.shards;
  spec.seed = args.seed;
  spec.tile = args.tile;
  spec.collect_obs = args.stats;
  // --stats in batch mode also profiles the dispatch-entry traffic (which
  // (state, kind, task) entries the fleet's events actually hit).
  spec.collect_traffic = args.stats && spec.monitor == "batch";
  if (!args.charges.empty()) {
    spec.charges = args.charges;
  }
  if (!args.budgets.empty()) {
    spec.budgets = args.budgets;
  }
  if (args.horizon != 0) {
    // Horizon mode (--minutes): every device loops its app until then.
    spec.iterations = 0;
    spec.horizon = args.horizon;
  } else {
    spec.iterations = args.iterations;
  }
  spec.analyze = !args.no_analyze;

  StatusOr<fleet::FleetOutcome> outcome = fleet::RunFleet(spec);
  if (!outcome.ok()) {
    std::fprintf(stderr, "artemisc: %s\n", outcome.status().ToString().c_str());
    return kExitUsage;
  }
  const std::string rendered = args.format == "json"
                                   ? fleet::RenderFleetJson(spec, outcome.value())
                                   : fleet::RenderFleetTable(spec, outcome.value());
  if (!WriteOutput(args, rendered)) {
    return kExitUsage;
  }
  // A failing device is a finding, not a usage error: the fleet ran and the
  // aggregates carry the first failing device's diagnosis.
  return outcome.value().AllOk() ? kExitClean : kExitFindings;
}

// ---- the flag and command tables ---------------------------------------

struct Flag {
  const char* name;
  // nullptr for a switch. A metavar of the form a|b|c lists the only values
  // the flag accepts; they are checked before `parse` runs.
  const char* metavar;
  const char* fallback;  // default, parsed like a given value; nullptr = none
  const char* help;
  // Stores the value into the args (an empty value for a switch); false
  // rejects it.
  bool (*parse)(std::string_view value, Args& args);
};

const Flag kFlags[] = {
    {"--app", "<name>", "health", "demo app: health, greenhouse or ar", SetText<&Args::app>},
    {"--app-file", "<file>", nullptr, "app in the app description language (replaces --app)",
     SetText<&Args::app_file>},
    {"--spec", "<file>", nullptr, "property spec (default: the app's embedded spec)",
     SetText<&Args::spec_path>},
    {"--spec2", "<file>", nullptr, "replacement spec, hot-swapped over the installed one",
     SetText<&Args::spec2_path>},
    {"--mayfly-lang", nullptr, nullptr, "read specs in the Mayfly-style syntax",
     SetSwitch<&Args::mayfly_lang>},
    {"--no-analyze", nullptr, nullptr, "skip the static-analyzer gate",
     SetSwitch<&Args::no_analyze>},
    {"--json", nullptr, nullptr, "diagnostics as JSON on stdout, the summary on stderr",
     SetSwitch<&Args::json>},
    {"--Werror", nullptr, nullptr, "treat analyzer warnings as errors", SetSwitch<&Args::werror>},
    {"--no-immortal", nullptr, nullptr, "no two-phase commit of monitor state",
     SetSwitch<&Args::no_immortal>},
    {"--policy", "severity|first-wins|last-wins", "severity", "verdict arbitration policy",
     [](std::string_view v, Args& a) { return ParseArbitrationPolicy(v, &a.policy); }},
    {"--system", "artemis|mayfly", "artemis", "runtime system", SetText<&Args::system>},
    {"--backend", "builtin|interpreted|compiled", "builtin", "monitor backend",
     [](std::string_view v, Args& a) { return ParseMonitorBackend(v, &a.backend); }},
    {"--charge", "<duration>", nullptr, "charge time after each on-period (default: always on)",
     SetDuration<&Args::charge>},
    {"--budget", "<uJ>", "19500", "energy per on-period",
     [](std::string_view v, Args& a) { return ParseBudget(v, &a.budget); }},
    {"--schedule", "<schedule>", "6min", "continuous, or a charge period above 1s such as 6min",
     [](std::string_view v, Args& a) {
       a.schedule = v;
       return ParseCharge(v, &a.schedule_charge);
     }},
    {"--charges", "<schedule>,...", nullptr, "charge-schedule axis, e.g. continuous,6min",
     [](std::string_view v, Args& a) { return ParseList(v, ParseCharge, &a.charges); }},
    {"--budgets", "<uJ>,...", nullptr, "energy-budget axis",
     [](std::string_view v, Args& a) { return ParseList(v, ParseBudget, &a.budgets); }},
    {"--systems", "<system>,...", nullptr, "system axis: artemis, mayfly",
     [](std::string_view v, Args& a) { return ParseList(v, ParseText, &a.systems); }},
    {"--backends", "<backend>,...", nullptr, "monitor-backend axis",
     [](std::string_view v, Args& a) { return ParseList(v, ParseText, &a.backends); }},
    {"--timekeepers", "<timekeeper>,...", nullptr, "timekeeper axis (docs/sweep.md)",
     [](std::string_view v, Args& a) { return ParseList(v, ParseText, &a.timekeepers); }},
    {"--seeds", "<n>,...", nullptr, "seed axis",
     [](std::string_view v, Args& a) { return ParseList(v, ParseSeed, &a.seeds); }},
    {"--max-wall", "<duration>", nullptr, "simulated-time limit per point",
     SetDuration<&Args::max_wall>},
    {"--trace", nullptr, nullptr, "print the execution timeline", SetSwitch<&Args::trace>},
    {"--stats", nullptr, nullptr, "fold observability-bus statistics into the output",
     SetSwitch<&Args::stats>},
    {"--jobs", "<n>", "1", "worker threads", SetPositive<&Args::jobs>},
    {"--flight", "off|verdicts|full", nullptr, "flight recorder level",
     [](std::string_view v, Args& a) {
       a.flight = v;
       return flight::ParseFlightLevel(a.flight, &a.flight_level);
     }},
    {"--level", "verdicts|full", "full", "flight recorder level",
     [](std::string_view v, Args& a) {
       return flight::ParseFlightLevel(std::string(v), &a.flight_level);
     }},
    {"--flight-bytes", "<n>", "1024", "flight recorder ring capacity in bytes",
     SetPositive<&Args::flight_bytes>},
    {"--swap-at", "<duration>", nullptr, "earliest device time of the swap (default: at once)",
     SetDuration<&Args::swap_at>},
    {"--devices", "<n>", "1000", "device twins", SetPositive<&Args::devices>},
    {"--shards", "<n>", "1", "shard workers", SetPositive<&Args::shards>},
    {"--minutes", "<n>", nullptr, "run every device for <n> simulated minutes",
     [](std::string_view v, Args& a) {
       constexpr SimDuration kMaxMinutes = std::numeric_limits<SimDuration>::max() / kMinute;
       SimDuration minutes = 0;
       const bool ok = ParseNumber(v, SimDuration{1}, kMaxMinutes, &minutes);
       a.horizon = minutes * kMinute;
       return ok;
     }},
    {"--iterations", "<n>", "1", "passes over the app's paths per device",
     SetPositive<&Args::iterations>},
    {"--monitor", "scalar|batch", "batch", "in-loop monitors, or captured streams in batch",
     SetText<&Args::monitor>},
    {"--tile", "<n>", "256", "devices per batch-monitor tile", SetPositive<&Args::tile>},
    {"--seed", "<n>", "1", "fleet seed",
     [](std::string_view v, Args& a) { return ParseSeed(v, &a.seed); }},
    {"--gap", "<duration>", "5min", "silence that detect reports as a gap",
     SetDuration<&Args::gap>},
    {"--min-attempts", "<n>", "3", "attempts that detect reports as no progress",
     SetPositive<&Args::min_attempts>},
    {"--format", "<format>", nullptr, "output format", SetText<&Args::format>},
    {"--out", "<file>", nullptr, "write the output to <file> instead of stdout",
     SetText<&Args::out_path>},
};

// A positional operand. A name of the form a|b|c lists the accepted values.
struct Operand {
  const char* name;
  std::string Args::*field;
  bool optional = false;
};

// A command's own metavar (nullptr = the flag's) and default for one flag.
struct FlagOverride {
  const char* flag;
  const char* metavar;
  const char* fallback;
};

struct Command {
  const char* name;
  const char* summary;
  std::vector<Operand> operands;
  const char* flags;  // names from kFlags, space-separated, in help order
  int (*run)(const Args& args);
  std::vector<FlagOverride> overrides = {};
};

constexpr char kCodegenFlags[] =
    "--app --app-file --mayfly-lang --no-analyze --no-immortal --Werror --policy --budget "
    "--budgets --charges --flight --flight-bytes";

const Command kCommands[] = {
    {"check", "validate and statically analyze a spec",
     {{"spec", &Args::spec_path}},
     "--app --app-file --mayfly-lang --json --Werror --policy --budget --budgets "
     "--charges --no-immortal --flight --flight-bytes --spec2",
     RunCheck},
    {"pretty", "print a spec in canonical form",
     {{"spec", &Args::spec_path}},
     "--mayfly-lang",
     RunPretty},
    {"codegen", "generate C monitors, gated by the analyzer",
     {{"spec", &Args::spec_path}},
     kCodegenFlags,
     [](const Args& args) { return RunCodegen(args, /*dot=*/false); }},
    {"dot", "render the state machines as Graphviz",
     {{"spec", &Args::spec_path}},
     kCodegenFlags,
     [](const Args& args) { return RunCodegen(args, /*dot=*/true); }},
    {"simulate", "run the app on the simulated platform",
     {},
     "--app --app-file --spec --mayfly-lang --system --backend --charge --budget --trace",
     RunSimulate},
    {"profile", "per-task energy and time on continuous power",
     {},
     "--app --app-file --backend",
     RunProfile},
    {"trace", "export the observability-bus event stream",
     {{"spec", &Args::spec_path, true}},
     "--app --app-file --schedule --budget --backend --format --out",
     RunTrace,
     {{"--format", "jsonl|perfetto|stats", "jsonl"}}},
    {"trace diff", "compare two JSONL traces line by line",
     {{"a.jsonl", &Args::diff_left}, {"b.jsonl", &Args::diff_right}},
     "",
     RunTraceDiff},
    {"sweep", "run a grid of independent simulations",
     {{"grid.json", &Args::grid_path, true}},
     "--app --spec --systems --charges --budgets --backends --timekeepers --seeds --max-wall "
     "--stats --jobs --flight --flight-bytes --spec2 --swap-at --no-analyze --format --out",
     RunSweepCmd,
     {{"--app", nullptr, nullptr},
      {"--flight-bytes", nullptr, nullptr},
      {"--format", "json|csv|table", "table"}}},
    {"fleet", "run N device twins on the sharded fleet engine",
     {},
     "--app --spec --devices --shards --minutes --iterations --monitor --backend --charges "
     "--budgets --seed --tile --stats --no-analyze --format --out",
     RunFleetCmd,
     {{"--backend", nullptr, "compiled"}, {"--format", "json|table", "table"}}},
    {"forensics", "run with the flight recorder, then decode the ring",
     {{"dump|timeline|audit|detect", &Args::mode}},
     "--app --app-file --spec --schedule --budget --backend --level --flight-bytes --spec2 "
     "--swap-at --gap --min-attempts --out",
     RunForensics},
    {"swap", "hot-swap <spec-v2> over <spec-v1> on a running device",
     {{"spec-v1", &Args::spec_path}, {"spec-v2", &Args::spec2_path}},
     "--app --app-file --swap-at --schedule --budget --flight --flight-bytes --no-analyze "
     "--json --Werror --policy --budgets --charges --no-immortal",
     RunSwapCmd},
};

// ---- parsing and usage, both driven by the tables ------------------------

// A flag as one command uses it: the command's override applied.
struct CommandFlag {
  const Flag* flag;
  const char* metavar;
  const char* fallback;
};

std::vector<CommandFlag> FlagsOf(const Command& command) {
  std::vector<CommandFlag> out;
  std::istringstream names(command.flags);
  for (std::string name; names >> name;) {
    const Flag* flag = std::find_if(std::begin(kFlags), std::end(kFlags),
                                    [&name](const Flag& f) { return name == f.name; });
    if (flag == std::end(kFlags)) {
      std::fprintf(stderr, "artemisc: '%s' lists the undefined flag '%s'\n", command.name,
                   name.c_str());
      std::abort();
    }
    CommandFlag use{flag, flag->metavar, flag->fallback};
    for (const FlagOverride& override : command.overrides) {
      if (name == override.flag) {
        if (override.metavar != nullptr) {
          use.metavar = override.metavar;
        }
        use.fallback = override.fallback;
      }
    }
    out.push_back(use);
  }
  return out;
}

// A metavar or operand name of the form a|b|c accepts only those values;
// any other accepts every value.
bool Accepts(std::string_view choices, std::string_view value) {
  if (choices.find('|') == std::string_view::npos) {
    return true;
  }
  while (true) {
    const std::size_t bar = std::min(choices.find('|'), choices.size());
    if (choices.substr(0, bar) == value) {
      return true;
    }
    if (bar == choices.size()) {
      return false;
    }
    choices.remove_prefix(bar + 1);
  }
}

// The command's operands, each with a leading space.
std::string Synopsis(const Command& command) {
  std::string out;
  for (const Operand& operand : command.operands) {
    out += operand.optional ? " [<" : " <";
    out += operand.name;
    out += operand.optional ? ">]" : ">";
  }
  return out;
}

constexpr char kExitCodes[] =
    "exit codes: 0 = clean, 1 = findings or failures, 2 = usage/IO error\n";

void PrintUsage(FILE* out) {
  std::fprintf(out, "usage: artemisc <command> [operands] [flags]\ncommands:\n");
  for (const Command& command : kCommands) {
    std::fprintf(out, "  %-10s %-29s  %s\n", command.name, Synopsis(command).c_str(),
                 command.summary);
  }
  std::fprintf(out, "'artemisc <command> --help' lists a command's flags\n%s", kExitCodes);
}

void PrintHelp(FILE* out, const Command& command) {
  std::fprintf(out, "usage: artemisc %s%s [flags]\n%s\nflags:\n", command.name,
               Synopsis(command).c_str(), command.summary);
  for (const CommandFlag& use : FlagsOf(command)) {
    std::string spelled = use.flag->name;
    if (use.metavar != nullptr) {
      spelled += std::string(" ") + use.metavar;
    }
    const std::string fallback =
        use.fallback != nullptr ? std::string(" (default ") + use.fallback + ")" : "";
    std::fprintf(out, "  %-38s  %s%s\n", spelled.c_str(), use.flag->help, fallback.c_str());
  }
  std::fprintf(out, "  %-38s  %s\n%s", "--help", "print this help", kExitCodes);
}

bool SetFlag(const CommandFlag& use, std::string_view value, Args* args) {
  if (Accepts(use.metavar, value) && use.flag->parse(value, *args)) {
    return true;
  }
  std::fprintf(stderr, "artemisc: bad value '%s' for %s %s (%s)\n", std::string(value).c_str(),
               use.flag->name, use.metavar, use.flag->help);
  return false;
}

// Fills `args` from the command's defaults, then from `tokens`. False,
// after saying why, on a flag the command does not take, a bad or missing
// value, or a missing or surplus operand.
bool ParseArgs(const Command& command, const std::vector<std::string_view>& tokens,
               Args* args) {
  const std::vector<CommandFlag> flags = FlagsOf(command);
  for (const CommandFlag& use : flags) {
    if (use.fallback != nullptr && !SetFlag(use, use.fallback, args)) {
      return false;
    }
  }
  std::size_t operand = 0;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const std::string token(tokens[i]);
    if (token.empty() || token[0] != '-') {
      if (operand == command.operands.size()) {
        std::fprintf(stderr, "artemisc: unexpected operand '%s'\n", token.c_str());
        return false;
      }
      const Operand& slot = command.operands[operand++];
      if (!Accepts(slot.name, token)) {
        std::fprintf(stderr, "artemisc: bad operand '%s' (%s)\n", token.c_str(), slot.name);
        return false;
      }
      args->*slot.field = token;
      continue;
    }
    const auto use = std::find_if(flags.begin(), flags.end(), [&token](const CommandFlag& f) {
      return token == f.flag->name;
    });
    if (use == flags.end()) {
      std::fprintf(stderr, "artemisc: %s takes no flag '%s'\n", command.name, token.c_str());
      return false;
    }
    if (use->metavar == nullptr) {
      use->flag->parse({}, *args);
    } else if (i + 1 == tokens.size()) {
      std::fprintf(stderr, "artemisc: %s wants a value %s\n", token.c_str(), use->metavar);
      return false;
    } else if (!SetFlag(*use, tokens[++i], args)) {
      return false;
    }
  }
  if (operand < command.operands.size() && !command.operands[operand].optional) {
    std::fprintf(stderr, "artemisc: %s wants <%s>\n", command.name,
                 command.operands[operand].name);
    return false;
  }
  return true;
}

int Main(int argc, char** argv) {
  const std::vector<std::string_view> tokens(argv + 1, argv + argc);
  if (tokens.empty() || tokens[0] == "--help") {
    PrintUsage(tokens.empty() ? stderr : stdout);
    return tokens.empty() ? kExitUsage : kExitClean;
  }
  // The longest command name the leading tokens spell ("trace diff" over
  // "trace").
  const Command* command = nullptr;
  std::size_t words = 0;
  std::string spelled;
  for (std::size_t n = 0; n < tokens.size(); ++n) {
    spelled += (n == 0 ? "" : " ") + std::string(tokens[n]);
    for (const Command& candidate : kCommands) {
      if (spelled == candidate.name) {
        command = &candidate;
        words = n + 1;
      }
    }
  }
  if (command == nullptr) {
    std::fprintf(stderr, "artemisc: unknown command '%s'\n", std::string(tokens[0]).c_str());
    PrintUsage(stderr);
    return kExitUsage;
  }
  const std::vector<std::string_view> rest(tokens.begin() + words, tokens.end());
  if (std::find(rest.begin(), rest.end(), "--help") != rest.end()) {
    PrintHelp(stdout, *command);
    return kExitClean;
  }
  Args args;
  if (!ParseArgs(*command, rest, &args)) {
    PrintHelp(stderr, *command);
    return kExitUsage;
  }
  return command->run(args);
}

}  // namespace
}  // namespace artemis

int main(int argc, char** argv) { return artemis::Main(argc, argv); }
