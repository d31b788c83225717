// artemisc — the ARTEMIS command-line toolchain, the CLI counterpart of the
// paper's Xtext/Eclipse workbench (Figure 3).
//
//   artemisc check    <spec-file> [--app health|greenhouse] [--mayfly-lang]
//                     [--analyze] [--json] [--Werror] [--policy <p>]
//                     [--charges continuous,1min,...] [--budgets <uJ>,...]
//                     [--no-immortal] [--flight off|verdicts|full]
//                     [--flight-bytes N]
//   artemisc pretty   <spec-file>
//   artemisc codegen  <spec-file> [--app ...] [--no-immortal] [--no-analyze]
//   artemisc dot      <spec-file> [--app ...] [--no-analyze]
//   artemisc simulate [--app ...] [--spec <file>] [--system artemis|mayfly]
//                     [--backend builtin|interpreted|compiled]
//                     [--charge <duration>] [--budget <uJ>] [--trace]
//   artemisc trace    [<spec-file>] [--app ...] [--schedule 6min|continuous]
//                     [--budget <uJ>] [--backend ...]
//                     [--format jsonl|perfetto|stats] [--out <file>]
//   artemisc trace diff <a.jsonl> <b.jsonl>
//   artemisc sweep    [<grid.json>] [--app ...] [--systems a,b] [--spec <file>]
//                     [--charges continuous,1min,...] [--budgets <uJ>,...]
//                     [--backends ...] [--timekeepers ...] [--seeds ...]
//                     [--max-wall <duration>] [--stats] [--jobs N]
//                     [--flight off|verdicts|full] [--flight-bytes N]
//                     [--no-analyze] [--format json|csv|table] [--out <file>]
//   artemisc fleet    [--devices N] [--shards J] [--minutes M | --iterations K]
//                     [--app ...] [--spec <file>] [--monitor scalar|batch]
//                     [--backend ...] [--charges continuous,6min,...]
//                     [--budgets <uJ>,...] [--seed S] [--tile N] [--stats]
//                     [--no-analyze] [--format json|table] [--out <file>]
//   artemisc forensics <dump|timeline|audit|detect> [--app ...] [--spec <file>]
//                     [--schedule 6min|continuous] [--budget <uJ>]
//                     [--backend ...] [--level verdicts|full]
//                     [--flight-bytes N] [--spec2 <file>] [--swap-at <duration>]
//                     [--gap <duration>] [--min-attempts N] [--out <file>]
//   artemisc swap     <spec-v1> <spec-v2> [--app ...] [--swap-at <duration>]
//                     [--schedule 6min|continuous] [--budget <uJ>]
//                     [--flight off|verdicts|full] [--flight-bytes N]
//                     [--no-analyze] [--json] [--Werror]
//
// `check` runs parse -> validate -> consistency analysis and, with
// --analyze, the FSM IR static analyzer (src/analysis); `codegen`/`dot` run
// the full generator pipeline with the analyzer in front (codegen refuses
// to emit on error-severity findings, dot shades dead states/transitions).
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
// epoch 2 (after the ART015/ART016 swap analyzer gate), and hot-swaps it at
// a task-boundary quiescence point via the crash-consistent two-phase
// protocol (src/swap, docs/hotswap.md); `check --spec2 <file>` runs the same
// static gate without simulating.
//
// Exit codes: 0 = clean, 1 = findings / failures, 2 = usage or I/O error.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "src/analysis/analyzer.h"
#include "src/apps/ar_app.h"
#include "src/apps/greenhouse_app.h"
#include "src/apps/health_app.h"
#include "src/base/units.h"
#include "src/core/builder.h"
#include "src/core/obs_stats.h"
#include "src/core/runtime.h"
#include "src/core/stats.h"
#include "src/flight/decoder.h"
#include "src/flight/forensics.h"
#include "src/flight/recorder.h"
#include "src/ir/codegen_c.h"
#include "src/ir/codegen_dot.h"
#include "src/ir/lowering.h"
#include "src/mayfly/mayfly.h"
#include "src/obs/bus.h"
#include "src/obs/jsonl_sink.h"
#include "src/obs/perfetto_sink.h"
#include "src/obs/trace_diff.h"
#include "src/spec/app_lang.h"
#include "src/spec/consistency.h"
#include "src/spec/mayfly_frontend.h"
#include "src/spec/parser.h"
#include "src/spec/validator.h"
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

int Usage() {
  std::fprintf(stderr,
               "usage: artemisc <check|pretty|codegen|dot|simulate> [args]\n"
               "  check    <spec> [--app health|greenhouse] [--mayfly-lang]\n"
               "           [--analyze] [--json] [--Werror]\n"
               "           [--policy severity|first-wins|last-wins]\n"
               "           [--charges continuous,1min,...] [--budgets <uJ>,...]\n"
               "           [--no-immortal] [--flight off|verdicts|full]\n"
               "           [--flight-bytes N] [--spec2 <replacement-spec>]\n"
               "  pretty   <spec>\n"
               "  codegen  <spec> [--app ...] [--no-immortal] [--no-analyze]\n"
               "  dot      <spec> [--app ...] [--no-analyze]\n"
               "  simulate [--app ...] [--spec <file>] [--system artemis|mayfly]\n"
               "           [--backend builtin|interpreted|compiled]\n"
               "           [--charge <duration>] [--budget <uJ>] [--trace]\n"
               "  profile  [--app ...] [--backend builtin|interpreted|compiled]\n"
               "  trace    [<spec>] [--app ...] [--schedule 6min|continuous]\n"
               "           [--budget <uJ>] [--backend ...]\n"
               "           [--format jsonl|perfetto|stats] [--out <file>]\n"
               "  trace diff <a.jsonl> <b.jsonl>\n"
               "  sweep    [<grid.json>] [--app ...] [--systems a,b] [--spec <file>]\n"
               "           [--charges continuous,1min,...] [--budgets <uJ>,...]\n"
               "           [--backends ...] [--timekeepers ...] [--seeds ...]\n"
               "           [--max-wall <duration>] [--stats] [--jobs N]\n"
               "           [--flight off|verdicts|full] [--flight-bytes N]\n"
               "           [--spec2 <file>] [--swap-at <duration>]\n"
               "           [--no-analyze] [--format json|csv|table] [--out <file>]\n"
               "  fleet    [--devices N] [--shards J] [--minutes M | --iterations K]\n"
               "           [--app ...] [--spec <file>] [--monitor scalar|batch]\n"
               "           [--backend ...] [--charges continuous,6min,...]\n"
               "           [--budgets <uJ>,...] [--seed S] [--tile N] [--stats]\n"
               "           [--no-analyze] [--format json|table] [--out <file>]\n"
               "  forensics <dump|timeline|audit|detect> [--app ...] [--spec <file>]\n"
               "           [--schedule 6min|continuous] [--budget <uJ>] [--backend ...]\n"
               "           [--level verdicts|full] [--flight-bytes N]\n"
               "           [--spec2 <file>] [--swap-at <duration>]\n"
               "           [--gap <duration>] [--min-attempts N] [--out <file>]\n"
               "  swap     <spec-v1> <spec-v2> [--app ...] [--swap-at <duration>]\n"
               "           [--schedule 6min|continuous] [--budget <uJ>]\n"
               "           [--flight off|verdicts|full] [--flight-bytes N]\n"
               "           [--no-analyze] [--json] [--Werror]\n"
               "exit codes: 0 = clean, 1 = findings or failures, 2 = usage/IO error\n");
  return kExitUsage;
}

std::optional<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return std::nullopt;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

struct Args {
  std::string command;
  std::string spec_path;
  std::string app = "health";
  std::string app_file;  // --app-file: app-description-language source
  std::string system = "artemis";
  MonitorBackend backend = MonitorBackend::kBuiltin;
  bool mayfly_lang = false;
  bool immortal = true;
  bool trace = false;
  bool analyze = false;     // check: run the FSM IR static analyzer
  bool no_analyze = false;  // codegen/dot: skip the analyzer gate
  bool json = false;        // check --analyze: machine-readable diagnostics
  bool werror = false;      // promote analyzer warnings to errors
  ArbitrationPolicy policy = ArbitrationPolicy::kSeverity;
  SimDuration charge = 0;
  EnergyUj budget = 19'500.0;
  // trace command only.
  std::string schedule = "6min";  // charge-bin name or "continuous"
  std::string format = "jsonl";   // jsonl | perfetto | stats
  std::string out_path;           // --out; empty = stdout
  std::string diff_left;          // trace diff operands
  std::string diff_right;
  // sweep command only. Comma-separated axis lists; empty = keep the grid
  // file's (or the engine's) defaults.
  std::string grid_path;
  std::string sweep_systems;
  std::string sweep_charges;
  std::string sweep_budgets;
  std::string sweep_backends;
  std::string sweep_timekeepers;
  std::string sweep_seeds;
  std::string sweep_max_wall;
  std::string sweep_flight;  // --flight: recorder level axis for sweep
  bool sweep_stats = false;
  int jobs = 1;
  // fleet command only. Charges/budgets/stats reuse the sweep axis fields.
  std::uint64_t fleet_devices = 1000;   // --devices
  int fleet_shards = 1;                 // --shards
  std::string fleet_minutes;            // --minutes: horizon mode
  std::string fleet_iterations;         // --iterations: fixed-pass mode
  std::string fleet_monitor = "batch";  // --monitor scalar|batch
  std::uint32_t fleet_tile = 256;       // --tile
  std::uint64_t fleet_seed = 1;         // --seed
  bool backend_set = false;  // fleet defaults to compiled unless --backend given
  // swap command (second positional) and check --spec2: the replacement
  // spec whose image hot-swaps over the running one (docs/hotswap.md).
  std::string spec2_path;
  std::string swap_at;  // --swap-at: earliest swap delivery time (duration)
  // forensics command only.
  std::string forensics_mode;         // dump | timeline | audit | detect
  std::string flight_level = "full";  // --level
  std::size_t flight_bytes = 1024;    // --flight-bytes (ring capacity)
  SimDuration detect_gap = 5 * kMinute;  // --gap
  std::uint32_t min_attempts = 3;        // --min-attempts
};

bool ParseArgs(int argc, char** argv, Args* args) {
  if (argc < 2) {
    return false;
  }
  args->command = argv[1];
  int i = 2;
  if (args->command == "trace") {
    // `trace diff <a> <b>` is its own mode; otherwise the spec file is an
    // optional positional (the demo app's embedded spec is the default).
    if (i < argc && std::strcmp(argv[i], "diff") == 0) {
      args->command = "trace-diff";
      ++i;
      if (i + 1 >= argc) {
        return false;
      }
      args->diff_left = argv[i++];
      args->diff_right = argv[i++];
    } else if (i < argc && argv[i][0] != '-') {
      args->spec_path = argv[i++];
    }
  } else if (args->command == "sweep") {
    if (i < argc && argv[i][0] != '-') {
      args->grid_path = argv[i++];
    }
  } else if (args->command == "forensics") {
    if (i >= argc || argv[i][0] == '-') {
      std::fprintf(stderr, "artemisc: forensics wants a mode (dump|timeline|audit|detect)\n");
      return false;
    }
    args->forensics_mode = argv[i++];
    if (args->forensics_mode != "dump" && args->forensics_mode != "timeline" &&
        args->forensics_mode != "audit" && args->forensics_mode != "detect") {
      std::fprintf(stderr, "artemisc: unknown forensics mode '%s' (dump|timeline|audit|detect)\n",
                   args->forensics_mode.c_str());
      return false;
    }
  } else if (args->command == "swap") {
    if (i + 1 >= argc || argv[i][0] == '-' || argv[i + 1][0] == '-') {
      std::fprintf(stderr, "artemisc: swap wants two spec files (installed, replacement)\n");
      return false;
    }
    args->spec_path = argv[i++];
    args->spec2_path = argv[i++];
  } else if (args->command != "simulate" && args->command != "profile" &&
             args->command != "fleet") {
    if (i >= argc) {
      return false;
    }
    args->spec_path = argv[i++];
  }
  for (; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (flag == "--app") {
      const char* value = next();
      if (value == nullptr) {
        return false;
      }
      args->app = value;
    } else if (flag == "--app-file") {
      const char* value = next();
      if (value == nullptr) {
        return false;
      }
      args->app_file = value;
    } else if (flag == "--system") {
      const char* value = next();
      if (value == nullptr) {
        return false;
      }
      args->system = value;
    } else if (flag == "--backend") {
      const char* value = next();
      if (value == nullptr) {
        return false;
      }
      if (std::strcmp(value, "builtin") == 0) {
        args->backend = MonitorBackend::kBuiltin;
      } else if (std::strcmp(value, "interpreted") == 0) {
        args->backend = MonitorBackend::kInterpreted;
      } else if (std::strcmp(value, "compiled") == 0) {
        args->backend = MonitorBackend::kCompiled;
      } else {
        std::fprintf(stderr,
                     "artemisc: unknown backend '%s' (builtin|interpreted|compiled)\n", value);
        return false;
      }
      args->backend_set = true;
    } else if (flag == "--spec") {
      const char* value = next();
      if (value == nullptr) {
        return false;
      }
      args->spec_path = value;
    } else if (flag == "--charge") {
      const char* value = next();
      if (value == nullptr) {
        return false;
      }
      const std::optional<SimDuration> parsed = ParseDuration(value);
      if (!parsed.has_value()) {
        std::fprintf(stderr, "artemisc: bad duration '%s'\n", value);
        return false;
      }
      args->charge = *parsed;
    } else if (flag == "--budget") {
      const char* value = next();
      if (value == nullptr) {
        return false;
      }
      args->budget = std::atof(value);
    } else if (flag == "--schedule") {
      const char* value = next();
      if (value == nullptr) {
        return false;
      }
      args->schedule = value;
    } else if (flag == "--format") {
      const char* value = next();
      if (value == nullptr) {
        return false;
      }
      args->format = value;
    } else if (flag == "--out") {
      const char* value = next();
      if (value == nullptr) {
        return false;
      }
      args->out_path = value;
    } else if (flag == "--policy") {
      const char* value = next();
      if (value == nullptr) {
        return false;
      }
      if (std::strcmp(value, "severity") == 0) {
        args->policy = ArbitrationPolicy::kSeverity;
      } else if (std::strcmp(value, "first-wins") == 0) {
        args->policy = ArbitrationPolicy::kFirstWins;
      } else if (std::strcmp(value, "last-wins") == 0) {
        args->policy = ArbitrationPolicy::kLastWins;
      } else {
        std::fprintf(stderr, "artemisc: unknown policy '%s' (severity|first-wins|last-wins)\n",
                     value);
        return false;
      }
    } else if (flag == "--analyze") {
      args->analyze = true;
    } else if (flag == "--no-analyze") {
      args->no_analyze = true;
    } else if (flag == "--json") {
      args->json = true;
    } else if (flag == "--Werror") {
      args->werror = true;
    } else if (flag == "--mayfly-lang") {
      args->mayfly_lang = true;
    } else if (flag == "--no-immortal") {
      args->immortal = false;
    } else if (flag == "--trace") {
      args->trace = true;
    } else if (flag == "--jobs") {
      const char* value = next();
      if (value == nullptr || std::atoi(value) < 1) {
        std::fprintf(stderr, "artemisc: --jobs wants a positive integer\n");
        return false;
      }
      args->jobs = std::atoi(value);
    } else if (flag == "--systems") {
      const char* value = next();
      if (value == nullptr) {
        return false;
      }
      args->sweep_systems = value;
    } else if (flag == "--charges") {
      const char* value = next();
      if (value == nullptr) {
        return false;
      }
      args->sweep_charges = value;
    } else if (flag == "--budgets") {
      const char* value = next();
      if (value == nullptr) {
        return false;
      }
      args->sweep_budgets = value;
    } else if (flag == "--backends") {
      const char* value = next();
      if (value == nullptr) {
        return false;
      }
      args->sweep_backends = value;
    } else if (flag == "--timekeepers") {
      const char* value = next();
      if (value == nullptr) {
        return false;
      }
      args->sweep_timekeepers = value;
    } else if (flag == "--seeds") {
      const char* value = next();
      if (value == nullptr) {
        return false;
      }
      args->sweep_seeds = value;
    } else if (flag == "--max-wall") {
      const char* value = next();
      if (value == nullptr) {
        return false;
      }
      args->sweep_max_wall = value;
    } else if (flag == "--stats") {
      args->sweep_stats = true;
    } else if (flag == "--flight") {
      const char* value = next();
      if (value == nullptr) {
        return false;
      }
      args->sweep_flight = value;
    } else if (flag == "--devices") {
      const char* value = next();
      if (value == nullptr || std::atoll(value) < 1) {
        std::fprintf(stderr, "artemisc: --devices wants a positive integer\n");
        return false;
      }
      args->fleet_devices = static_cast<std::uint64_t>(std::atoll(value));
    } else if (flag == "--shards") {
      const char* value = next();
      if (value == nullptr || std::atoi(value) < 1) {
        std::fprintf(stderr, "artemisc: --shards wants a positive integer\n");
        return false;
      }
      args->fleet_shards = std::atoi(value);
    } else if (flag == "--minutes") {
      const char* value = next();
      if (value == nullptr || std::atoll(value) < 1) {
        std::fprintf(stderr, "artemisc: --minutes wants a positive integer\n");
        return false;
      }
      args->fleet_minutes = value;
    } else if (flag == "--iterations") {
      const char* value = next();
      if (value == nullptr || std::atoll(value) < 1) {
        std::fprintf(stderr, "artemisc: --iterations wants a positive integer\n");
        return false;
      }
      args->fleet_iterations = value;
    } else if (flag == "--monitor") {
      const char* value = next();
      if (value == nullptr) {
        return false;
      }
      args->fleet_monitor = value;
    } else if (flag == "--tile") {
      const char* value = next();
      if (value == nullptr || std::atoll(value) < 1) {
        std::fprintf(stderr, "artemisc: --tile wants a positive integer\n");
        return false;
      }
      args->fleet_tile = static_cast<std::uint32_t>(std::atoll(value));
    } else if (flag == "--seed") {
      const char* value = next();
      if (value == nullptr) {
        return false;
      }
      args->fleet_seed = static_cast<std::uint64_t>(std::atoll(value));
    } else if (flag == "--level") {
      const char* value = next();
      if (value == nullptr) {
        return false;
      }
      args->flight_level = value;
    } else if (flag == "--flight-bytes") {
      const char* value = next();
      if (value == nullptr || std::atoll(value) < 1) {
        std::fprintf(stderr, "artemisc: --flight-bytes wants a positive integer\n");
        return false;
      }
      args->flight_bytes = static_cast<std::size_t>(std::atoll(value));
    } else if (flag == "--gap") {
      const char* value = next();
      if (value == nullptr) {
        return false;
      }
      const std::optional<SimDuration> parsed = ParseDuration(value);
      if (!parsed.has_value()) {
        std::fprintf(stderr, "artemisc: bad duration '%s'\n", value);
        return false;
      }
      args->detect_gap = *parsed;
    } else if (flag == "--spec2") {
      const char* value = next();
      if (value == nullptr) {
        return false;
      }
      args->spec2_path = value;
    } else if (flag == "--swap-at") {
      const char* value = next();
      if (value == nullptr || !ParseDuration(value).has_value()) {
        std::fprintf(stderr, "artemisc: --swap-at wants a duration like 10min\n");
        return false;
      }
      args->swap_at = value;
    } else if (flag == "--min-attempts") {
      const char* value = next();
      if (value == nullptr || std::atoi(value) < 1) {
        std::fprintf(stderr, "artemisc: --min-attempts wants a positive integer\n");
        return false;
      }
      args->min_attempts = static_cast<std::uint32_t>(std::atoi(value));
    } else {
      std::fprintf(stderr, "artemisc: unknown flag '%s'\n", flag.c_str());
      return false;
    }
  }
  return true;
}

struct DemoApp {
  AppGraph graph;
  std::string default_spec;
};

std::optional<DemoApp> MakeApp(const Args& args) {
  DemoApp app;
  if (!args.app_file.empty()) {
    const std::optional<std::string> source = ReadFile(args.app_file);
    if (!source.has_value()) {
      std::fprintf(stderr, "artemisc: cannot read '%s'\n", args.app_file.c_str());
      return std::nullopt;
    }
    StatusOr<AppDescription> parsed = ParseAppDescription(*source);
    if (!parsed.ok()) {
      std::fprintf(stderr, "app-file error: %s\n", parsed.status().ToString().c_str());
      return std::nullopt;
    }
    app.graph = std::move(parsed.value().graph);
    app.default_spec = "";  // Properties must come from --spec / the argument.
    return app;
  }
  const std::string& name = args.app;
  if (name == "health") {
    HealthApp health = BuildHealthApp();
    app.graph = std::move(health.graph);
    app.default_spec = HealthAppSpec();
    return app;
  }
  if (name == "greenhouse") {
    GreenhouseApp greenhouse = BuildGreenhouseApp();
    app.graph = std::move(greenhouse.graph);
    app.default_spec = GreenhouseSpec();
    return app;
  }
  if (name == "ar") {
    ArApp ar = BuildArApp();
    app.graph = std::move(ar.graph);
    app.default_spec = ArAppSpec();
    return app;
  }
  std::fprintf(stderr, "artemisc: unknown app '%s' (health|greenhouse|ar)\n", name.c_str());
  return std::nullopt;
}

StatusOr<SpecAst> ParseSpec(const Args& args, const std::string& source) {
  if (args.mayfly_lang) {
    return MayflyFrontend::Parse(source);
  }
  return SpecParser::Parse(source);
}

std::vector<std::string> SplitCommaList(const std::string& text);  // defined below

// Deployment axes for the whole-system analyzer passes (ART009-ART014),
// from the shared --charges/--budgets/--flight/--no-immortal flags.
// Defaults: the single --budget value, continuous power, two-phase commit
// on, flight recorder off. False on an unparseable charge schedule.
bool FillAnalysisOptions(const Args& args, AnalysisOptions* options) {
  options->policy = args.policy;
  options->werror = args.werror;
  options->budgets = {args.budget};
  if (!args.sweep_budgets.empty()) {
    options->budgets.clear();
    for (const std::string& budget : SplitCommaList(args.sweep_budgets)) {
      options->budgets.push_back(std::atof(budget.c_str()));
    }
  }
  if (!args.sweep_charges.empty()) {
    options->charges.clear();
    for (const std::string& schedule : SplitCommaList(args.sweep_charges)) {
      StatusOr<SimDuration> charge = sweep::ParseChargeSchedule(schedule);
      if (!charge.ok()) {
        std::fprintf(stderr, "artemisc: %s\n", charge.status().ToString().c_str());
        return false;
      }
      options->charges.push_back(charge.value());
    }
  }
  options->two_phase_commit = args.immortal;
  options->flight_enabled = !args.sweep_flight.empty() && args.sweep_flight != "off";
  options->flight_bytes = args.flight_bytes;
  return true;
}

int RunCheck(const Args& args, const std::string& source) {
  auto app = MakeApp(args);
  if (!app.has_value()) {
    return kExitUsage;
  }
  auto parsed = ParseSpec(args, source);
  if (!parsed.ok()) {
    std::fprintf(stderr, "parse error: %s\n", parsed.status().ToString().c_str());
    return kExitFindings;
  }
  const ValidationResult validation = SpecValidator::Validate(parsed.value(), app->graph);
  if (!validation.ok()) {
    std::fprintf(stderr, "validation error: %s\n", validation.status.ToString().c_str());
    return kExitFindings;
  }
  // With --json, stdout carries only the diagnostics array; the human
  // summary moves to stderr.
  FILE* chatter = args.json ? stderr : stdout;
  for (const std::string& warning : validation.warnings) {
    std::fprintf(chatter, "warning: %s\n", warning.c_str());
  }
  int hard_findings = 0;
  for (const ConsistencyFinding& finding :
       ConsistencyChecker::Analyze(parsed.value(), app->graph)) {
    std::fprintf(chatter, "%s: %s: %s\n", ConsistencySeverityName(finding.severity),
                 finding.property.c_str(), finding.message.c_str());
    hard_findings += finding.severity != ConsistencySeverity::kRisky ? 1 : 0;
  }
  // Static energy feasibility against the device budget (--budget, uJ).
  for (const EnergyFeasibilityFinding& finding :
       AnalyzeEnergyFeasibility(app->graph, args.budget)) {
    if (!finding.feasible) {
      std::fprintf(chatter,
                   "ENERGY: task '%s' needs %.1f uJ per attempt but one on-period "
                   "delivers %.1f uJ; it can never complete (runtime signature: "
                   "maxTries exhaustion)\n",
                   finding.task_name.c_str(), finding.per_attempt, finding.budget);
      ++hard_findings;
    }
  }
  if (args.analyze) {
    auto machines = LowerSpec(parsed.value(), app->graph, {});
    if (!machines.ok()) {
      std::fprintf(stderr, "lowering error: %s\n", machines.status().ToString().c_str());
      return kExitFindings;
    }
    AnalysisOptions options;
    if (!FillAnalysisOptions(args, &options)) {
      return kExitUsage;
    }
    const DiagnosticEngine engine = AnalyzeMachines(machines.value(), app->graph, options);
    if (args.json) {
      std::printf("%s", engine.RenderJson().c_str());
    } else {
      std::printf("%s", engine.RenderText(args.spec_path).c_str());
    }
    std::fprintf(chatter, "analyzer: %zu error(s), %zu warning(s) across %zu machine(s)\n",
                 engine.ErrorCount(), engine.WarningCount(), machines.value().size());
    hard_findings += static_cast<int>(engine.ErrorCount());
  }
  // --spec2: the hot-swap gate. Treats this spec as the installed epoch-1
  // image and --spec2 as the epoch-2 replacement, then runs the migration
  // planner (ART015) and swap-window feasibility pass (ART016).
  if (!args.spec2_path.empty()) {
    const std::optional<std::string> spec2 = ReadFile(args.spec2_path);
    if (!spec2.has_value()) {
      std::fprintf(stderr, "artemisc: cannot read '%s'\n", args.spec2_path.c_str());
      return kExitUsage;
    }
    StatusOr<MonitorImage> old_image = BuildMonitorImage(source, app->graph, 1);
    StatusOr<MonitorImage> new_image = BuildMonitorImage(*spec2, app->graph, 2);
    if (!old_image.ok() || !new_image.ok()) {
      const Status& bad = !old_image.ok() ? old_image.status() : new_image.status();
      std::fprintf(stderr, "swap gate error: %s\n", bad.ToString().c_str());
      return kExitFindings;
    }
    AnalysisOptions options;
    if (!FillAnalysisOptions(args, &options)) {
      return kExitUsage;
    }
    const DiagnosticEngine engine =
        AnalyzeSwap(old_image.value(), new_image.value(), app->graph, options);
    if (args.json) {
      std::printf("%s", engine.RenderJson().c_str());
    } else {
      std::printf("%s", engine.RenderText(args.spec2_path).c_str());
    }
    std::fprintf(chatter, "swap analyzer: %zu error(s), %zu warning(s) migrating to '%s'\n",
                 engine.ErrorCount(), engine.WarningCount(), args.spec2_path.c_str());
    hard_findings += static_cast<int>(engine.ErrorCount());
  }
  std::fprintf(chatter, "%zu properties across %zu task blocks: %s\n",
               parsed.value().PropertyCount(), parsed.value().blocks.size(),
               hard_findings == 0 ? "OK" : "INCONSISTENT");
  return hard_findings == 0 ? kExitClean : kExitFindings;
}

int RunPretty(const Args& args, const std::string& source) {
  auto parsed = ParseSpec(args, source);
  if (!parsed.ok()) {
    std::fprintf(stderr, "parse error: %s\n", parsed.status().ToString().c_str());
    return kExitFindings;
  }
  std::printf("%s", parsed.value().Pretty().c_str());
  return kExitClean;
}

int RunCodegen(const Args& args, const std::string& source, bool dot) {
  auto app = MakeApp(args);
  if (!app.has_value()) {
    return kExitUsage;
  }
  auto parsed = ParseSpec(args, source);
  if (!parsed.ok()) {
    std::fprintf(stderr, "parse error: %s\n", parsed.status().ToString().c_str());
    return kExitFindings;
  }
  const ValidationResult validation = SpecValidator::Validate(parsed.value(), app->graph);
  if (!validation.ok()) {
    std::fprintf(stderr, "validation error: %s\n", validation.status.ToString().c_str());
    return kExitFindings;
  }
  auto machines = LowerSpec(parsed.value(), app->graph, {});
  if (!machines.ok()) {
    std::fprintf(stderr, "lowering error: %s\n", machines.status().ToString().c_str());
    return kExitFindings;
  }
  // The analyzer gates code generation: diagnostics go to stderr, and
  // error-severity findings block C emission (override with --no-analyze).
  // The DOT backend still emits, shading dead states/transitions gray.
  bool analyzer_errors = false;
  DotAnnotations annotations;
  if (!args.no_analyze) {
    AnalysisOptions options;
    if (!FillAnalysisOptions(args, &options)) {
      return kExitUsage;
    }
    const DiagnosticEngine engine = AnalyzeMachines(machines.value(), app->graph, options);
    std::fprintf(stderr, "%s", engine.RenderText(args.spec_path).c_str());
    analyzer_errors = engine.HasErrors();
    annotations = AnnotationsFromDiagnostics(engine.diagnostics());
  }
  if (dot) {
    std::printf("%s", MachinesToDot(machines.value(), app->graph, &annotations).c_str());
    return analyzer_errors ? kExitFindings : kExitClean;
  }
  if (analyzer_errors) {
    std::fprintf(stderr,
                 "artemisc: refusing to emit C code: the analyzer reported errors "
                 "(use --no-analyze to override)\n");
    return kExitFindings;
  }
  CodegenOptions options;
  options.immortal_macros = args.immortal;
  std::printf("%s", CCodeGenerator(options).Generate(machines.value(), app->graph).c_str());
  return kExitClean;
}

// Per-task energy/time profile on continuous power — the Section 5.1
// measurement methodology ("According to our measurements, the accel task
// is the highest power-consuming among other tasks").
int RunProfile(const Args& args) {
  auto app = MakeApp(args);
  if (!app.has_value()) {
    return 2;
  }
  auto mcu = PlatformBuilder().WithContinuousPower().Build();
  ArtemisConfig config;
  config.backend = args.backend;
  auto runtime =
      ArtemisRuntime::Create(&app->graph, app->default_spec, mcu.get(), config);
  if (!runtime.ok()) {
    std::fprintf(stderr, "setup error: %s\n", runtime.status().ToString().c_str());
    return 1;
  }
  const KernelRunResult result = runtime.value()->Run();
  const std::vector<TaskProfile>& profiles = runtime.value()->kernel().profiles();

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
  return result.completed ? 0 : 1;
}

int RunSimulate(const Args& args) {
  auto app = MakeApp(args);
  if (!app.has_value()) {
    return 2;
  }
  std::string source = app->default_spec;
  if (!args.spec_path.empty()) {
    const std::optional<std::string> file = ReadFile(args.spec_path);
    if (!file.has_value()) {
      std::fprintf(stderr, "artemisc: cannot read '%s'\n", args.spec_path.c_str());
      return 2;
    }
    source = *file;
  }
  PlatformBuilder platform;
  if (args.charge != 0) {
    platform.WithFixedCharge(args.budget, args.charge);
  } else {
    platform.WithContinuousPower();
  }
  auto mcu = platform.Build();

  // The timeline is rendered from the kernel's bus events, so they are
  // only collected when --trace asks for them.
  obs::EventBus bus;
  obs::CollectingSink events;
  obs::EventBus* observer = nullptr;
  if (args.trace) {
    bus.AddSink(&events);
    observer = &bus;
  }

  KernelRunResult result;
  if (args.system == "artemis") {
    ArtemisConfig config;
    config.backend = args.backend;
    config.kernel.max_wall_time = 12 * kHour;
    config.kernel.observer = observer;
    auto runtime = ArtemisRuntime::Create(&app->graph, source, mcu.get(), config);
    if (!runtime.ok()) {
      std::fprintf(stderr, "setup error: %s\n", runtime.status().ToString().c_str());
      return 1;
    }
    result = runtime.value()->Run();
  } else if (args.system == "mayfly") {
    auto parsed = ParseSpec(args, source);
    if (!parsed.ok()) {
      std::fprintf(stderr, "parse error: %s\n", parsed.status().ToString().c_str());
      return 1;
    }
    KernelOptions options;
    options.max_wall_time = 12 * kHour;
    options.observer = observer;
    auto runtime = MayflyRuntime::Create(&app->graph, parsed.value(), mcu.get(), options);
    if (!runtime.ok()) {
      std::fprintf(stderr, "setup error: %s\n", runtime.status().ToString().c_str());
      return 1;
    }
    result = runtime.value()->Run();
  } else {
    std::fprintf(stderr, "artemisc: unknown system '%s'\n", args.system.c_str());
    return 2;
  }

  if (args.trace) {
    std::vector<std::string> names;
    for (TaskId t = 0; t < app->graph.task_count(); ++t) {
      names.push_back(app->graph.TaskName(t));
    }
    std::printf("%s", obs::RenderTimeline(events.events(), names).c_str());
  }
  std::printf("system=%s app=%s completed=%s wall=%s reboots=%llu energy=%s\n",
              args.system.c_str(),
              (args.app_file.empty() ? args.app : args.app_file).c_str(),
              result.completed ? "yes" : (result.timed_out ? "NO(non-termination)" : "NO"),
              FormatDuration(result.finished_at).c_str(),
              static_cast<unsigned long long>(result.stats.reboots),
              FormatEnergy(result.stats.TotalEnergy()).c_str());
  std::printf("%s\n", FormatOverheadRow("overheads:", BreakdownFromStats(result.stats)).c_str());
  return result.completed ? 0 : 1;
}

// Runs the app under the observability bus and exports the event stream.
// The JSONL output is deterministic (docs/tracing.md), so two runs with the
// same arguments are byte-identical — the property `trace diff` and the
// golden-trace CI gate build on.
int RunTrace(const Args& args) {
  auto app = MakeApp(args);
  if (!app.has_value()) {
    return kExitUsage;
  }
  std::string source = app->default_spec;
  if (!args.spec_path.empty()) {
    const std::optional<std::string> file = ReadFile(args.spec_path);
    if (!file.has_value()) {
      std::fprintf(stderr, "artemisc: cannot read '%s'\n", args.spec_path.c_str());
      return kExitUsage;
    }
    source = *file;
  }
  // "--schedule Nmin" follows the canonical charge-bin convention used by
  // the benches: the named period minus a 1 s boot margin of stored charge.
  SimDuration charge = 0;
  if (args.schedule != "continuous") {
    const std::optional<SimDuration> period = ParseDuration(args.schedule);
    if (!period.has_value() || *period <= 1 * kSecond) {
      std::fprintf(stderr, "artemisc: bad schedule '%s' (a duration > 1s, or 'continuous')\n",
                   args.schedule.c_str());
      return kExitUsage;
    }
    charge = *period - 1 * kSecond;
  }
  PlatformBuilder platform;
  if (charge != 0) {
    platform.WithFixedCharge(args.budget, charge);
  } else {
    platform.WithContinuousPower();
  }
  auto mcu = platform.Build();

  std::vector<std::string> names;
  for (TaskId t = 0; t < app->graph.task_count(); ++t) {
    names.push_back(app->graph.TaskName(t));
  }

  std::ostringstream trace_out;
  obs::EventBus bus;
  std::unique_ptr<obs::JsonlSink> jsonl;
  std::unique_ptr<obs::PerfettoSink> perfetto;
  ObsStatsAggregator stats;
  if (args.format == "jsonl") {
    obs::JsonlOptions options;
    options.app = args.app_file.empty() ? args.app : args.app_file;
    options.power = charge != 0 ? "fixed-charge" : "always-on";
    options.schedule = args.schedule;
    options.backend = MonitorBackendName(args.backend);
    options.task_names = names;
    jsonl = std::make_unique<obs::JsonlSink>(trace_out, options);
    bus.AddSink(jsonl.get());
  } else if (args.format == "perfetto") {
    perfetto = std::make_unique<obs::PerfettoSink>(trace_out, names);
    bus.AddSink(perfetto.get());
  } else if (args.format == "stats") {
    bus.AddSink(&stats);
  } else {
    std::fprintf(stderr, "artemisc: unknown format '%s' (jsonl|perfetto|stats)\n",
                 args.format.c_str());
    return kExitUsage;
  }

  ArtemisConfig config;
  config.backend = args.backend;
  config.kernel.max_wall_time = 12 * kHour;
  config.observer = &bus;
  auto runtime = ArtemisRuntime::Create(&app->graph, source, mcu.get(), config);
  if (!runtime.ok()) {
    std::fprintf(stderr, "setup error: %s\n", runtime.status().ToString().c_str());
    return kExitFindings;
  }
  const KernelRunResult result = runtime.value()->Run();
  bus.Flush();
  if (args.format == "stats") {
    trace_out << stats.Render();
  }

  const std::string rendered = trace_out.str();
  if (!args.out_path.empty()) {
    std::ofstream out(args.out_path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "artemisc: cannot write '%s'\n", args.out_path.c_str());
      return kExitUsage;
    }
    out << rendered;
  } else {
    std::fwrite(rendered.data(), 1, rendered.size(), stdout);
  }
  std::fprintf(stderr, "trace: app=%s schedule=%s format=%s completed=%s reboots=%llu\n",
               (args.app_file.empty() ? args.app : args.app_file).c_str(),
               args.schedule.c_str(), args.format.c_str(), result.completed ? "yes" : "no",
               static_cast<unsigned long long>(result.stats.reboots));
  return result.completed ? kExitClean : kExitFindings;
}

int RunTraceDiff(const Args& args) {
  const std::optional<std::string> left = ReadFile(args.diff_left);
  if (!left.has_value()) {
    std::fprintf(stderr, "artemisc: cannot read '%s'\n", args.diff_left.c_str());
    return kExitUsage;
  }
  const std::optional<std::string> right = ReadFile(args.diff_right);
  if (!right.has_value()) {
    std::fprintf(stderr, "artemisc: cannot read '%s'\n", args.diff_right.c_str());
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
  auto app = MakeApp(args);
  if (!app.has_value()) {
    return kExitUsage;
  }
  std::string source = app->default_spec;
  if (!args.spec_path.empty()) {
    const std::optional<std::string> file = ReadFile(args.spec_path);
    if (!file.has_value()) {
      std::fprintf(stderr, "artemisc: cannot read '%s'\n", args.spec_path.c_str());
      return kExitUsage;
    }
    source = *file;
  }
  flight::FlightLevel level = flight::FlightLevel::kFull;
  if (!flight::ParseFlightLevel(args.flight_level, &level) ||
      level == flight::FlightLevel::kOff) {
    std::fprintf(stderr, "artemisc: bad --level '%s' (verdicts|full)\n",
                 args.flight_level.c_str());
    return kExitUsage;
  }
  // --spec2: deliver a hot-swap replacement image mid-run (src/swap,
  // docs/hotswap.md) so the recovered ring spans a swap epoch: `timeline`
  // renders the stitched image-epoch line at the commit point, and `audit`
  // cross-validates records from both images against one obs-bus capture.
  std::string source2;
  if (!args.spec2_path.empty()) {
    const std::optional<std::string> file = ReadFile(args.spec2_path);
    if (!file.has_value()) {
      std::fprintf(stderr, "artemisc: cannot read '%s'\n", args.spec2_path.c_str());
      return kExitUsage;
    }
    source2 = *file;
  }
  SimDuration charge = 0;
  if (args.schedule != "continuous") {
    const std::optional<SimDuration> period = ParseDuration(args.schedule);
    if (!period.has_value() || *period <= 1 * kSecond) {
      std::fprintf(stderr, "artemisc: bad schedule '%s' (a duration > 1s, or 'continuous')\n",
                   args.schedule.c_str());
      return kExitUsage;
    }
    charge = *period - 1 * kSecond;
  }
  PlatformBuilder platform;
  if (charge != 0) {
    platform.WithFixedCharge(args.budget, charge);
  } else {
    platform.WithContinuousPower();
  }
  auto mcu = platform.Build();

  flight::FlightRecorder recorder(args.flight_bytes, level);
  if (const Status attached = mcu->AttachFlightRecorder(&recorder); !attached.ok()) {
    std::fprintf(stderr, "artemisc: %s\n", attached.ToString().c_str());
    return kExitUsage;
  }
  obs::EventBus bus;
  obs::CollectingSink capture;
  bus.AddSink(&capture);

  ArtemisConfig config;
  // The swap path needs the versioned on-device image, i.e. the compiled
  // backend; without --spec2 the user's --backend choice stands.
  config.backend = args.spec2_path.empty() ? args.backend : MonitorBackend::kCompiled;
  config.kernel.max_wall_time = 12 * kHour;
  config.observer = &bus;
  config.flight = &recorder;
  StatusOr<std::unique_ptr<ArtemisRuntime>> runtime = Status::Internal("unset");
  std::optional<HotSwapController> controller;
  if (args.spec2_path.empty()) {
    runtime = ArtemisRuntime::Create(&app->graph, source, mcu.get(), config);
  } else {
    StatusOr<MonitorImage> old_image = BuildMonitorImage(source, app->graph, 1);
    if (!old_image.ok()) {
      std::fprintf(stderr, "spec error: %s\n", old_image.status().ToString().c_str());
      return kExitFindings;
    }
    StatusOr<MonitorImage> new_image = BuildMonitorImage(source2, app->graph, 2);
    if (!new_image.ok()) {
      std::fprintf(stderr, "spec2 error: %s\n", new_image.status().ToString().c_str());
      return kExitFindings;
    }
    runtime = ArtemisRuntime::CreateFromArtifact(&app->graph, old_image.value().artifact,
                                                 mcu.get(), config);
    if (runtime.ok()) {
      controller.emplace(&runtime.value()->monitors(), std::move(old_image).value(),
                         &app->graph);
      controller->set_flight(&recorder);
      SimDuration swap_at = 0;
      if (!args.swap_at.empty()) {
        swap_at = *ParseDuration(args.swap_at);  // Validated in ParseArgs.
      }
      if (const Status queued = controller->RequestSwap(std::move(new_image).value(), swap_at);
          !queued.ok()) {
        std::fprintf(stderr, "artemisc: %s\n", queued.ToString().c_str());
        return kExitFindings;
      }
      runtime.value()->kernel().set_swap_hook(&*controller);
    }
  }
  if (!runtime.ok()) {
    std::fprintf(stderr, "setup error: %s\n", runtime.status().ToString().c_str());
    return kExitFindings;
  }
  const KernelRunResult result = runtime.value()->Run();
  bus.Flush();

  StatusOr<std::vector<flight::FlightRecord>> records = flight::DecodeRing(recorder.Image());
  if (!records.ok()) {
    std::fprintf(stderr, "artemisc: flight log corrupt: %s\n",
                 records.status().ToString().c_str());
    return kExitFindings;
  }

  flight::FlightMeta meta = flight::MetaFromRecorder(recorder);
  meta.app = args.app_file.empty() ? args.app : args.app_file;
  meta.power = charge != 0 ? "fixed-charge" : "always-on";
  meta.schedule = args.schedule;
  meta.backend = MonitorBackendName(args.backend);
  for (TaskId t = 0; t < app->graph.task_count(); ++t) {
    meta.task_names.push_back(app->graph.TaskName(t));
  }

  std::string rendered;
  bool clean = true;
  if (args.forensics_mode == "dump") {
    rendered = flight::RenderDumpJsonl(records.value(), meta);
  } else if (args.forensics_mode == "timeline") {
    rendered = flight::RenderTimeline(records.value(), meta);
  } else if (args.forensics_mode == "audit") {
    const flight::AuditReport report = flight::Audit(records.value(), capture.events());
    rendered = flight::RenderAudit(report, meta);
    clean = report.ok();
  } else {
    flight::DetectOptions options;
    options.min_attempts = args.min_attempts;
    options.max_gap = args.detect_gap;
    const std::vector<flight::Finding> findings = flight::Detect(records.value(), options);
    rendered = flight::RenderDetect(findings, meta);
    clean = findings.empty();
  }

  if (!args.out_path.empty()) {
    std::ofstream out(args.out_path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "artemisc: cannot write '%s'\n", args.out_path.c_str());
      return kExitUsage;
    }
    out << rendered;
  } else {
    std::fwrite(rendered.data(), 1, rendered.size(), stdout);
  }
  std::fprintf(stderr,
               "forensics: app=%s schedule=%s level=%s completed=%s reboots=%llu "
               "sealed=%llu decoded=%zu\n",
               meta.app.c_str(), args.schedule.c_str(), flight::FlightLevelName(level),
               result.completed ? "yes" : "no",
               static_cast<unsigned long long>(result.stats.reboots),
               static_cast<unsigned long long>(recorder.stats().records_sealed),
               records.value().size());
  if (controller.has_value()) {
    const SwapStats& swap_stats = controller->stats();
    std::fprintf(stderr, "forensics: swap epoch=%u %s attempts=%llu failed=%llu\n",
                 controller->installed().epoch,
                 swap_stats.swaps_applied > 0 ? "APPLIED" : "NOT APPLIED",
                 static_cast<unsigned long long>(swap_stats.attempts_started),
                 static_cast<unsigned long long>(swap_stats.attempts_failed));
    if (swap_stats.swaps_applied == 0) {
      clean = false;
    }
  }
  return clean ? kExitClean : kExitFindings;
}

// Over-the-air monitor replacement on the simulated device (src/swap,
// docs/hotswap.md): installs <spec-v1> as the epoch-1 monitor image, queues
// <spec-v2> as the epoch-2 replacement, and runs the app while the kernel
// delivers the swap at the first task-boundary quiescence point at or after
// --swap-at. The ART015/ART016 gate runs first and refuses un-migratable
// images unless --no-analyze.
int RunSwapCmd(const Args& args) {
  auto app = MakeApp(args);
  if (!app.has_value()) {
    return kExitUsage;
  }
  const std::optional<std::string> source1 = ReadFile(args.spec_path);
  if (!source1.has_value()) {
    std::fprintf(stderr, "artemisc: cannot read '%s'\n", args.spec_path.c_str());
    return kExitUsage;
  }
  const std::optional<std::string> source2 = ReadFile(args.spec2_path);
  if (!source2.has_value()) {
    std::fprintf(stderr, "artemisc: cannot read '%s'\n", args.spec2_path.c_str());
    return kExitUsage;
  }
  StatusOr<MonitorImage> old_image = BuildMonitorImage(*source1, app->graph, 1);
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
    AnalysisOptions options;
    if (!FillAnalysisOptions(args, &options)) {
      return kExitUsage;
    }
    const DiagnosticEngine engine =
        AnalyzeSwap(old_image.value(), new_image.value(), app->graph, options);
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

  SimDuration charge = 0;
  if (args.schedule != "continuous") {
    const std::optional<SimDuration> period = ParseDuration(args.schedule);
    if (!period.has_value() || *period <= 1 * kSecond) {
      std::fprintf(stderr, "artemisc: bad schedule '%s' (a duration > 1s, or 'continuous')\n",
                   args.schedule.c_str());
      return kExitUsage;
    }
    charge = *period - 1 * kSecond;
  }
  PlatformBuilder platform;
  if (charge != 0) {
    platform.WithFixedCharge(args.budget, charge);
  } else {
    platform.WithContinuousPower();
  }
  auto mcu = platform.Build();

  std::unique_ptr<flight::FlightRecorder> recorder;
  if (!args.sweep_flight.empty() && args.sweep_flight != "off") {
    flight::FlightLevel level = flight::FlightLevel::kOff;
    if (!flight::ParseFlightLevel(args.sweep_flight, &level)) {
      std::fprintf(stderr, "artemisc: bad --flight '%s' (off|verdicts|full)\n",
                   args.sweep_flight.c_str());
      return kExitUsage;
    }
    recorder = std::make_unique<flight::FlightRecorder>(args.flight_bytes, level);
    if (const Status attached = mcu->AttachFlightRecorder(recorder.get()); !attached.ok()) {
      std::fprintf(stderr, "artemisc: %s\n", attached.ToString().c_str());
      return kExitUsage;
    }
  }
  SimDuration swap_at = 0;
  if (!args.swap_at.empty()) {
    swap_at = *ParseDuration(args.swap_at);  // Validated in ParseArgs.
  }

  ArtemisConfig config;
  config.backend = MonitorBackend::kCompiled;  // The only versioned backend.
  config.kernel.max_wall_time = 12 * kHour;
  config.flight = recorder.get();
  const std::uint64_t old_hash = old_image.value().header.spec_hash;
  const std::uint64_t new_hash = new_image.value().header.spec_hash;
  auto runtime = ArtemisRuntime::CreateFromArtifact(&app->graph, old_image.value().artifact,
                                                    mcu.get(), config);
  if (!runtime.ok()) {
    std::fprintf(stderr, "setup error: %s\n", runtime.status().ToString().c_str());
    return kExitFindings;
  }
  HotSwapController controller(&runtime.value()->monitors(), std::move(old_image).value(),
                               &app->graph);
  controller.set_flight(recorder.get());
  if (const Status queued = controller.RequestSwap(std::move(new_image).value(), swap_at);
      !queued.ok()) {
    std::fprintf(stderr, "artemisc: %s\n", queued.ToString().c_str());
    return kExitFindings;
  }
  runtime.value()->kernel().set_swap_hook(&controller);
  const KernelRunResult result = runtime.value()->Run();

  const SwapStats& stats = controller.stats();
  std::fprintf(chatter, "swap: %016llx (epoch 1) -> %016llx (epoch %u): %s\n",
               static_cast<unsigned long long>(old_hash),
               static_cast<unsigned long long>(new_hash), controller.installed().epoch,
               stats.swaps_applied > 0 ? "APPLIED" : "NOT APPLIED");
  std::fprintf(chatter,
               "swap: attempts=%llu failed=%llu staged_bytes=%llu fallback_commits=%llu\n",
               static_cast<unsigned long long>(stats.attempts_started),
               static_cast<unsigned long long>(stats.attempts_failed),
               static_cast<unsigned long long>(stats.bytes_staged),
               static_cast<unsigned long long>(stats.fallback_commits));
  std::fprintf(chatter, "app=%s completed=%s wall=%s reboots=%llu energy=%s\n",
               (args.app_file.empty() ? args.app : args.app_file).c_str(),
               result.completed ? "yes" : (result.timed_out ? "NO(non-termination)" : "NO"),
               FormatDuration(result.finished_at).c_str(),
               static_cast<unsigned long long>(result.stats.reboots),
               FormatEnergy(result.stats.TotalEnergy()).c_str());
  return result.completed && stats.swaps_applied > 0 ? kExitClean : kExitFindings;
}

std::vector<std::string> SplitCommaList(const std::string& text) {
  std::vector<std::string> out;
  std::string current;
  for (const char c : text) {
    if (c == ',') {
      out.push_back(current);
      current.clear();
    } else {
      current += c;
    }
  }
  out.push_back(current);
  return out;
}

int RunSweepCmd(const Args& args) {
  sweep::SweepSpec grid;
  if (!args.grid_path.empty()) {
    const std::optional<std::string> source = ReadFile(args.grid_path);
    if (!source.has_value()) {
      std::fprintf(stderr, "artemisc: cannot read '%s'\n", args.grid_path.c_str());
      return kExitUsage;
    }
    StatusOr<sweep::SweepSpec> parsed =
        sweep::ParseGridJson(*source, [](const std::string& path) -> StatusOr<std::string> {
          const std::optional<std::string> text = ReadFile(path);
          if (!text.has_value()) {
            return Status::Invalid("sweep grid: cannot read spec file '" + path + "'");
          }
          return *text;
        });
    if (!parsed.ok()) {
      std::fprintf(stderr, "artemisc: %s\n", parsed.status().ToString().c_str());
      return kExitUsage;
    }
    grid = std::move(parsed).value();
  }

  // Axis flags override the grid file (and the engine defaults).
  if (args.app != "health" || args.grid_path.empty()) {
    grid.app = args.app;
  }
  if (!args.spec_path.empty()) {
    const std::optional<std::string> text = ReadFile(args.spec_path);
    if (!text.has_value()) {
      std::fprintf(stderr, "artemisc: cannot read '%s'\n", args.spec_path.c_str());
      return kExitUsage;
    }
    grid.specs = {{args.spec_path, *text}};
  }
  if (!args.sweep_systems.empty()) {
    grid.systems = SplitCommaList(args.sweep_systems);
  }
  if (!args.sweep_backends.empty()) {
    grid.backends = SplitCommaList(args.sweep_backends);
  }
  if (!args.sweep_timekeepers.empty()) {
    grid.timekeepers = SplitCommaList(args.sweep_timekeepers);
  }
  if (!args.sweep_charges.empty()) {
    grid.charges.clear();
    for (const std::string& schedule : SplitCommaList(args.sweep_charges)) {
      StatusOr<SimDuration> charge = sweep::ParseChargeSchedule(schedule);
      if (!charge.ok()) {
        std::fprintf(stderr, "artemisc: %s\n", charge.status().ToString().c_str());
        return kExitUsage;
      }
      grid.charges.push_back(charge.value());
    }
  }
  if (!args.sweep_budgets.empty()) {
    grid.budgets.clear();
    for (const std::string& budget : SplitCommaList(args.sweep_budgets)) {
      grid.budgets.push_back(std::atof(budget.c_str()));
    }
  }
  if (!args.sweep_seeds.empty()) {
    grid.seeds.clear();
    for (const std::string& seed : SplitCommaList(args.sweep_seeds)) {
      grid.seeds.push_back(static_cast<std::uint64_t>(std::atoll(seed.c_str())));
    }
  }
  if (!args.sweep_max_wall.empty()) {
    const std::optional<SimDuration> wall = ParseDuration(args.sweep_max_wall);
    if (!wall.has_value()) {
      std::fprintf(stderr, "artemisc: bad duration '%s'\n", args.sweep_max_wall.c_str());
      return kExitUsage;
    }
    grid.max_wall = *wall;
  }
  if (args.sweep_stats) {
    grid.collect_stats = true;
  }
  if (!args.sweep_flight.empty()) {
    grid.flight = args.sweep_flight;
    grid.flight_bytes = args.flight_bytes;
  }
  if (!args.spec2_path.empty()) {
    const std::optional<std::string> text = ReadFile(args.spec2_path);
    if (!text.has_value()) {
      std::fprintf(stderr, "artemisc: cannot read '%s'\n", args.spec2_path.c_str());
      return kExitUsage;
    }
    grid.spec2 = {args.spec2_path, *text};
  }
  if (!args.swap_at.empty()) {
    grid.swap_at = *ParseDuration(args.swap_at);  // Validated in ParseArgs.
  }
  if (args.no_analyze) {
    grid.analyze = false;
  }

  StatusOr<sweep::SweepOutcome> outcome = sweep::RunSweep(grid, args.jobs);
  if (!outcome.ok()) {
    std::fprintf(stderr, "artemisc: %s\n", outcome.status().ToString().c_str());
    return kExitUsage;
  }

  std::string rendered;
  if (args.format == "json") {
    rendered = sweep::RenderJson(grid, outcome.value());
  } else if (args.format == "csv") {
    rendered = sweep::RenderCsv(outcome.value());
  } else if (args.format == "table" || args.format == "jsonl") {
    // "jsonl" is the Args default (for trace); sweep's default is the table.
    rendered = sweep::RenderTable(outcome.value());
  } else {
    std::fprintf(stderr, "artemisc: unknown sweep format '%s' (json|csv|table)\n",
                 args.format.c_str());
    return kExitUsage;
  }

  if (args.out_path.empty()) {
    std::fputs(rendered.c_str(), stdout);
  } else {
    std::ofstream out(args.out_path);
    if (!out) {
      std::fprintf(stderr, "artemisc: cannot write '%s'\n", args.out_path.c_str());
      return kExitUsage;
    }
    out << rendered;
  }
  // A point that failed setup is a finding, not a usage error: the sweep
  // itself executed and the row carries the diagnosis.
  return outcome.value().AllOk() ? kExitClean : kExitFindings;
}

int RunFleetCmd(const Args& args) {
  if (!args.spec2_path.empty()) {
    // Batch lanes share one compiled image; per-device hot swap is scalar
    // work. The sweep engine carries the swap axis instead.
    std::fprintf(stderr,
                 "artemisc: fleet does not support --spec2; use `artemisc sweep --spec2` "
                 "(docs/hotswap.md)\n");
    return kExitUsage;
  }
  fleet::FleetSpec spec;
  spec.app = args.app;
  if (!args.spec_path.empty()) {
    const std::optional<std::string> text = ReadFile(args.spec_path);
    if (!text.has_value()) {
      std::fprintf(stderr, "artemisc: cannot read '%s'\n", args.spec_path.c_str());
      return kExitUsage;
    }
    spec.spec_text = *text;
    spec.spec_label = args.spec_path;
  }
  // The fleet default backend is compiled (batch mode requires it); an
  // explicit --backend still wins for scalar-mode comparisons.
  if (args.backend_set) {
    spec.backend = args.backend;
  }
  spec.monitor = args.fleet_monitor;
  spec.devices = args.fleet_devices;
  spec.shards = args.fleet_shards;
  spec.seed = args.fleet_seed;
  spec.tile = args.fleet_tile;
  spec.collect_obs = args.sweep_stats;
  // --stats in batch mode also profiles the dispatch-entry traffic (which
  // (state, kind, task) entries the fleet's events actually hit).
  spec.collect_traffic = args.sweep_stats && spec.monitor == "batch";
  if (!args.sweep_charges.empty()) {
    spec.charges.clear();
    for (const std::string& schedule : SplitCommaList(args.sweep_charges)) {
      StatusOr<SimDuration> charge = sweep::ParseChargeSchedule(schedule);
      if (!charge.ok()) {
        std::fprintf(stderr, "artemisc: %s\n", charge.status().ToString().c_str());
        return kExitUsage;
      }
      spec.charges.push_back(charge.value());
    }
  }
  if (!args.sweep_budgets.empty()) {
    spec.budgets.clear();
    for (const std::string& budget : SplitCommaList(args.sweep_budgets)) {
      spec.budgets.push_back(std::atof(budget.c_str()));
    }
  }
  if (!args.fleet_minutes.empty()) {
    // Horizon mode: every device loops its app until M simulated minutes.
    spec.iterations = 0;
    spec.horizon = static_cast<SimDuration>(std::atoll(args.fleet_minutes.c_str())) * kMinute;
  } else if (!args.fleet_iterations.empty()) {
    spec.iterations = static_cast<std::uint64_t>(std::atoll(args.fleet_iterations.c_str()));
  }
  if (args.no_analyze) {
    spec.analyze = false;
  }

  StatusOr<fleet::FleetOutcome> outcome = fleet::RunFleet(spec);
  if (!outcome.ok()) {
    std::fprintf(stderr, "artemisc: %s\n", outcome.status().ToString().c_str());
    return kExitUsage;
  }

  std::string rendered;
  if (args.format == "json") {
    rendered = fleet::RenderFleetJson(spec, outcome.value());
  } else if (args.format == "table" || args.format == "jsonl") {
    // "jsonl" is the Args default (for trace); fleet's default is the table.
    rendered = fleet::RenderFleetTable(spec, outcome.value());
  } else {
    std::fprintf(stderr, "artemisc: unknown fleet format '%s' (json|table)\n",
                 args.format.c_str());
    return kExitUsage;
  }

  if (args.out_path.empty()) {
    std::fputs(rendered.c_str(), stdout);
  } else {
    std::ofstream out(args.out_path);
    if (!out) {
      std::fprintf(stderr, "artemisc: cannot write '%s'\n", args.out_path.c_str());
      return kExitUsage;
    }
    out << rendered;
  }
  // A failing device is a finding, not a usage error: the fleet ran and the
  // aggregates carry the first failing device's diagnosis.
  return outcome.value().AllOk() ? kExitClean : kExitFindings;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    return Usage();
  }
  if (args.command == "simulate") {
    return RunSimulate(args);
  }
  if (args.command == "sweep") {
    return RunSweepCmd(args);
  }
  if (args.command == "fleet") {
    return RunFleetCmd(args);
  }
  if (args.command == "profile") {
    return RunProfile(args);
  }
  if (args.command == "trace") {
    return RunTrace(args);
  }
  if (args.command == "trace-diff") {
    return RunTraceDiff(args);
  }
  if (args.command == "forensics") {
    return RunForensics(args);
  }
  if (args.command == "swap") {
    return RunSwapCmd(args);
  }
  const std::optional<std::string> source = ReadFile(args.spec_path);
  if (!source.has_value()) {
    std::fprintf(stderr, "artemisc: cannot read '%s'\n", args.spec_path.c_str());
    return kExitUsage;
  }
  if (args.command == "check") {
    return RunCheck(args, *source);
  }
  if (args.command == "pretty") {
    return RunPretty(args, *source);
  }
  if (args.command == "codegen") {
    return RunCodegen(args, *source, /*dot=*/false);
  }
  if (args.command == "dot") {
    return RunCodegen(args, *source, /*dot=*/true);
  }
  return Usage();
}

}  // namespace
}  // namespace artemis

int main(int argc, char** argv) { return artemis::Main(argc, argv); }
