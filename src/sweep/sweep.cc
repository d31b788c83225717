#include "src/sweep/sweep.h"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>

#include "src/analysis/analyzer.h"
#include "src/apps/ar_app.h"
#include "src/apps/greenhouse_app.h"
#include "src/apps/health_app.h"
#include "src/base/json.h"
#include "src/base/thread_pool.h"
#include "src/base/units.h"
#include "src/core/device.h"
#include "src/flight/recorder.h"
#include "src/obs/bus.h"
#include "src/sim/timekeeper.h"
#include "src/swap/hotswap.h"
#include "src/swap/image.h"
#include "src/sweep/grid_json.h"

namespace artemis::sweep {

AppGraph BuildAppGraphByName(const std::string& app) {
  if (app == "greenhouse") {
    return std::move(BuildGreenhouseApp().graph);
  }
  if (app == "ar") {
    return std::move(BuildArApp().graph);
  }
  return std::move(BuildHealthApp().graph);
}

// Function-local statics: each graph is built once, on first use, under
// the language's thread-safe initialisation, then only read.
const AppGraph& SharedAppGraph(const std::string& app) {
  if (app == "greenhouse") {
    static const AppGraph greenhouse = BuildAppGraphByName("greenhouse");
    return greenhouse;
  }
  if (app == "ar") {
    static const AppGraph ar = BuildAppGraphByName("ar");
    return ar;
  }
  static const AppGraph health = BuildAppGraphByName("health");
  return health;
}

StatusOr<std::string> DefaultSpecForApp(const std::string& app) {
  if (app == "health") {
    return HealthAppSpec();
  }
  if (app == "greenhouse") {
    return GreenhouseSpec();
  }
  if (app == "ar") {
    return ArAppSpec();
  }
  return Status::Invalid("unknown app '" + app + "' (health|greenhouse|ar)");
}

namespace {

StatusOr<flight::FlightLevel> ParseFlightAxis(const std::string& text) {
  flight::FlightLevel level = flight::FlightLevel::kOff;
  if (!flight::ParseFlightLevel(text, &level)) {
    return Status::Invalid("sweep: unknown flight level '" + text +
                           "' (off|verdicts|full)");
  }
  return level;
}

StatusOr<double> ParseFraction(const std::string& text, const std::string& what) {
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end == nullptr || *end != '\0' || text.empty() || value < 0.0) {
    return Status::Invalid("sweep: bad " + what + " '" + text + "'");
  }
  return value;
}

// nullptr result = "default": leave the platform's implicit ideal clock.
StatusOr<std::unique_ptr<OutageTimekeeper>> MakeTimekeeper(const std::string& text) {
  if (text == "default") {
    return std::unique_ptr<OutageTimekeeper>();
  }
  if (text == "ideal") {
    return std::unique_ptr<OutageTimekeeper>(new IdealTimekeeper());
  }
  if (text.rfind("rtc:", 0) == 0) {
    StatusOr<double> error = ParseFraction(text.substr(4), "rtc error");
    if (!error.ok()) {
      return error.status();
    }
    return std::unique_ptr<OutageTimekeeper>(new RtcTimekeeper(error.value()));
  }
  if (text.rfind("remanence:", 0) == 0) {
    const std::string rest = text.substr(10);
    const std::size_t colon = rest.find(':');
    if (colon == std::string::npos) {
      return Status::Invalid("sweep: timekeeper '" + text +
                             "' wants remanence:<max-duration>:<error>");
    }
    const std::optional<SimDuration> max = ParseDuration(rest.substr(0, colon));
    if (!max.has_value() || *max == 0) {
      return Status::Invalid("sweep: bad remanence range in '" + text + "'");
    }
    StatusOr<double> error = ParseFraction(rest.substr(colon + 1), "remanence error");
    if (!error.ok()) {
      return error.status();
    }
    return std::unique_ptr<OutageTimekeeper>(new RemanenceTimekeeper(*max, error.value()));
  }
  return Status::Invalid("sweep: unknown timekeeper '" + text +
                         "' (default|ideal|rtc:<err>|remanence:<max>:<err>)");
}

// Reservation hints for the exports: a typical JSON row is ~400 bytes and
// a CSV row ~150; longer rows (errors, metrics) just grow the buffer.
constexpr std::size_t kJsonHeaderBytes = 256;
constexpr std::size_t kJsonRowBytes = 448;
constexpr std::size_t kCsvRowBytes = 192;

std::string ChargeCell(SimDuration charge) {
  return charge == 0 ? "continuous" : FormatDuration(charge);
}

std::string OutcomeCell(const SweepRow& row) {
  if (!row.ok) {
    return "ERROR";
  }
  if (row.result.completed) {
    return FormatDuration(row.result.finished_at);
  }
  if (row.result.timed_out) {
    return "DNF (non-termination)";
  }
  if (row.result.starved) {
    return "DNF (starved)";
  }
  return "DNF";
}

// Appends `text` as one CSV field: quoted (with doubled quotes) only when
// it holds a comma, quote or newline.
void AppendCsvCell(std::string& out, std::string_view text) {
  if (text.find_first_of(",\"\n") == std::string_view::npos) {
    out += text;
    return;
  }
  out += '"';
  for (const char c : text) {
    if (c == '"') {
      out += '"';
    }
    out += c;
  }
  out += '"';
}

// One console-table line, laid out as
// printf("%5s  %-8s %-10s %-12s %-18s %-11s %-22s %12s %8s %6s\n"): index
// and the three numbers right-aligned, the rest left-aligned, none cut.
void AppendTableLine(std::string& out, const std::array<std::string_view, 10>& cells) {
  static constexpr std::array<std::size_t, 10> kWidths = {5, 8, 10, 12, 18, 11, 22, 12, 8, 6};
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const std::string_view text = cells[c];
    const std::size_t pad = text.size() < kWidths[c] ? kWidths[c] - text.size() : 0;
    const bool right = c == 0 || c >= 7;
    if (c != 0) {
      out += c == 1 ? "  " : " ";
    }
    if (right) {
      out.append(pad, ' ');
    }
    out += text;
    if (!right) {
      out.append(pad, ' ');
    }
  }
  out += '\n';
}

// The analyzer's deployment axes for a run; an empty axis keeps the
// analyzer's default.
AnalysisOptions GateOptions(const std::vector<EnergyUj>& budgets,
                            const std::vector<SimDuration>& charges, const std::string& flight,
                            std::size_t flight_bytes) {
  AnalysisOptions options;
  if (!budgets.empty()) {
    options.budgets = budgets;
  }
  if (!charges.empty()) {
    options.charges = charges;
  }
  options.flight_enabled = flight != "off";
  options.flight_bytes = flight_bytes;
  return options;
}

}  // namespace

bool SweepOutcome::AllOk() const {
  for (const SweepRow& row : rows) {
    if (!row.ok) {
      return false;
    }
  }
  return true;
}

StatusOr<SimDuration> ParseChargeSchedule(const std::string& text) {
  if (text == "continuous") {
    return static_cast<SimDuration>(0);
  }
  const std::optional<SimDuration> period = ParseDuration(text);
  if (!period.has_value()) {
    return Status::Invalid("sweep: bad charge schedule '" + text +
                           "' (continuous or a duration like 6min)");
  }
  if (*period <= 1 * kSecond) {
    return Status::Invalid("sweep: charge schedule '" + text +
                           "' must exceed the 1s boot margin");
  }
  return *period - 1 * kSecond;
}

StatusOr<std::vector<SweepPoint>> ExpandGrid(const SweepSpec& spec) {
  StatusOr<std::string> default_spec = DefaultSpecForApp(spec.app);
  if (!default_spec.ok()) {
    return default_spec.status();
  }
  if (spec.systems.empty() || spec.specs.empty() || spec.charges.empty() ||
      spec.budgets.empty() || spec.backends.empty() || spec.timekeepers.empty() ||
      spec.seeds.empty()) {
    return Status::Invalid("sweep: every axis needs at least one value");
  }
  for (const std::string& system : spec.systems) {
    if (system != "artemis" && system != "mayfly") {
      return Status::Invalid("sweep: unknown system '" + system + "' (artemis|mayfly)");
    }
  }
  for (const std::string& name : spec.timekeepers) {
    StatusOr<std::unique_ptr<OutageTimekeeper>> probe = MakeTimekeeper(name);
    if (!probe.ok()) {
      return probe.status();
    }
  }
  if (StatusOr<flight::FlightLevel> level = ParseFlightAxis(spec.flight); !level.ok()) {
    return level.status();
  }
  std::vector<std::pair<std::string, MonitorBackend>> backends;
  for (const std::string& name : spec.backends) {
    MonitorBackend backend = MonitorBackend::kBuiltin;
    if (!ParseMonitorBackend(name, &backend)) {
      return Status::Invalid("sweep: unknown backend '" + name +
                             "' (builtin|interpreted|compiled)");
    }
    backends.emplace_back(name, backend);
  }
  for (const SpecSource& source : spec.specs) {
    if (source.label.empty()) {
      return Status::Invalid("sweep: every spec source needs a label");
    }
  }
  if (!spec.spec2.text.empty()) {
    // The swap axis needs a versioned on-device image: the artemis system
    // with the compiled backend is the only pairing that has one.
    for (const std::string& system : spec.systems) {
      if (system != "artemis") {
        return Status::Invalid("sweep: spec2 (hot swap) requires system 'artemis', got '" +
                               system + "'");
      }
    }
    for (const std::string& name : spec.backends) {
      if (name != "compiled") {
        return Status::Invalid("sweep: spec2 (hot swap) requires backend 'compiled', got '" +
                               name + "'");
      }
    }
  }

  std::vector<SweepPoint> points;
  for (const SpecSource& source : spec.specs) {
    const std::string& text = source.text.empty() ? default_spec.value() : source.text;
    for (const std::string& system : spec.systems) {
      for (const auto& [backend_name, backend] : backends) {
        for (const std::string& timekeeper : spec.timekeepers) {
          for (const EnergyUj budget : spec.budgets) {
            for (const SimDuration charge : spec.charges) {
              for (const std::uint64_t seed : spec.seeds) {
                SweepPoint point;
                point.index = points.size();
                point.app = spec.app;
                point.system = system;
                point.spec_label = source.label;
                point.spec_text = text;
                point.backend_name = backend_name;
                point.backend = backend;
                point.timekeeper = timekeeper;
                point.budget = budget;
                point.charge = charge;
                point.seed = seed;
                points.push_back(std::move(point));
              }
            }
          }
        }
      }
    }
  }
  return points;
}

SweepRow RunSweepPoint(const SweepPoint& point, const SweepSpec& spec,
                       CompiledSpecCache& cache) {
  SweepRow row;
  row.index = point.index;
  row.system = point.system;
  row.spec_label = point.spec_label;
  row.backend = point.backend_name;
  row.timekeeper = point.timekeeper;
  row.charge = point.charge;
  row.budget = point.budget;
  row.seed = point.seed;

  const AppGraph& graph = SharedAppGraph(point.app);
  DeviceSetup setup;
  setup.system = point.system == "mayfly" ? DeviceSystem::kMayfly : DeviceSystem::kArtemis;
  setup.backend = point.backend;
  setup.budget = point.budget;
  setup.charge = point.charge;
  setup.kernel.seed = point.seed;
  setup.kernel.max_wall_time = spec.max_wall;
  setup.flight_bytes = spec.flight_bytes;
  StatusOr<std::unique_ptr<OutageTimekeeper>> timekeeper = MakeTimekeeper(point.timekeeper);
  if (!timekeeper.ok()) {
    row.error = timekeeper.status().ToString();
    return row;
  }
  setup.timekeeper = std::move(timekeeper).value();
  // A non-"off" flight axis gives every point its own recorder, so the
  // footprint numbers below are isolated per row.
  StatusOr<flight::FlightLevel> flight_level = ParseFlightAxis(spec.flight);
  if (!flight_level.ok()) {
    row.error = flight_level.status().ToString();
    return row;
  }
  setup.flight = flight_level.value();

  // Per-point bus: the aggregator (collect_stats) and, for a post_run hook,
  // an event log. Attaching costs zero simulated cycles, so neither ever
  // perturbs the simulated results.
  obs::EventBus bus;
  std::shared_ptr<ObsStatsAggregator> aggregator;
  obs::CollectingSink events;
  if (spec.collect_stats) {
    aggregator = std::make_shared<ObsStatsAggregator>();
    bus.AddSink(aggregator.get());
  }
  if (spec.post_run) {
    bus.AddSink(&events);
  }
  setup.observer = bus.active() ? &bus : nullptr;

  // Mayfly runs from the AST, so it shares kAst-stage cache entries with
  // the builtin backend.
  StatusOr<SharedSpecArtifactPtr> artifact =
      cache.Get(point.app, point.spec_text, graph, StageForDevice(setup));
  if (!artifact.ok()) {
    row.error = artifact.status().ToString();
    return row;
  }
  // Hot-swap axis: spec2 is queued as the epoch-2 replacement image before
  // the first boot; the kernel delivers it at quiescence (docs/hotswap.md).
  if (!spec.spec2.text.empty()) {
    StatusOr<SharedSpecArtifactPtr> next =
        cache.Get(point.app, spec.spec2.text, graph, SpecArtifactStage::kCompiled);
    if (!next.ok()) {
      row.error = next.status().ToString();
      return row;
    }
    setup.replacement = std::move(next).value();
    setup.swap_at = spec.swap_at;
  }

  StatusOr<Device> device = BuildDevice(graph, artifact.value(), std::move(setup));
  if (!device.ok()) {
    row.error = device.status().ToString();
    return row;
  }
  row.result = device.value().Run();
  row.ok = true;
  if (const ArtemisRuntime* runtime = device.value().artemis(); runtime != nullptr) {
    row.monitor_events = runtime->monitors().events_processed();
    row.violations = runtime->monitors().violations_reported();
  }
  if (const SwapStats* ss = device.value().swap_stats(); ss != nullptr) {
    row.metrics.emplace_back("swap_applied", static_cast<double>(ss->swaps_applied));
    row.metrics.emplace_back("swap_attempts", static_cast<double>(ss->attempts_started));
    row.metrics.emplace_back("swap_staged_bytes", static_cast<double>(ss->bytes_staged));
    row.metrics.emplace_back("swap_epoch", static_cast<double>(device.value().image_epoch()));
  }
  row.stats = aggregator;
  if (spec.post_run) {
    const SweepRunArtifacts artifacts{.artemis = device.value().artemis(),
                                      .mayfly = device.value().mayfly(),
                                      .graph = &graph,
                                      .events = &events.events()};
    spec.post_run(point, artifacts, &row);
  }
  if (const flight::FlightRecorder* recorder = device.value().recorder(); recorder != nullptr) {
    const flight::FlightStats& fs = recorder->stats();
    row.flight_enabled = true;
    row.flight_sealed = fs.records_sealed;
    row.flight_dropped = fs.appends_aborted + fs.records_evicted + fs.records_dropped;
    row.flight_bytes = fs.bytes_sealed;
    const double total = row.result.stats.TotalEnergy();
    if (total > 0.0) {
      row.flight_energy_share =
          row.result.stats.energy[static_cast<int>(CostTag::kFlight)] / total;
    }
  }
  std::sort(row.metrics.begin(), row.metrics.end());
  return row;
}

Status PreAnalyzeSpec(const std::string& engine_name, const std::string& label,
                      const std::string& text, const AppGraph& graph,
                      const std::vector<EnergyUj>& budgets,
                      const std::vector<SimDuration>& charges,
                      const std::string& flight, std::size_t flight_bytes) {
  StatusOr<SharedSpecArtifactPtr> artifact =
      BuildSpecArtifact(text, graph, SpecArtifactStage::kLowered);
  if (!artifact.ok()) {
    // Unparseable / unlowerable specs are a per-point concern: they become
    // error rows with the frontend's message, the established contract
    // (SweepEngineTest.BadSpecBecomesErrorRowsNotProcessDeath).
    return Status::Ok();
  }
  const DiagnosticEngine engine = AnalyzeMachines(
      artifact.value()->machines, graph, GateOptions(budgets, charges, flight, flight_bytes));
  if (engine.HasErrors()) {
    return Status::Invalid(engine_name + ": static analysis of spec '" + label +
                           "' found " + std::to_string(engine.ErrorCount()) +
                           " error(s); fix the spec or pass --no-analyze\n" +
                           engine.RenderText(label));
  }
  return Status::Ok();
}

StatusOr<SweepOutcome> RunSweep(const SweepSpec& spec, int jobs, CompiledSpecCache* cache) {
  StatusOr<std::vector<SweepPoint>> points = ExpandGrid(spec);
  if (!points.ok()) {
    return points.status();
  }

  // Analyzer gate: one serial pass over the unique specs of the grid (in
  // first-appearance order, so the failing spec is deterministic for any
  // job count), before a single point has burned simulation time.
  if (spec.analyze) {
    const AppGraph& graph = SharedAppGraph(spec.app);
    std::vector<std::string> seen;
    for (const SweepPoint& point : points.value()) {
      if (std::find(seen.begin(), seen.end(), point.spec_text) != seen.end()) {
        continue;
      }
      seen.push_back(point.spec_text);
      const Status gate =
          PreAnalyzeSpec("sweep", point.spec_label, point.spec_text, graph,
                         spec.budgets, spec.charges, spec.flight, spec.flight_bytes);
      if (!gate.ok()) {
        return gate;
      }
    }
    // Swap gate: every (running spec -> spec2) delivery must pass the
    // replacement gate, the same one `artemisc swap` runs. Unbuildable
    // specs become per-point error rows instead.
    StatusOr<MonitorImage> next = Status::Invalid("no spec2");
    if (!spec.spec2.text.empty()) {
      next = BuildMonitorImage(spec.spec2.text, graph, 2);
    }
    for (std::size_t i = 0; next.ok() && i < seen.size(); ++i) {
      StatusOr<MonitorImage> installed = BuildMonitorImage(seen[i], graph, 1);
      if (!installed.ok()) {
        continue;
      }
      const DiagnosticEngine engine = AnalyzeReplacement(
          installed.value(), next.value(), graph,
          GateOptions(spec.budgets, spec.charges, spec.flight, spec.flight_bytes));
      if (engine.HasErrors()) {
        return Status::Invalid("sweep: hot swap to spec '" + spec.spec2.label + "' found " +
                               std::to_string(engine.ErrorCount()) +
                               " error(s); fix the spec or pass --no-analyze\n" +
                               engine.RenderText(spec.spec2.label));
      }
    }
  }

  CompiledSpecCache local_cache;
  CompiledSpecCache& shared = cache != nullptr ? *cache : local_cache;
  const std::uint64_t requests0 = shared.requests();
  const std::uint64_t builds0 = shared.builds();
  const std::uint64_t parses0 = shared.parses();
  const std::uint64_t lowerings0 = shared.lowerings();
  const std::uint64_t compilations0 = shared.compilations();

  SweepOutcome outcome;
  outcome.rows.resize(points.value().size());

  const std::size_t n = points.value().size();
  jobs = ClampWorkers(jobs, n);
  // Each worker claims the next unclaimed point and writes its row into
  // the slot owned by that point's index: no two workers touch the same
  // row, and the collected table is independent of claim order.
  ParallelFor(jobs, n, [&outcome, &points, &spec, &shared](std::size_t i) {
    outcome.rows[i] = RunSweepPoint(points.value()[i], spec, shared);
  });

  outcome.cache_requests = shared.requests() - requests0;
  outcome.cache_builds = shared.builds() - builds0;
  outcome.cache_parses = shared.parses() - parses0;
  outcome.cache_lowerings = shared.lowerings() - lowerings0;
  outcome.cache_compilations = shared.compilations() - compilations0;
  return outcome;
}

std::string RenderJson(const SweepSpec& spec, const SweepOutcome& outcome) {
  std::string out;
  out.reserve(kJsonHeaderBytes + outcome.rows.size() * kJsonRowBytes);
  out += "{\n  \"schema\": \"artemis-sweep/1\",\n  \"app\": ";
  AppendJsonString(out, spec.app);
  out += ",\n  \"max_wall_us\": ";
  AppendUint(out, spec.max_wall);
  out += ",\n  \"points\": ";
  AppendUint(out, outcome.rows.size());
  out += ",\n  \"cache\": {\"requests\": ";
  AppendUint(out, outcome.cache_requests);
  out += ", \"builds\": ";
  AppendUint(out, outcome.cache_builds);
  out += ", \"hits\": ";
  AppendUint(out, outcome.cache_requests - outcome.cache_builds);
  out += ", \"parses\": ";
  AppendUint(out, outcome.cache_parses);
  out += ", \"lowerings\": ";
  AppendUint(out, outcome.cache_lowerings);
  out += ", \"compilations\": ";
  AppendUint(out, outcome.cache_compilations);
  out += "},\n  \"rows\": [\n";
  for (std::size_t i = 0; i < outcome.rows.size(); ++i) {
    const SweepRow& row = outcome.rows[i];
    out += "    {\"index\": ";
    AppendUint(out, row.index);
    out += ", \"system\": ";
    AppendJsonString(out, row.system);
    out += ", \"spec\": ";
    AppendJsonString(out, row.spec_label);
    out += ", \"backend\": ";
    AppendJsonString(out, row.backend);
    out += ", \"timekeeper\": ";
    AppendJsonString(out, row.timekeeper);
    out += ", \"charge_us\": ";
    AppendUint(out, row.charge);
    out += ", \"budget_uj\": ";
    AppendFixed(out, row.budget, 3);
    out += ", \"seed\": ";
    AppendUint(out, row.seed);
    out += row.ok ? ", \"status\": \"ok\"" : ", \"status\": \"error\"";
    if (!row.ok) {
      out += ", \"error\": ";
      AppendJsonString(out, row.error);
    }
    out += ", \"completed\": ";
    out += row.result.completed ? "true" : "false";
    out += ", \"timed_out\": ";
    out += row.result.timed_out ? "true" : "false";
    out += ", \"starved\": ";
    out += row.result.starved ? "true" : "false";
    out += ", \"iterations\": ";
    AppendUint(out, row.result.iterations_completed);
    out += ", \"finished_at_us\": ";
    AppendUint(out, row.result.finished_at);
    out += ", \"energy_uj\": ";
    AppendFixed(out, row.result.stats.TotalEnergy(), 3);
    out += ", \"reboots\": ";
    AppendUint(out, row.result.stats.reboots);
    out += ", \"charging_us\": ";
    AppendUint(out, row.result.stats.charging_time);
    out += ", \"monitor_events\": ";
    AppendUint(out, row.monitor_events);
    out += ", \"violations\": ";
    AppendUint(out, row.violations);
    if (row.stats != nullptr) {
      out += ", \"obs\": {\"events\": ";
      AppendUint(out, row.stats->total_events());
      out += ", \"completed_paths\": ";
      AppendUint(out, row.stats->completed_paths());
      out += ", \"committed_bytes\": ";
      AppendUint(out, row.stats->committed_bytes());
      out += '}';
    }
    if (row.flight_enabled) {
      out += ", \"flight\": {\"sealed\": ";
      AppendUint(out, row.flight_sealed);
      out += ", \"dropped\": ";
      AppendUint(out, row.flight_dropped);
      out += ", \"bytes\": ";
      AppendUint(out, row.flight_bytes);
      out += ", \"energy_share\": ";
      AppendFixed(out, row.flight_energy_share, 6);
      out += '}';
    }
    if (!row.metrics.empty()) {
      out += ", \"metrics\": {";
      for (std::size_t m = 0; m < row.metrics.size(); ++m) {
        if (m != 0) {
          out += ", ";
        }
        AppendJsonString(out, row.metrics[m].first);
        out += ": ";
        AppendFixed(out, row.metrics[m].second, 6);
      }
      out += '}';
    }
    out += i + 1 < outcome.rows.size() ? "},\n" : "}\n";
  }
  out += "  ]\n}\n";
  return out;
}

std::string RenderCsv(const SweepOutcome& outcome) {
  // Flight columns appear only when the sweep ran with a recorder attached:
  // existing consumers of the base schema keep byte-identical output.
  bool any_flight = false;
  for (const SweepRow& row : outcome.rows) {
    any_flight = any_flight || row.flight_enabled;
  }
  std::string out;
  out.reserve(kCsvRowBytes * (outcome.rows.size() + 1));
  out +=
      "index,system,spec,backend,timekeeper,charge_us,budget_uj,seed,status,"
      "completed,timed_out,starved,iterations,finished_at_us,energy_uj,reboots,"
      "charging_us,monitor_events,violations,error,metrics";
  if (any_flight) {
    out += ",flight_sealed,flight_dropped,flight_bytes,flight_energy_share";
  }
  out += '\n';
  std::string metrics;
  for (const SweepRow& row : outcome.rows) {
    AppendUint(out, row.index);
    out += ',';
    AppendCsvCell(out, row.system);
    out += ',';
    AppendCsvCell(out, row.spec_label);
    out += ',';
    AppendCsvCell(out, row.backend);
    out += ',';
    AppendCsvCell(out, row.timekeeper);
    out += ',';
    AppendUint(out, row.charge);
    out += ',';
    AppendFixed(out, row.budget, 3);
    out += ',';
    AppendUint(out, row.seed);
    out += row.ok ? ",ok" : ",error";
    out += row.result.completed ? ",1" : ",0";
    out += row.result.timed_out ? ",1" : ",0";
    out += row.result.starved ? ",1" : ",0";
    out += ',';
    AppendUint(out, row.result.iterations_completed);
    out += ',';
    AppendUint(out, row.result.finished_at);
    out += ',';
    AppendFixed(out, row.result.stats.TotalEnergy(), 3);
    out += ',';
    AppendUint(out, row.result.stats.reboots);
    out += ',';
    AppendUint(out, row.result.stats.charging_time);
    out += ',';
    AppendUint(out, row.monitor_events);
    out += ',';
    AppendUint(out, row.violations);
    out += ',';
    AppendCsvCell(out, row.error);
    out += ',';
    metrics.clear();
    for (const auto& [key, value] : row.metrics) {
      if (!metrics.empty()) {
        metrics += ';';
      }
      metrics += key;
      metrics += '=';
      AppendFixed(metrics, value, 6);
    }
    AppendCsvCell(out, metrics);
    if (any_flight) {
      out += ',';
      AppendUint(out, row.flight_sealed);
      out += ',';
      AppendUint(out, row.flight_dropped);
      out += ',';
      AppendUint(out, row.flight_bytes);
      out += ',';
      AppendFixed(out, row.flight_energy_share, 6);
    }
    out += '\n';
  }
  return out;
}

std::string RenderTable(const SweepOutcome& outcome) {
  std::string out;
  AppendTableLine(out, {"index", "system", "spec", "backend", "timekeeper", "charge",
                        "outcome", "energy_uj", "events", "viol"});
  std::string energy;
  for (const SweepRow& row : outcome.rows) {
    energy.clear();
    AppendFixed(energy, row.result.stats.TotalEnergy(), 1);
    AppendTableLine(out, {std::to_string(row.index), row.system, row.spec_label, row.backend,
                          row.timekeeper, ChargeCell(row.charge), OutcomeCell(row), energy,
                          std::to_string(row.monitor_events), std::to_string(row.violations)});
    if (row.flight_enabled) {
      out += "       flight: ";
      AppendUint(out, row.flight_sealed);
      out += " sealed, ";
      AppendUint(out, row.flight_dropped);
      out += " dropped, ";
      AppendUint(out, row.flight_bytes);
      out += " B, ";
      AppendFixed(out, row.flight_energy_share * 100.0, 2);
      out += "% energy\n";
    }
    if (!row.ok) {
      out += "       error: ";
      out += row.error;
      out += '\n';
    }
  }
  return out;
}

namespace {

Status TypeError(const std::string& key, const std::string& want) {
  return Status::Invalid("sweep grid: \"" + key + "\" must be " + want);
}

StatusOr<std::vector<std::string>> StringArray(const JsonValuePtr& value,
                                               const std::string& key) {
  if (!value->is_array()) {
    return TypeError(key, "an array of strings");
  }
  std::vector<std::string> out;
  for (const JsonValuePtr& item : value->array()) {
    if (!item->is_string()) {
      return TypeError(key, "an array of strings");
    }
    out.push_back(item->string());
  }
  return out;
}

}  // namespace

StatusOr<SweepSpec> ParseGridJson(
    const std::string& text,
    const std::function<StatusOr<std::string>(const std::string&)>& read_file) {
  StatusOr<JsonValuePtr> parsed = ParseJson(text);
  if (!parsed.ok()) {
    return parsed.status();
  }
  const JsonValuePtr root = parsed.value();
  if (!root->is_object()) {
    return Status::Invalid("sweep grid: top level must be a JSON object");
  }

  SweepSpec spec;
  for (const auto& [key, value] : root->object()) {
    if (key == "app") {
      if (!value->is_string()) {
        return TypeError(key, "a string");
      }
      spec.app = value->string();
    } else if (key == "systems") {
      StatusOr<std::vector<std::string>> systems = StringArray(value, key);
      if (!systems.ok()) {
        return systems.status();
      }
      spec.systems = std::move(systems).value();
    } else if (key == "backends") {
      StatusOr<std::vector<std::string>> backends = StringArray(value, key);
      if (!backends.ok()) {
        return backends.status();
      }
      spec.backends = std::move(backends).value();
    } else if (key == "timekeepers") {
      StatusOr<std::vector<std::string>> timekeepers = StringArray(value, key);
      if (!timekeepers.ok()) {
        return timekeepers.status();
      }
      spec.timekeepers = std::move(timekeepers).value();
    } else if (key == "charges") {
      StatusOr<std::vector<std::string>> charges = StringArray(value, key);
      if (!charges.ok()) {
        return charges.status();
      }
      spec.charges.clear();
      for (const std::string& schedule : charges.value()) {
        StatusOr<SimDuration> charge = ParseChargeSchedule(schedule);
        if (!charge.ok()) {
          return charge.status();
        }
        spec.charges.push_back(charge.value());
      }
    } else if (key == "budgets") {
      if (!value->is_array()) {
        return TypeError(key, "an array of numbers (uJ)");
      }
      spec.budgets.clear();
      for (const JsonValuePtr& item : value->array()) {
        if (!item->is_number()) {
          return TypeError(key, "an array of numbers (uJ)");
        }
        spec.budgets.push_back(item->number());
      }
    } else if (key == "seeds") {
      if (!value->is_array()) {
        return TypeError(key, "an array of integers");
      }
      spec.seeds.clear();
      for (const JsonValuePtr& item : value->array()) {
        if (!item->is_number() || item->number() < 0) {
          return TypeError(key, "an array of non-negative integers");
        }
        spec.seeds.push_back(static_cast<std::uint64_t>(item->number()));
      }
    } else if (key == "specs") {
      if (!value->is_array()) {
        return TypeError(key, "an array of {label, text|file} objects");
      }
      spec.specs.clear();
      for (const JsonValuePtr& item : value->array()) {
        if (!item->is_object()) {
          return TypeError(key, "an array of {label, text|file} objects");
        }
        SpecSource source;
        const JsonValuePtr label = item->Find("label");
        if (label == nullptr || !label->is_string() || label->string().empty()) {
          return Status::Invalid("sweep grid: every spec needs a non-empty \"label\"");
        }
        source.label = label->string();
        const JsonValuePtr inline_text = item->Find("text");
        const JsonValuePtr file = item->Find("file");
        if (inline_text != nullptr && file != nullptr) {
          return Status::Invalid("sweep grid: spec \"" + source.label +
                                 "\" has both \"text\" and \"file\"");
        }
        if (inline_text != nullptr) {
          if (!inline_text->is_string()) {
            return TypeError("text", "a string");
          }
          source.text = inline_text->string();
        } else if (file != nullptr) {
          if (!file->is_string()) {
            return TypeError("file", "a string");
          }
          if (read_file == nullptr) {
            return Status::Invalid("sweep grid: spec \"" + source.label +
                                   "\" references a file but file loading is disabled");
          }
          StatusOr<std::string> loaded = read_file(file->string());
          if (!loaded.ok()) {
            return loaded.status();
          }
          source.text = std::move(loaded).value();
        }
        // Neither key: the app's default spec (source.text stays empty).
        spec.specs.push_back(std::move(source));
      }
    } else if (key == "max_wall") {
      if (!value->is_string()) {
        return TypeError(key, "a duration string like \"8h\"");
      }
      const std::optional<SimDuration> wall = ParseDuration(value->string());
      if (!wall.has_value()) {
        return TypeError(key, "a duration string like \"8h\"");
      }
      spec.max_wall = *wall;
    } else if (key == "collect_stats") {
      if (!value->is_bool()) {
        return TypeError(key, "a boolean");
      }
      spec.collect_stats = value->boolean();
    } else if (key == "flight") {
      if (!value->is_string()) {
        return TypeError(key, "a string (off|verdicts|full)");
      }
      StatusOr<flight::FlightLevel> level = ParseFlightAxis(value->string());
      if (!level.ok()) {
        return level.status();
      }
      spec.flight = value->string();
    } else if (key == "flight_bytes") {
      if (!value->is_number() || value->number() < 1) {
        return TypeError(key, "a positive integer (ring capacity in bytes)");
      }
      spec.flight_bytes = static_cast<std::size_t>(value->number());
    } else if (key == "spec2") {
      if (!value->is_object()) {
        return TypeError(key, "a {label?, text|file} object (the replacement spec)");
      }
      SpecSource source;
      source.label = "v2";
      const JsonValuePtr label = value->Find("label");
      if (label != nullptr) {
        if (!label->is_string() || label->string().empty()) {
          return Status::Invalid("sweep grid: \"spec2\" label must be a non-empty string");
        }
        source.label = label->string();
      }
      const JsonValuePtr inline_text = value->Find("text");
      const JsonValuePtr file = value->Find("file");
      if ((inline_text == nullptr) == (file == nullptr)) {
        return Status::Invalid(
            "sweep grid: \"spec2\" needs exactly one of \"text\" or \"file\"");
      }
      if (inline_text != nullptr) {
        if (!inline_text->is_string()) {
          return TypeError("text", "a string");
        }
        source.text = inline_text->string();
      } else {
        if (!file->is_string()) {
          return TypeError("file", "a string");
        }
        if (read_file == nullptr) {
          return Status::Invalid(
              "sweep grid: \"spec2\" references a file but file loading is disabled");
        }
        StatusOr<std::string> loaded = read_file(file->string());
        if (!loaded.ok()) {
          return loaded.status();
        }
        source.text = std::move(loaded).value();
      }
      if (source.text.empty()) {
        return Status::Invalid("sweep grid: \"spec2\" spec text must be non-empty");
      }
      spec.spec2 = std::move(source);
    } else if (key == "swap_at") {
      if (!value->is_string()) {
        return TypeError(key, "a duration string like \"10min\"");
      }
      const std::optional<SimDuration> at = ParseDuration(value->string());
      if (!at.has_value()) {
        return TypeError(key, "a duration string like \"10min\"");
      }
      spec.swap_at = *at;
    } else if (key == "analyze") {
      if (!value->is_bool()) {
        return TypeError(key, "a boolean");
      }
      spec.analyze = value->boolean();
    } else {
      return Status::Invalid("sweep grid: unknown key \"" + key + "\"");
    }
  }
  return spec;
}

}  // namespace artemis::sweep
