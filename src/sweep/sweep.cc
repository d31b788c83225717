#include "src/sweep/sweep.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "src/analysis/analyzer.h"
#include "src/apps/ar_app.h"
#include "src/apps/greenhouse_app.h"
#include "src/apps/health_app.h"
#include "src/base/json.h"
#include "src/base/thread_pool.h"
#include "src/base/units.h"
#include "src/core/builder.h"
#include "src/flight/recorder.h"
#include "src/obs/bus.h"
#include "src/sim/timekeeper.h"
#include "src/swap/hotswap.h"
#include "src/swap/image.h"
#include "src/sweep/grid_json.h"

namespace artemis::sweep {

// The engine builds a fresh graph per simulation: task bodies may close
// over per-instance sensor state, so sharing one graph across concurrent
// simulations would be a determinism (and thread-safety) hole.
AppGraph BuildAppGraphByName(const std::string& app) {
  if (app == "greenhouse") {
    return std::move(BuildGreenhouseApp().graph);
  }
  if (app == "ar") {
    return std::move(BuildArApp().graph);
  }
  return std::move(BuildHealthApp().graph);
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

StatusOr<MonitorBackend> ParseBackend(const std::string& name) {
  if (name == "builtin") {
    return MonitorBackend::kBuiltin;
  }
  if (name == "interpreted") {
    return MonitorBackend::kInterpreted;
  }
  if (name == "compiled") {
    return MonitorBackend::kCompiled;
  }
  return Status::Invalid("sweep: unknown backend '" + name +
                         "' (builtin|interpreted|compiled)");
}

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

std::string FormatFixed(double value, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, value);
  return buf;
}

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

std::string CsvQuote(const std::string& text) {
  if (text.find_first_of(",\"\n") == std::string::npos) {
    return text;
  }
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"') {
      out += "\"\"";
    } else {
      out += c;
    }
  }
  out += '"';
  return out;
}

std::string MetricsCell(const SweepRow& row) {
  std::string out;
  for (const auto& [key, value] : row.metrics) {
    if (!out.empty()) {
      out += ';';
    }
    out += key;
    out += '=';
    out += FormatFixed(value, 6);
  }
  return out;
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
    StatusOr<MonitorBackend> backend = ParseBackend(name);
    if (!backend.ok()) {
      return backend.status();
    }
    backends.emplace_back(name, backend.value());
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

  AppGraph graph = BuildAppGraphByName(point.app);

  PlatformBuilder builder;
  if (point.charge == 0) {
    builder.WithContinuousPower();
  } else {
    builder.WithFixedCharge(point.budget, point.charge);
  }
  StatusOr<std::unique_ptr<OutageTimekeeper>> timekeeper = MakeTimekeeper(point.timekeeper);
  if (!timekeeper.ok()) {
    row.error = timekeeper.status().ToString();
    return row;
  }
  if (timekeeper.value() != nullptr) {
    builder.WithTimekeeper(std::move(timekeeper).value());
  }
  std::unique_ptr<Mcu> mcu = builder.Build();

  // A non-"off" flight axis attaches a per-point recorder: the ring lives in
  // this point's NVM arena and every append is charged to this point's MCU,
  // so the footprint numbers below are isolated per row.
  StatusOr<flight::FlightLevel> flight_level = ParseFlightAxis(spec.flight);
  if (!flight_level.ok()) {
    row.error = flight_level.status().ToString();
    return row;
  }
  std::unique_ptr<flight::FlightRecorder> recorder;
  if (flight_level.value() != flight::FlightLevel::kOff) {
    recorder =
        std::make_unique<flight::FlightRecorder>(spec.flight_bytes, flight_level.value());
    if (const Status attached = mcu->AttachFlightRecorder(recorder.get()); !attached.ok()) {
      row.error = attached.ToString();
      return row;
    }
  }

  // Per-point bus: the aggregator (collect_stats) and, for a post_run hook,
  // an event log. Attaching costs zero simulated cycles, so neither ever
  // perturbs the simulated results.
  obs::EventBus bus;
  ObsStatsAggregator aggregator;
  obs::CollectingSink events;
  if (spec.collect_stats) {
    bus.AddSink(&aggregator);
  }
  if (spec.post_run) {
    bus.AddSink(&events);
  }
  obs::EventBus* observer = bus.active() ? &bus : nullptr;

  // Mayfly derives its rules from the AST, so it shares kAst-stage cache
  // entries with the builtin backend.
  const SpecArtifactStage stage = point.system == "mayfly"
                                      ? SpecArtifactStage::kAst
                                      : StageForBackend(point.backend);
  StatusOr<SharedSpecArtifactPtr> artifact =
      cache.Get(point.app, point.spec_text, graph, stage);
  if (!artifact.ok()) {
    row.error = artifact.status().ToString();
    return row;
  }

  SweepRunArtifacts artifacts;
  artifacts.graph = &graph;
  artifacts.events = &events.events();
  if (point.system == "artemis") {
    ArtemisConfig config;
    config.backend = point.backend;
    config.kernel.seed = point.seed;
    config.kernel.max_wall_time = spec.max_wall;
    config.observer = observer;
    config.flight = recorder.get();
    StatusOr<std::unique_ptr<ArtemisRuntime>> runtime =
        ArtemisRuntime::CreateFromArtifact(&graph, artifact.value(), mcu.get(), config);
    if (!runtime.ok()) {
      row.error = runtime.status().ToString();
      return row;
    }
    // Hot-swap axis: queue spec2 as the epoch-2 replacement image before the
    // first boot; the kernel delivers it at quiescence (docs/hotswap.md).
    std::unique_ptr<HotSwapController> swap;
    if (!spec.spec2.text.empty()) {
      StatusOr<SharedSpecArtifactPtr> next_artifact =
          cache.Get(point.app, spec.spec2.text, graph, SpecArtifactStage::kCompiled);
      if (!next_artifact.ok()) {
        row.error = next_artifact.status().ToString();
        return row;
      }
      MonitorImage installed;
      installed.header = {SpecHash(point.spec_text), 1};
      installed.artifact = artifact.value();
      MonitorImage next;
      next.header = {SpecHash(spec.spec2.text), 2};
      next.artifact = next_artifact.value();
      swap = std::make_unique<HotSwapController>(&runtime.value()->monitors(),
                                                 std::move(installed), &graph);
      swap->set_flight(recorder.get());
      if (const Status queued = swap->RequestSwap(std::move(next), spec.swap_at);
          !queued.ok()) {
        row.error = queued.ToString();
        return row;
      }
      runtime.value()->kernel().set_swap_hook(swap.get());
    }
    row.result = runtime.value()->Run();
    row.monitor_events = runtime.value()->monitors().events_processed();
    row.violations = runtime.value()->monitors().violations_reported();
    artifacts.artemis = runtime.value().get();
    row.ok = true;
    if (swap != nullptr) {
      const SwapStats& ss = swap->stats();
      row.metrics.emplace_back("swap_applied", static_cast<double>(ss.swaps_applied));
      row.metrics.emplace_back("swap_attempts", static_cast<double>(ss.attempts_started));
      row.metrics.emplace_back("swap_staged_bytes", static_cast<double>(ss.bytes_staged));
      row.metrics.emplace_back("swap_epoch", static_cast<double>(swap->installed().epoch));
    }
    if (spec.collect_stats) {
      row.stats = aggregator;
    }
    if (spec.post_run) {
      spec.post_run(point, artifacts, &row);
    }
  } else {
    KernelOptions options;
    options.seed = point.seed;
    options.max_wall_time = spec.max_wall;
    options.observer = observer;
    options.flight = recorder.get();
    if (observer != nullptr) {
      mcu->set_observer(observer);
    }
    StatusOr<std::unique_ptr<MayflyRuntime>> runtime =
        MayflyRuntime::Create(&graph, artifact.value()->ast, mcu.get(), options);
    if (!runtime.ok()) {
      row.error = runtime.status().ToString();
      return row;
    }
    row.result = runtime.value()->Run();
    artifacts.mayfly = runtime.value().get();
    row.ok = true;
    if (spec.collect_stats) {
      row.stats = aggregator;
    }
    if (spec.post_run) {
      spec.post_run(point, artifacts, &row);
    }
  }
  if (recorder != nullptr && row.ok) {
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
  AnalysisOptions options;
  if (!budgets.empty()) {
    options.budgets = budgets;
  }
  if (!charges.empty()) {
    options.charges = charges;
  }
  options.flight_enabled = flight != "off";
  options.flight_bytes = flight_bytes;
  const DiagnosticEngine engine =
      AnalyzeMachines(artifact.value()->machines, graph, options);
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
    const AppGraph graph = BuildAppGraphByName(spec.app);
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
    // Swap gate: the replacement spec must analyze clean on its own, and
    // every (running spec -> spec2) migration must pass ART015/ART016.
    if (!spec.spec2.text.empty()) {
      const Status gate =
          PreAnalyzeSpec("sweep", spec.spec2.label, spec.spec2.text, graph,
                         spec.budgets, spec.charges, spec.flight, spec.flight_bytes);
      if (!gate.ok()) {
        return gate;
      }
      AnalysisOptions options;
      if (!spec.budgets.empty()) {
        options.budgets = spec.budgets;
      }
      if (!spec.charges.empty()) {
        options.charges = spec.charges;
      }
      options.flight_enabled = spec.flight != "off";
      options.flight_bytes = spec.flight_bytes;
      for (const std::string& text : seen) {
        StatusOr<MonitorImage> old_image = BuildMonitorImage(text, graph, 1);
        StatusOr<MonitorImage> new_image = BuildMonitorImage(spec.spec2.text, graph, 2);
        if (!old_image.ok() || !new_image.ok()) {
          continue;  // Unbuildable specs become per-point error rows.
        }
        const DiagnosticEngine engine =
            AnalyzeSwap(old_image.value(), new_image.value(), graph, options);
        if (engine.HasErrors()) {
          return Status::Invalid(
              "sweep: hot swap to spec '" + spec.spec2.label + "' found " +
              std::to_string(engine.ErrorCount()) +
              " error(s); fix the migrate block or pass --no-analyze\n" +
              engine.RenderText(spec.spec2.label));
        }
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
  out += "{\n";
  out += "  \"schema\": \"artemis-sweep/1\",\n";
  out += "  \"app\": \"" + JsonEscape(spec.app) + "\",\n";
  out += "  \"max_wall_us\": " + std::to_string(spec.max_wall) + ",\n";
  out += "  \"points\": " + std::to_string(outcome.rows.size()) + ",\n";
  out += "  \"cache\": {\"requests\": " + std::to_string(outcome.cache_requests) +
         ", \"builds\": " + std::to_string(outcome.cache_builds) +
         ", \"hits\": " + std::to_string(outcome.cache_requests - outcome.cache_builds) +
         ", \"parses\": " + std::to_string(outcome.cache_parses) +
         ", \"lowerings\": " + std::to_string(outcome.cache_lowerings) +
         ", \"compilations\": " + std::to_string(outcome.cache_compilations) + "},\n";
  out += "  \"rows\": [\n";
  for (std::size_t i = 0; i < outcome.rows.size(); ++i) {
    const SweepRow& row = outcome.rows[i];
    out += "    {\"index\": " + std::to_string(row.index);
    out += ", \"system\": \"" + JsonEscape(row.system) + "\"";
    out += ", \"spec\": \"" + JsonEscape(row.spec_label) + "\"";
    out += ", \"backend\": \"" + JsonEscape(row.backend) + "\"";
    out += ", \"timekeeper\": \"" + JsonEscape(row.timekeeper) + "\"";
    out += ", \"charge_us\": " + std::to_string(row.charge);
    out += ", \"budget_uj\": " + FormatFixed(row.budget, 3);
    out += ", \"seed\": " + std::to_string(row.seed);
    out += ", \"status\": \"" + std::string(row.ok ? "ok" : "error") + "\"";
    if (!row.ok) {
      out += ", \"error\": \"" + JsonEscape(row.error) + "\"";
    }
    out += ", \"completed\": " + std::string(row.result.completed ? "true" : "false");
    out += ", \"timed_out\": " + std::string(row.result.timed_out ? "true" : "false");
    out += ", \"starved\": " + std::string(row.result.starved ? "true" : "false");
    out += ", \"iterations\": " + std::to_string(row.result.iterations_completed);
    out += ", \"finished_at_us\": " + std::to_string(row.result.finished_at);
    out += ", \"energy_uj\": " + FormatFixed(row.result.stats.TotalEnergy(), 3);
    out += ", \"reboots\": " + std::to_string(row.result.stats.reboots);
    out += ", \"charging_us\": " + std::to_string(row.result.stats.charging_time);
    out += ", \"monitor_events\": " + std::to_string(row.monitor_events);
    out += ", \"violations\": " + std::to_string(row.violations);
    if (row.stats.has_value()) {
      out += ", \"obs\": {\"events\": " + std::to_string(row.stats->total_events()) +
             ", \"completed_paths\": " + std::to_string(row.stats->completed_paths()) +
             ", \"committed_bytes\": " + std::to_string(row.stats->committed_bytes()) + "}";
    }
    if (row.flight_enabled) {
      out += ", \"flight\": {\"sealed\": " + std::to_string(row.flight_sealed) +
             ", \"dropped\": " + std::to_string(row.flight_dropped) +
             ", \"bytes\": " + std::to_string(row.flight_bytes) +
             ", \"energy_share\": " + FormatFixed(row.flight_energy_share, 6) + "}";
    }
    if (!row.metrics.empty()) {
      out += ", \"metrics\": {";
      for (std::size_t m = 0; m < row.metrics.size(); ++m) {
        if (m != 0) {
          out += ", ";
        }
        out += "\"" + JsonEscape(row.metrics[m].first) +
               "\": " + FormatFixed(row.metrics[m].second, 6);
      }
      out += "}";
    }
    out += i + 1 < outcome.rows.size() ? "},\n" : "}\n";
  }
  out += "  ]\n";
  out += "}\n";
  return out;
}

std::string RenderCsv(const SweepOutcome& outcome) {
  // Flight columns appear only when the sweep ran with a recorder attached:
  // existing consumers of the base schema keep byte-identical output.
  bool any_flight = false;
  for (const SweepRow& row : outcome.rows) {
    any_flight = any_flight || row.flight_enabled;
  }
  std::string out =
      "index,system,spec,backend,timekeeper,charge_us,budget_uj,seed,status,"
      "completed,timed_out,starved,iterations,finished_at_us,energy_uj,reboots,"
      "charging_us,monitor_events,violations,error,metrics";
  if (any_flight) {
    out += ",flight_sealed,flight_dropped,flight_bytes,flight_energy_share";
  }
  out += '\n';
  for (const SweepRow& row : outcome.rows) {
    out += std::to_string(row.index);
    out += ',' + CsvQuote(row.system);
    out += ',' + CsvQuote(row.spec_label);
    out += ',' + CsvQuote(row.backend);
    out += ',' + CsvQuote(row.timekeeper);
    out += ',' + std::to_string(row.charge);
    out += ',' + FormatFixed(row.budget, 3);
    out += ',' + std::to_string(row.seed);
    out += ',' + std::string(row.ok ? "ok" : "error");
    out += ',' + std::string(row.result.completed ? "1" : "0");
    out += ',' + std::string(row.result.timed_out ? "1" : "0");
    out += ',' + std::string(row.result.starved ? "1" : "0");
    out += ',' + std::to_string(row.result.iterations_completed);
    out += ',' + std::to_string(row.result.finished_at);
    out += ',' + FormatFixed(row.result.stats.TotalEnergy(), 3);
    out += ',' + std::to_string(row.result.stats.reboots);
    out += ',' + std::to_string(row.result.stats.charging_time);
    out += ',' + std::to_string(row.monitor_events);
    out += ',' + std::to_string(row.violations);
    out += ',' + CsvQuote(row.error);
    out += ',' + CsvQuote(MetricsCell(row));
    if (any_flight) {
      out += ',' + std::to_string(row.flight_sealed);
      out += ',' + std::to_string(row.flight_dropped);
      out += ',' + std::to_string(row.flight_bytes);
      out += ',' + FormatFixed(row.flight_energy_share, 6);
    }
    out += '\n';
  }
  return out;
}

std::string RenderTable(const SweepOutcome& outcome) {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line), "%5s  %-8s %-10s %-12s %-18s %-11s %-22s %12s %8s %6s\n",
                "index", "system", "spec", "backend", "timekeeper", "charge", "outcome",
                "energy_uj", "events", "viol");
  out += line;
  for (const SweepRow& row : outcome.rows) {
    std::snprintf(line, sizeof(line), "%5zu  %-8s %-10s %-12s %-18s %-11s %-22s %12s %8llu %6llu\n",
                  row.index, row.system.c_str(), row.spec_label.c_str(), row.backend.c_str(),
                  row.timekeeper.c_str(), ChargeCell(row.charge).c_str(),
                  OutcomeCell(row).c_str(), FormatFixed(row.result.stats.TotalEnergy(), 1).c_str(),
                  static_cast<unsigned long long>(row.monitor_events),
                  static_cast<unsigned long long>(row.violations));
    out += line;
    if (row.flight_enabled) {
      std::snprintf(line, sizeof(line),
                    "       flight: %llu sealed, %llu dropped, %llu B, %s%% energy\n",
                    static_cast<unsigned long long>(row.flight_sealed),
                    static_cast<unsigned long long>(row.flight_dropped),
                    static_cast<unsigned long long>(row.flight_bytes),
                    FormatFixed(row.flight_energy_share * 100.0, 2).c_str());
      out += line;
    }
    if (!row.ok) {
      out += "       error: " + row.error + "\n";
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
