// Parallel deterministic scenario-sweep engine.
//
// A SweepSpec declares independent axes (system, property spec, monitor
// backend, timekeeper, on-period budget, charging delay, RNG seed); the
// engine expands their cartesian product into SweepPoints and executes them
// across N worker threads. Determinism contract (docs/sweep.md):
//
//  * every point is an isolated simulation — its own AppGraph, Mcu, kernel,
//    monitor state, and observability bus — whose result depends only on
//    the point's coordinates, never on scheduling;
//  * results land in a pre-sized table slot indexed by the point's grid
//    index, so the collected table (and the JSON/CSV/console renderings of
//    it) is byte-identical for --jobs 1 and --jobs N;
//  * all immutable pipeline products (parsed AST, lowered machines,
//    bytecode) come from a CompiledSpecCache: the pipeline runs exactly
//    once per unique spec and is shared read-only across workers, so
//    per-point setup cost is arena allocation, not parsing/compilation.
//
// Used by `artemisc sweep`, the Figure 12/16 + ablation benches, and
// tests/sweep_test.cc.
#ifndef SRC_SWEEP_SWEEP_H_
#define SRC_SWEEP_SWEEP_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/base/status.h"
#include "src/base/time.h"
#include "src/core/obs_stats.h"
#include "src/core/runtime.h"
#include "src/kernel/kernel.h"
#include "src/mayfly/mayfly.h"
#include "src/monitor/monitor_set.h"
#include "src/sweep/spec_cache.h"

namespace artemis::sweep {

// One property-spec axis value. Empty `text` selects the app's embedded
// default spec (resolved at grid-expansion time).
struct SpecSource {
  std::string label = "default";
  std::string text;
};

struct SweepPoint;
struct SweepRow;

// Everything a post-run hook may inspect, valid only for the duration of
// the hook call, inside the worker thread that ran the point. Exactly one
// of `artemis` / `mayfly` is non-null.
struct SweepRunArtifacts {
  const ArtemisRuntime* artemis = nullptr;
  const MayflyRuntime* mayfly = nullptr;
  const AppGraph* graph = nullptr;
  // Every sim/kernel/monitor event of the point's run, in publish order
  // (a per-point obs::CollectingSink, attached only when post_run is set).
  const std::vector<obs::Event>* events = nullptr;
};

struct SweepSpec {
  std::string app = "health";  // health | greenhouse | ar
  std::vector<std::string> systems = {"artemis"};  // artemis | mayfly
  std::vector<SpecSource> specs = {{}};
  // Charging delay after each on-period; 0 = continuous power.
  std::vector<SimDuration> charges = {0};
  std::vector<EnergyUj> budgets = {19'500.0};
  std::vector<std::string> backends = {"builtin"};  // builtin|interpreted|compiled
  // "default" (the platform's implicit ideal clock), "ideal",
  // "rtc:<relative-error>", or "remanence:<max-duration>:<relative-error>".
  std::vector<std::string> timekeepers = {"default"};
  std::vector<std::uint64_t> seeds = {1};
  SimDuration max_wall = 8 * kHour;
  // Attach a per-point observability bus + ObsStatsAggregator (zero
  // simulated cycles; results land in SweepRow::stats).
  bool collect_stats = false;
  // On-device flight recorder level: "off", "verdicts", or "full". Anything
  // but "off" attaches a per-point FlightRecorder of `flight_bytes` capacity
  // whose appends are charged to the simulated device (docs/forensics.md) —
  // by design this perturbs the simulated results, unlike collect_stats.
  // Footprint numbers land in the SweepRow flight_* fields.
  std::string flight = "off";
  std::size_t flight_bytes = 1024;
  // Hot-swap axis (docs/hotswap.md): when spec2.text is non-empty, every
  // point additionally queues spec2 as a replacement monitor image (epoch 2
  // over the running spec's epoch 1) to be hot-swapped at the first
  // task-boundary quiescence point at or after `swap_at` device time. Swap
  // points require system "artemis" and backend "compiled" (the only
  // backend with a versioned on-device image); the grid is rejected
  // otherwise. Swap bookkeeping lands in SweepRow::metrics under
  // swap_applied / swap_attempts / swap_staged_bytes.
  SpecSource spec2 = {"v2", ""};
  SimDuration swap_at = 0;
  // Fail-fast static-analysis gate: before any point runs, every unique
  // spec in the grid is pushed through the whole-system analyzer
  // (src/analysis) against this grid's budget/charge/flight axes; analyzer
  // errors abort the sweep with a Status (exit 2 from artemisc) instead of
  // burning the grid. `--no-analyze` / {"analyze": false} opts out.
  bool analyze = true;
  // C++-only hook, run inside the worker after the point's simulation, for
  // bench-specific metric extraction into SweepRow::metrics. Must be
  // thread-safe (it runs concurrently for different points) and must
  // derive metrics only from the passed artifacts for determinism.
  std::function<void(const SweepPoint&, const SweepRunArtifacts&, SweepRow*)> post_run;
};

// One expanded grid point. Axis iteration order (outermost first): spec,
// system, backend, timekeeper, budget, charge, seed — so `index` is stable
// for a given SweepSpec regardless of job count.
struct SweepPoint {
  std::size_t index = 0;
  std::string app;
  std::string system;
  std::string spec_label;
  std::string spec_text;  // resolved (never empty)
  std::string backend_name;
  MonitorBackend backend = MonitorBackend::kBuiltin;
  std::string timekeeper;
  EnergyUj budget = 0.0;
  SimDuration charge = 0;
  std::uint64_t seed = 1;
};

// One collected result row. `ok == false` means per-point setup failed
// (spec parse/validation, bad timekeeper, ...): the row carries the error
// text and zeroed results instead of killing the sweep.
struct SweepRow {
  std::size_t index = 0;
  std::string system;
  std::string spec_label;
  std::string backend;
  std::string timekeeper;
  SimDuration charge = 0;
  EnergyUj budget = 0.0;
  std::uint64_t seed = 1;

  bool ok = false;
  std::string error;
  KernelRunResult result;
  std::uint64_t monitor_events = 0;
  std::uint64_t violations = 0;
  std::optional<ObsStatsAggregator> stats;  // when SweepSpec::collect_stats
  // Flight-recorder footprint (populated when SweepSpec::flight != "off"):
  // records kept/dropped, sealed bytes, and the recorder's share of the
  // total simulated energy.
  bool flight_enabled = false;
  std::uint64_t flight_sealed = 0;
  std::uint64_t flight_dropped = 0;  // aborted + evicted + oversize
  std::uint64_t flight_bytes = 0;    // seal + payload bytes, cumulative
  double flight_energy_share = 0.0;
  // post_run extras, sorted by key before export.
  std::vector<std::pair<std::string, double>> metrics;
};

struct SweepOutcome {
  std::vector<SweepRow> rows;
  // Deterministic cache statistics (builds = unique pipeline runs).
  std::uint64_t cache_requests = 0;
  std::uint64_t cache_builds = 0;
  std::uint64_t cache_parses = 0;
  std::uint64_t cache_lowerings = 0;
  std::uint64_t cache_compilations = 0;

  bool AllOk() const;
};

// Builds a fresh per-run AppGraph ("health" | "greenhouse" | "ar";
// anything else falls back to health). Exposed for the fleet engine,
// which shares the sweep's one-graph-per-simulation isolation rule.
AppGraph BuildAppGraphByName(const std::string& app);

// The app's embedded default property spec; Invalid for an unknown app name.
// This is the engines' app-name check (BuildAppGraphByName never fails).
StatusOr<std::string> DefaultSpecForApp(const std::string& app);

// Validates the axes and expands the cartesian grid.
StatusOr<std::vector<SweepPoint>> ExpandGrid(const SweepSpec& spec);

// Fail-fast pre-analysis gate shared by the sweep and fleet engines: runs
// the whole-system static analyzer (src/analysis) over one spec with the
// run's budget/charge/flight axes. Analyzer errors come back as an Invalid
// status whose message embeds the rendered diagnostics (prefixed with
// `engine_name`); specs that fail to parse/validate/lower return Ok here —
// per-point setup already reports those as error rows, not engine death.
Status PreAnalyzeSpec(const std::string& engine_name, const std::string& label,
                      const std::string& text, const AppGraph& graph,
                      const std::vector<EnergyUj>& budgets,
                      const std::vector<SimDuration>& charges,
                      const std::string& flight, std::size_t flight_bytes);

// Runs the whole grid across `jobs` worker threads (clamped to
// [1, min(64, #points)]). Pass an external cache to share artifacts across
// multiple sweeps; nullptr uses a sweep-local one.
StatusOr<SweepOutcome> RunSweep(const SweepSpec& spec, int jobs,
                                CompiledSpecCache* cache = nullptr);

// Runs a single already-expanded point (the engine's worker body; exposed
// for tests that compare against serial execution).
SweepRow RunSweepPoint(const SweepPoint& point, const SweepSpec& spec,
                       CompiledSpecCache& cache);

// ---- deterministic renderings ------------------------------------------
// None of these include host-side timing or the job count, so the bytes
// depend only on the grid and its results.
std::string RenderJson(const SweepSpec& spec, const SweepOutcome& outcome);
std::string RenderCsv(const SweepOutcome& outcome);
std::string RenderTable(const SweepOutcome& outcome);

// ---- grid files ---------------------------------------------------------
// Parses a grid JSON document (schema in docs/sweep.md). `read_file`
// resolves {"file": ...} spec sources; it may be null when the grid is
// expected to be self-contained (a file reference then errors).
StatusOr<SweepSpec> ParseGridJson(
    const std::string& text,
    const std::function<StatusOr<std::string>(const std::string&)>& read_file = nullptr);

// Charge-bin convention shared with `artemisc trace --schedule` and the
// benches: a named period ("6min") means period minus the 1 s boot margin
// of stored charge; "continuous" means always-on power.
StatusOr<SimDuration> ParseChargeSchedule(const std::string& text);

}  // namespace artemis::sweep

#endif  // SRC_SWEEP_SWEEP_H_
