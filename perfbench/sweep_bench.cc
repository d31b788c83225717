// sweep-grid: sweep::RunSweep over a health grid of tens of thousands of
// cheap isolated points, JSON rendering included.
//
// Untraced runs call the engine in a closed loop and check the rendering
// against the recorded digest plus cross-backend agreement. Traced runs
// rebuild RunSweep from ExpandGrid, PreAnalyzeSpec and RunSweepPoint on
// benchmark threads sharing one CompiledSpecCache, with a span around each
// call, and require the composition to render the engine's bytes.
#include <algorithm>
#include <atomic>
#include <exception>
#include <map>
#include <thread>
#include <tuple>

#include "perfbench/layers.h"
#include "perfbench/trace.h"
#include "perfbench/workloads.h"
#include "src/apps/health_app.h"
#include "src/sweep/sweep.h"

namespace perfbench {
namespace {

using artemis::sweep::SweepOutcome;
using artemis::sweep::SweepRow;
using artemis::sweep::SweepSpec;

// 2 systems x 3 backends x 56 charges x 3 timekeepers x 20 budgets = 20,160
// points. Every budget passes the ART009 gate; health ignores the seed, so
// the bulk comes from the budget and charge axes.
SweepSpec GridSpec(std::uint64_t seed) {
  SweepSpec spec;
  spec.app = "health";
  spec.systems = {"artemis", "mayfly"};
  spec.backends = {"builtin", "interpreted", "compiled"};
  spec.charges = {0};
  for (int seconds = 60; seconds <= 600; seconds += 10) {
    spec.charges.push_back(
        artemis::sweep::ParseChargeSchedule(std::to_string(seconds) + "s").value());
  }
  spec.timekeepers = {"default", "rtc:0.01", "remanence:10min:0.05"};
  spec.budgets.clear();
  for (int i = 0; i < 20; ++i) {
    spec.budgets.push_back(10'000.0 + 1'000.0 * i);
  }
  spec.seeds = {seed};
  return spec;
}

// The same grid with every axis but systems and backends cut to one value.
SweepSpec SetupSpec(std::uint64_t seed) {
  SweepSpec spec = GridSpec(seed);
  spec.charges.resize(1);
  spec.timekeepers.resize(1);
  spec.budgets.resize(1);
  return spec;
}

struct SweepRun {
  std::string error;  // empty = ok
  SweepOutcome outcome;
  std::string json;
  double wall_s = 0.0;
};

SweepRun RunEngine(const SweepSpec& spec, int jobs) {
  SweepRun run;
  const std::int64_t t0 = NowNs();
  artemis::StatusOr<SweepOutcome> outcome = artemis::sweep::RunSweep(spec, jobs);
  if (outcome.ok()) {
    run.outcome = std::move(outcome).value();
    run.json = artemis::sweep::RenderJson(spec, run.outcome);
  } else {
    run.error = outcome.status().ToString();
  }
  run.wall_s = static_cast<double>(NowNs() - t0) * 1e-9;
  return run;
}

std::uint64_t FailedRows(const SweepOutcome& outcome) {
  std::uint64_t failed = 0;
  for (const SweepRow& row : outcome.rows) {
    failed += row.ok ? 0 : 1;
  }
  return failed;
}

// Builtin, interpreted and compiled rows must agree on completion,
// reboots, monitor events and violations at every other coordinate.
std::string BackendDisagreement(const SweepOutcome& outcome) {
  using Key = std::tuple<std::string, std::string, double, std::int64_t, std::uint64_t>;
  std::map<Key, const SweepRow*> first;
  std::uint64_t mismatches = 0;
  for (const SweepRow& row : outcome.rows) {
    const Key key{row.system, row.timekeeper, row.budget, row.charge, row.seed};
    const auto [it, inserted] = first.emplace(key, &row);
    if (inserted) {
      continue;
    }
    const SweepRow& ref = *it->second;
    if (row.result.completed != ref.result.completed ||
        row.result.stats.reboots != ref.result.stats.reboots ||
        row.monitor_events != ref.monitor_events || row.violations != ref.violations) {
      ++mismatches;
    }
  }
  if (mismatches == 0) {
    return "";
  }
  return std::to_string(mismatches) + " sweep rows disagree with another backend";
}

SpanName PointSpan(const artemis::sweep::SweepPoint& point) {
  const int backend = point.backend_name == "builtin"       ? 0
                      : point.backend_name == "interpreted" ? 1
                                                            : 2;
  const int base = static_cast<int>(point.system == "mayfly"
                                        ? SpanName::kSweepPointMayflyBuiltin
                                        : SpanName::kSweepPointArtemisBuiltin);
  return static_cast<SpanName>(base + backend);
}

struct Composed {
  std::string error;  // empty = ok
  std::string json;
  double wall_s = 0.0;
  double cache_hit_ratio = 0.0;
};

// RunSweep + RenderJson rebuilt from public pieces, traced.
Composed ComposeSweep(const SweepSpec& spec, Tracer* tracer) {
  Composed composed;
  SpanBuffer* main = tracer->NewBuffer();
  const std::int64_t t0 = NowNs();
  {
    ScopedSpan call(main, SpanName::kCall, 0);
    artemis::StatusOr<std::vector<artemis::sweep::SweepPoint>> points =
        artemis::Status::Internal("");
    {
      ScopedSpan s(main, SpanName::kSweepExpand, call.id());
      points = artemis::sweep::ExpandGrid(spec);
    }
    if (!points.ok()) {
      composed.error = points.status().ToString();
      return composed;
    }
    artemis::AppGraph graph;
    {
      ScopedSpan s(main, SpanName::kAppsBuildGraph, call.id());
      graph = artemis::sweep::BuildAppGraphByName(spec.app);
    }
    // The engine's analyzer gate: every unique spec, first-appearance order.
    std::vector<std::string> seen;
    for (const artemis::sweep::SweepPoint& point : points.value()) {
      if (std::find(seen.begin(), seen.end(), point.spec_text) != seen.end()) {
        continue;
      }
      seen.push_back(point.spec_text);
      ScopedSpan s(main, SpanName::kAnalysisPre, call.id());
      const artemis::Status gate = artemis::sweep::PreAnalyzeSpec(
          "sweep", point.spec_label, point.spec_text, graph, spec.budgets, spec.charges,
          spec.flight, spec.flight_bytes);
      if (!gate.ok()) {
        composed.error = gate.ToString();
        return composed;
      }
    }

    artemis::CompiledSpecCache cache;
    SweepOutcome outcome;
    const std::vector<artemis::sweep::SweepPoint>& grid = points.value();
    outcome.rows.resize(grid.size());
    std::atomic<std::size_t> next{0};
    std::vector<std::string> errors(kWorkers);
    std::vector<SpanBuffer*> buffers;
    for (int w = 0; w < kWorkers; ++w) {
      buffers.push_back(tracer->NewBuffer());
      buffers.back()->Reserve(grid.size() / kWorkers + 16);
    }
    std::vector<std::jthread> threads;  // joined on every path, exceptions too
    for (int w = 0; w < kWorkers; ++w) {
      threads.emplace_back([&, w] {
        try {
          ScopedSpan worker(buffers[w], SpanName::kSweepWorker, call.id());
          for (std::size_t i = next.fetch_add(1); i < grid.size(); i = next.fetch_add(1)) {
            ScopedSpan point(buffers[w], PointSpan(grid[i]), worker.id());
            outcome.rows[i] = artemis::sweep::RunSweepPoint(grid[i], spec, cache);
          }
        } catch (const std::exception& e) {
          errors[w] = e.what();
        }
      });
    }
    for (std::jthread& t : threads) {
      t.join();
    }
    for (const std::string& e : errors) {
      if (!e.empty()) {
        composed.error = e;
      }
    }
    outcome.cache_requests = cache.requests();
    outcome.cache_builds = cache.builds();
    outcome.cache_parses = cache.parses();
    outcome.cache_lowerings = cache.lowerings();
    outcome.cache_compilations = cache.compilations();
    composed.cache_hit_ratio =
        cache.requests() == 0 ? 0.0
                              : static_cast<double>(cache.hits()) /
                                    static_cast<double>(cache.requests());
    ScopedSpan s(main, SpanName::kSweepRender, call.id());
    composed.json = artemis::sweep::RenderJson(spec, outcome);
  }
  composed.wall_s = static_cast<double>(NowNs() - t0) * 1e-9;
  return composed;
}

// The three artifacts that serve every request of the grid (kAst for
// builtin and Mayfly, kLowered for interpreted, kCompiled), built alone.
double BuildArtifactsMs(const SweepSpec& spec) {
  const artemis::AppGraph graph = artemis::sweep::BuildAppGraphByName(spec.app);
  const std::string text = artemis::HealthAppSpec();  // the grid's one (default) spec
  const std::int64_t t0 = NowNs();
  for (const artemis::SpecArtifactStage stage :
       {artemis::SpecArtifactStage::kAst, artemis::SpecArtifactStage::kLowered,
        artemis::SpecArtifactStage::kCompiled}) {
    if (!artemis::BuildSpecArtifact(text, graph, stage).ok()) {
      return 0.0;
    }
  }
  return static_cast<double>(NowNs() - t0) * 1e-6;
}

RunResult RunUntraced(const Options& options) {
  RunResult result;
  const std::map<std::string, std::string> reference = LoadReference();
  const SweepSpec setup_spec = SetupSpec(options.seed);
  SetupSampler setup([&] { RunEngine(setup_spec, kWorkers); });
  const SweepSpec spec = GridSpec(options.seed);
  RunEngine(spec, kWorkers);  // warm-up: fault in code, heap and thread stacks
  setup.Sample();
  SweepRun run;
  bool agreement_checked = false;
  std::vector<double> call_p50_ms;
  const std::vector<CallSample> calls = ClosedLoop(
      options.seconds,
      [&] {
        run = RunEngine(spec, kWorkers);
        return static_cast<std::uint64_t>(run.outcome.rows.size());
      },
      [&] {
        call_p50_ms.push_back(run.wall_s * 1e3);
        if (!run.error.empty()) {
          result.Fail(run.error);
        } else {
          result.failed += FailedRows(run.outcome);
          std::string why = CheckDigest(options, reference, "sweep-grid", run.json);
          if (why.empty() && !agreement_checked) {
            agreement_checked = true;
            why = BackendDisagreement(run.outcome);
          }
          if (!why.empty()) {
            result.Fail(why);
          }
        }
        run = SweepRun{};
        setup.Sample();
      });
  AddEndToEnd(&result, calls, setup.QuietSeconds(), call_p50_ms);
  return result;
}

RunResult RunTraced(const Options& options) {
  RunResult result;
  LayerReport layers;
  const std::map<std::string, std::string> reference = LoadReference();
  const SweepSpec spec = GridSpec(options.seed);
  RunEngine(spec, kWorkers);  // warm-up

  const SweepRun four = RunEngine(spec, kWorkers);
  const SweepRun one = RunEngine(spec, 1);
  if (!four.error.empty() || !one.error.empty()) {
    result.Fail(!four.error.empty() ? four.error : one.error);
    layers.FinishRun(&result);
    return result;
  }
  result.attempted += four.outcome.rows.size() + one.outcome.rows.size();
  result.failed += FailedRows(four.outcome) + FailedRows(one.outcome);
  if (four.json != one.json) {
    result.Fail("rendered JSON differs between 1 and 4 workers");
  }
  if (const std::string why = CheckDigest(options, reference, "sweep-grid", four.json);
      !why.empty()) {
    result.Fail(why);
  }
  if (const std::string why = BackendDisagreement(four.outcome); !why.empty()) {
    result.Fail(why);
  }
  layers.Set("base.pool_speedup", one.wall_s / four.wall_s);
  result.Note("engine call wall: " + std::to_string(four.wall_s) + " s at " +
              std::to_string(kWorkers) + " workers, " + std::to_string(one.wall_s) +
              " s at 1 worker");
  std::uint64_t events = 0;
  std::uint64_t violations = 0;
  std::uint64_t reboots = 0;
  for (const SweepRow& row : four.outcome.rows) {
    events += row.monitor_events;
    violations += row.violations;
    reboots += row.result.stats.reboots;
  }
  layers.Set("monitor.events", static_cast<double>(events));
  layers.Set("monitor.violations", static_cast<double>(violations));
  layers.Set("kernel.reboots", static_cast<double>(reboots));

  const double graph_us = BuildGraphUs();
  layers.Set("monitor.build_artifact_ms", BuildArtifactsMs(spec));
  Tracer tracer;
  const Composed composed = ComposeSweep(spec, &tracer);
  result.attempted += four.outcome.rows.size();
  if (!composed.error.empty()) {
    result.Fail("traced composition: " + composed.error);
  } else if (composed.json != four.json) {
    result.Fail("traced composition renders different bytes than RunSweep");
  }
  layers.Set("bench.trace_overhead", composed.wall_s / four.wall_s);

  const auto spans = tracer.Summarize();
  layers.Set("sweep.expand_ms", MeanUs(spans, SpanName::kSweepExpand) * 1e-3);
  layers.Set("analysis.pre_analyze_ms", MeanUs(spans, SpanName::kAnalysisPre) * 1e-3);
  layers.Set("apps.build_graph_us", graph_us);
  layers.Set("apps.build_graph_calls", static_cast<double>(four.outcome.rows.size() + 1));
  static constexpr const char* kPoints[] = {
      "artemis.builtin", "artemis.interpreted", "artemis.compiled",
      "mayfly.builtin",  "mayfly.interpreted",  "mayfly.compiled"};
  for (int i = 0; i < 6; ++i) {
    const auto name = static_cast<std::size_t>(SpanName::kSweepPointArtemisBuiltin) + i;
    const std::vector<double>& us = spans[name].durations_us;
    layers.Set(std::string("sweep.point_us.") + kPoints[i] + ".p50", Percentile(us, 0.50));
    layers.Set(std::string("sweep.point_us.") + kPoints[i] + ".p99", Percentile(us, 0.99));
  }
  layers.Set("sweep.cache_hit_ratio", composed.cache_hit_ratio);
  layers.Set("sweep.render_ms", MeanUs(spans, SpanName::kSweepRender) * 1e-3);
  layers.Set("sweep.render_bytes", static_cast<double>(four.json.size()));
  layers.SetShares(spans, graph_us);
  if (!tracer.Write(options.trace_dir + "/" + options.workload + ".tsv")) {
    result.Note("could not write the span file under " + options.trace_dir);
  }

  layers.FinishRun(&result);
  return result;
}

}  // namespace

RunResult RunSweepGrid(const Options& options) {
  return options.trace ? RunTraced(options) : RunUntraced(options);
}

}  // namespace perfbench
