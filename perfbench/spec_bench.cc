// spec-check: in-process `artemisc check --analyze` of every case in
// tests/golden/analysis, one spec at a time on one thread, repeated for the
// run length. Each check runs parse -> validate -> lower -> machine passes
// -> system passes (or, for a hot-swap pair, both images -> AnalyzeSwap) ->
// text + JSON rendering, and its output must equal the goldens.
//
// The spec, ir, analysis and swap layers run only once per call in the
// other workloads; this one measures them, and it is the per-edit check a
// spec author waits on.
#include <algorithm>
#include <memory>
#include <random>
#include <set>

#include "perfbench/layers.h"
#include "perfbench/trace.h"
#include "perfbench/workloads.h"
#include "src/analysis/analyzer.h"
#include "src/analysis/system_passes.h"
#include "src/apps/health_app.h"
#include "src/ir/lowering.h"
#include "src/spec/app_lang.h"
#include "src/spec/mayfly_frontend.h"
#include "src/spec/parser.h"
#include "src/spec/validator.h"
#include "src/swap/hotswap.h"
#include "src/swap/image.h"
#include "src/sweep/sweep.h"

namespace perfbench {
namespace {

// The golden corpus, with the deployment axes each case pins (mirrors
// tests/analysis_golden_test.cc, which owns the goldens).
struct CaseDef {
  const char* name;      // golden stem under tests/golden/analysis/
  const char* spec;      // spec (installed image for swap cases)
  const char* spec2;     // replacement image; "" = not a swap case
  const char* app_file;  // app description; "" = the health demo app
  bool mayfly = false;
  double budget_uj = 0.0;  // single-budget axis; 0 = analyzer default
  const char* charge = "";
  bool no_immortal = false;
  std::size_t flight_bytes = 0;  // nonzero enables the flight recorder
};

constexpr CaseDef kCases[] = {
    {"health", "examples/specs/health.prop", "", ""},
    {"health_mayfly", "examples/specs/health.mayfly", "", "", true},
    {"sensornet", "examples/specs/sensornet.prop", "", "examples/specs/sensornet.app"},
    {"bad_dead_state", "examples/specs/bad/dead_state.prop", "", ""},
    {"bad_unsat_guard", "examples/specs/bad/unsat_guard.prop", "", ""},
    {"bad_overlap", "examples/specs/bad/overlap.prop", "", ""},
    {"bad_infeasible_budget", "examples/specs/bad/infeasible_budget.prop", "", "", false,
     9'000.0},
    {"bad_infeasible_mitd", "examples/specs/bad/infeasible_mitd.prop", "", "", false, 18'005.0,
     "6min"},
    {"bad_dead_violation", "examples/specs/bad/dead_violation.prop", "", ""},
    {"bad_inevitable_violation", "examples/specs/bad/inevitable_violation.prop", "", ""},
    {"bad_war_hazard", "examples/specs/bad/war_hazard.prop", "", "", false, 0.0, "", true},
    {"bad_flight_erosion", "examples/specs/bad/flight_erosion.prop", "", "", false, 0.0, "",
     false, 20},
    {"swap_clean", "examples/specs/health.prop", "examples/specs/health.prop", ""},
    {"swap_cross_type", "examples/specs/health.prop", "examples/specs/bad/swap_cross_type.prop",
     ""},
    {"swap_unknown_rule", "examples/specs/health.prop",
     "examples/specs/bad/swap_unknown_rule.prop", ""},
    {"swap_infeasible_window", "examples/specs/health.prop", "examples/specs/health.prop", "",
     false, 1.0},
};
constexpr std::size_t kNumCases = sizeof(kCases) / sizeof(kCases[0]);

// A case with its inputs and goldens loaded once, outside the timing.
struct Case {
  const CaseDef* def = nullptr;
  std::string spec;
  std::string spec2;
  std::string app;
  std::string golden_text;
  std::string golden_json;
  artemis::AnalysisOptions options;
};

struct Output {
  std::string error;  // pipeline failure; empty = ok
  std::string text;
  std::string json;
};

artemis::AppGraph BuildGraph(const Case& c) {
  if (c.def->app_file[0] != '\0') {
    artemis::StatusOr<artemis::AppDescription> parsed = artemis::ParseAppDescription(c.app);
    return parsed.ok() ? std::move(parsed.value().graph) : artemis::AppGraph();
  }
  return std::move(artemis::BuildHealthApp().graph);
}

// AnalyzeMachines, split at the machine/system pass boundary when traced:
// the same facts, context and pass order, so the diagnostics are identical.
artemis::DiagnosticEngine Analyze(const std::vector<artemis::StateMachine>& machines,
                                  const artemis::AppGraph& graph,
                                  const artemis::AnalysisOptions& options, SpanBuffer* buffer,
                                  SpanId parent) {
  if (buffer == nullptr) {
    return artemis::AnalyzeMachines(machines, graph, options);
  }
  std::set<std::string> system_pass_names;
  for (const auto& pass : artemis::SystemAnalysisPasses()) {
    system_pass_names.insert(pass->name());
  }
  artemis::DiagnosticEngine engine(options.werror);
  const SpanId machine_span = buffer->Open(SpanName::kAnalysisMachine, parent);
  std::vector<artemis::MachineFacts> facts;
  facts.reserve(machines.size());
  for (const artemis::StateMachine& m : machines) {
    facts.push_back(artemis::ComputeMachineFacts(m, graph));
  }
  const artemis::AnalysisContext ctx{machines, facts, graph, options};
  const std::vector<std::unique_ptr<artemis::AnalysisPass>> passes =
      artemis::DefaultAnalysisPasses();
  std::size_t next = 0;
  for (; next < passes.size() && system_pass_names.count(passes[next]->name()) == 0; ++next) {
    passes[next]->Run(ctx, &engine);
  }
  buffer->Close(machine_span);
  ScopedSpan system(buffer, SpanName::kAnalysisSystem, parent);
  for (; next < passes.size(); ++next) {
    passes[next]->Run(ctx, &engine);
  }
  return engine;
}

Output CheckOne(const Case& c, SpanBuffer* buffer, SpanId parent) {
  Output out;
  artemis::AppGraph graph;
  {
    ScopedSpan s(buffer, SpanName::kAppsBuildGraph, parent);
    graph = BuildGraph(c);
  }
  if (c.def->spec2[0] != '\0') {
    artemis::StatusOr<artemis::MonitorImage> old_image = artemis::Status::Internal("");
    artemis::StatusOr<artemis::MonitorImage> new_image = artemis::Status::Internal("");
    {
      ScopedSpan s(buffer, SpanName::kSwapBuildImage, parent);
      old_image = artemis::BuildMonitorImage(c.spec, graph, 1);
      new_image = artemis::BuildMonitorImage(c.spec2, graph, 2);
    }
    if (!old_image.ok() || !new_image.ok()) {
      out.error = !old_image.ok() ? old_image.status().ToString() : new_image.status().ToString();
      return out;
    }
    artemis::DiagnosticEngine engine;
    {
      ScopedSpan s(buffer, SpanName::kSwapAnalyze, parent);
      engine = artemis::AnalyzeSwap(old_image.value(), new_image.value(), graph, c.options);
    }
    ScopedSpan s(buffer, SpanName::kAnalysisRender, parent);
    out.text = engine.RenderText(c.def->spec2);
    out.json = engine.RenderJson();
    return out;
  }

  artemis::StatusOr<artemis::SpecAst> parsed = artemis::Status::Internal("");
  {
    ScopedSpan s(buffer, SpanName::kSpecParse, parent);
    parsed = c.def->mayfly ? artemis::MayflyFrontend::Parse(c.spec)
                           : artemis::SpecParser::Parse(c.spec);
  }
  if (!parsed.ok()) {
    out.error = parsed.status().ToString();
    return out;
  }
  {
    ScopedSpan s(buffer, SpanName::kSpecValidate, parent);
    const artemis::ValidationResult validation =
        artemis::SpecValidator::Validate(parsed.value(), graph);
    if (!validation.ok()) {
      out.error = validation.status.ToString();
      return out;
    }
  }
  artemis::StatusOr<std::vector<artemis::StateMachine>> machines = artemis::Status::Internal("");
  {
    ScopedSpan s(buffer, SpanName::kIrLower, parent);
    machines = artemis::LowerSpec(parsed.value(), graph, {});
  }
  if (!machines.ok()) {
    out.error = machines.status().ToString();
    return out;
  }
  const artemis::DiagnosticEngine engine =
      Analyze(machines.value(), graph, c.options, buffer, parent);
  ScopedSpan s(buffer, SpanName::kAnalysisRender, parent);
  out.text = engine.RenderText(c.def->spec);
  out.json = engine.RenderJson();
  return out;
}

// Loads every case; an unreadable input is reported in `error`.
std::vector<Case> LoadCorpus(std::string* error) {
  std::vector<Case> corpus;
  for (const CaseDef& def : kCases) {
    Case c;
    c.def = &def;
    const std::string golden = std::string("tests/golden/analysis/") + def.name;
    const auto spec = ReadFile(def.spec);
    const auto spec2 = def.spec2[0] != '\0' ? ReadFile(def.spec2) : std::optional<std::string>("");
    const auto app = def.app_file[0] != '\0' ? ReadFile(def.app_file)
                                             : std::optional<std::string>("");
    const auto text = ReadFile(golden + ".txt");
    const auto json = ReadFile(golden + ".json");
    if (!spec || !spec2 || !app || !text || !json) {
      *error = std::string("cannot read the inputs of golden case ") + def.name;
      return {};
    }
    c.spec = *spec;
    c.spec2 = *spec2;
    c.app = *app;
    c.golden_text = *text;
    c.golden_json = *json;
    if (def.budget_uj > 0.0) {
      c.options.budgets = {def.budget_uj};
    }
    if (def.charge[0] != '\0') {
      c.options.charges = {artemis::sweep::ParseChargeSchedule(def.charge).value()};
    }
    c.options.two_phase_commit = !def.no_immortal;
    if (def.flight_bytes != 0) {
      c.options.flight_enabled = true;
      c.options.flight_bytes = def.flight_bytes;
    }
    corpus.push_back(std::move(c));
  }
  return corpus;
}

bool MatchesGolden(const Case& c, const Output& out) {
  return out.error.empty() && out.text == c.golden_text && out.json == c.golden_json;
}

// One round visits every case once, in an order drawn from the seed.
class Rounds {
 public:
  explicit Rounds(std::uint64_t seed) : rng_(seed) {
    for (std::size_t i = 0; i < kNumCases; ++i) {
      order_.push_back(i);
    }
  }
  const std::vector<std::size_t>& Next() {
    std::shuffle(order_.begin(), order_.end(), rng_);
    return order_;
  }

 private:
  std::mt19937_64 rng_;
  std::vector<std::size_t> order_;
};

RunResult RunUntraced(const Options& options, const std::vector<Case>& corpus) {
  RunResult result;
  SetupSampler setup([&] { CheckOne(corpus.front(), nullptr, 0); });
  Rounds rounds(options.seed);
  for (const std::size_t i : rounds.Next()) {  // warm-up
    CheckOne(corpus[i], nullptr, 0);
  }
  setup.Sample();
  std::vector<double> round_ms;
  std::vector<double> call_p50_ms;
  std::vector<std::pair<std::size_t, Output>> outputs;
  const std::vector<CallSample> calls = ClosedLoop(
      options.seconds,
      [&] {
        for (const std::size_t i : rounds.Next()) {
          const std::int64_t t0 = NowNs();
          Output out = CheckOne(corpus[i], nullptr, 0);
          round_ms.push_back(static_cast<double>(NowNs() - t0) * 1e-6);
          outputs.emplace_back(i, std::move(out));
        }
        return static_cast<std::uint64_t>(kNumCases);
      },
      [&] {
        for (const auto& [i, out] : outputs) {
          if (!MatchesGolden(corpus[i], out)) {
            result.Fail(std::string("output differs from the golden for ") + corpus[i].def->name);
          }
        }
        outputs.clear();
        call_p50_ms.push_back(Median(round_ms));
        round_ms.clear();
        setup.Sample();
      });
  AddEndToEnd(&result, calls, setup.QuietSeconds(), call_p50_ms);
  return result;
}

RunResult RunTraced(const Options& options, const std::vector<Case>& corpus) {
  RunResult result;
  LayerReport layers;
  Rounds rounds(options.seed);
  for (const std::size_t i : rounds.Next()) {  // warm-up
    CheckOne(corpus[i], nullptr, 0);
  }
  // Untraced rounds first: the per-spec latency tail, and the baseline of
  // the tracing overhead.
  std::vector<double> latencies_ms;
  const std::vector<CallSample> plain = ClosedLoop(options.seconds / 4, [&] {
    for (const std::size_t i : rounds.Next()) {
      const std::int64_t t0 = NowNs();
      const Output out = CheckOne(corpus[i], nullptr, 0);
      latencies_ms.push_back(static_cast<double>(NowNs() - t0) * 1e-6);
      if (!MatchesGolden(corpus[i], out)) {
        ++result.failed;
      }
    }
    return static_cast<std::uint64_t>(kNumCases);
  });
  layers.Set("check.item_p99_ms", Percentile(latencies_ms, 0.99));
  layers.Set("check.item_samples", static_cast<double>(latencies_ms.size()));
  Tracer tracer;
  SpanBuffer* buffer = tracer.NewBuffer();
  const std::vector<CallSample> traced = ClosedLoop(options.seconds / 2, [&] {
    ScopedSpan call(buffer, SpanName::kCall, 0);
    for (const std::size_t i : rounds.Next()) {
      ScopedSpan item(buffer, SpanName::kItem, call.id());
      if (!MatchesGolden(corpus[i], CheckOne(corpus[i], buffer, item.id()))) {
        ++result.failed;
      }
    }
    return static_cast<std::uint64_t>(kNumCases);
  });
  std::vector<double> plain_walls;
  std::vector<double> traced_walls;
  for (const CallSample& c : plain) {
    plain_walls.push_back(c.wall_s);
    result.attempted += c.items;
  }
  for (const CallSample& c : traced) {
    traced_walls.push_back(c.wall_s);
    result.attempted += c.items;
  }
  if (result.failed > 0) {
    result.Fail("spec-check output differs from the goldens");
  }
  layers.Set("bench.trace_overhead", Median(traced_walls) / Median(plain_walls));

  const auto spans = tracer.Summarize();
  layers.Set("spec.parse_us", MeanUs(spans, SpanName::kSpecParse));
  layers.Set("spec.validate_us", MeanUs(spans, SpanName::kSpecValidate));
  layers.Set("ir.lower_us", MeanUs(spans, SpanName::kIrLower));
  layers.Set("analysis.machine_passes_us", MeanUs(spans, SpanName::kAnalysisMachine));
  layers.Set("analysis.system_passes_us", MeanUs(spans, SpanName::kAnalysisSystem));
  layers.Set("swap.build_image_us", MeanUs(spans, SpanName::kSwapBuildImage));
  layers.Set("swap.analyze_us", MeanUs(spans, SpanName::kSwapAnalyze));
  layers.Set("analysis.render_us", MeanUs(spans, SpanName::kAnalysisRender));
  layers.Set("apps.build_graph_us", MeanUs(spans, SpanName::kAppsBuildGraph));
  layers.Set("apps.build_graph_calls", static_cast<double>(kNumCases));
  layers.SetShares(spans, 0.0);
  if (!tracer.Write(options.trace_dir + "/" + options.workload + ".tsv")) {
    result.Note("could not write the span file under " + options.trace_dir);
  }

  layers.FinishRun(&result);
  return result;
}

}  // namespace

RunResult RunSpecCheck(const Options& options) {
  std::string error;
  const std::vector<Case> corpus = LoadCorpus(&error);
  if (corpus.empty()) {
    RunResult result;
    result.Fail(error);
    return result;
  }
  return options.trace ? RunTraced(options, corpus) : RunUntraced(options, corpus);
}

}  // namespace perfbench
