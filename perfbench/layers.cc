#include "perfbench/layers.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>

#include "src/sweep/sweep.h"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kLayerMetrics[] = {
    {"spec.parse_us", "us"},
    {"spec.validate_us", "us"},
    {"ir.lower_us", "us"},
    {"analysis.machine_passes_us", "us"},
    {"analysis.system_passes_us", "us"},
    {"swap.build_image_us", "us"},
    {"swap.analyze_us", "us"},
    {"analysis.render_us", "us"},
    {"monitor.build_artifact_ms", "ms"},
    {"analysis.pre_analyze_ms", "ms"},
    {"apps.build_graph_us", "us"},
    {"apps.build_graph_calls", "count"},
    {"fleet.twin_capture_us.p50", "us"},
    {"fleet.twin_capture_us.p99", "us"},
    {"fleet.twin_scalar_us.p50", "us"},
    {"fleet.twin_scalar_us.p99", "us"},
    {"fleet.twin_samples", "count"},
    {"fleet.shard_busy_s", "s"},
    {"fleet.join_wait_s", "s"},
    {"fleet.fold_us", "us"},
    {"fleet.render_ms", "ms"},
    {"fleet.captured_records_peak", "count"},
    {"fleet.observe_only_gap", "ratio"},
    {"monitor.step_batch_ns_per_lane_event", "ns"},
    {"monitor.lane_events", "count"},
    {"monitor.events", "count"},
    {"monitor.violations", "count"},
    {"monitor.elided_ratio", "ratio"},
    {"kernel.reboots", "count"},
    {"kernel.commits", "count"},
    {"kernel.aborts", "count"},
    {"kernel.skips", "count"},
    {"kernel.commit_ratio", "ratio"},
    {"sweep.expand_ms", "ms"},
    {"sweep.point_us.artemis.builtin.p50", "us"},
    {"sweep.point_us.artemis.builtin.p99", "us"},
    {"sweep.point_us.artemis.interpreted.p50", "us"},
    {"sweep.point_us.artemis.interpreted.p99", "us"},
    {"sweep.point_us.artemis.compiled.p50", "us"},
    {"sweep.point_us.artemis.compiled.p99", "us"},
    {"sweep.point_us.mayfly.builtin.p50", "us"},
    {"sweep.point_us.mayfly.builtin.p99", "us"},
    {"sweep.point_us.mayfly.interpreted.p50", "us"},
    {"sweep.point_us.mayfly.interpreted.p99", "us"},
    {"sweep.point_us.mayfly.compiled.p50", "us"},
    {"sweep.point_us.mayfly.compiled.p99", "us"},
    {"sweep.cache_hit_ratio", "ratio"},
    {"sweep.render_ms", "ms"},
    {"sweep.render_bytes", "bytes"},
    {"base.pool_speedup", "ratio"},
    {"check.item_p99_ms", "ms"},
    {"check.item_samples", "count"},
    {"spec.share", "ratio"},
    {"ir.share", "ratio"},
    {"analysis.share", "ratio"},
    {"swap.share", "ratio"},
    {"monitor.share", "ratio"},
    {"apps.share", "ratio"},
    {"sim.share", "ratio"},
    {"fleet.share", "ratio"},
    {"sweep.share", "ratio"},
    {"bench.share", "ratio"},
    {"bench.trace_overhead", "ratio"},
    {"bench.failed_ratio", "ratio"},
};

// Spans whose self time is app-graph construction plus simulation.
bool WrapsSimulation(SpanName name) {
  switch (name) {
    case SpanName::kFleetTwinCapture:
    case SpanName::kFleetTwinScalar:
    case SpanName::kSweepPointArtemisBuiltin:
    case SpanName::kSweepPointArtemisInterpreted:
    case SpanName::kSweepPointArtemisCompiled:
    case SpanName::kSweepPointMayflyBuiltin:
    case SpanName::kSweepPointMayflyInterpreted:
    case SpanName::kSweepPointMayflyCompiled:
      return true;
    default:
      return false;
  }
}

}  // namespace

LayerReport::LayerReport() {
  for (const MetricDef& def : kLayerMetrics) {
    metrics_.push_back(Metric{def.name, 0.0, def.unit});
  }
}

void LayerReport::Set(const std::string& name, double value) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      return;
    }
  }
  std::fprintf(stderr, "perfbench: unknown per-layer metric '%s'\n", name.c_str());
  std::abort();
}

void LayerReport::SetShares(const std::array<Tracer::NameSummary, kSpanNames>& spans,
                            double graph_us) {
  std::map<std::string, double> self_ns;
  double total = 0.0;
  for (std::size_t i = 0; i < kSpanNames; ++i) {
    const Tracer::NameSummary& s = spans[i];
    if (s.count == 0) {
      continue;
    }
    total += s.self_ns;
    const auto name = static_cast<SpanName>(i);
    if (WrapsSimulation(name)) {
      const double apps = std::min(s.self_ns, graph_us * 1e3 * static_cast<double>(s.count));
      self_ns["apps"] += apps;
      self_ns["sim"] += s.self_ns - apps;
      continue;
    }
    const std::string text = SpanNameText(name);
    self_ns[text.substr(0, text.find('.'))] += s.self_ns;
  }
  if (total <= 0.0) {
    return;
  }
  for (const auto& [layer, ns] : self_ns) {
    Set(layer + ".share", ns / total);
  }
}

void LayerReport::FinishRun(RunResult* result) {
  result->Finish();
  Set("bench.failed_ratio", static_cast<double>(result->failed) /
                                static_cast<double>(std::max<std::uint64_t>(result->attempted, 1)));
  for (const Metric& m : metrics_) {
    result->Add(m.name, m.value, m.unit);
  }
}

double BuildGraphUs() {
  constexpr int kCalls = 2'000;
  const std::int64_t t0 = NowNs();
  std::size_t tasks = 0;
  for (int i = 0; i < kCalls; ++i) {
    tasks += artemis::sweep::BuildAppGraphByName("health").task_count();
  }
  const double us = static_cast<double>(NowNs() - t0) * 1e-3 / kCalls;
  return tasks > 0 ? us : 0.0;
}

double MeanUs(const std::array<Tracer::NameSummary, kSpanNames>& spans, SpanName name) {
  const Tracer::NameSummary& s = spans[static_cast<std::size_t>(name)];
  return s.count == 0 ? 0.0 : s.total_ns * 1e-3 / static_cast<double>(s.count);
}

}  // namespace perfbench
