// The per-layer block of a traced run. Every workload reports the same
// fixed list of metrics so runs are comparable; a metric a workload cannot
// reach stays 0 (README.md says which workload each one is measured on).
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <array>
#include <string>
#include <vector>

#include "perfbench/common.h"
#include "perfbench/trace.h"

namespace perfbench {

class LayerReport {
 public:
  LayerReport();

  // `name` must be one of the fixed per-layer metrics.
  void Set(const std::string& name, double value);

  // <layer>.share for every timed layer: the layer's self time over the
  // self time of every span of the traced calls (the calls' thread time),
  // so the shares sum to 1. Twin and point spans wrap app-graph
  // construction and the simulation proper, which cannot be split from
  // outside RunCapture/RunScalar/RunSweepPoint: `graph_us` (the separately
  // timed BuildAppGraphByName) per such span goes to apps, the rest to sim.
  void SetShares(const std::array<Tracer::NameSummary, kSpanNames>& spans, double graph_us);

  // Closes a traced run: fills bench.failed_ratio from the result's
  // counts, then appends every per-layer metric.
  void FinishRun(RunResult* result);

 private:
  std::vector<Metric> metrics_;
};

// Mean cost of one sweep::BuildAppGraphByName("health"), timed alone, in
// microseconds. Fleets and sweeps pay it once per twin or point inside
// calls that cannot be split from outside.
double BuildGraphUs();

// Mean duration of the spans named `name`, in microseconds (0 if none).
double MeanUs(const std::array<Tracer::NameSummary, kSpanNames>& spans, SpanName name);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
