// In-memory span recorder for the benchmark's traced runs.
//
// Spans are recorded from the benchmark's own files around the calls into
// each layer's public functions (the engine itself is not instrumented).
// Each thread appends to its own SpanBuffer, so recording takes no lock;
// the tracer only locks to hand out buffers. Spans stay in memory until
// the run ends, when Summarize() derives per-name self times and Write()
// dumps every span as TSV.
//
// Self time follows the usual definition: a span's duration minus the part
// of its interval that its child spans cover (the union of the children's
// intervals, so parallel children running on other threads are not
// double-subtracted).
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "perfbench/common.h"

namespace perfbench {

enum class SpanName : std::uint32_t {
  kCall,              // one traced engine-call composition (root)
  kItem,              // one spec check inside a spec-check round
  kSpecParse,         // SpecParser::Parse / MayflyFrontend::Parse
  kSpecValidate,      // SpecValidator::Validate
  kAppsBuildGraph,    // an AppGraph built inside a traced call
  kIrLower,           // LowerSpec
  kAnalysisMachine,   // ComputeMachineFacts + the five machine passes
  kAnalysisSystem,    // the whole-system passes (SystemAnalysisPasses)
  kAnalysisRender,    // DiagnosticEngine::RenderText + RenderJson
  kAnalysisPre,       // sweep::PreAnalyzeSpec
  kSwapBuildImage,    // BuildMonitorImage (both sides of a swap case)
  kSwapAnalyze,       // AnalyzeSwap
  kMonitorArtifact,   // BuildSpecArtifact at the engine's stage
  kMonitorStepBatch,  // BatchCompiledMonitor::StepBatchLanes over one tile pass
  kFleetCpuMap,       // fleet::BuildCpuMap
  kFleetShard,        // one benchmark thread over one cpu-map range
  kFleetTwinCapture,  // DeviceInstance + RunCapture
  kFleetTwinScalar,   // DeviceInstance + RunScalar
  kFleetFold,         // FleetAggregates::Fold
  kFleetMerge,        // FleetAggregates::MergeFrom, shard order
  kFleetRender,       // RenderFleetJson
  kSweepExpand,       // sweep::ExpandGrid
  kSweepWorker,       // one benchmark thread claiming grid points
  kSweepPointArtemisBuiltin,  // RunSweepPoint, by system and backend
  kSweepPointArtemisInterpreted,
  kSweepPointArtemisCompiled,
  kSweepPointMayflyBuiltin,
  kSweepPointMayflyInterpreted,
  kSweepPointMayflyCompiled,
  kSweepRender,  // sweep::RenderJson
  kCount,
};

inline constexpr std::size_t kSpanNames = static_cast<std::size_t>(SpanName::kCount);

const char* SpanNameText(SpanName name);

using SpanId = std::uint64_t;  // 0 = no parent

struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  SpanId parent = 0;
  SpanName name = SpanName::kCall;
};

// One thread's spans. Only the owning thread appends or closes.
class SpanBuffer {
 public:
  explicit SpanBuffer(std::uint64_t index) : tag_((index + 1) << kIndexBits) {}

  SpanId Open(SpanName name, SpanId parent) {
    spans_.push_back(Span{NowNs(), 0, parent, name});
    return tag_ | spans_.size();
  }
  void Close(SpanId id) { spans_[(id & kIndexMask) - 1].end_ns = NowNs(); }
  void Reserve(std::size_t n) { spans_.reserve(spans_.size() + n); }

 private:
  friend class Tracer;
  static constexpr int kIndexBits = 40;
  static constexpr std::uint64_t kIndexMask = (std::uint64_t{1} << kIndexBits) - 1;

  std::uint64_t tag_;
  std::vector<Span> spans_;
};

// Closes its span when it goes out of scope. A null buffer records
// nothing, so traced and untraced runs can share one code path.
class ScopedSpan {
 public:
  ScopedSpan(SpanBuffer* buffer, SpanName name, SpanId parent)
      : buffer_(buffer), id_(buffer != nullptr ? buffer->Open(name, parent) : 0) {}
  ~ScopedSpan() {
    if (buffer_ != nullptr) {
      buffer_->Close(id_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  SpanId id() const { return id_; }

 private:
  SpanBuffer* buffer_;
  SpanId id_;
};

class Tracer {
 public:
  // Thread-safe. The buffer lives as long as the tracer.
  SpanBuffer* NewBuffer();

  struct NameSummary {
    std::uint64_t count = 0;
    double total_ns = 0.0;
    double self_ns = 0.0;
    std::vector<double> durations_us;
  };
  // Per-name counts, total and self time, and span durations. Call only
  // after every recording thread has been joined.
  std::array<NameSummary, kSpanNames> Summarize() const;

  // Writes one TSV line per span (id, parent, name, start and end relative
  // to the first span, self time; all ns). Same precondition as Summarize.
  bool Write(const std::string& path) const;

 private:
  const Span& Lookup(SpanId id) const;
  std::vector<double> SelfTimes() const;  // flattened in buffer order

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<SpanBuffer>> buffers_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
