#include "perfbench/trace.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <tuple>

namespace perfbench {

const char* SpanNameText(SpanName name) {
  static constexpr const char* kNames[kSpanNames] = {
      "bench.call",
      "bench.item",
      "spec.parse",
      "spec.validate",
      "apps.build_graph",
      "ir.lower",
      "analysis.machine_passes",
      "analysis.system_passes",
      "analysis.render",
      "analysis.pre_analyze",
      "swap.build_image",
      "swap.analyze",
      "monitor.build_artifact",
      "monitor.step_batch",
      "fleet.cpu_map",
      "fleet.shard",
      "fleet.twin_capture",
      "fleet.twin_scalar",
      "fleet.fold",
      "fleet.merge",
      "fleet.render",
      "sweep.expand",
      "sweep.worker",
      "sweep.point.artemis.builtin",
      "sweep.point.artemis.interpreted",
      "sweep.point.artemis.compiled",
      "sweep.point.mayfly.builtin",
      "sweep.point.mayfly.interpreted",
      "sweep.point.mayfly.compiled",
      "sweep.render",
  };
  return kNames[static_cast<std::size_t>(name)];
}

SpanBuffer* Tracer::NewBuffer() {
  std::lock_guard<std::mutex> lock(mu_);
  buffers_.push_back(std::make_unique<SpanBuffer>(buffers_.size()));
  return buffers_.back().get();
}

const Span& Tracer::Lookup(SpanId id) const {
  const std::size_t buffer = (id >> SpanBuffer::kIndexBits) - 1;
  return buffers_[buffer]->spans_[(id & SpanBuffer::kIndexMask) - 1];
}

std::vector<double> Tracer::SelfTimes() const {
  // Children grouped by parent and ordered by start, so each parent's
  // covered time is one sweep merging overlapping child intervals.
  std::vector<std::tuple<SpanId, std::int64_t, std::int64_t>> children;
  std::vector<std::size_t> offsets;
  std::size_t total = 0;
  for (const auto& buffer : buffers_) {
    offsets.push_back(total);
    total += buffer->spans_.size();
    for (const Span& s : buffer->spans_) {
      if (s.parent != 0) {
        children.emplace_back(s.parent, s.start_ns, s.end_ns);
      }
    }
  }
  std::sort(children.begin(), children.end());

  std::vector<double> self(total, 0.0);
  for (std::size_t b = 0; b < buffers_.size(); ++b) {
    const std::vector<Span>& spans = buffers_[b]->spans_;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      self[offsets[b] + i] = static_cast<double>(spans[i].end_ns - spans[i].start_ns);
    }
  }
  for (std::size_t i = 0; i < children.size();) {
    const SpanId parent = std::get<0>(children[i]);
    const Span& p = Lookup(parent);
    std::int64_t covered = 0;
    std::int64_t run_start = 0;
    std::int64_t run_end = 0;
    bool open = false;
    for (; i < children.size() && std::get<0>(children[i]) == parent; ++i) {
      const std::int64_t start = std::max(std::get<1>(children[i]), p.start_ns);
      const std::int64_t end = std::min(std::get<2>(children[i]), p.end_ns);
      if (end <= start) {
        continue;
      }
      if (open && start <= run_end) {
        run_end = std::max(run_end, end);
        continue;
      }
      if (open) {
        covered += run_end - run_start;
      }
      run_start = start;
      run_end = end;
      open = true;
    }
    if (open) {
      covered += run_end - run_start;
    }
    const std::size_t b = (parent >> SpanBuffer::kIndexBits) - 1;
    self[offsets[b] + (parent & SpanBuffer::kIndexMask) - 1] -= static_cast<double>(covered);
  }
  return self;
}

std::array<Tracer::NameSummary, kSpanNames> Tracer::Summarize() const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::vector<double> self = SelfTimes();
  std::array<NameSummary, kSpanNames> out;
  std::size_t flat = 0;
  for (const auto& buffer : buffers_) {
    for (const Span& s : buffer->spans_) {
      NameSummary& summary = out[static_cast<std::size_t>(s.name)];
      const double duration = static_cast<double>(s.end_ns - s.start_ns);
      ++summary.count;
      summary.total_ns += duration;
      summary.self_ns += self[flat++];
      summary.durations_us.push_back(duration * 1e-3);
    }
  }
  return out;
}

bool Tracer::Write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::error_code ignored;
  std::filesystem::create_directories(std::filesystem::path(path).parent_path(), ignored);
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  const std::vector<double> self = SelfTimes();
  std::int64_t origin = INT64_MAX;
  for (const auto& buffer : buffers_) {
    for (const Span& s : buffer->spans_) {
      origin = std::min(origin, s.start_ns);
    }
  }
  std::fprintf(out, "id\tparent\tname\tstart_ns\tend_ns\tself_ns\n");
  std::size_t flat = 0;
  for (const auto& buffer : buffers_) {
    for (std::size_t i = 0; i < buffer->spans_.size(); ++i) {
      const Span& s = buffer->spans_[i];
      std::fprintf(out, "%" PRIx64 "\t%" PRIx64 "\t%s\t%" PRId64 "\t%" PRId64 "\t%.0f\n",
                   buffer->tag_ | (i + 1), s.parent, SpanNameText(s.name),
                   s.start_ns - origin, s.end_ns - origin, self[flat++]);
    }
  }
  return std::fclose(out) == 0;
}

}  // namespace perfbench
