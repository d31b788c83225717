#include "src/obs/perfetto_sink.h"

#include <cstdio>
#include <sstream>

#include "src/base/json.h"

namespace artemis::obs {
namespace {

// Track (thread) ids within the single trace process.
int Tid(Component component) { return static_cast<int>(component) + 1; }

std::string Fixed(double v, const char* fmt) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, v);
  return buf;
}

}  // namespace

PerfettoSink::PerfettoSink(std::ostream& out, std::vector<std::string> task_names)
    : out_(out), task_names_(std::move(task_names)) {}

void PerfettoSink::OnEvent(const Event& event) { buffered_.push_back(event); }

void PerfettoSink::WriteRecord(const std::string& record) {
  out_ << (first_record_ ? "\n" : ",\n") << record;
  first_record_ = false;
}

std::string PerfettoSink::SliceName(const Event& e) const {
  if (e.task != kObsNoTask && e.task < task_names_.size()) {
    return task_names_[e.task];
  }
  if (e.task != kObsNoTask) {
    return "task#" + std::to_string(e.task);
  }
  return KindName(e.kind);
}

void PerfettoSink::WriteEvent(const Event& e) {
  const int tid = Tid(ComponentOf(e.kind));
  std::ostringstream args;
  args << "{\"kind\":\"" << KindName(e.kind) << "\",\"device_t\":" << e.time;
  if (e.path != kObsNoPath) {
    args << ",\"path\":" << e.path;
  }
  if (e.attempt != 0) {
    args << ",\"attempt\":" << e.attempt;
  }
  if (e.seq != 0) {
    args << ",\"seq\":" << e.seq;
  }
  if (e.value != 0.0) {
    args << ",\"value\":" << Fixed(e.value, "%.4f");
  }
  if (!e.action.empty()) {
    args << ",\"action\":\"" << JsonEscape(e.action) << '"';
  }
  if (!e.detail.empty()) {
    args << ",\"detail\":\"" << JsonEscape(e.detail) << '"';
  }
  args << '}';

  std::ostringstream rec;
  switch (e.kind) {
    case Kind::kTaskStart:
      // Opens a slice; the matching end/abort emits the "X" record.
      open_tasks_[e.task] = e.true_time;
      return;
    case Kind::kTaskEnd:
    case Kind::kTaskAborted: {
      SimTime start = e.true_time;
      if (const auto it = open_tasks_.find(e.task); it != open_tasks_.end()) {
        start = it->second;
        open_tasks_.erase(it);
      }
      rec << "{\"name\":\"" << JsonEscape(SliceName(e))
          << (e.kind == Kind::kTaskAborted ? " (aborted)" : "") << "\",\"ph\":\"X\",\"ts\":"
          << start << ",\"dur\":" << (e.true_time - start) << ",\"pid\":1,\"tid\":" << tid
          << ",\"args\":" << args.str() << '}';
      break;
    }
    case Kind::kSimPowerFail:
      // The outage itself as a slice on the sim track: the charge segment.
      rec << "{\"name\":\"charging\",\"ph\":\"X\",\"ts\":" << e.true_time
          << ",\"dur\":" << e.duration << ",\"pid\":1,\"tid\":" << tid
          << ",\"args\":" << args.str() << '}';
      break;
    case Kind::kMonitorVerdict: {
      // Width = the per-event monitor cycle cost paid just before the
      // verdict was produced.
      const SimTime start = e.true_time >= e.duration ? e.true_time - e.duration : 0;
      rec << "{\"name\":\"" << JsonEscape(e.detail.empty() ? "verdict" : e.detail)
          << "\",\"ph\":\"X\",\"ts\":" << start << ",\"dur\":" << e.duration
          << ",\"pid\":1,\"tid\":" << tid << ",\"args\":" << args.str() << '}';
      break;
    }
    default:
      rec << "{\"name\":\"" << JsonEscape(KindName(e.kind)) << "\",\"ph\":\"i\",\"ts\":"
          << e.true_time << ",\"pid\":1,\"tid\":" << tid << ",\"s\":\"t\",\"args\":"
          << args.str() << '}';
  }
  WriteRecord(rec.str());

  // Counter tracks: stored-charge fraction and cumulative energy.
  if (e.energy_fraction >= 0.0) {
    WriteRecord("{\"name\":\"charge-fraction\",\"ph\":\"C\",\"ts\":" +
                std::to_string(e.true_time) + ",\"pid\":1,\"args\":{\"fraction\":" +
                Fixed(e.energy_fraction, "%.6f") + "}}");
  }
  if (e.energy_uj >= 0.0) {
    WriteRecord("{\"name\":\"energy-uj\",\"ph\":\"C\",\"ts\":" + std::to_string(e.true_time) +
                ",\"pid\":1,\"args\":{\"uJ\":" + Fixed(e.energy_uj, "%.4f") + "}}");
  }
}

void PerfettoSink::Flush() {
  if (flushed_) {
    return;
  }
  flushed_ = true;
  out_ << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  WriteRecord("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
              "\"args\":{\"name\":\"artemis\"}}");
  for (const Component c : {Component::kSim, Component::kKernel, Component::kMonitor}) {
    WriteRecord("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" +
                std::to_string(Tid(c)) + ",\"args\":{\"name\":\"" +
                std::string(ComponentName(c)) + "\"}}");
  }
  for (const Event& event : buffered_) {
    WriteEvent(event);
  }
  out_ << "\n]}\n";
  out_.flush();
}

}  // namespace artemis::obs
