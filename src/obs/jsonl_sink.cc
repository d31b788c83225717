#include "src/obs/jsonl_sink.h"

#include <cstdio>
#include <sstream>

#include "src/base/json.h"

namespace artemis::obs {
namespace {

// Fixed-precision float rendering keeps identical runs byte-identical.
std::string Num(double v, const char* fmt) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, v);
  return buf;
}

}  // namespace

JsonlSink::JsonlSink(std::ostream& out, JsonlOptions options)
    : out_(out), options_(std::move(options)) {
  std::ostringstream header;
  header << "{\"schema\":\"" << kJsonlSchema << '"';
  if (!options_.app.empty()) {
    header << ",\"app\":\"" << JsonEscape(options_.app) << '"';
  }
  if (!options_.power.empty()) {
    header << ",\"power\":\"" << JsonEscape(options_.power) << '"';
  }
  if (!options_.schedule.empty()) {
    header << ",\"schedule\":\"" << JsonEscape(options_.schedule) << '"';
  }
  if (!options_.backend.empty()) {
    header << ",\"backend\":\"" << JsonEscape(options_.backend) << '"';
  }
  if (!options_.task_names.empty()) {
    header << ",\"tasks\":[";
    for (std::size_t i = 0; i < options_.task_names.size(); ++i) {
      header << (i == 0 ? "" : ",") << '"' << JsonEscape(options_.task_names[i]) << '"';
    }
    header << ']';
  }
  header << "}";
  out_ << header.str() << '\n';
}

std::string JsonlSink::EventLine(const Event& e, const std::vector<std::string>& task_names) {
  std::ostringstream line;
  line << "{\"kind\":\"" << KindName(e.kind) << '"';
  // `t` is the device clock (what the monitors see); `tt` the omniscient
  // simulation clock. They diverge across outages (docs/tracing.md).
  line << ",\"t\":" << e.time << ",\"tt\":" << e.true_time;
  if (e.task != kObsNoTask) {
    line << ",\"task\":" << e.task;
    if (e.task < task_names.size()) {
      line << ",\"name\":\"" << JsonEscape(task_names[e.task]) << '"';
    }
  }
  if (e.path != kObsNoPath) {
    line << ",\"path\":" << e.path;
  }
  if (e.attempt != 0) {
    line << ",\"attempt\":" << e.attempt;
  }
  if (e.seq != 0) {
    line << ",\"seq\":" << e.seq;
  }
  if (e.duration != 0) {
    line << ",\"dur\":" << e.duration;
  }
  if (e.value != 0.0) {
    line << ",\"value\":" << Num(e.value, "%.4f");
  }
  if (e.energy_uj >= 0.0) {
    line << ",\"energy_uj\":" << Num(e.energy_uj, "%.4f");
  }
  if (e.energy_fraction >= 0.0) {
    line << ",\"frac\":" << Num(e.energy_fraction, "%.6f");
  }
  if (!e.action.empty()) {
    line << ",\"action\":\"" << JsonEscape(e.action) << '"';
  }
  if (!e.detail.empty()) {
    line << ",\"detail\":\"" << JsonEscape(e.detail) << '"';
  }
  line << '}';
  return line.str();
}

void JsonlSink::OnEvent(const Event& event) {
  out_ << EventLine(event, options_.task_names) << '\n';
  ++lines_;
}

void JsonlSink::Flush() { out_.flush(); }

}  // namespace artemis::obs
