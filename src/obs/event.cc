#include "src/obs/event.h"

#include <cstring>
#include <sstream>

namespace artemis::obs {

const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kSimPowerFail:
      return "sim.power-fail";
    case Kind::kSimBoot:
      return "sim.boot";
    case Kind::kKernelBoot:
      return "kernel.boot";
    case Kind::kTaskStart:
      return "kernel.task-start";
    case Kind::kTaskEnd:
      return "kernel.task-end";
    case Kind::kTaskAborted:
      return "kernel.task-aborted";
    case Kind::kViolation:
      return "kernel.violation";
    case Kind::kActionApplied:
      return "kernel.action";
    case Kind::kPathStart:
      return "kernel.path-start";
    case Kind::kPathRestart:
      return "kernel.path-restart";
    case Kind::kPathSkip:
      return "kernel.path-skip";
    case Kind::kPathCompleteUnmonitored:
      return "kernel.path-complete-unmonitored";
    case Kind::kTaskSkipped:
      return "kernel.task-skipped";
    case Kind::kAppComplete:
      return "kernel.app-complete";
    case Kind::kCommit:
      return "kernel.commit";
    case Kind::kMonitorDelivery:
      return "monitor.delivery";
    case Kind::kMonitorVerdict:
      return "monitor.verdict";
    case Kind::kMonitorReset:
      return "monitor.path-reset";
  }
  return "?";
}

std::optional<Kind> KindFromName(std::string_view name) {
  for (int i = 0; i < kNumKinds; ++i) {
    const Kind kind = static_cast<Kind>(i);
    if (name == KindName(kind)) {
      return kind;
    }
  }
  return std::nullopt;
}

Component ComponentOf(Kind kind) {
  switch (kind) {
    case Kind::kSimPowerFail:
    case Kind::kSimBoot:
      return Component::kSim;
    case Kind::kMonitorDelivery:
    case Kind::kMonitorVerdict:
    case Kind::kMonitorReset:
      return Component::kMonitor;
    default:
      return Component::kKernel;
  }
}

const char* ComponentName(Component component) {
  switch (component) {
    case Component::kSim:
      return "sim";
    case Component::kKernel:
      return "kernel";
    case Component::kMonitor:
      return "monitor";
  }
  return "?";
}

std::string RenderTimeline(const std::vector<Event>& events,
                           const std::vector<std::string>& task_names) {
  std::ostringstream out;
  for (const Event& e : events) {
    if (e.kind < Kind::kKernelBoot || e.kind > Kind::kAppComplete) {
      continue;
    }
    out << FormatTimestamp(e.time) << ' ';
    // Most labels are the schema name minus "kernel."; three keep the
    // timeline's historical wording.
    switch (e.kind) {
      case Kind::kKernelBoot:
        out << "BOOT";
        break;
      case Kind::kTaskAborted:
        out << "task-aborted(power-failure)";
        break;
      case Kind::kViolation:
        out << "property-violation";
        break;
      default:
        out << std::string_view(KindName(e.kind)).substr(std::strlen("kernel."));
    }
    if (e.task != kObsNoTask) {
      out << ' ';
      if (e.task < task_names.size()) {
        out << task_names[e.task];
      } else {
        out << "task#" << e.task;
      }
    }
    if (e.path != kObsNoPath) {
      out << " path#" << e.path;
    }
    if (e.attempt != 0) {
      out << " attempt=" << e.attempt;
    }
    if (!e.action.empty()) {
      out << " action=" << e.action;
    }
    if (!e.detail.empty()) {
      out << " [" << e.detail << ']';
    }
    out << '\n';
  }
  return out.str();
}

}  // namespace artemis::obs
