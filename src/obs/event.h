// The unified observability event: one record type that the sim, kernel,
// and monitor layers all publish into the cross-layer EventBus
// (src/obs/bus.h). It is the runtime's only event record: besides the
// kernel's task/path lifecycle it carries sim-layer power events (brownout,
// recharge segments) and monitor internals (event delivery, verdicts,
// per-event cycle cost), plus cumulative energy / stored-charge samples so
// exporters can render counter tracks.
//
// Layering: this header depends only on src/base so that src/sim can
// publish without a dependency cycle (kernel and monitor sit above sim).
// Task/path ids are therefore plain integers mirroring the kernel's
// TaskId/PathId typedefs; corrective actions travel as their display names.
#ifndef SRC_OBS_EVENT_H_
#define SRC_OBS_EVENT_H_

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/time.h"

namespace artemis::obs {

// Every event kind the bus carries, grouped by publishing layer. Names
// (KindName) are dotted "<component>.<event>" strings; they are part of the
// versioned JSONL schema (docs/tracing.md) — append new kinds, never rename.
enum class Kind : std::uint8_t {
  // ---- sim layer (published by Mcu) ----
  kSimPowerFail = 0,  // brownout: duration = outage/charge segment length
  kSimBoot,           // device restored after the charge segment

  // ---- kernel layer (task/path lifecycle, plus the commit event) ----
  kKernelBoot,
  kTaskStart,
  kTaskEnd,
  kTaskAborted,
  kViolation,
  kActionApplied,
  kPathStart,
  kPathRestart,
  kPathSkip,
  kPathCompleteUnmonitored,
  kTaskSkipped,
  kAppComplete,
  kCommit,  // checkpoint commit: value = committed bytes

  // ---- monitor layer (published by MonitorSet) ----
  kMonitorDelivery,  // event handed to the monitors: detail = start/end-task
  kMonitorVerdict,   // arbitrated verdict: value = candidate count,
                     // duration = per-event monitor cycle cost (us @ 1 MHz)
  kMonitorReset,     // path restart propagated to the monitors
};

inline constexpr int kNumKinds = static_cast<int>(Kind::kMonitorReset) + 1;

enum class Component : std::uint8_t { kSim = 0, kKernel = 1, kMonitor = 2 };

// Stable dotted name, e.g. "kernel.task-start". Part of the JSONL schema.
const char* KindName(Kind kind);
// Inverse of KindName; nullopt for unknown names.
std::optional<Kind> KindFromName(std::string_view name);

Component ComponentOf(Kind kind);
const char* ComponentName(Component component);

// Mirrors of the kernel's TaskId/PathId sentinels (src/kernel/task.h).
inline constexpr std::uint32_t kObsNoTask = std::numeric_limits<std::uint32_t>::max();
inline constexpr std::uint32_t kObsNoPath = 0;

struct Event {
  Kind kind = Kind::kKernelBoot;
  SimTime time = 0;       // device-clock timestamp (what monitors see)
  SimTime true_time = 0;  // omniscient simulation time (staleness audits)
  std::uint32_t task = kObsNoTask;
  std::uint32_t path = kObsNoPath;
  std::uint32_t attempt = 0;
  std::uint64_t seq = 0;        // kernel event sequence number, 0 = none
  SimDuration duration = 0;     // kind-specific span (outage length, cycle cost)
  double value = 0.0;           // kind-specific scalar (bytes, candidate count)
  double energy_uj = -1.0;      // cumulative MCU energy at event time; <0 = absent
  double energy_fraction = -1.0;  // stored-energy fraction in [0,1]; <0 = absent
  std::string action{};         // corrective-action name, "" = none
  std::string detail{};         // property name or free-form note
};

// Renders the kernel lifecycle events (kKernelBoot through kAppComplete) as
// the human-readable execution timeline, one line per event; commit, sim and
// monitor events are skipped. Task ids resolve through `task_names`; ids
// past its end print as "task#<id>".
std::string RenderTimeline(const std::vector<Event>& events,
                           const std::vector<std::string>& task_names);

}  // namespace artemis::obs

#endif  // SRC_OBS_EVENT_H_
