// Task model for task-based intermittent programs (Chain / InK / Alpaca
// style): atomic units with all-or-nothing semantics, arranged into paths.
#ifndef SRC_KERNEL_TASK_H_
#define SRC_KERNEL_TASK_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <string>

#include "src/base/time.h"

namespace artemis {

using TaskId = std::uint32_t;
// Paths are numbered from 1, matching the paper's "Path: 2" syntax.
using PathId = std::uint32_t;

inline constexpr TaskId kInvalidTask = std::numeric_limits<TaskId>::max();
inline constexpr PathId kNoPath = 0;

// Figure 8/9 task statuses. A task is READY until its execution commits.
enum class TaskStatus : std::uint8_t { kReady = 0, kFinished = 1 };

class TaskContext;  // Defined in channel.h.

// The data-manipulation body of a task; runs exactly once per committed
// execution, at commit time, so re-execution after a power failure is
// idempotent by construction.
//
// Invariant: an effect is stateless. It may capture constants, but it
// keeps no mutable state of its own; it draws randomness only through
// TaskContext::rng() (the kernel's per-device Rng) and reads and writes
// data only through the TaskContext (the kernel's ChannelStore). One
// AppGraph can therefore be shared, immutable, by any number of devices
// running concurrently (sweep::SharedAppGraph).
using TaskEffect = std::function<void(TaskContext&)>;

struct TaskWork {
  // Compute/peripheral time per execution.
  SimDuration duration = 10 * kMillisecond;
  // Average power draw during that time (MCU + peripheral).
  Milliwatts power = 0.66;
};

struct TaskDef {
  std::string name;
  TaskWork work;
  TaskEffect effect;  // May be empty.
  // Name of the task's monitored dependent variable (the `monitor avgTemp`
  // declaration in Figure 4). When set, EndTask events carry its committed
  // value as dep_data.
  std::optional<std::string> monitored_var;
};

const char* TaskStatusName(TaskStatus status);

}  // namespace artemis

#endif  // SRC_KERNEL_TASK_H_
