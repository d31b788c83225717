// Chain-style channels: committed inter-task data with transactional
// task-scope staging.
//
// Task effects never mutate committed state directly. They stage operations
// (push a sample, consume a task's samples, set the monitored variable)
// against a TaskContext; the kernel applies the staged operations atomically
// at the task's commit point. A power failure before commit discards the
// staging, which is what makes task re-execution idempotent.
#ifndef SRC_KERNEL_CHANNEL_H_
#define SRC_KERNEL_CHANNEL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/base/rng.h"
#include "src/base/time.h"
#include "src/kernel/task.h"

namespace artemis {

class AppGraph;

// Committed per-task output data, kept in non-volatile memory.
class ChannelStore {
 public:
  explicit ChannelStore(std::size_t task_count) : slots_(task_count) {}

  const std::vector<double>& Samples(TaskId task) const { return slots_[task].samples; }
  std::uint64_t CompletionCount(TaskId task) const { return slots_[task].completions; }
  std::optional<SimTime> LastCompletion(TaskId task) const {
    return slots_[task].completions > 0 ? std::optional<SimTime>(slots_[task].last_completion)
                                        : std::nullopt;
  }
  std::optional<double> MonitoredValue(TaskId task) const { return slots_[task].monitored; }

  // Commit-time mutations (invoked by the kernel, never by task bodies).
  void AppendSamples(TaskId task, const std::vector<double>& values);
  void ClearSamples(TaskId task) { slots_[task].samples.clear(); }
  void RecordCompletion(TaskId task, SimTime when);
  void SetMonitored(TaskId task, double value) { slots_[task].monitored = value; }

  // Bytes of committed data (for memory accounting).
  std::size_t FootprintBytes() const;

  void Reset();

 private:
  struct Slot {
    std::vector<double> samples;
    std::uint64_t completions = 0;
    SimTime last_completion = 0;
    std::optional<double> monitored;
  };
  std::vector<Slot> slots_;
};

// The buffers a task body stages its writes into. The kernel owns one and
// lends it to every task body; clear() keeps the capacity, so a body that
// pushes as much as an earlier one allocates nothing.
struct TaskStaging {
  std::vector<double> pushed;
  std::vector<TaskId> consumes;

  void clear() {
    pushed.clear();
    consumes.clear();
  }
};

// The view a task body gets while executing: committed reads, staged writes
// into a borrowed, empty `staging`.
class TaskContext {
 public:
  TaskContext(const AppGraph* graph, const ChannelStore* store, TaskId self, SimTime now,
              Rng* rng, TaskStaging* staging);

  TaskId self() const { return self_; }
  SimTime now() const { return now_; }
  Rng& rng() { return *rng_; }

  // --- committed reads --------------------------------------------------
  // Samples previously committed by the named task (empty if unknown task).
  const std::vector<double>& SamplesOf(const std::string& task_name) const;
  std::uint64_t CompletionsOf(const std::string& task_name) const;

  // --- staged writes (applied atomically at commit) ----------------------
  // Appends one output sample of this task.
  void Push(double value) { staging_->pushed.push_back(value); }
  // Consumes (clears) all committed samples of the named task at commit.
  void ConsumeAll(const std::string& task_name);
  // Sets this task's monitored dependent variable (dpData source).
  void SetMonitored(double value) { monitored_ = value; }

  // Kernel access to the staging area.
  const std::vector<double>& staged_samples() const { return staging_->pushed; }
  const std::vector<TaskId>& staged_consumes() const { return staging_->consumes; }
  std::optional<double> staged_monitored() const { return monitored_; }

 private:
  const AppGraph* graph_;
  const ChannelStore* store_;
  TaskId self_;
  SimTime now_;
  Rng* rng_;
  TaskStaging* staging_;
  std::optional<double> monitored_;

  static const std::vector<double> kEmpty;
};

}  // namespace artemis

#endif  // SRC_KERNEL_CHANNEL_H_
