// Builtin ("generated C") monitor backend: hand-laid-out property checkers
// that mirror the structures of Figure 10 (MITD_t with timeLimit /
// dependentTask / action / max / maxAction, etc). Semantically equivalent to
// the interpreted machines — equivalence is property-tested — but with the
// straight-line step cost the paper's generated code would have.
#ifndef SRC_MONITOR_BUILTIN_H_
#define SRC_MONITOR_BUILTIN_H_

#include <memory>
#include <string>

#include "src/base/status.h"
#include "src/kernel/app_graph.h"
#include "src/monitor/monitor.h"
#include "src/spec/ast.h"

namespace artemis {

// Base with shared config plumbing. The Path qualifier plays two roles that
// may diverge (Table 1): as the *target* of path actions, and — only when
// the anchor task actually lies on that path (path merging) — as an event
// *scope*. A cross-path dependency ("collect 4 from `count`, restart path 1"
// where the anchor is on path 2) has a target but no scope.
class BuiltinMonitor : public Monitor {
 public:
  BuiltinMonitor(std::string label, TaskId task, ActionType action, PathId target_path,
                 PathId scope_path)
      : label_(std::move(label)),
        task_(task),
        action_(action),
        target_path_(target_path),
        scope_path_(scope_path) {}

  const std::string& label() const override { return label_; }
  double StepCycles(const CostModel& costs) const override {
    return costs.builtin_step_cycles;
  }
  void OnPathRestart(PathId) override {}

 protected:
  bool InScope(const MonitorEvent& event) const {
    return scope_path_ == kNoPath || event.path == scope_path_;
  }
  // `property` must be one of this monitor's label members, so the
  // borrowed view lives as long as the monitor (src/kernel/checker.h).
  void FillVerdict(MonitorVerdict* verdict, ActionType action,
                   const std::string& property) const {
    verdict->action = action;
    verdict->target_path = target_path_;
    verdict->property = property;
  }
  void FillVerdict(MonitorVerdict* verdict, ActionType action) const {
    FillVerdict(verdict, action, label_);
  }

  std::string label_;
  TaskId task_;
  ActionType action_;
  PathId target_path_;
  PathId scope_path_;
};

// maxTries: N successive start attempts without completion.
class MaxTriesMonitor : public BuiltinMonitor {
 public:
  MaxTriesMonitor(std::string label, TaskId task, std::uint64_t max, ActionType action,
                  PathId target_path, PathId scope_path = kNoPath)
      : BuiltinMonitor(std::move(label), task, action, target_path, scope_path), max_(max) {}

  bool Step(const MonitorEvent& event, MonitorVerdict* verdict) override;
  void HardReset() override { tries_ = 0; }
  std::size_t FramBytes() const override { return sizeof(tries_) + sizeof(max_); }

 private:
  std::uint64_t max_;
  std::uint64_t tries_ = 0;  // FRAM
};

// maxDuration: total elapsed time between first start and completion.
class MaxDurationMonitor : public BuiltinMonitor {
 public:
  MaxDurationMonitor(std::string label, TaskId task, SimDuration limit, ActionType action,
                     PathId target_path, PathId scope_path = kNoPath)
      : BuiltinMonitor(std::move(label), task, action, target_path, scope_path),
        limit_(limit) {}

  bool Step(const MonitorEvent& event, MonitorVerdict* verdict) override;
  void HardReset() override {
    started_ = false;
    start_ = 0;
  }
  void OnPathRestart(PathId path) override;
  std::size_t FramBytes() const override {
    return sizeof(limit_) + sizeof(start_) + sizeof(started_);
  }

 private:
  SimDuration limit_;
  SimTime start_ = 0;     // FRAM
  bool started_ = false;  // FRAM
};

// collect: the dependent task must have completed `count` times before the
// anchor task starts. Accumulates across failures by default (see
// ir/lowering.h for the Figure 7 deviation note).
class CollectMonitor : public BuiltinMonitor {
 public:
  CollectMonitor(std::string label, TaskId task, TaskId dep, std::uint64_t count,
                 ActionType action, PathId target_path, bool reset_on_fail,
                 PathId scope_path = kNoPath)
      : BuiltinMonitor(std::move(label), task, action, target_path, scope_path),
        dep_(dep),
        count_(count),
        reset_on_fail_(reset_on_fail) {}

  bool Step(const MonitorEvent& event, MonitorVerdict* verdict) override;
  void HardReset() override { have_ = 0; }
  std::size_t FramBytes() const override { return sizeof(have_) + sizeof(count_); }

  std::uint64_t collected() const { return have_; }

 private:
  TaskId dep_;
  std::uint64_t count_;
  bool reset_on_fail_;
  std::uint64_t have_ = 0;  // FRAM
};

// MITD with maxAttempt escalation (Figure 10's MITD_t).
class MitdMonitor final : public BuiltinMonitor {
 public:
  MitdMonitor(std::string label, TaskId task, TaskId dep, SimDuration limit, ActionType action,
              std::uint32_t max_attempt, ActionType max_action, PathId target_path,
              PathId scope_path = kNoPath)
      : BuiltinMonitor(std::move(label), task, action, target_path, scope_path),
        max_attempt_label_(label_ + "/maxAttempt"),
        dep_(dep),
        limit_(limit),
        max_attempt_(max_attempt),
        max_action_(max_action) {}

  bool Step(const MonitorEvent& event, MonitorVerdict* verdict) override;
  void HardReset() override {
    waiting_ = false;
    end_dep_ = 0;
    attempts_ = 0;
  }
  std::size_t FramBytes() const override {
    return sizeof(limit_) + sizeof(end_dep_) + sizeof(attempts_) + sizeof(waiting_);
  }

  std::uint32_t attempts() const { return attempts_; }

 private:
  // The escalated verdict's label, built once so a verdict only borrows it.
  std::string max_attempt_label_;
  TaskId dep_;
  SimDuration limit_;
  std::uint32_t max_attempt_;
  ActionType max_action_;
  bool waiting_ = false;       // FRAM: true == WaitStartA
  SimTime end_dep_ = 0;        // FRAM
  std::uint32_t attempts_ = 0;  // FRAM
};

// period: gap between consecutive starts must not exceed period + jitter.
class PeriodMonitor : public BuiltinMonitor {
 public:
  PeriodMonitor(std::string label, TaskId task, SimDuration period, SimDuration jitter,
                ActionType action, PathId target_path, PathId scope_path = kNoPath)
      : BuiltinMonitor(std::move(label), task, action, target_path, scope_path),
        bound_(period + jitter) {}

  bool Step(const MonitorEvent& event, MonitorVerdict* verdict) override;
  void HardReset() override {
    started_ = false;
    last_ = 0;
  }
  std::size_t FramBytes() const override {
    return sizeof(bound_) + sizeof(last_) + sizeof(started_);
  }

 private:
  SimDuration bound_;
  SimTime last_ = 0;      // FRAM
  bool started_ = false;  // FRAM
};

// dpData: the monitored variable must stay within [lo, hi].
class DpDataMonitor : public BuiltinMonitor {
 public:
  DpDataMonitor(std::string label, TaskId task, double lo, double hi, ActionType action,
                PathId target_path, PathId scope_path = kNoPath)
      : BuiltinMonitor(std::move(label), task, action, target_path, scope_path),
        lo_(lo),
        hi_(hi) {}

  bool Step(const MonitorEvent& event, MonitorVerdict* verdict) override;
  void HardReset() override {}
  std::size_t FramBytes() const override { return sizeof(lo_) + sizeof(hi_); }

 private:
  double lo_, hi_;
};

// minEnergy (Section 4.2.2 extension): stored-energy fraction at task start.
class MinEnergyMonitor : public BuiltinMonitor {
 public:
  MinEnergyMonitor(std::string label, TaskId task, double fraction, ActionType action,
                   PathId target_path, PathId scope_path = kNoPath)
      : BuiltinMonitor(std::move(label), task, action, target_path, scope_path),
        fraction_(fraction) {}

  bool Step(const MonitorEvent& event, MonitorVerdict* verdict) override;
  void HardReset() override {}
  std::size_t FramBytes() const override { return sizeof(fraction_); }

 private:
  double fraction_;
};

// Builds the builtin monitor for one validated property.
StatusOr<std::unique_ptr<Monitor>> MakeBuiltinMonitor(const PropertyAst& property,
                                                      const std::string& task_name,
                                                      const AppGraph& graph,
                                                      bool collect_reset_on_fail = false);

}  // namespace artemis

#endif  // SRC_MONITOR_BUILTIN_H_
