#include "src/kernel/kernel.h"

#include <algorithm>
#include <cassert>

namespace artemis {
namespace {

constexpr std::size_t kCommitOverheadBytes = 32;

ExecStatus ToExecStatus(int status) { return static_cast<ExecStatus>(status); }

}  // namespace

IntermittentKernel::IntermittentKernel(const AppGraph* graph, PropertyChecker* checker,
                                       Mcu* mcu, KernelOptions options)
    : graph_(graph),
      checker_(checker),
      mcu_(mcu),
      options_(options),
      rng_(options.seed),
      channels_(graph->task_count()),
      profiles_(graph->task_count()) {
  assert(graph_->Validate().ok() && "invalid application graph");
  // Register the kernel's FRAM-resident state for Table 2 accounting. The
  // layout mirrors Figure 8: task cursor, statuses, the persistent event,
  // and the committed channel data.
  NvmArena& nvm = mcu_->nvm();
  nvm.Allocate(MemOwner::kRuntime, sizeof(path_idx_) + sizeof(task_idx_) + sizeof(cur_status_) +
                                       sizeof(cur_finish_ts_) + sizeof(cur_attempts_) +
                                       sizeof(event_) + sizeof(event_pending_) +
                                       sizeof(event_seq_) + sizeof(unmonitored_) +
                                       sizeof(app_complete_),
               "kernel-control-block");
  nvm.Allocate(MemOwner::kApp, channels_.FootprintBytes() + graph_->task_count() * 24,
               "channel-store");
  // The runtime needs only a pair of volatile scratch bytes (loop cursor),
  // matching the paper's 2-byte RAM figure for both runtimes.
  mcu_->ram().Allocate(MemOwner::kRuntime, 2, "loop-scratch", [] {});
}

TaskId IntermittentKernel::current_task() const {
  if (path_idx_ >= graph_->path_count()) {
    return kInvalidTask;
  }
  const auto& path = graph_->path(static_cast<PathId>(path_idx_ + 1));
  return task_idx_ < path.size() ? path[task_idx_] : kInvalidTask;
}

void IntermittentKernel::PublishTrace(obs::Kind kind, TaskId task, ActionType action,
                                      std::string_view detail, double value) {
  obs::Event event{.kind = kind,
                   .time = mcu_->Now(),
                   .true_time = mcu_->TrueNow(),
                   .task = task,
                   .path = static_cast<PathId>(path_idx_ + 1),
                   .attempt = cur_attempts_,
                   .seq = event_seq_,
                   .value = value,
                   .energy_uj = mcu_->stats().TotalEnergy(),
                   .energy_fraction = mcu_->power_model().StoredEnergyFraction(),
                   .detail = std::string(detail)};
  if (action != ActionType::kNone) {
    event.action = ActionTypeName(action);
  }
  // Task end/abort events carry the task's cumulative execution profile
  // so sinks can attribute per-task time/energy without a second source.
  if ((kind == obs::Kind::kTaskEnd || kind == obs::Kind::kTaskAborted) &&
      task != kInvalidTask) {
    event.duration = profiles_[task].busy_time;
    event.value = profiles_[task].energy;
  }
  options_.observer->Publish(event);
}

KernelRunResult IntermittentKernel::Run() {
  KernelRunResult result;
  const SimTime start = mcu_->TrueNow();

  // Initial hard reset (Figure 8, resetMonitor): once per application life.
  checker_->HardReset(*mcu_);
  Trace(obs::Kind::kKernelBoot, kInvalidTask);
  Trace(obs::Kind::kPathStart, current_task());
  if (options_.flight != nullptr) {
    // Black-box epoch 0 (the first power life). A failure here simply means
    // the run opened with a reboot before any task executed.
    if (options_.flight->AppendBoot() && options_.flight->boot_recorded()) {
      (void)options_.flight->AppendChargeSnapshot(
          mcu_->power_model().StoredEnergyFraction());
    }
  }

  std::uint64_t steps = 0;
  while (!app_complete_) {
    if (mcu_->starved()) {
      result.starved = true;
      break;
    }
    if (options_.max_wall_time != 0 && mcu_->TrueNow() - start > options_.max_wall_time) {
      result.timed_out = true;
      break;
    }
    if (++steps > options_.max_steps) {
      result.timed_out = true;
      break;
    }
    const ExecStatus status = Step();
    if (status == ExecStatus::kPowerFailure) {
      // Reboot path (Figure 8): progress any interrupted monitor operation.
      Trace(obs::Kind::kKernelBoot, kInvalidTask);
      checker_->Finalize(*mcu_);
    } else if (status == ExecStatus::kStarved) {
      result.starved = true;
      break;
    }
  }

  if (app_complete_) {
    Trace(obs::Kind::kAppComplete, kInvalidTask);
  }
  result.completed = app_complete_;
  result.finished_at = mcu_->TrueNow();
  result.iterations_completed = iterations_done_;
  result.stats = mcu_->stats();
  return result;
}

ExecStatus IntermittentKernel::Step() {
  if (app_complete_) {
    return ExecStatus::kOk;
  }
  // Task-boundary quiescence point: the next task is READY and no monitor
  // event is pending (mid-attempt reboots also land here — an aborted body
  // resumes in kReady with its event retired). A pending hot-swap stages
  // and commits here, between transitions; a power failure inside the hook
  // aborts this step like any other charged work and the hook re-runs at
  // the next boundary.
  if (options_.swap_hook != nullptr && !event_pending_ &&
      cur_status_ == TaskStatus::kReady) {
    const ExecStatus swap = options_.swap_hook->AtQuiescence(*mcu_);
    if (swap != ExecStatus::kOk) {
      return swap;
    }
  }
  if (unmonitored_) {
    return RunUnmonitored();
  }
  const TaskId task = current_task();
  if (task == kInvalidTask) {
    MarkAppComplete();
    return ExecStatus::kOk;
  }
  switch (cur_status_) {
    case TaskStatus::kReady:
      return HandleReady(task);
    case TaskStatus::kFinished:
      return HandleFinished(task);
  }
  return ExecStatus::kOk;
}

ExecStatus IntermittentKernel::EnsureStartEvent(TaskId task) {
  if (event_pending_ && event_.kind == EventKind::kStartTask && event_.task == task) {
    return ExecStatus::kOk;  // Resume the interrupted delivery (same seq).
  }
  ExecStatus status = mcu_->ExecuteCycles(mcu_->costs().event_build_cycles, CostTag::kRuntime);
  if (status != ExecStatus::kOk) {
    return status;
  }
  status = mcu_->ExecuteCycles(mcu_->costs().timestamp_read_cycles, CostTag::kRuntime);
  if (status != ExecStatus::kOk) {
    return status;
  }
  event_ = MonitorEvent{.kind = EventKind::kStartTask,
                        .timestamp = mcu_->Now(),
                        .task = task,
                        .path = static_cast<PathId>(path_idx_ + 1),
                        .seq = ++event_seq_,
                        .has_dep_data = false,
                        .dep_data = 0.0,
                        .energy_fraction = mcu_->power_model().StoredEnergyFraction()};
  event_pending_ = true;
  return ExecStatus::kOk;
}

ExecStatus IntermittentKernel::EnsureEndEvent(TaskId task) {
  if (event_pending_ && event_.kind == EventKind::kEndTask && event_.task == task) {
    return ExecStatus::kOk;
  }
  const ExecStatus status =
      mcu_->ExecuteCycles(mcu_->costs().event_build_cycles, CostTag::kRuntime);
  if (status != ExecStatus::kOk) {
    return status;
  }
  // Section 4.1.3: the EndTask timestamp is the preserved commit time, not a
  // fresh clock read, so re-deliveries after power failures stay accurate.
  const TaskDef& def = graph_->task(task);
  const std::optional<double> dep =
      def.monitored_var.has_value() ? channels_.MonitoredValue(task) : std::nullopt;
  event_ = MonitorEvent{.kind = EventKind::kEndTask,
                        .timestamp = cur_finish_ts_,
                        .task = task,
                        .path = static_cast<PathId>(path_idx_ + 1),
                        .seq = ++event_seq_,
                        .has_dep_data = dep.has_value(),
                        .dep_data = dep.value_or(0.0),
                        .energy_fraction = mcu_->power_model().StoredEnergyFraction()};
  event_pending_ = true;
  return ExecStatus::kOk;
}

ExecStatus IntermittentKernel::HandleReady(TaskId task) {
  ExecStatus status = mcu_->ExecuteCycles(mcu_->costs().kernel_boundary_cycles, CostTag::kRuntime);
  if (status != ExecStatus::kOk) {
    return status;
  }
  status = EnsureStartEvent(task);
  if (status != ExecStatus::kOk) {
    return status;
  }
  const CheckOutcome outcome = checker_->OnEvent(event_, *mcu_);
  if (ToExecStatus(outcome.status) != ExecStatus::kOk) {
    return ToExecStatus(outcome.status);
  }
  // Seal the boundary record while the event is still pending: if the append
  // is interrupted, the reboot replays this boundary with the same seq (the
  // checker's verdict cache answers instantly) and retries the append.
  if (options_.flight != nullptr &&
      !options_.flight->AppendTaskStart(event_.seq, task,
                                        static_cast<std::uint32_t>(path_idx_ + 1),
                                        cur_attempts_ + 1)) {
    return ExecStatus::kPowerFailure;
  }
  event_pending_ = false;  // Verdict obtained; the event is retired.
  ++cur_attempts_;
  Trace(obs::Kind::kTaskStart, task);
  if (outcome.verdict.violated()) {
    Trace(obs::Kind::kViolation, task, outcome.verdict.action, outcome.verdict.property);
    return ApplyAction(outcome.verdict, EventKind::kStartTask);
  }
  return RunTaskBody(task);
}

ExecStatus IntermittentKernel::RunTaskBody(TaskId task) {
  const TaskDef& def = graph_->task(task);
  const int app = static_cast<int>(CostTag::kApp);
  const SimDuration time_before = mcu_->stats().busy_time[app];
  const EnergyUj energy_before = mcu_->stats().energy[app];
  const ExecStatus status = mcu_->Execute(def.work.duration, def.work.power, CostTag::kApp);
  profiles_[task].busy_time += mcu_->stats().busy_time[app] - time_before;
  profiles_[task].energy += mcu_->stats().energy[app] - energy_before;
  if (status != ExecStatus::kOk) {
    ++profiles_[task].aborts;
    Trace(obs::Kind::kTaskAborted, task);
    return status;
  }
  staging_.clear();
  TaskContext ctx(graph_, &channels_, task, mcu_->Now(), &rng_, &staging_);
  if (def.effect) {
    def.effect(ctx);
  }
  return CommitTask(task, ctx);
}

ExecStatus IntermittentKernel::CommitTask(TaskId task, TaskContext& ctx) {
  const std::size_t bytes = ctx.staged_samples().size() * sizeof(double) + kCommitOverheadBytes;
  const double cycles = mcu_->costs().nvm_commit_cycles_per_byte * static_cast<double>(bytes) +
                        mcu_->costs().kernel_boundary_cycles;
  const ExecStatus status = mcu_->ExecuteCycles(cycles, CostTag::kRuntime);
  if (status != ExecStatus::kOk) {
    return status;  // Pre-commit failure: the whole task re-executes.
  }
  // ---- atomic commit point ----
  cur_finish_ts_ = mcu_->Now();
  for (const TaskId consumed : ctx.staged_consumes()) {
    channels_.ClearSamples(consumed);
  }
  channels_.AppendSamples(task, ctx.staged_samples());
  if (ctx.staged_monitored().has_value()) {
    channels_.SetMonitored(task, *ctx.staged_monitored());
  }
  channels_.RecordCompletion(task, cur_finish_ts_);
  ++profiles_[task].commits;
  cur_status_ = TaskStatus::kFinished;
  Trace(obs::Kind::kCommit, task, ActionType::kNone, {}, static_cast<double>(bytes));
  // The commit itself is already durable; the record is best-effort. An
  // interrupted append is not retried after the reboot (the kernel resumes
  // in kFinished), so a lost commit record just leaves a gap in the log.
  if (options_.flight != nullptr &&
      !options_.flight->AppendCommit(event_seq_, task, bytes)) {
    return ExecStatus::kPowerFailure;
  }
  return ExecStatus::kOk;
}

ExecStatus IntermittentKernel::HandleFinished(TaskId task) {
  ExecStatus status = mcu_->ExecuteCycles(mcu_->costs().kernel_boundary_cycles, CostTag::kRuntime);
  if (status != ExecStatus::kOk) {
    return status;
  }
  status = EnsureEndEvent(task);
  if (status != ExecStatus::kOk) {
    return status;
  }
  const CheckOutcome outcome = checker_->OnEvent(event_, *mcu_);
  if (ToExecStatus(outcome.status) != ExecStatus::kOk) {
    return ToExecStatus(outcome.status);
  }
  if (options_.flight != nullptr &&
      !options_.flight->AppendTaskEnd(event_.seq, task,
                                      static_cast<std::uint32_t>(path_idx_ + 1))) {
    return ExecStatus::kPowerFailure;
  }
  event_pending_ = false;
  Trace(obs::Kind::kTaskEnd, task);
  if (outcome.verdict.violated()) {
    Trace(obs::Kind::kViolation, task, outcome.verdict.action, outcome.verdict.property);
    return ApplyAction(outcome.verdict, EventKind::kEndTask);
  }
  AdvanceTask();
  return ExecStatus::kOk;
}

ExecStatus IntermittentKernel::RunUnmonitored() {
  const TaskId task = current_task();
  if (task == kInvalidTask) {
    MarkAppComplete();
    return ExecStatus::kOk;
  }
  const ExecStatus status =
      mcu_->ExecuteCycles(mcu_->costs().kernel_boundary_cycles, CostTag::kRuntime);
  if (status != ExecStatus::kOk) {
    return status;
  }
  if (cur_status_ == TaskStatus::kReady) {
    ++cur_attempts_;
    Trace(obs::Kind::kTaskStart, task, ActionType::kNone, "unmonitored");
    return RunTaskBody(task);
  }
  Trace(obs::Kind::kTaskEnd, task, ActionType::kNone, "unmonitored");
  AdvanceTask();
  return ExecStatus::kOk;
}

ExecStatus IntermittentKernel::ApplyAction(const MonitorVerdict& verdict, EventKind at) {
  const TaskId task = current_task();
  switch (verdict.action) {
    case ActionType::kNone:
      break;
    case ActionType::kRestartTask:
      // Re-run the current task; for an EndTask violation the committed
      // execution stands and the task simply runs again.
      cur_status_ = TaskStatus::kReady;
      Trace(obs::Kind::kActionApplied, task, verdict.action);
      break;
    case ActionType::kSkipTask:
      if (at == EventKind::kStartTask) {
        ++profiles_[task].skips;
        Trace(obs::Kind::kTaskSkipped, task, verdict.action);
      } else {
        Trace(obs::Kind::kActionApplied, task, verdict.action);
      }
      AdvanceTask();
      break;
    case ActionType::kRestartPath: {
      const std::size_t target = verdict.target_path != kNoPath
                                     ? static_cast<std::size_t>(verdict.target_path - 1)
                                     : path_idx_;
      Trace(obs::Kind::kPathRestart, task, verdict.action, verdict.property);
      EnterPath(target);
      checker_->OnPathRestart(static_cast<PathId>(target + 1), *mcu_);
      break;
    }
    case ActionType::kSkipPath: {
      const std::size_t target = verdict.target_path != kNoPath
                                     ? static_cast<std::size_t>(verdict.target_path - 1)
                                     : path_idx_;
      Trace(obs::Kind::kPathSkip, task, verdict.action, verdict.property);
      const std::size_t next = std::max(path_idx_, target) + 1;
      if (next >= graph_->path_count()) {
        MarkAppComplete();
      } else {
        EnterPath(next);
      }
      break;
    }
    case ActionType::kCompletePath:
      // Table 1: finish the current path without monitoring, then resume
      // monitored execution after it.
      Trace(obs::Kind::kActionApplied, task, verdict.action, verdict.property);
      unmonitored_ = true;
      if (at == EventKind::kEndTask) {
        AdvanceTask();
      } else {
        cur_status_ = TaskStatus::kReady;
      }
      break;
  }
  return mcu_->ExecuteCycles(mcu_->costs().action_apply_cycles, CostTag::kRuntime);
}

void IntermittentKernel::AdvanceTask() {
  const PathId path_id = static_cast<PathId>(path_idx_ + 1);
  const auto& path = graph_->path(path_id);
  cur_attempts_ = 0;
  cur_status_ = TaskStatus::kReady;
  cur_finish_ts_ = 0;
  if (task_idx_ + 1 < path.size()) {
    ++task_idx_;
    return;
  }
  // Path complete.
  if (unmonitored_) {
    unmonitored_ = false;
    // Record the path's final task (task_idx_ still points at it) so the
    // trace renders which task closed the unmonitored tail.
    Trace(obs::Kind::kPathCompleteUnmonitored, path.empty() ? kInvalidTask : path[task_idx_]);
    // Monitors tied to the silently completed path restart from scratch.
    checker_->OnPathRestart(path_id, *mcu_);
  }
  if (path_idx_ + 1 < graph_->path_count()) {
    EnterPath(path_idx_ + 1);
  } else {
    MarkAppComplete();
  }
}

void IntermittentKernel::EnterPath(std::size_t path_idx) {
  path_idx_ = path_idx;
  task_idx_ = 0;
  cur_status_ = TaskStatus::kReady;
  cur_attempts_ = 0;
  cur_finish_ts_ = 0;
  Trace(obs::Kind::kPathStart, current_task());
}

void IntermittentKernel::MarkAppComplete() {
  ++iterations_done_;
  const std::uint64_t goal = options_.app_iterations == 0 ? 1 : options_.app_iterations;
  if (iterations_done_ < goal) {
    // Continuous operation: sleep the duty-cycle gap, then start the next
    // sampling round from path #1.
    if (options_.inter_iteration_gap != 0) {
      mcu_->Idle(options_.inter_iteration_gap);
      mcu_->power_model().NotifyReboot(mcu_->TrueNow());  // Idle time recharges.
    }
    EnterPath(0);
    return;
  }
  app_complete_ = true;
}

}  // namespace artemis
