#include "src/monitor/monitor_set.h"

#include "src/monitor/compiled.h"
#include "src/monitor/shared_spec.h"
#include "src/sim/mcu.h"

namespace artemis {

const char* MonitorBackendName(MonitorBackend backend) {
  switch (backend) {
    case MonitorBackend::kInterpreted:
      return "interpreted";
    case MonitorBackend::kBuiltin:
      return "builtin";
    case MonitorBackend::kCompiled:
      return "compiled";
  }
  return "?";
}

bool ParseMonitorBackend(std::string_view text, MonitorBackend* out) {
  if (text == "builtin") {
    *out = MonitorBackend::kBuiltin;
  } else if (text == "interpreted") {
    *out = MonitorBackend::kInterpreted;
  } else if (text == "compiled") {
    *out = MonitorBackend::kCompiled;
  } else {
    return false;
  }
  return true;
}

const char* MonitorPlacementName(MonitorPlacement placement) {
  switch (placement) {
    case MonitorPlacement::kSeparate:
      return "separate";
    case MonitorPlacement::kInlined:
      return "inlined";
    case MonitorPlacement::kRemote:
      return "remote";
  }
  return "?";
}

std::size_t MonitorSet::InlinedTextBytes(std::size_t separate_text_bytes,
                                         std::size_t call_sites) {
  // Weaving duplicates the checking code at every event site; a small
  // fraction (the shared state declarations) is not duplicated.
  const std::size_t shared = separate_text_bytes / 5;
  return shared + (separate_text_bytes - shared) * (call_sites == 0 ? 1 : call_sites);
}

namespace {

const CompiledMachine* CompiledProgramOf(const Monitor& monitor) {
  const auto* compiled = dynamic_cast<const CompiledMonitor*>(&monitor);
  return compiled != nullptr ? &compiled->machine() : nullptr;
}

}  // namespace

void MonitorSet::Add(std::unique_ptr<Monitor> monitor) {
  compiled_.push_back(CompiledProgramOf(*monitor));
  monitors_.push_back(std::move(monitor));
  step_cycles_valid_ = false;
}

void MonitorSet::ReplaceMonitors(std::vector<std::unique_ptr<Monitor>> monitors) {
  // Only called at quiescence (no event mid-arbitration), so pending_ is
  // empty and the continuation is retired; the verdict cache and counters
  // survive so pre-swap events replay idempotently. The NVM arena keeps the
  // original registration: the swap stages the new image into the same
  // monitor region (docs/hotswap.md sizes it as max(old, new)).
  // The cached verdict borrows its label from a retiring monitor: move the
  // label into set-owned storage before that monitor goes.
  if (has_cached_verdict_) {
    cached_label_.assign(cached_verdict_.property);
    cached_verdict_.property = cached_label_;
  }
  monitors_ = std::move(monitors);
  step_cycles_valid_ = false;
  compiled_.clear();
  for (const auto& monitor : monitors_) {
    compiled_.push_back(CompiledProgramOf(*monitor));
  }
  pending_.clear();
}

void MonitorSet::CacheStepCycles(const CostModel& costs) {
  step_cycles_.clear();
  for (const auto& monitor : monitors_) {
    step_cycles_.push_back(monitor->StepCycles(costs));
  }
  step_cycles_valid_ = true;
}

void MonitorSet::StepLive(std::size_t i, const MonitorEvent& event) {
  MonitorVerdict verdict;
  if (monitors_[i]->Step(event, &verdict)) {
    pending_.push_back(verdict);
  }
}

std::size_t MonitorSet::FramBytesFor(std::size_t monitors, std::size_t state_bytes) {
  constexpr std::size_t kContinuationBytes = 16;
  constexpr std::size_t kPropertySlotBytes = 24;  // action/path/task plumbing (Figure 10)
  return sizeof(std::uint64_t) /* done_seq_ */ + kVerdictCacheFramBytes + kContinuationBytes +
         monitors * kPropertySlotBytes + state_bytes;
}

std::size_t MonitorSet::FramBytes() const {
  std::size_t state_bytes = 0;
  for (const auto& monitor : monitors_) {
    state_bytes += monitor->FramBytes();
  }
  return FramBytesFor(monitors_.size(), state_bytes);
}

MonitorCharges MonitorSet::CompiledCharges(const std::vector<CompiledMachine>& machines,
                                           const CostModel& costs) {
  MonitorCharges charges;
  std::size_t state_bytes = 0;
  for (const CompiledMachine& machine : machines) {
    charges.step_cycles.push_back(CompiledMonitor::StepCyclesFor(costs));
    state_bytes += CompiledMonitor::FramBytesFor(machine);
  }
  charges.fram_bytes = FramBytesFor(machines.size(), state_bytes);
  return charges;
}

void MonitorSet::HardReset(Mcu& mcu) {
  if (!arena_registered_) {
    mcu.nvm().Allocate(MemOwner::kMonitor, FramBytes(), "monitor-set");
    arena_registered_ = true;
  }
  for (const auto& monitor : monitors_) {
    monitor->HardReset();
  }
  step_cycles_valid_ = false;
  pending_.clear();
  done_seq_ = 0;
  has_cached_verdict_ = false;
  cached_verdict_ = MonitorVerdict{};
  continuation_.Finish();
}

void MonitorSet::Finalize(Mcu& mcu) {
  // Interrupted event processing is completed lazily: the kernel re-delivers
  // the pending event and OnEvent resumes from the saved cursor. The boot
  // pass just pays the bookkeeping read.
  if (continuation_.InProgress()) {
    mcu.ExecuteCycles(mcu.costs().timestamp_read_cycles, CostTag::kMonitor);
  }
}

CheckOutcome MonitorSet::OnEvent(const MonitorEvent& event, Mcu& mcu) {
  CheckOutcome outcome;
  // Per-event cycle cost for observability: everything the set accrues from
  // the interface crossing to the verdict (monitor bucket, or runtime bucket
  // when inlined). Published with the verdict event.
  const auto busy_now = [&mcu]() {
    return mcu.stats().busy_time[static_cast<int>(CostTag::kMonitor)] +
           mcu.stats().busy_time[static_cast<int>(CostTag::kRuntime)];
  };
  const SimDuration busy_before = obs_ != nullptr ? busy_now() : 0;
  // Interface-crossing cost depends on where the monitors live: inlined
  // checks pay nothing; remote monitors pay the radio round-trip; the
  // separate component pays the callMonitor call.
  ExecStatus call = ExecStatus::kOk;
  switch (placement_) {
    case MonitorPlacement::kSeparate:
      call = mcu.ExecuteCycles(mcu.costs().monitor_call_cycles, CostTag::kMonitor);
      break;
    case MonitorPlacement::kInlined:
      break;
    case MonitorPlacement::kRemote:
      call = mcu.Execute(radio_.tx_time, radio_.tx_power, CostTag::kMonitor);
      if (call == ExecStatus::kOk) {
        call = mcu.Execute(radio_.rx_time, radio_.rx_power, CostTag::kMonitor);
      }
      break;
  }
  if (call != ExecStatus::kOk) {
    outcome.status = static_cast<int>(call);
    return outcome;
  }
  // Exactly-once verdicts: a boundary retry after the verdict was computed
  // replays from the cache without re-stepping any monitor. The explicit
  // flag (not a seq sentinel) keeps this correct for an event with seq 0.
  if (has_cached_verdict_ && event.seq == done_seq_) {
    outcome.verdict = cached_verdict_;
    return outcome;
  }

  if (obs_ != nullptr) {
    // The event has crossed into the monitor component; value = the resume
    // cursor (non-zero when completing an interrupted delivery).
    obs_->Publish(obs::Event{.kind = obs::Kind::kMonitorDelivery,
                             .time = mcu.Now(),
                             .true_time = mcu.TrueNow(),
                             .task = event.task,
                             .path = event.path,
                             .seq = event.seq,
                             .value = static_cast<double>(continuation_.InProgress() ? 1 : 0),
                             .energy_fraction = event.energy_fraction,
                             .detail = EventKindName(event.kind)});
  }

  const std::uint32_t first = continuation_.Begin(event.seq);
  if (first == 0) {
    pending_.clear();
  }
  // Inlined checks are runtime time; remote checks run on the external
  // device and cost the local MCU nothing beyond the radio.
  const CostTag step_tag =
      placement_ == MonitorPlacement::kInlined ? CostTag::kRuntime : CostTag::kMonitor;
  if (placement_ == MonitorPlacement::kRemote) {
    for (std::size_t i = first; i < monitors_.size(); ++i) {
      StepMonitor(i, event);
    }
  } else {
    const ExecStatus step =
        ChargeMonitorSteps(mcu, StepCycles(mcu.costs()), first, step_tag,
                           [&](std::size_t i) { StepMonitor(i, event); });
    if (step != ExecStatus::kOk) {
      // Power failed before the next monitor durably consumed the event;
      // the continuation cursor still points at it, so the re-delivered
      // event resumes there.
      outcome.status = static_cast<int>(step);
      return outcome;
    }
  }

  MonitorVerdict verdict = Arbitrate(pending_, policy_);
  if (verdict.violated()) {
    ++violations_reported_;
  }
  if (obs_ != nullptr) {
    // Arbitration outcome: value = how many monitors reported a failure on
    // this event (the candidates), duration = the per-event cycle cost.
    obs::Event out{.kind = obs::Kind::kMonitorVerdict,
                   .time = mcu.Now(),
                   .true_time = mcu.TrueNow(),
                   .task = event.task,
                   .path = event.path,
                   .seq = event.seq,
                   .duration = busy_now() - busy_before,
                   .value = static_cast<double>(pending_.size()),
                   .energy_fraction = event.energy_fraction,
                   .detail = std::string(verdict.property)};
    if (verdict.violated()) {
      out.action = ActionTypeName(verdict.action);
    }
    obs_->Publish(out);
  }
  // Black-box the violation before retiring the event: the continuation
  // cursor is still at the end and the verdict cache is not yet written, so
  // if the append dies the re-delivered event re-arbitrates the same verdict
  // from the persisted pending_ set and retries the append.
  if (flight_ != nullptr && verdict.violated() &&
      !flight_->AppendVerdict(event.seq, event.task,
                              static_cast<std::uint8_t>(verdict.action),
                              verdict.target_path)) {
    outcome.status = static_cast<int>(ExecStatus::kPowerFailure);
    return outcome;
  }
  pending_.clear();
  continuation_.Finish();
  done_seq_ = event.seq;
  has_cached_verdict_ = true;
  cached_verdict_ = verdict;
  ++events_processed_;
  outcome.verdict = verdict;
  return outcome;
}

void MonitorSet::OnPathRestart(PathId path, Mcu& mcu) {
  const CostTag tag =
      placement_ == MonitorPlacement::kInlined ? CostTag::kRuntime : CostTag::kMonitor;
  mcu.ExecuteCycles(mcu.costs().action_apply_cycles, tag);
  for (const auto& monitor : monitors_) {
    monitor->OnPathRestart(path);
  }
  if (obs_ != nullptr) {
    obs_->Publish(obs::Event{.kind = obs::Kind::kMonitorReset,
                             .time = mcu.Now(),
                             .true_time = mcu.TrueNow(),
                             .path = path,
                             .value = static_cast<double>(monitors_.size())});
  }
}

StatusOr<std::unique_ptr<MonitorSet>> BuildMonitorSet(const SpecAst& spec, const AppGraph& graph,
                                                      MonitorBackend backend,
                                                      const LoweringOptions& lowering,
                                                      const MonitorSetOptions& options) {
  StatusOr<SharedSpecArtifactPtr> artifact =
      BuildSpecArtifactFromAst(spec, graph, StageForBackend(backend), lowering);
  if (!artifact.ok()) {
    return artifact.status();
  }
  return BuildMonitorSetFromArtifact(artifact.value(), graph, backend, lowering, options);
}

}  // namespace artemis
