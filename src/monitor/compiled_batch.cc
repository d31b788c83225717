#include "src/monitor/compiled_batch.h"

#include <algorithm>
#include <utility>

#include "src/monitor/batch_kernels.h"

namespace artemis {

BatchCompiledMonitor::BatchCompiledMonitor(std::shared_ptr<const CompiledMachine> machine,
                                           std::uint32_t lanes)
    : machine_(std::move(machine)),
      lanes_(lanes),
      stride_(std::max<std::uint32_t>(
          static_cast<std::uint32_t>(machine_->initial_slots.size()), 1)),
      current_(lanes, machine_->initial),
      slots_(static_cast<std::size_t>(lanes) * stride_, 0.0),
      stack_(std::max<std::uint32_t>(machine_->max_stack, 1), 0.0) {
  summaries_.reserve(machine_->dispatch.size());
  for (const std::uint32_t pc : machine_->dispatch) {
    summaries_.push_back(Summarize(pc));
  }
  any_summaries_.reserve(machine_->any_handler.size());
  for (const std::uint32_t pc : machine_->any_handler) {
    any_summaries_.push_back(Summarize(pc));
  }
  for (std::uint32_t lane = 0; lane < lanes_; ++lane) {
    std::copy(machine_->initial_slots.begin(), machine_->initial_slots.end(), lane_slots(lane));
  }

  // Padded per-entry class table: [state][kind][max_task + 2], the last
  // column of every (state, kind) row repeating the state's any-task
  // handler class. Padding buys a branch-free partition pass — any task id
  // clamps onto a valid column with a single min — and the pass reads only
  // this byte array; the 48-byte Summaries stay cold until a cohort runs.
  {
    const std::uint32_t span = machine_->max_task + 2u;
    const auto n_states = static_cast<std::uint32_t>(any_summaries_.size());
    class_of_.resize(static_cast<std::size_t>(n_states) * 2u * span);
    pc_of_.resize(class_of_.size());
    for (std::uint32_t state = 0; state < n_states; ++state) {
      for (std::uint32_t kind = 0; kind < 2; ++kind) {
        const std::uint32_t row = state * 2u + kind;
        for (std::uint32_t t = 0; t + 1 < span; ++t) {
          const Summary& s = summaries_[row * (span - 1u) + t];
          class_of_[row * span + t] = static_cast<std::uint8_t>(s.cls);
          pc_of_[row * span + t] = s.pc;
        }
        class_of_[row * span + span - 1u] =
            static_cast<std::uint8_t>(any_summaries_[state].cls);
        pc_of_[row * span + span - 1u] = any_summaries_[state].pc;
      }
    }
  }

  // Per-pass scratch, sized once so StepBatch never allocates.
  const std::uint32_t entries = entry_count();
  counts_.assign(entries, 0u);
  offsets_.assign(entries, 0u);
  perm_.resize(lanes_);
  elapsed_.resize(lanes_);
  bucketed_.reserve(lanes_);
  general_.reserve(lanes_);
  touched_.reserve(std::min<std::uint32_t>(entries, lanes_) + 1u);
}

template <bool kTraffic, bool kList>
void BatchCompiledMonitor::PartitionPass(const MonitorEvent* const* events,
                                         const std::uint32_t* list, std::uint32_t n) {
  const PathId scope = machine_->path_scope;
  const std::uint32_t span = machine_->max_task + 2u;
  const std::uint8_t* const class_of = class_of_.data();
  const std::uint32_t* const pc_of = pc_of_.data();
  const std::uint16_t* const current = current_.data();
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t lane = kList ? list[i] : i;
    const MonitorEvent* const e = events[lane];
    if constexpr (!kList) {
      // A lane list arrives pre-filtered (StepBatchLanes contract); the
      // full-range pass checks liveness and scope per lane itself.
      if (e == nullptr) {
        continue;  // Exhausted cursor: lane state untouched.
      }
      if (scope != kNoPath && e->path != scope) {
        continue;  // Out-of-scope events are invisible to this machine.
      }
    }
    const auto t =
        std::min(static_cast<std::uint32_t>(e->task), span - 1u);  // any-task column
    const std::uint32_t entry =
        (static_cast<std::uint32_t>(current[lane]) * 2u +
         static_cast<std::uint32_t>(e->kind)) *
            span +
        t;
    if constexpr (kTraffic) {
      ++traffic_[entry];
    }
    const auto cls = static_cast<HandlerClass>(class_of[entry]);
    if (cls == HandlerClass::kSelfLoop) {
      continue;
    }
    if (cls == HandlerClass::kGeneral) {
      general_.push_back(GeneralLane{lane, pc_of[entry]});
    } else {
      bucketed_.push_back(BucketedLane{lane, entry});
    }
  }
}

BatchCompiledMonitor::Summary BatchCompiledMonitor::Summarize(std::uint32_t pc) const {
  const Instr* const code = machine_->code.data();
  Summary s;
  s.pc = pc;
  const Instr in = code[pc];
  switch (in.op) {
    case OpCode::kNoMatch:
      s.cls = HandlerClass::kSelfLoop;
      break;
    case OpCode::kCommit:
      // A leading kCommit means guard-free and body-free by construction
      // (body statements would precede it in the program).
      s.cls = HandlerClass::kCommit;
      s.to = static_cast<std::uint16_t>(in.operand);
      break;
    case OpCode::kStoreFieldCommit:
      s.cls = HandlerClass::kStoreFieldCommit;
      s.field = static_cast<EventField>(in.operand >> 16);
      s.slot = static_cast<std::uint16_t>(in.operand & 0xFFFF);
      s.to = static_cast<std::uint16_t>(code[pc + 1].operand);
      break;
    case OpCode::kGuardCommitElapsedLt:
    case OpCode::kGuardCommitElapsedLe:
    case OpCode::kGuardCommitElapsedGt:
    case OpCode::kGuardCommitElapsedGe:
    case OpCode::kGuardCommitElapsedEq:
    case OpCode::kGuardCommitElapsedNe: {
      // Summarizable only when guard failure lands on a bare kNoMatch —
      // i.e. there is no further candidate transition to try. Otherwise
      // the program is a multi-candidate chain and stays kGeneral.
      const std::uint32_t on_fail = code[pc + 2].operand;
      if (code[on_fail].op != OpCode::kNoMatch) {
        break;
      }
      s.cls = HandlerClass::kGuardElapsedCommit;
      s.guard_op = in.op;
      s.field = static_cast<EventField>(in.operand >> 16);
      s.slot = static_cast<std::uint16_t>(in.operand & 0xFFFF);
      s.threshold = machine_->const_pool[code[pc + 1].operand];
      s.to = static_cast<std::uint16_t>(code[pc + 3].operand);
      break;
    }
    default:
      break;  // kGeneral
  }
  return s;
}

void BatchCompiledMonitor::StepBatch(const MonitorEvent* const* events, std::uint32_t n,
                                     std::vector<BatchFailure>* failures) {
  bucketed_.clear();
  general_.clear();

  // Pass 1 — partition. Resolve each live lane to its dispatch entry and
  // branch on the 1-byte class code: self-loops (the bulk of real fleet
  // traffic) die here without touching lane state, general lanes queue in
  // lane order for the bytecode fallback, the three vector classes queue
  // for counting sort. Lane state is read-only in this pass. The entry
  // index is branch-free over the padded class table (any task id clamps
  // onto the trailing any-column with one min), and the traffic branch is
  // hoisted into two loop instantiations so the common profiling-off case
  // pays nothing per lane.
  if (traffic_.empty()) {
    PartitionPass<false, false>(events, nullptr, n);
  } else {
    PartitionPass<true, false>(events, nullptr, n);
  }
  FinishStep(events, failures);
}

void BatchCompiledMonitor::StepBatchLanes(const MonitorEvent* const* events,
                                          const std::uint32_t* lane_list, std::uint32_t count,
                                          std::vector<BatchFailure>* failures) {
  bucketed_.clear();
  general_.clear();
  // Same partition as StepBatch minus the per-lane null and scope tests:
  // the feed layer proved both while building the list, which is what
  // makes a path-scoped machine's pass cost proportional to the lanes on
  // ITS path, not the whole tile. The list is ascending, so the cohort
  // sort and the general fallback still see lanes in ascending order and
  // the failure-append contract is unchanged.
  if (traffic_.empty()) {
    PartitionPass<false, true>(events, lane_list, count);
  } else {
    PartitionPass<true, true>(events, lane_list, count);
  }
  FinishStep(events, failures);
}

void BatchCompiledMonitor::FinishStep(const MonitorEvent* const* events,
                                      std::vector<BatchFailure>* failures) {
  const CompiledMachine& m = *machine_;
  // Pass 2 — counting sort into cohorts. counts_ is all-zero on entry
  // (reset entry-by-entry in pass 3, so the cost scales with touched
  // entries, not table size). The sort is stable over the lane-ordered
  // bucketed_ list, so each cohort's lane indices come out ascending —
  // which is what lets pass 3 detect contiguous runs.
  touched_.clear();
  for (const BucketedLane& b : bucketed_) {
    if (counts_[b.entry]++ == 0u) {
      touched_.push_back(b.entry);
    }
  }
  std::uint32_t off = 0;
  for (const std::uint32_t entry : touched_) {
    offsets_[entry] = off;
    off += counts_[entry];
  }
  for (const BucketedLane& b : bucketed_) {
    perm_[offsets_[b.entry]++] = b.lane;
  }

  // Pass 3 — one kernel invocation per cohort; the entry's Summary is
  // decoded once per cohort instead of once per lane. Lanes are mutually
  // independent, so cohort order cannot affect results.
  for (const std::uint32_t entry : touched_) {
    const std::uint32_t len = counts_[entry];
    counts_[entry] = 0u;
    RunCohort(SummaryByEntry(entry), perm_.data() + (offsets_[entry] - len), len, events);
  }

  // Pass 4 — bytecode fallback, in lane order so failures append exactly
  // as the scalar path would emit them. Only kGeneral programs can reach
  // kFail (the fused classes have empty bodies by construction), so
  // failure ordering is unaffected by the cohort reordering above.
  for (const GeneralLane& g : general_) {
    VmFailure failure;
    const bool failed = RunCompiledHandler(m, g.pc, *events[g.lane], &current_[g.lane],
                                           slots_.data() + g.lane * stride_, stack_.data(),
                                           &failure);
    if (failed) {
      const FailRecord& fail = m.fail_pool[failure.fail_index];
      failures->push_back(BatchFailure{g.lane, fail.action, fail.target_path,
                                       failure.fail_index});
    }
  }
}

void BatchCompiledMonitor::RunCohort(const Summary& s, const std::uint32_t* lanes,
                                     std::uint32_t len, const MonitorEvent* const* events) {
  std::uint16_t* const current = current_.data();
  double* const slots = slots_.data();
  const std::uint32_t stride = stride_;
  // Ascending lane order makes density a range check: a cohort is dense
  // when it covers [base, base+len) with no gaps, the common case when a
  // tile's lanes march in lockstep.
  const std::uint32_t base = lanes[0];
  const bool dense = lanes[len - 1] - base + 1u == len;
  using namespace batch_kernels;
  switch (s.cls) {
    case HandlerClass::kCommit:
      if (dense) {
        CommitDense(len, s.to, current + base);
      } else {
        CommitIndexed(lanes, len, s.to, current);
      }
      break;
    case HandlerClass::kStoreFieldCommit:
      if (dense) {
        StoreFieldCommitDense(events, base, len, s.field, s.slot, s.to, slots, stride, current);
      } else {
        StoreFieldCommitIndexed(events, lanes, len, s.field, s.slot, s.to, slots, stride,
                                current);
      }
      break;
    case HandlerClass::kGuardElapsedCommit: {
      if (dense) {
        GatherElapsedDense(events, base, len, s.field, slots, stride, s.slot, elapsed_.data());
      } else {
        GatherElapsedIndexed(events, lanes, len, s.field, slots, stride, s.slot,
                             elapsed_.data());
      }
#define ARTEMIS_BATCH_GUARD_CASE(op, cmp)                                              \
  case OpCode::op:                                                                     \
    if (dense) {                                                                       \
      GuardSelectDense<GuardCmp::cmp>(elapsed_.data(), len, s.threshold, s.to,         \
                                      current + base);                                 \
    } else {                                                                           \
      GuardSelectIndexed<GuardCmp::cmp>(elapsed_.data(), lanes, len, s.threshold,      \
                                        s.to, current);                                \
    }                                                                                  \
    break;
      switch (s.guard_op) {
        ARTEMIS_BATCH_GUARD_CASE(kGuardCommitElapsedLt, kLt)
        ARTEMIS_BATCH_GUARD_CASE(kGuardCommitElapsedLe, kLe)
        ARTEMIS_BATCH_GUARD_CASE(kGuardCommitElapsedGt, kGt)
        ARTEMIS_BATCH_GUARD_CASE(kGuardCommitElapsedGe, kGe)
        ARTEMIS_BATCH_GUARD_CASE(kGuardCommitElapsedEq, kEq)
        ARTEMIS_BATCH_GUARD_CASE(kGuardCommitElapsedNe, kNe)
        default:
          break;  // Unreachable: Summarize only emits the six ops above.
      }
#undef ARTEMIS_BATCH_GUARD_CASE
      break;
    }
    default:
      break;  // kSelfLoop/kGeneral never reach a cohort.
  }
}

bool BatchCompiledMonitor::StepLaneGeneral(std::uint32_t lane, const MonitorEvent& event,
                                           BatchVerdict* out) {
  *out = BatchVerdict{};
  if (machine_->path_scope != kNoPath && event.path != machine_->path_scope) {
    return false;
  }
  VmFailure failure;
  const bool failed = RunCompiledHandler(
      *machine_, machine_->HandlerFor(current_[lane], event.kind, event.task), event,
      &current_[lane], lane_slots(lane), stack_.data(), &failure);
  if (failed) {
    const FailRecord& fail = machine_->fail_pool[failure.fail_index];
    out->action = fail.action;
    out->target_path = fail.target_path;
    out->fail_index = failure.fail_index;
    out->failed = true;
  }
  return failed;
}

void BatchCompiledMonitor::HardResetAll() {
  for (std::uint32_t lane = 0; lane < lanes_; ++lane) {
    HardResetLane(lane);
  }
}

void BatchCompiledMonitor::HardResetLane(std::uint32_t lane) {
  current_[lane] = machine_->initial;
  std::copy(machine_->initial_slots.begin(), machine_->initial_slots.end(), lane_slots(lane));
}

void BatchCompiledMonitor::ApplyMigrationFrom(const BatchCompiledMonitor& old,
                                              const std::vector<std::uint16_t>& state_map,
                                              const std::vector<int>& slot_sources) {
  const std::size_t new_slots = machine_->initial_slots.size();
  for (std::uint32_t lane = 0; lane < lanes_ && lane < old.lanes_; ++lane) {
    const std::uint16_t old_state = old.current_[lane];
    current_[lane] = old_state < state_map.size() ? state_map[old_state] : machine_->initial;
    const double* from = old.lane_slots(lane);
    double* to = lane_slots(lane);
    for (std::size_t s = 0; s < new_slots; ++s) {
      const int source = s < slot_sources.size() ? slot_sources[s] : -1;
      to[s] = source >= 0 && static_cast<std::size_t>(source) < old.machine_->initial_slots.size()
                  ? from[source]
                  : machine_->initial_slots[s];
    }
  }
}

void BatchCompiledMonitor::OnPathRestartLane(std::uint32_t lane, PathId path) {
  if (!machine_->reset_on_path_restart) {
    return;
  }
  if (machine_->path_scope != kNoPath && machine_->path_scope != path) {
    return;
  }
  current_[lane] = machine_->initial;
  // As in the scalar backends: counters keep their values, only the
  // control state re-initializes.
}

void BatchCompiledMonitor::EnableTraffic() {
  traffic_.assign(entry_count(), 0u);
}

std::vector<std::uint64_t> BatchCompiledMonitor::ClassTraffic() const {
  std::vector<std::uint64_t> counts(kNumClasses, 0);
  for (std::size_t i = 0; i < traffic_.size(); ++i) {
    counts[class_of_[i]] += traffic_[i];
  }
  return counts;
}

BatchCompiledMonitor::EntryInfo BatchCompiledMonitor::DecodeEntry(std::uint32_t entry) const {
  const std::uint32_t span = machine_->max_task + 2u;
  const std::uint32_t row = entry / span;
  const std::uint32_t col = entry % span;
  EntryInfo info;
  info.task = col == span - 1u ? -1 : static_cast<int>(col);  // -1: any-task column
  info.kind = static_cast<int>(row & 1u);
  info.state = static_cast<std::uint16_t>(row >> 1u);
  return info;
}

double BatchCompiledMonitor::LaneVarValue(std::uint32_t lane, const std::string& name) const {
  for (std::size_t i = 0; i < machine_->var_names.size(); ++i) {
    if (machine_->var_names[i] == name) {
      return lane_slots(lane)[i];
    }
  }
  return 0.0;
}

BatchCompiledMonitor::HandlerClass BatchCompiledMonitor::ClassOf(std::uint16_t state,
                                                                 EventKind kind,
                                                                 TaskId task) const {
  return SummaryFor(state, kind, task).cls;
}

std::vector<std::uint64_t> BatchCompiledMonitor::ClassHistogram() const {
  std::vector<std::uint64_t> counts(kNumClasses, 0);
  for (const Summary& s : summaries_) {
    ++counts[static_cast<std::size_t>(s.cls)];
  }
  return counts;
}

}  // namespace artemis
