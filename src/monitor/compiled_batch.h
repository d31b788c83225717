// Batch entry point to the compiled monitor VM: advances N lanes of the
// SAME compiled machine over N independent event cursors in one flat
// structure-of-arrays pass (src/fleet uses one lane per simulated device).
//
// Why a separate engine instead of N CompiledMonitor objects: the scalar
// path pays a virtual Monitor::Step call, a shared_ptr-held machine
// indirection, and a cache-scattered heap object per device per event.
// Here the per-lane state is three dense arrays owned by one object —
//
//   current_[lane]              control state ids, contiguous
//   slots_[lane * stride + s]   variable blocks, one cache-dense 2-D block
//   (bytecode/dispatch shared)  read-only, hot in L1 across all lanes
//
// — and a step is organized around handler *classes*. At construction
// every dispatch-table entry's handler program is classified once:
//
//   kSelfLoop           program is a bare kNoMatch — the event is a no-op
//   kCommit             unconditional state change (guard-free, empty body)
//   kStoreFieldCommit   `slot = event.field; state = to` (the fused
//                       store-commit superinstruction)
//   kGuardElapsedCommit `if (event.field - slot <cmp> K) state = to` where
//                       guard failure self-loops — the canonical MITD/MSS
//                       time-window transition
//   kGeneral            anything else — falls back to the shared bytecode
//                       core (vm_core.h), bit-identical to the scalar path
//
// StepBatch is a three-phase cohort pass over that classification:
//
//   1. partition — each live lane resolves its (state, kind, task) to a
//      dispatch entry and reads a 1-byte class code. kSelfLoop lanes are
//      dropped on the spot (most fleet traffic, per the runtime traffic
//      counters below); kGeneral lanes queue in lane order; the three
//      vector classes counting-sort into per-entry cohorts.
//   2. cohort kernels — each cohort shares ONE pre-decoded Summary, so the
//      Summary load, the class switch, and the guard-compare branch all
//      hoist out of the inner loop. What remains is a straight-line
//      gather / compare-select / scatter over contiguous uint16 states and
//      double slots (src/monitor/batch_kernels.h; portable restrict loops,
//      or explicit SSE2/NEON under ARTEMIS_SIMD — bit-identical either
//      way). Contiguous cohorts (all lanes in lockstep) take a dense
//      kernel with no index indirection at all.
//   3. general fallback — queued lanes run the shared bytecode core in
//      lane order, so failure records append exactly as the scalar path
//      would emit them.
//
// Because classification is per (EventKind, TaskId) *column*, the VM also
// knows statically which columns are self-loops in EVERY state —
// ColumnDead below. src/fleet consults it (across all machines of a spec)
// to elide monitor-irrelevant fleet traffic before it ever reaches a lane:
// the paper's adaptability story means most monitors ignore most events,
// and a dead column is proof the event cannot touch lane state.
//
// Optional runtime traffic counters (EnableTraffic) count events per
// dispatch entry, answering "which columns are actually hot on this
// workload" — surfaced through FleetOutcome and `artemisc fleet --stats`.
//
// Lanes are independent: no kernel reads another lane's state, so cohort
// execution order cannot change results, and the hot-swap migration entry
// point (ApplyMigrationFrom, used by src/swap) composes with the cohort
// machinery trivially — the partition is rebuilt from current_[] on every
// pass, never cached across calls. Equivalence with CompiledMonitor is
// enforced lane-by-lane by the differential fuzz test in
// tests/compiled_monitor_test.cc, including forced cohort-boundary shapes;
// semantics of a lane are exactly CompiledMonitor's (same dispatch, same
// programs, same reset rules).
#ifndef SRC_MONITOR_COMPILED_BATCH_H_
#define SRC_MONITOR_COMPILED_BATCH_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/ir/compile.h"
#include "src/kernel/checker.h"
#include "src/monitor/vm_core.h"

namespace artemis {

// String-free per-lane step result. `action`/`target_path` mirror the
// FailRecord; `fail_index` resolves the property label on demand via
// BatchCompiledMonitor::fail_record (verdicts are rare, strings are not
// worth carrying through the hot pass).
struct BatchVerdict {
  ActionType action = ActionType::kNone;
  PathId target_path = kNoPath;
  std::uint32_t fail_index = 0;
  bool failed = false;
};

// One failing lane from a StepBatch pass. The batch step reports failures
// as a compact append-only list instead of a per-lane output array: most
// events fail nothing, and clearing N verdict slots per machine per event
// would cost more cache traffic than the stepping itself.
struct BatchFailure {
  std::uint32_t lane = 0;
  ActionType action = ActionType::kNone;
  PathId target_path = kNoPath;
  std::uint32_t fail_index = 0;
};

class BatchCompiledMonitor {
 public:
  // How a dispatch-table handler program was classified (test/bench
  // introspection; the counts are what the speedup claim rests on).
  enum class HandlerClass : std::uint8_t {
    kSelfLoop = 0,
    kCommit,
    kStoreFieldCommit,
    kGuardElapsedCommit,
    kGeneral,
  };
  static constexpr std::size_t kNumClasses = 5;

  BatchCompiledMonitor(std::shared_ptr<const CompiledMachine> machine, std::uint32_t lanes);

  std::uint32_t lanes() const { return lanes_; }
  const CompiledMachine& machine() const { return *machine_; }

  // Steps every lane i in [0, n): lane i consumes *events[i]; a null
  // events[i] marks an exhausted cursor and leaves the lane untouched.
  // Failing lanes are APPENDED to `failures` in lane order (the caller
  // clears it between passes); non-failing lanes write nothing. n must be
  // <= lanes().
  void StepBatch(const MonitorEvent* const* events, std::uint32_t n,
                 std::vector<BatchFailure>* failures);

  // Steps ONLY the listed lanes (`events` is still indexed by lane id).
  // Caller contract: `lane_list` is strictly ascending, and every listed
  // lane's events[lane] is non-null and within this machine's path scope —
  // the feed layer already proved both while building its per-pass live /
  // per-path lane lists, so the partition pass here skips the null and
  // scope tests entirely. Semantically identical to StepBatch restricted
  // to the listed lanes (unlisted lanes are untouched, exactly like a null
  // cursor); equivalence is pinned by the differential fuzz tests.
  void StepBatchLanes(const MonitorEvent* const* events, const std::uint32_t* lane_list,
                      std::uint32_t count, std::vector<BatchFailure>* failures);

  // Scalar single-lane step with CompiledMonitor::Step semantics —
  // always runs the full bytecode core, bypassing the cohort fast path.
  // Reference implementation for the differential tests.
  bool StepLaneGeneral(std::uint32_t lane, const MonitorEvent& event, BatchVerdict* out);

  void HardResetAll();
  void HardResetLane(std::uint32_t lane);
  void OnPathRestartLane(std::uint32_t lane, PathId path);

  // Hot-swap entry point (src/swap): bulk-migrates every lane's FRAM state
  // from the retiring image's batch VM of the SAME property. Per lane:
  // the control state becomes state_map[old state id] (the migration
  // plan's old->new map, defaulting unmapped states to this machine's
  // initial), and slot s takes the old lane's slot_sources[s] when >= 0 or
  // resets to initial_slots[s]. `old` must have the same lane count.
  // Composes with cohort stepping by construction: the lane permutation is
  // per-pass scratch, so migrated states simply partition differently on
  // the next StepBatch (regression-pinned in tests/hotswap_test.cc).
  void ApplyMigrationFrom(const BatchCompiledMonitor& old,
                          const std::vector<std::uint16_t>& state_map,
                          const std::vector<int>& slot_sources);

  const FailRecord& fail_record(std::uint32_t fail_index) const {
    return machine_->fail_pool[fail_index];
  }

  // ---- dead-column elision ---------------------------------------------
  // A (kind, task) column is dead when EVERY state's handler for it is
  // kSelfLoop: an event on that column provably cannot change any lane's
  // state, slots, or verdicts. The table is the compiled machine's own
  // (CompiledMachine::ColumnDead), the one MonitorSet's scalar skip reads.
  bool ColumnDead(EventKind kind, TaskId task) const { return machine_->ColumnDead(kind, task); }
  // Dead / total (kind, task) columns, for static elision-rate reporting.
  std::uint32_t dead_column_count() const {
    return static_cast<std::uint32_t>(
        std::count(machine_->dead_columns.begin(), machine_->dead_columns.end(), 1u));
  }
  std::uint32_t column_count() const {
    return static_cast<std::uint32_t>(machine_->dead_columns.size());
  }

  // ---- runtime traffic profiling ---------------------------------------
  // Off by default (the partition pass pays one predictable branch when
  // off). When enabled, every dispatched lane-event increments its
  // entry's counter — the measured dispatch-entry mix, as opposed to the
  // static ClassHistogram. Events elided by the fleet layer's dead-column
  // check never reach StepBatch and are counted there, not here.
  void EnableTraffic();
  bool traffic_enabled() const { return !traffic_.empty(); }
  // Per-entry event counts, indexed like entries: [0, dispatch.size())
  // are dispatch entries, then one any-task row per state. Empty when
  // disabled.
  const std::vector<std::uint64_t>& EntryTraffic() const { return traffic_; }
  // Runtime events per handler class (kSelfLoop..kGeneral), summed from
  // EntryTraffic. All zeros when disabled.
  std::vector<std::uint64_t> ClassTraffic() const;

  // Entry introspection for traffic reports. task == -1 marks the any-task
  // column (the handler is the state's shared any_handler; the kind is the
  // one the event actually carried).
  struct EntryInfo {
    std::uint16_t state = 0;
    int kind = 0;
    int task = 0;
  };
  std::uint32_t entry_count() const { return static_cast<std::uint32_t>(class_of_.size()); }
  EntryInfo DecodeEntry(std::uint32_t entry) const;
  HandlerClass EntryClass(std::uint32_t entry) const {
    return static_cast<HandlerClass>(class_of_[entry]);
  }

  // Test hooks, mirroring CompiledMonitor's.
  const std::string& lane_state(std::uint32_t lane) const {
    return machine_->state_names[current_[lane]];
  }
  double LaneVarValue(std::uint32_t lane, const std::string& name) const;
  HandlerClass ClassOf(std::uint16_t state, EventKind kind, TaskId task) const;
  // Dispatch-table entries per class, in HandlerClass order (bench report).
  std::vector<std::uint64_t> ClassHistogram() const;

 private:
  // Compact pre-decoded handler form, one per dispatch-table entry (plus
  // one per-state any_handler row for task ids above max_task).
  struct Summary {
    HandlerClass cls = HandlerClass::kGeneral;
    OpCode guard_op = OpCode::kNoMatch;  // kGuardElapsedCommit: the fused opcode
    EventField field = EventField::kTimestamp;
    std::uint16_t slot = 0;
    std::uint16_t to = 0;
    double threshold = 0.0;
    std::uint32_t pc = 0;  // program entry (kGeneral fallback)
  };

  // One lane headed for a vector-class cohort this pass.
  struct BucketedLane {
    std::uint32_t lane = 0;
    std::uint32_t entry = 0;
  };
  // One lane headed for the bytecode fallback this pass.
  struct GeneralLane {
    std::uint32_t lane = 0;
    std::uint32_t pc = 0;
  };

  Summary Summarize(std::uint32_t pc) const;
  // Entry ids live in the PADDED table: [state][kind][max_task + 2], the
  // trailing column standing in for the state's any-task handler. The
  // padding is what makes the partition pass branch-free — any task id
  // clamps onto a valid column with one cmov, no range test.
  const Summary& SummaryByEntry(std::uint32_t entry) const {
    const std::uint32_t span = machine_->max_task + 2u;
    const std::uint32_t col = entry % span;
    return col == span - 1u ? any_summaries_[entry / span / 2u]
                            : summaries_[(entry / span) * (span - 1u) + col];
  }
  const Summary& SummaryFor(std::uint16_t state, EventKind kind, TaskId task) const {
    const auto t = static_cast<std::uint32_t>(task);
    if (t > machine_->max_task) {
      return any_summaries_[state];
    }
    const std::uint32_t row =
        (static_cast<std::uint32_t>(state) * 2u + static_cast<std::uint32_t>(kind));
    return summaries_[row * (machine_->max_task + 1u) + t];
  }

  // Pass 1 of StepBatch, instantiated with and without traffic counting so
  // the profiling check costs nothing per lane when disabled, and with and
  // without a lane list (kList skips the null/scope tests per the
  // StepBatchLanes caller contract). `list` is ignored when !kList.
  template <bool kTraffic, bool kList>
  void PartitionPass(const MonitorEvent* const* events, const std::uint32_t* list,
                     std::uint32_t n);
  // Passes 2-4, shared by StepBatch and StepBatchLanes.
  void FinishStep(const MonitorEvent* const* events, std::vector<BatchFailure>* failures);

  void RunCohort(const Summary& s, const std::uint32_t* lanes, std::uint32_t len,
                 const MonitorEvent* const* events);

  double* lane_slots(std::uint32_t lane) { return slots_.data() + lane * stride_; }
  const double* lane_slots(std::uint32_t lane) const { return slots_.data() + lane * stride_; }

  std::shared_ptr<const CompiledMachine> machine_;
  std::uint32_t lanes_ = 0;
  std::uint32_t stride_ = 0;  // doubles per lane slot block (>= 1)
  std::vector<Summary> summaries_;      // parallel to machine_->dispatch
  std::vector<Summary> any_summaries_;  // indexed by state id
  // 1-byte class code per entry (dispatch entries, then any rows): the
  // partition pass touches only this, not the 48-byte Summary.
  std::vector<std::uint8_t> class_of_;
  // Program entry per padded entry id, so queueing a kGeneral lane reads a
  // hot 4-byte table instead of pulling the entry's whole Summary into the
  // partition pass.
  std::vector<std::uint32_t> pc_of_;
  std::vector<std::uint16_t> current_;  // [lane]
  std::vector<double> slots_;           // [lane * stride_ + slot]
  std::vector<double> stack_;           // scratch for the kGeneral fallback

  // ---- per-pass scratch (sized once; no hot-loop allocation) ----------
  std::vector<BucketedLane> bucketed_;  // vector-class lanes, lane order
  std::vector<GeneralLane> general_;    // bytecode-fallback lanes, lane order
  std::vector<std::uint32_t> counts_;   // [entry] cohort sizes this pass
  std::vector<std::uint32_t> offsets_;  // [entry] counting-sort cursors
  std::vector<std::uint32_t> touched_;  // entries with a cohort this pass
  std::vector<std::uint32_t> perm_;     // lane permutation, cohort-grouped
  std::vector<double> elapsed_;         // gathered guard operands
  std::vector<std::uint64_t> traffic_;  // [entry] runtime counters (opt-in)
};

}  // namespace artemis

#endif  // SRC_MONITOR_COMPILED_BATCH_H_
