// MonitorSet: the ARTEMIS application-specific monitor component.
//
// Implements the kernel's PropertyChecker interface over a collection of
// per-property monitors. Responsibilities:
//  * cycle accounting under CostTag::kMonitor (Figure 15's "monitor
//    overhead" bar);
//  * power-failure-resilient event processing: the ImmortalThreads-style
//    local continuation persists which monitors have already consumed the
//    current event, so a re-delivered event (same seq) resumes instead of
//    double-stepping (Section 4.2.3);
//  * exactly-once verdicts: once an event's verdict is computed it is cached
//    against the seq, so the kernel can retry boundary transitions
//    idempotently;
//  * verdict arbitration across simultaneously failing properties;
//  * FRAM byte accounting under MemOwner::kMonitor for Table 2.
#ifndef SRC_MONITOR_MONITOR_SET_H_
#define SRC_MONITOR_MONITOR_SET_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/status.h"
#include "src/flight/recorder.h"
#include "src/ir/compile.h"
#include "src/ir/lowering.h"
#include "src/kernel/app_graph.h"
#include "src/kernel/checker.h"
#include "src/kernel/immortal.h"
#include "src/monitor/arbitration.h"
#include "src/monitor/monitor.h"
#include "src/obs/bus.h"
#include "src/sim/mcu.h"
#include "src/spec/ast.h"

namespace artemis {

enum class MonitorBackend { kInterpreted, kBuiltin, kCompiled };

const char* MonitorBackendName(MonitorBackend backend);
// Parses "builtin" / "interpreted" / "compiled"; false on anything else.
bool ParseMonitorBackend(std::string_view text, MonitorBackend* out);

// Where the monitors live relative to the application MCU — the Section 7
// "Implementation Alternatives" trade-off:
//  * kSeparate — the paper's design: a distinct monitor component, events
//    cross the runtime->monitor interface (default).
//  * kInlined  — compiler-woven checks: no interface-crossing cost and the
//    per-step work is accounted as runtime time, at the price of duplicated
//    code (larger .text, see InlinedTextBytes).
//  * kRemote   — monitors on an external wirelessly-connected device: the
//    local MCU only pays radio TX/RX per event, which is far more expensive
//    than local checking (wireless >> compute).
enum class MonitorPlacement { kSeparate, kInlined, kRemote };

const char* MonitorPlacementName(MonitorPlacement placement);

struct RadioProfile {
  // Transmitting one MonitorEvent_t to the external monitor.
  SimDuration tx_time = 4 * kMillisecond;
  Milliwatts tx_power = 24.0;
  // Receiving the verdict.
  SimDuration rx_time = 2 * kMillisecond;
  Milliwatts rx_power = 18.0;
};

struct MonitorSetOptions {
  ArbitrationPolicy policy = ArbitrationPolicy::kSeverity;
  MonitorPlacement placement = MonitorPlacement::kSeparate;
  RadioProfile radio{};  // Used by kRemote only.
};

// Charges monitors `first..` their per-event step costs, one
// Mcu::ExecuteCyclesRepeated call per run of equal costs, and calls
// `stepped(i)` for every monitor whose charge completed, in index order.
// Returns the first non-kOk status — the monitors before the failing one
// have been stepped, the failing one has not — or kOk. The simulated
// outcome equals one ExecuteCycles + step per monitor.
template <typename Stepped>
ExecStatus ChargeMonitorSteps(Mcu& mcu, const std::vector<double>& step_cycles,
                              std::size_t first, CostTag tag, Stepped&& stepped) {
  for (std::size_t i = first; i < step_cycles.size();) {
    std::size_t end = i + 1;
    while (end < step_cycles.size() && step_cycles[end] == step_cycles[i]) {
      ++end;
    }
    std::size_t charged = 0;
    const ExecStatus status = mcu.ExecuteCyclesRepeated(step_cycles[i], end - i, tag, &charged);
    for (std::size_t m = i; m < i + charged; ++m) {
      stepped(m);
    }
    if (status != ExecStatus::kOk) {
      return status;
    }
    i = end;
  }
  return ExecStatus::kOk;
}

// What a monitor collection charges the device: each monitor's per-event
// step cycles, in registration order, and the Table 2 monitor FRAM.
struct MonitorCharges {
  std::vector<double> step_cycles;
  std::size_t fram_bytes = 0;
};

class MonitorSet : public PropertyChecker {
 public:
  // Modelled FRAM image of the verdict cache: action, target path, a
  // property-label reference and padding. A model constant, independent of
  // the host's MonitorVerdict layout.
  static constexpr std::size_t kVerdictCacheFramBytes = 40;

  explicit MonitorSet(ArbitrationPolicy policy = ArbitrationPolicy::kSeverity)
      : MonitorSet(MonitorSetOptions{.policy = policy}) {}
  explicit MonitorSet(const MonitorSetOptions& options)
      : policy_(options.policy), placement_(options.placement), radio_(options.radio) {}

  void Add(std::unique_ptr<Monitor> monitor);
  std::size_t size() const { return monitors_.size(); }
  const Monitor& monitor(std::size_t i) const { return *monitors_[i]; }
  Monitor& monitor(std::size_t i) { return *monitors_[i]; }

  // PropertyChecker implementation.
  void HardReset(Mcu& mcu) override;
  void Finalize(Mcu& mcu) override;
  CheckOutcome OnEvent(const MonitorEvent& event, Mcu& mcu) override;
  void OnPathRestart(PathId path, Mcu& mcu) override;
  std::string Name() const override { return "artemis-monitors"; }

  // Persistent monitor footprint in bytes (Table 2, monitor FRAM column).
  std::size_t FramBytes() const;
  // The footprint of `monitors` monitors holding `state_bytes` of state in
  // total: the set's done-seq word, verdict cache and continuation, plus
  // one property_t slot per monitor. FramBytes() is this over the set.
  static std::size_t FramBytesFor(std::size_t monitors, std::size_t state_bytes);
  // The charges a set of compiled monitors over `machines` makes under
  // `costs`, without building one: a twin that charges monitors but never
  // steps them (fleet's capture mode) charges exactly these.
  static MonitorCharges CompiledCharges(const std::vector<CompiledMachine>& machines,
                                        const CostModel& costs);

  // Number of processed events / reported violations, for benches.
  std::uint64_t events_processed() const { return events_processed_; }
  std::uint64_t violations_reported() const { return violations_reported_; }

  MonitorPlacement placement() const { return placement_; }

  // Cross-layer observability bus (src/obs): when set, the monitor set
  // publishes event deliveries, arbitrated verdicts (with per-event cycle
  // cost), and path-reset propagation. nullptr = off.
  void set_observer(obs::EventBus* bus) { obs_ = bus; }

  // On-device flight recorder (src/flight): when set, violated verdicts are
  // sealed into the FRAM black box before the verdict cache is written, so
  // an interrupted append replays the whole arbitration and retries.
  void set_flight(flight::FlightRecorder* recorder) { flight_ = recorder; }

  // .text proxy when the monitors are inlined at every event site instead of
  // generated once: the per-machine code duplicates per call site
  // (Section 6's memory-footprint argument against AOP-style weaving).
  static std::size_t InlinedTextBytes(std::size_t separate_text_bytes,
                                      std::size_t call_sites);

  // ---- hot-swap entry points (src/swap/hotswap.cc) ----------------------
  // True when no event is mid-arbitration: the continuation cursor is
  // retired and every monitor's FRAM state is at a transition boundary.
  // The swap controller only replaces images at quiescence.
  bool quiescent() const { return !continuation_.InProgress(); }
  // Atomically (host-side; durability is the controller's job) replaces the
  // monitor collection with the new image's freshly-built, state-migrated
  // monitors. The seq-keyed verdict cache and event/violation counters are
  // kept: the event stream continues across the swap, so a re-delivered
  // pre-swap event must still replay its cached verdict instead of
  // double-stepping the new machines. The cached verdict's label is copied
  // into the set first, since the monitor it borrows from is retired.
  void ReplaceMonitors(std::vector<std::unique_ptr<Monitor>> monitors);

 private:
  // Per-monitor StepCycles, computed once per monitor collection and boot
  // (HardReset) instead of once per monitor per event.
  const std::vector<double>& StepCycles(const CostModel& costs) {
    if (!step_cycles_valid_) {
      CacheStepCycles(costs);
    }
    return step_cycles_;
  }
  void CacheStepCycles(const CostModel& costs);
  // Monitor i consumes the event: a compiled monitor whose column is dead
  // is a self-loop in every state, so Step would change nothing and is
  // skipped; the charge is already paid and the cursor still advances.
  void StepMonitor(std::size_t i, const MonitorEvent& event) {
    const CompiledMachine* const machine = compiled_[i];
    if (machine == nullptr || !machine->ColumnDead(event.kind, event.task)) {
      StepLive(i, event);
    }
    continuation_.CompleteStep();
  }
  void StepLive(std::size_t i, const MonitorEvent& event);

  ArbitrationPolicy policy_;
  MonitorPlacement placement_ = MonitorPlacement::kSeparate;
  RadioProfile radio_;
  std::vector<std::unique_ptr<Monitor>> monitors_;
  // Parallel to monitors_: the program of a compiled monitor, nullptr for
  // any other backend. A compiled monitor whose column is dead for the
  // event (CompiledMachine::ColumnDead) is charged but not stepped.
  std::vector<const CompiledMachine*> compiled_;
  std::vector<double> step_cycles_;
  bool step_cycles_valid_ = false;
  obs::EventBus* obs_ = nullptr;
  flight::FlightRecorder* flight_ = nullptr;

  // ---- FRAM-resident progress state (ImmortalThreads-backed) ----
  ImmortalContext continuation_{nullptr, MemOwner::kMonitor, "monitor-continuation"};
  std::vector<MonitorVerdict> pending_;  // failures gathered for the in-flight event
  std::uint64_t done_seq_ = 0;           // last fully processed event
  // Explicit cache-valid flag: `done_seq_` alone cannot distinguish "no
  // event processed yet" from a processed event with seq == 0.
  bool has_cached_verdict_ = false;
  MonitorVerdict cached_verdict_;        // its arbitrated verdict
  // Owns the cached verdict's label once ReplaceMonitors retired the
  // monitor it was borrowed from.
  std::string cached_label_;
  bool arena_registered_ = false;

  std::uint64_t events_processed_ = 0;
  std::uint64_t violations_reported_ = 0;
};

// Builds a MonitorSet from a spec with the chosen backend: the spec
// artifact the backend needs (BuildSpecArtifactFromAst in
// src/monitor/shared_spec.h), then the set over it
// (BuildMonitorSetFromArtifact). kBuiltin instantiates the Figure 10 style
// structures, kInterpreted interprets the lowered intermediate-language
// machines, and kCompiled runs their slot-indexed bytecode (src/ir/compile.h)
// — see docs/monitor-backends.md.
StatusOr<std::unique_ptr<MonitorSet>> BuildMonitorSet(const SpecAst& spec, const AppGraph& graph,
                                                      MonitorBackend backend,
                                                      const LoweringOptions& lowering = {},
                                                      const MonitorSetOptions& options = {});

}  // namespace artemis

#endif  // SRC_MONITOR_MONITOR_SET_H_
