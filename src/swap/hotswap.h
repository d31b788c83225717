// Live monitor hot swap: over-the-air spec replacement on a running device
// (docs/hotswap.md).
//
// The HotSwapController owns the swap protocol. It plugs into the kernel as
// a SwapHook, so it only ever runs at task-boundary quiescence points: no
// monitor event is mid-arbitration and every monitor's FRAM state sits at a
// transition boundary. One swap attempt is
//
//   1. SNAPSHOT  — capture the live FSM state of every surviving machine
//                  and compute its migrated form (host-side, free);
//   2. STAGE     — charge-then-write the migrated state into the inactive
//                  monitor region, one NVM byte at a time. A power failure
//                  here discards the attempt completely: old monitors keep
//                  advancing between attempts, so the snapshot is re-taken
//                  from scratch at the next quiescence point (a resumable
//                  byte offset would commit a stale snapshot);
//   3. COMMIT    — one single-byte durable write flips the device to the
//                  new image. When the flight recorder is on, the seal byte
//                  of the swap-epoch record IS this commit: a sealed record
//                  means the new image is active, a torn append is invisible
//                  and leaves the old image active. With the recorder off
//                  the commit is one control-byte write. Either way the
//                  two-phase charge-then-write discipline makes the swap
//                  atomic under power failure at ANY cycle offset
//                  (exercised exhaustively by tests/swap_torture_test.cc).
//
// After the commit the controller installs the migrated monitors into the
// MonitorSet (host-side bookkeeping of what the staged bytes already made
// durable) and bumps the installed header to the new image's epoch.
#ifndef SRC_SWAP_HOTSWAP_H_
#define SRC_SWAP_HOTSWAP_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/analysis/analyzer.h"
#include "src/analysis/diagnostics.h"
#include "src/base/status.h"
#include "src/kernel/kernel.h"
#include "src/monitor/monitor_set.h"
#include "src/swap/image.h"
#include "src/swap/migration.h"

namespace artemis {

// Durable-write seam for the swap protocol. The controller's default port
// charges the simulated MCU (CostModel::swap_* cycles under
// CostTag::kRuntime); the torture test substitutes a port that injects a
// power failure at every charge offset. Both methods return false exactly
// when the charge failed — the byte never became durable.
class SwapPort {
 public:
  virtual ~SwapPort() = default;
  virtual bool ChargeStageByte() = 0;  // one staged NVM byte
  virtual bool ChargeControl() = 0;    // bookkeeping / fallback commit write
};

struct SwapStats {
  std::uint64_t swaps_applied = 0;
  std::uint64_t attempts_started = 0;
  std::uint64_t attempts_failed = 0;   // power failures inside the window
  std::uint64_t bytes_staged = 0;      // cumulative, including failed attempts
  std::uint64_t fallback_commits = 0;  // committed via control write, not seal
};

class HotSwapController : public SwapHook {
 public:
  // `set` must be a compiled-backend MonitorSet built from
  // `installed.artifact` (monitor i executes compiled machine i); both it
  // and `graph` must outlive the controller.
  HotSwapController(MonitorSet* set, MonitorImage installed, const AppGraph* graph)
      : set_(set), installed_(std::move(installed)), graph_(graph) {}

  // Flight recorder whose swap-epoch seal serves as the commit point.
  // nullptr (or FlightLevel::kOff) falls back to a control-byte commit.
  void set_flight(flight::FlightRecorder* flight) { flight_ = flight; }

  // Queues `next` for installation at the first quiescence point at or
  // after `not_before` (device time). Plans the migration immediately and
  // refuses — leaving the old image untouched — when the image is not
  // strictly newer or the plan has ART015 errors. Warnings are kept in
  // plan_diagnostics() and do not block.
  Status RequestSwap(MonitorImage next, SimTime not_before = 0);

  // SwapHook: called by the kernel between transitions. Applies a pending
  // swap; charging failures propagate as kPowerFailure so the kernel
  // reboots exactly as for any other interrupted work.
  ExecStatus AtQuiescence(Mcu& mcu) override;

  // One swap attempt over an explicit port (test seam, no Mcu involved).
  // Returns kOk when the new image committed, kPowerFailure when a charge
  // failed mid-window (old image still active).
  ExecStatus TryApply(SwapPort& port);

  bool pending() const { return pending_; }
  const MonitorImageHeader& installed() const { return installed_.header; }
  const MonitorImage& installed_image() const { return installed_; }
  const SwapStats& stats() const { return stats_; }
  // Diagnostics from the most recent RequestSwap's planning pass.
  const std::vector<Diagnostic>& plan_diagnostics() const { return plan_diags_; }

 private:
  MonitorSet* set_;
  MonitorImage installed_;
  const AppGraph* graph_;
  flight::FlightRecorder* flight_ = nullptr;

  bool pending_ = false;
  MonitorImage next_;
  MigrationPlan plan_;
  SimTime not_before_ = 0;
  std::vector<Diagnostic> plan_diags_;
  SwapStats stats_;
};

// Pre-deployment whole-swap analysis (`artemisc check --spec2`): runs the
// migration planner (ART015) and prices the
// swap window — control write + staged bytes + the swap-epoch flight record
// when flight is enabled — against every supplied charge budget on top of
// the boot-restore energy (ART016). Infeasible under every budget is an
// error (the swap can never commit); under only some is a warning.
DiagnosticEngine AnalyzeSwap(const MonitorImage& old_image, const MonitorImage& new_image,
                             const AppGraph& graph, const AnalysisOptions& options = {});

// The delivery gate for a replacement image, run by `artemisc swap` and the
// sweep's spec2 axis before anything is delivered: the whole-system
// analyzer over the replacement's machines under the deployment axes
// (AnalyzeMachines), then AnalyzeSwap from the installed image, in one
// engine. Every finding is located in the replacement spec.
DiagnosticEngine AnalyzeReplacement(const MonitorImage& installed, const MonitorImage& next,
                                    const AppGraph& graph, const AnalysisOptions& options);

}  // namespace artemis

#endif  // SRC_SWAP_HOTSWAP_H_
