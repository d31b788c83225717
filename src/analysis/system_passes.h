// Whole-system analysis passes (pipeline stages 6..8, see analyzer.h).
//
// Unlike the machine-local passes, these consult the AnalysisContext's
// AppGraph task costs, CostModel, and deployment axes (charge budgets,
// outage cadences, commit discipline, flight-recorder sizing):
//
//   * EnergyFeasibilityPass — ART009: a task whose single atomic attempt
//     (work + kernel boundary + monitor stepping + boot restore) exceeds
//     every supplied budget can never commit; the app is guaranteed
//     non-terminating. ART010: an MITD/maxDuration/period bound that the
//     best case cannot meet once the forced outages implied by the budget
//     are packed into its window, a maxDuration above the same task's
//     period, or (warning, outage axes only) a maxDuration with no slack.
//   * ProductReachabilityPass — composes each machine with the app's task
//     positions (the producible event alphabet in path order, with
//     re-execution self-loops). ART011: the property has fail sites but
//     none can ever execute — dead weight costing FRAM bytes and cycles
//     per event. ART012: every complete run of the app trips a definite
//     violation — the spec is vacuously broken.
//   * ReExecutionHazardPass — ART013: a transition body updates a monitor
//     slot from its own prior value (write-after-read); without the
//     kernel's two-phase commit a power failure between NVM write and
//     boundary commit replays the update on re-execution. ART014: the
//     flight-recorder ring is smaller than one worst-case record footprint,
//     so appends are silently dropped and the sealed history erodes.
#ifndef SRC_ANALYSIS_SYSTEM_PASSES_H_
#define SRC_ANALYSIS_SYSTEM_PASSES_H_

#include <memory>
#include <vector>

#include "src/analysis/analyzer.h"

namespace artemis {

// Energy of the boot-time restore work after a power failure.
EnergyUj AnalysisRebootEnergy(const CostModel& costs);

// Energy of crossing one task's start+end boundaries: kernel bookkeeping,
// event builds, monitor calls, and one builtin-backend step per machine
// that has `task` in its event scope (the cheapest backend, so the verdict
// is a lower bound and never a false infeasibility).
EnergyUj TaskBoundaryEnergy(TaskId task, const std::vector<StateMachine>& machines,
                            const std::vector<MachineFacts>& facts, const CostModel& costs);

// Total energy one execution attempt of `task` needs inside a single
// on-period that begins with a boot: restore + boundaries + task work.
// ART009's comparator: infeasible iff this exceeds the budget (closed
// comparison — an attempt that exactly fits is feasible).
EnergyUj TaskAttemptEnergy(const AppGraph& graph, TaskId task,
                           const std::vector<StateMachine>& machines,
                           const std::vector<MachineFacts>& facts, const CostModel& costs);

// The passes above, in pipeline order (appended to the machine-local five
// by DefaultAnalysisPasses).
std::vector<std::unique_ptr<AnalysisPass>> SystemAnalysisPasses();

}  // namespace artemis

#endif  // SRC_ANALYSIS_SYSTEM_PASSES_H_
