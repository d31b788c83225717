// Verdict arbitration: when several monitors report failures for the same
// event, the runtime "determines the appropriate course of action in
// response to the suggested ones" (Section 3.3). The default policy picks
// the most severe action; alternatives exist for the ablation bench.
#ifndef SRC_MONITOR_ARBITRATION_H_
#define SRC_MONITOR_ARBITRATION_H_

#include <string>
#include <string_view>
#include <vector>

#include "src/kernel/checker.h"

namespace artemis {

enum class ArbitrationPolicy {
  // Most severe action wins (completePath > skipPath > restartPath >
  // skipTask > restartTask); ties break to the earliest-registered monitor.
  kSeverity,
  // First reporting monitor wins (registration order).
  kFirstWins,
  // Last reporting monitor wins.
  kLastWins,
};

const char* ArbitrationPolicyName(ArbitrationPolicy policy);
// Parses "severity" / "first-wins" / "last-wins"; false on anything else.
bool ParseArbitrationPolicy(std::string_view text, ArbitrationPolicy* out);

MonitorVerdict Arbitrate(const std::vector<MonitorVerdict>& verdicts,
                         ArbitrationPolicy policy);

}  // namespace artemis

#endif  // SRC_MONITOR_ARBITRATION_H_
