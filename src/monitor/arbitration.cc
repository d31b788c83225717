#include "src/monitor/arbitration.h"

namespace artemis {

const char* ArbitrationPolicyName(ArbitrationPolicy policy) {
  switch (policy) {
    case ArbitrationPolicy::kSeverity:
      return "severity";
    case ArbitrationPolicy::kFirstWins:
      return "first-wins";
    case ArbitrationPolicy::kLastWins:
      return "last-wins";
  }
  return "?";
}

bool ParseArbitrationPolicy(std::string_view text, ArbitrationPolicy* out) {
  if (text == "severity") {
    *out = ArbitrationPolicy::kSeverity;
  } else if (text == "first-wins") {
    *out = ArbitrationPolicy::kFirstWins;
  } else if (text == "last-wins") {
    *out = ArbitrationPolicy::kLastWins;
  } else {
    return false;
  }
  return true;
}

MonitorVerdict Arbitrate(const std::vector<MonitorVerdict>& verdicts,
                         ArbitrationPolicy policy) {
  MonitorVerdict chosen;
  if (verdicts.empty()) {
    return chosen;
  }
  switch (policy) {
    case ArbitrationPolicy::kFirstWins:
      return verdicts.front();
    case ArbitrationPolicy::kLastWins:
      return verdicts.back();
    case ArbitrationPolicy::kSeverity:
      for (const MonitorVerdict& v : verdicts) {
        if (ActionSeverity(v.action) > ActionSeverity(chosen.action)) {
          chosen = v;
        }
      }
      return chosen;
  }
  return chosen;
}

}  // namespace artemis
