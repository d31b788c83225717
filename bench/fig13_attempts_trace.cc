// Figure 13: how ARTEMIS prevents non-termination with the maxAttempt
// construct. Reproduces the paper's annotated timeline: three attempts to
// complete path #2 (each ending in an MITD violation at `send`), then the
// path skip that lets the application finish through path #3.
//
// The timeline is read from the cross-layer observability bus (src/obs) —
// the same event stream `artemisc trace` exports, so this printout and a
// Perfetto view of the run agree by construction (docs/tracing.md).
#include <cstdio>

#include "bench/bench_common.h"
#include "src/obs/bus.h"

using namespace artemis;
using namespace artemis::bench;

int main() {
  std::printf("=== Figure 13: maxAttempt execution timeline (6 min charging) ===\n\n");

  obs::EventBus bus;
  obs::CollectingSink sink;
  bus.AddSink(&sink);
  auto run = Require(RunHealth(DeviceSystem::kArtemis, ChargeTime(6), 8 * kHour, &bus));

  // Print the path-#2 portion of the stream: attempts, violations, the skip.
  int attempt = 0;
  for (const obs::Event& e : sink.events()) {
    if (e.kind == obs::Kind::kViolation && e.detail.find("MITD") != std::string::npos) {
      ++attempt;
      std::printf("attempt #%d  %s  %s -> %s\n", attempt, FormatTimestamp(e.time).c_str(),
                  e.detail.c_str(), e.action.c_str());
    }
    if (e.kind == obs::Kind::kPathSkip) {
      std::printf("           %s  path #%u skipped; execution proceeds\n",
                  FormatTimestamp(e.time).c_str(), e.path);
    }
    if (e.kind == obs::Kind::kAppComplete) {
      std::printf("           %s  application complete\n", FormatTimestamp(e.time).c_str());
    }
  }
  std::printf("\ncompleted=%s  MITD violations=%d (expect 3: 2 restarts + 1 skip)\n",
              run.result.completed ? "yes" : "no", attempt);
  return run.result.completed && attempt == 3 ? 0 : 1;
}
