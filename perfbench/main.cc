// End-to-end benchmark entry point. Run from the repository root:
//
//   perfbench --workload fleet-burst|fleet-outage|sweep-grid|spec-check
//             --seed N --seconds S --trace 0|1 [--trace-dir D]
//
// Prints human-readable notes on stderr and, as the last stdout line, one
// JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// The traced run writes its spans to <trace-dir>/<workload>.tsv.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "perfbench/common.h"
#include "perfbench/workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "fleet-burst|fleet-outage|sweep-grid|spec-check --seed N --seconds S "
               "--trace 0|1 [--trace-dir D]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      return Usage(("missing value for " + flag).c_str());
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace-dir") {
      options.trace_dir = value;
    } else if (flag == "--trace") {
      options.trace = value == "1";
      if (value != "0" && value != "1") {
        return Usage("--trace takes 0 or 1");
      }
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && (*end != '\0' || value.empty())) {
      return Usage(("bad value for " + flag).c_str());
    }
  }
  if (!(options.seconds > 0.0) || options.seconds > 600.0) {
    return Usage("--seconds must be in (0, 600]");
  }

  perfbench::RunResult result;
  if (options.workload == "fleet-burst") {
    result = perfbench::RunFleetBurst(options);
  } else if (options.workload == "fleet-outage") {
    result = perfbench::RunFleetOutage(options);
  } else if (options.workload == "sweep-grid") {
    result = perfbench::RunSweepGrid(options);
  } else if (options.workload == "spec-check") {
    result = perfbench::RunSpecCheck(options);
  } else {
    return Usage(("unknown workload '" + options.workload + "'").c_str());
  }
  result.Finish();
  for (const std::string& note : result.notes) {
    std::fprintf(stderr, "perfbench[%s]: %s\n", options.workload.c_str(), note.c_str());
  }
  for (const perfbench::Metric& m : result.metrics) {
    std::fprintf(stderr, "  %-42s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("%s\n", result.ToJson().c_str());
  return 0;
}
