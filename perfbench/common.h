// Shared plumbing of the end-to-end benchmark: options, the result record
// printed as the run's last stdout line, the closed-loop runner, and the
// small statistics and digest helpers every workload uses.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Directory the traced run writes its spans to.
  std::string trace_dir = ".bench_build/perfbench-trace";
};

// The engine's worker count for every workload (the host's CPU count).
inline constexpr int kWorkers = 4;

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// What one run reports. `correct` is false as soon as any correctness gate
// fails; a failed gate counts every attempted item as failed.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  // human-readable lines, printed to stderr

  void Add(const std::string& name, double value, const std::string& unit);
  void Fail(const std::string& why);
  void Note(const std::string& line) { notes.push_back(line); }
  // Closes the run: a failed gate marks every attempted item failed.
  void Finish();
  std::string ToJson() const;
};

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Process CPU time (user + sys, all threads), in seconds.
double CpuSeconds();
// Peak resident set of this process since the last ResetPeakRss(), in MiB.
double PeakRssMb();
// Restarts the peak-RSS watermark at the current resident set (Linux
// clear_refs); without it PeakRssMb() reports the whole process lifetime.
void ResetPeakRss();

double Median(std::vector<double> values);
// Nearest-rank percentile, p in [0, 1]; 0 for an empty sample.
double Percentile(std::vector<double> values, double p);

// Noise on a shared host only ever adds time, and it comes in phases of a
// few seconds that can cover most of a run. So every end-to-end timing
// metric is read from the run's quiet moments, not its median: the
// kQuietRank-th smallest cost (largest rate) of the run's samples, or the
// last when there are fewer. A run makes tens to thousands of calls, so
// the fastest tenth or better falls in quiet moments; the tenth, not the
// first, so that a few lucky calls do not set the number.
inline constexpr std::size_t kQuietRank = 10;
double QuietCost(std::vector<double> costs);
double QuietRate(std::vector<double> rates);

// One closed-loop request: host wall and CPU time plus the items it did.
struct CallSample {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double peak_rss_mb = 0.0;
  std::uint64_t items = 0;
};

// Closed loop with one client: issues `call` one at a time, each only after
// the previous returned, until `seconds` have elapsed (at least once).
// `call` returns the number of items it completed; `check`, when given,
// runs untimed after each call to verify its output and then release it.
// The freed heap is trimmed before each call, so a call's peak RSS covers
// that call alone and does not depend on what earlier calls left cached.
std::vector<CallSample> ClosedLoop(double seconds, const std::function<std::uint64_t()>& call,
                                   const std::function<void()>& check = nullptr);

// Times the one-item version of a workload's engine call. Batches of
// samples are spread over the run (Sample() is called before the closed
// loop and after every call, and takes a batch at most once a second), so
// setup_s sees the same host conditions as the measured calls. setup_s is
// the quiet cost (QuietCost) of all samples.
class SetupSampler {
 public:
  explicit SetupSampler(std::function<void()> setup) : setup_(std::move(setup)) {}

  void Sample();
  double QuietSeconds() const { return QuietCost(walls_); }

 private:
  std::function<void()> setup_;
  std::vector<double> walls_;
  std::int64_t last_batch_ns_ = 0;
};

// The end-to-end block every workload reports: items_per_s and
// cpu_us_per_item (quiet values over calls), peak_rss_mb (median over
// calls), setup_s, and item_p50_ms: the quiet value of `call_p50_ms`, one
// entry per call holding the median latency of its items. A workload keeps
// one number per call, not every item latency, so that its own bookkeeping
// does not grow the resident set with the run's length. A p99 needs far more
// requests than a fleet or sweep run makes, so spec-check reports its p99
// in the traced run (check.item_p99_ms).
void AddEndToEnd(RunResult* result, const std::vector<CallSample>& calls, double setup_s,
                 const std::vector<double>& call_p50_ms);

// 16-hex-digit FNV-1a digest of `text` with every `"seed": <seed>,` field
// read as `"seed": *,`. Health twins ignore their RNG seed, so renderings
// differ across seeds only in those echoed fields; masking them lets one
// reference digest cover every seed while still catching any change in
// the results.
std::string SeedMaskedDigest(const std::string& text, std::uint64_t seed);

std::optional<std::string> ReadFile(const std::string& path);

// perfbench/reference.txt: "<name> <digest>" lines recorded at the commit
// that defined the benchmark.
std::map<std::string, std::string> LoadReference();

// Gate: the seed-masked digest of `json` equals reference entry `name`.
// Returns "" on a match. The failure names the "<name> <digest>" line that
// reference.txt would need, to copy in after an intended change of answer.
std::string CheckDigest(const Options& options,
                        const std::map<std::string, std::string>& reference,
                        const std::string& name, const std::string& json);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
