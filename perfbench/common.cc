#include "perfbench/common.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <sstream>

namespace perfbench {

void RunResult::Add(const std::string& name, double value, const std::string& unit) {
  metrics.push_back(Metric{name, value, unit});
}

void RunResult::Fail(const std::string& why) {
  constexpr std::size_t kMaxNotes = 20;
  correct = false;
  if (notes.size() < kMaxNotes) {
    notes.push_back("FAILED: " + why);
  }
}

void RunResult::Finish() {
  if (!correct) {
    failed = attempted;
  }
}

namespace {

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) {
    return "0";
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

std::string RunResult::ToJson() const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    out += (i == 0 ? "" : ", ") + JsonString(m.name) + ": {\"value\": " +
           JsonNumber(m.value) + ", \"unit\": " + JsonString(m.unit) + "}";
  }
  return out + "}}";
}

double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void ResetPeakRss() {
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
}

double Median(std::vector<double> values) { return Percentile(std::move(values), 0.5); }

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : std::min(values.size() - 1, static_cast<std::size_t>(rank) - 1);
  return values[index];
}

double QuietCost(std::vector<double> costs) {
  if (costs.empty()) {
    return 0.0;
  }
  const std::size_t rank = std::min(kQuietRank, costs.size()) - 1;
  std::nth_element(costs.begin(), costs.begin() + static_cast<std::ptrdiff_t>(rank), costs.end());
  return costs[rank];
}

double QuietRate(std::vector<double> rates) {
  for (double& rate : rates) {
    rate = -rate;
  }
  return -QuietCost(std::move(rates));
}

std::vector<CallSample> ClosedLoop(double seconds, const std::function<std::uint64_t()>& call,
                                   const std::function<void()>& check) {
  std::vector<CallSample> samples;
  const std::int64_t deadline = NowNs() + static_cast<std::int64_t>(seconds * 1e9);
  do {
    // Hand the heap the previous call freed back to the system, so every
    // call starts from the same resident set and faults in its own memory,
    // as a fresh process would.
    malloc_trim(0);
    ResetPeakRss();
    const double cpu0 = CpuSeconds();
    const std::int64_t t0 = NowNs();
    CallSample sample;
    sample.items = call();
    sample.wall_s = static_cast<double>(NowNs() - t0) * 1e-9;
    sample.cpu_s = CpuSeconds() - cpu0;
    sample.peak_rss_mb = PeakRssMb();
    samples.push_back(sample);
    if (check) {
      check();
    }
  } while (NowNs() < deadline);
  return samples;
}

void SetupSampler::Sample() {
  constexpr std::size_t kBatchReps = 5;
  constexpr std::int64_t kBatchNs = 50'000'000;
  constexpr std::int64_t kIntervalNs = 1'000'000'000;
  const std::int64_t start = NowNs();
  if (last_batch_ns_ != 0 && start - last_batch_ns_ < kIntervalNs) {
    return;
  }
  last_batch_ns_ = start;
  for (std::size_t reps = 0; reps < kBatchReps || NowNs() - start < kBatchNs; ++reps) {
    const std::int64_t t0 = NowNs();
    setup_();
    walls_.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
  }
}

void AddEndToEnd(RunResult* result, const std::vector<CallSample>& calls, double setup_s,
                 const std::vector<double>& call_p50_ms) {
  std::vector<double> rates;
  std::vector<double> cpu_per_item;
  std::vector<double> rss;
  for (const CallSample& c : calls) {
    result->attempted += c.items;
    rss.push_back(c.peak_rss_mb);
    if (c.items > 0 && c.wall_s > 0.0) {
      rates.push_back(static_cast<double>(c.items) / c.wall_s);
      cpu_per_item.push_back(c.cpu_s * 1e6 / static_cast<double>(c.items));
    }
  }
  result->Add("items_per_s", QuietRate(rates), "1/s");
  result->Add("cpu_us_per_item", QuietCost(cpu_per_item), "us");
  result->Add("setup_s", setup_s, "s");
  result->Add("peak_rss_mb", Median(rss), "MiB");
  result->Add("item_p50_ms", QuietCost(call_p50_ms), "ms");
  std::string walls;
  for (const CallSample& c : calls) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), " %.4g/%.4g", c.wall_s, c.cpu_s);
    walls += buf;
  }
  result->Note("calls=" + std::to_string(calls.size()) + " call_wall/cpu_s:" + walls);
}

std::string SeedMaskedDigest(const std::string& text, std::uint64_t seed) {
  const std::string needle = "\"seed\": " + std::to_string(seed) + ",";
  const std::string masked = "\"seed\": *,";
  std::uint64_t hash = 14695981039346656037ull;  // 64-bit FNV-1a
  const auto mix = [&hash](const char* data, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      hash ^= static_cast<unsigned char>(data[i]);
      hash *= 1099511628211ull;
    }
  };
  std::size_t pos = 0;
  for (std::size_t hit = text.find(needle); hit != std::string::npos;
       hit = text.find(needle, pos)) {
    mix(text.data() + pos, hit - pos);
    mix(masked.data(), masked.size());
    pos = hit + needle.size();
  }
  mix(text.data() + pos, text.size() - pos);
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, hash);
  return buf;
}

std::optional<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    return std::nullopt;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::map<std::string, std::string> LoadReference() {
  std::map<std::string, std::string> reference;
  const std::optional<std::string> text = ReadFile("perfbench/reference.txt");
  if (!text.has_value()) {
    return reference;
  }
  std::istringstream lines(*text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    std::istringstream fields(line);
    std::string name;
    std::string digest;
    if (fields >> name >> digest) {
      reference[name] = digest;
    }
  }
  return reference;
}

std::string CheckDigest(const Options& options,
                        const std::map<std::string, std::string>& reference,
                        const std::string& name, const std::string& json) {
  const std::string digest = SeedMaskedDigest(json, options.seed);
  const auto it = reference.find(name);
  if (it == reference.end() || it->second != digest) {
    return name + " JSON digest does not match perfbench/reference.txt, which would need the line '" +
           name + " " + digest + "'";
  }
  return "";
}

}  // namespace perfbench
