#include "src/fleet/fleet.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <utility>

#include "src/base/json.h"
#include "src/base/thread_pool.h"
#include "src/monitor/arbitration.h"
#include "src/monitor/compiled_batch.h"
#include "src/sweep/sweep.h"

namespace artemis::fleet {
namespace {

std::string U64(std::uint64_t v) {
  std::string out;
  AppendUint(out, v);
  return out;
}

// Fixed-precision ratio of two integers: deterministic for any shard
// count because both operands are shard-order-independent integers.
std::string Ratio(std::uint64_t num, std::uint64_t den) {
  std::string out;
  AppendFixed(out, den == 0 ? 0.0 : static_cast<double>(num) / den, 9);
  return out;
}

// One shard's batch-mode monitor engine: lanes over every compiled
// machine of the artifact, stepped tile by tile.
class TileStepper {
 public:
  TileStepper(const SharedSpecArtifactPtr& artifact, std::uint32_t lanes,
              ArbitrationPolicy policy)
      : policy_(policy), lanes_(lanes) {
    machines_.reserve(artifact->compiled.size());
    for (const CompiledMachine& machine : artifact->compiled) {
      // Aliasing share: the batch monitors borrow the artifact's immutable
      // machine storage, exactly like scalar CompiledMonitor instances do.
      machines_.emplace_back(
          std::shared_ptr<const CompiledMachine>(artifact, &machine), lanes);
    }
    failures_.resize(machines_.size());
    high_water_.resize(machines_.size(), 0);
    pending_.resize(lanes);
    cursors_.resize(lanes);
    events_.resize(lanes);

    // Fleet-level dead-column tables, sized by the widest machine's task
    // range (ColumnDead clamps narrower machines' task ids onto their
    // any-task row, matching their dispatch). An event is a provable no-op
    // for a machine when its column self-loops in every state — or when
    // the machine is path-scoped to a different path, in which case
    // StepBatch would drop the event before dispatch anyway. So the check
    // is per event path: the base table ANDs the unscoped machines, and
    // each scoped path gets a refinement table that additionally ANDs the
    // machines watching that path. RunTile consumes all-dead events at
    // feed time, so they never cost a batch-VM pass.
    max_task_ = 0;
    for (const BatchCompiledMonitor& m : machines_) {
      max_task_ = std::max(max_task_, m.machine().max_task);
    }
    const std::uint32_t cols = max_task_ + 2u;
    base_dead_.assign(2u * cols, machines_.empty() ? 0u : 1u);
    for (const BatchCompiledMonitor& m : machines_) {
      if (m.machine().path_scope != kNoPath) {
        continue;
      }
      AndColumnsInto(m, &base_dead_);
    }
    for (const BatchCompiledMonitor& m : machines_) {
      const PathId scope = m.machine().path_scope;
      if (scope == kNoPath) {
        continue;
      }
      const auto p = static_cast<std::size_t>(scope);
      if (scope_dead_.size() <= p) {
        scope_dead_.resize(p + 1);
      }
      if (scope_dead_[p].empty()) {
        scope_dead_[p] = base_dead_;
      }
      AndColumnsInto(m, &scope_dead_[p]);
    }
    live_lanes_.reserve(lanes);
    for (const BatchCompiledMonitor& m : machines_) {
      const PathId scope = m.machine().path_scope;
      if (scope == kNoPath) {
        continue;
      }
      const auto p = static_cast<std::size_t>(scope);
      if (path_lanes_.size() <= p) {
        path_lanes_.resize(p + 1);
        path_watched_.resize(p + 1, 0u);
      }
      path_watched_[p] = 1u;
      path_lanes_[p].reserve(lanes);
    }
    // Per-machine live-column bitmask (fleet layout, bit = kind*cols + t):
    // the dynamic complement of the dead tables above. The feed loop ORs
    // the columns actually present among a pass's live lanes into a pass
    // mask; a machine whose live columns miss that mask entirely is proven
    // all-self-loop for the WHOLE pass and skips its partition outright —
    // dead-column elision at machine-pass granularity, catching event
    // mixes that are only dead for SOME machines and so survive EventDead.
    // Masks need 2*cols bits; monitors with task ranges beyond 64 bits of
    // columns simply forgo the skip (column_mask_ok_ false).
    column_mask_ok_ = 2u * cols <= 64u;
    if (column_mask_ok_) {
      live_col_mask_.assign(machines_.size(), 0u);
      for (std::size_t m = 0; m < machines_.size(); ++m) {
        for (std::uint32_t kind = 0; kind < 2; ++kind) {
          for (std::uint32_t t = 0; t < cols; ++t) {
            if (!machines_[m].ColumnDead(static_cast<EventKind>(kind),
                                         static_cast<TaskId>(t))) {
              live_col_mask_[m] |= std::uint64_t{1} << (kind * cols + t);
            }
          }
        }
      }
    }
    path_masks_.resize(path_watched_.size(), 0u);
    // Reported static elision facts use the strict scope-blind AND over
    // every machine — the columns no event can ever touch, whatever its
    // path. (The runtime elision rate is usually higher, because scoped
    // machines only constrain events on their own path.)
    for (std::uint32_t kind = 0; kind < 2; ++kind) {
      for (std::uint32_t t = 0; t < cols; ++t) {
        bool dead = !machines_.empty();
        for (const BatchCompiledMonitor& m : machines_) {
          if (!m.ColumnDead(static_cast<EventKind>(kind), static_cast<TaskId>(t))) {
            dead = false;
            break;
          }
        }
        dead_columns_ += dead ? 1u : 0u;
      }
    }
  }

  // Is (kind, task, path) a provable no-op for every machine of the set?
  bool EventDead(const MonitorEvent& e) const {
    const std::uint32_t cols = max_task_ + 2u;
    const auto t = std::min(static_cast<std::uint32_t>(e.task), cols - 1u);
    const auto p = static_cast<std::size_t>(e.path);
    const std::vector<std::uint8_t>& table =
        e.path != kNoPath && p < scope_dead_.size() && !scope_dead_[p].empty()
            ? scope_dead_[p]
            : base_dead_;
    return table[static_cast<std::uint32_t>(e.kind) * cols + t] != 0;
  }
  std::uint32_t dead_columns() const { return dead_columns_; }
  std::uint32_t total_columns() const { return 2u * (max_task_ + 2u); }

  void EnableTraffic() {
    traffic_on_ = true;  // disables the machine-pass skip: the measured
                         // dispatch mix must include self-loop dispatches
    for (BatchCompiledMonitor& m : machines_) {
      m.EnableTraffic();
    }
  }

  // Folds this stepper's accumulated traffic counters into `agg` as plain
  // uint64 sums (shard-order independent by commutativity).
  void FoldTraffic(FleetAggregates* agg) const {
    agg->has_traffic = true;
    if (agg->entry_traffic.size() < machines_.size()) {
      agg->entry_traffic.resize(machines_.size());
    }
    for (std::size_t m = 0; m < machines_.size(); ++m) {
      const std::vector<std::uint64_t>& counters = machines_[m].EntryTraffic();
      std::vector<std::uint64_t>& dst = agg->entry_traffic[m];
      if (dst.size() < counters.size()) {
        dst.resize(counters.size(), 0);
      }
      for (std::size_t i = 0; i < counters.size(); ++i) {
        dst[i] += counters[i];
      }
      const std::vector<std::uint64_t> by_class = machines_[m].ClassTraffic();
      for (std::size_t c = 0; c < by_class.size() && c < agg->class_traffic.size(); ++c) {
        agg->class_traffic[c] += by_class[c];
      }
    }
  }

  std::size_t machine_count() const { return machines_.size(); }
  const BatchCompiledMonitor& machine(std::size_t i) const { return machines_[i]; }

  std::vector<std::uint64_t> ClassHistogram() const {
    std::vector<std::uint64_t> counts(5, 0);
    for (const BatchCompiledMonitor& m : machines_) {
      const std::vector<std::uint64_t> h = m.ClassHistogram();
      for (std::size_t i = 0; i < h.size(); ++i) {
        counts[i] += h[i];
      }
    }
    return counts;
  }

  // Advances every device of the tile through its captured stream and
  // fills the per-device monitor_events / violations counters. `streams`
  // and `results` are parallel, sized n <= lanes.
  void RunTile(std::vector<std::vector<CapturedRecord>>& streams,
               std::vector<DeviceResult*>& results) {
    const std::uint32_t n = static_cast<std::uint32_t>(streams.size());
    for (std::uint32_t lane = 0; lane < n; ++lane) {
      cursors_[lane] = 0;
      for (BatchCompiledMonitor& m : machines_) {
        m.HardResetLane(lane);
      }
    }
    for (;;) {
      // Feed each lane's cursor: replay path-restart markers in place,
      // consume dead-column events inline (they count as monitor events but
      // provably cannot change any machine's lane state or verdicts), then
      // expose the next live event (or mark the lane exhausted). The same
      // walk builds this pass's lane lists — live lanes, plus per watched
      // path the lanes whose event is on it — so the per-lane liveness and
      // path decode happens ONCE here instead of once per machine inside
      // every partition pass.
      live_lanes_.clear();
      for (auto& list : path_lanes_) {
        list.clear();
      }
      const std::uint32_t cols = max_task_ + 2u;
      std::uint64_t pass_mask = 0;
      std::fill(path_masks_.begin(), path_masks_.end(), std::uint64_t{0});
      for (std::uint32_t lane = 0; lane < n; ++lane) {
        std::vector<CapturedRecord>& stream = streams[lane];
        std::size_t& cur = cursors_[lane];
        while (cur < stream.size()) {
          const CapturedRecord& rec = stream[cur];
          if (rec.kind == CapturedRecord::Kind::kPathRestart) {
            for (BatchCompiledMonitor& m : machines_) {
              m.OnPathRestartLane(lane, rec.restart_path);
            }
            ++cur;
            continue;
          }
          if (EventDead(rec.event)) {
            ++results[lane]->monitor_events;
            ++results[lane]->monitor_events_elided;
            ++cur;
            continue;
          }
          break;
        }
        if (cur < stream.size()) {
          const MonitorEvent& event = stream[cur].event;
          events_[lane] = &event;
          live_lanes_.push_back(lane);
          const std::uint64_t col_bit =
              std::uint64_t{1}
              << (static_cast<std::uint32_t>(event.kind) * cols +
                  std::min(static_cast<std::uint32_t>(event.task), cols - 1u));
          pass_mask |= col_bit;
          const auto p = static_cast<std::size_t>(event.path);
          if (p < path_watched_.size() && path_watched_[p] != 0u) {
            path_lanes_[p].push_back(lane);
            path_masks_[p] |= col_bit;
          }
        } else {
          events_[lane] = nullptr;
        }
      }
      if (live_lanes_.empty()) {
        return;
      }
      // One SoA pass per machine over its lane list; failures come back
      // as compact lists, so the common all-clear round writes nothing.
      // Reserving to the run's high-water mark keeps the (rare) appends
      // from reallocating mid-pass once a burst has been seen once.
      for (std::size_t m = 0; m < machines_.size(); ++m) {
        failures_[m].clear();
        const PathId scope = machines_[m].machine().path_scope;
        const std::vector<std::uint32_t>& list =
            scope == kNoPath ? live_lanes_ : path_lanes_[static_cast<std::size_t>(scope)];
        if (list.empty()) {
          continue;  // Nothing on this machine's path this pass.
        }
        // Machine-pass elision: if none of the columns present in this
        // machine's lane list is live for it, every listed lane would
        // partition to kSelfLoop — provably no state change, no failure.
        // Skipped under --stats so the traffic profile stays the true
        // dispatch mix.
        if (column_mask_ok_ && !traffic_on_) {
          const std::uint64_t mask =
              scope == kNoPath ? pass_mask : path_masks_[static_cast<std::size_t>(scope)];
          if ((mask & live_col_mask_[m]) == 0u) {
            continue;
          }
        }
        if (failures_[m].capacity() < high_water_[m]) {
          failures_[m].reserve(high_water_[m]);
        }
        machines_[m].StepBatchLanes(events_.data(), list.data(),
                                    static_cast<std::uint32_t>(list.size()), &failures_[m]);
        high_water_[m] = std::max(high_water_[m], failures_[m].size());
      }
      // Group the (rare) failures per lane — machine-outer iteration keeps
      // each lane's pending list in machine order, mirroring MonitorSet's
      // per-event pending/Arbitrate cycle.
      touched_.clear();
      for (std::size_t m = 0; m < machines_.size(); ++m) {
        for (const BatchFailure& f : failures_[m]) {
          if (pending_[f.lane].empty()) {
            touched_.push_back(f.lane);
          }
          MonitorVerdict verdict;
          verdict.action = f.action;
          verdict.target_path = f.target_path;
          verdict.property = machines_[m].fail_record(f.fail_index).property;
          pending_[f.lane].push_back(std::move(verdict));
        }
      }
      for (std::uint32_t lane = 0; lane < n; ++lane) {
        if (events_[lane] == nullptr) {
          continue;
        }
        ++results[lane]->monitor_events;
        ++cursors_[lane];
      }
      for (const std::uint32_t lane : touched_) {
        const MonitorVerdict verdict = Arbitrate(pending_[lane], policy_);
        if (verdict.violated()) {
          ++results[lane]->violations;
        }
        pending_[lane].clear();
      }
    }
  }

 private:
  // ANDs machine m's dead-column verdicts into `table` (fleet layout).
  void AndColumnsInto(const BatchCompiledMonitor& m, std::vector<std::uint8_t>* table) const {
    const std::uint32_t cols = max_task_ + 2u;
    for (std::uint32_t kind = 0; kind < 2; ++kind) {
      for (std::uint32_t t = 0; t < cols; ++t) {
        if (!m.ColumnDead(static_cast<EventKind>(kind), static_cast<TaskId>(t))) {
          (*table)[kind * cols + t] = 0u;
        }
      }
    }
  }

  ArbitrationPolicy policy_;
  std::uint32_t lanes_ = 0;
  std::uint32_t max_task_ = 0;           // widest machine's task range
  std::uint32_t dead_columns_ = 0;       // strict scope-blind AND, for reporting
  std::vector<std::uint8_t> base_dead_;  // [kind][task], AND over unscoped machines
  // [path] -> base ANDed with the machines scoped to that path; empty
  // vector = no machine watches the path, fall back to base.
  std::vector<std::vector<std::uint8_t>> scope_dead_;
  std::vector<BatchCompiledMonitor> machines_;
  std::vector<std::vector<BatchFailure>> failures_;   // [machine], reused
  std::vector<std::size_t> high_water_;               // [machine] max failures seen
  std::vector<std::vector<MonitorVerdict>> pending_;  // [lane], cleared after use
  std::vector<std::uint32_t> touched_;                // lanes with pending verdicts
  std::vector<std::size_t> cursors_;                  // [lane]
  std::vector<const MonitorEvent*> events_;           // [lane]
  // Per-pass lane lists (ascending by construction of the feed loop):
  // every live lane, and — for each path some machine is scoped to — the
  // live lanes whose current event is on that path. Unscoped machines
  // step the live list (skipping exhausted lanes without a per-machine
  // null test); a scoped machine steps only its path's list, so its pass
  // cost tracks the traffic it can actually see instead of the tile width.
  std::vector<std::uint32_t> live_lanes_;
  std::vector<std::vector<std::uint32_t>> path_lanes_;  // [path], filled if watched
  std::vector<std::uint8_t> path_watched_;              // [path], 1 = some machine's scope
  // Machine-pass elision state: per-machine live-column bitmask plus the
  // per-pass masks of columns actually present (fleet layout bits).
  bool column_mask_ok_ = false;
  bool traffic_on_ = false;
  std::vector<std::uint64_t> live_col_mask_;  // [machine]
  std::vector<std::uint64_t> path_masks_;     // [path], per-pass scratch
};

}  // namespace

std::vector<ShardRange> BuildCpuMap(std::uint64_t devices, int shards) {
  const std::uint64_t j =
      std::max<std::uint64_t>(1, static_cast<std::uint64_t>(std::max(shards, 1)));
  std::vector<ShardRange> map;
  map.reserve(j);
  const std::uint64_t base = devices / j;
  const std::uint64_t spare = devices % j;
  std::uint64_t begin = 0;
  for (std::uint64_t s = 0; s < j; ++s) {
    const std::uint64_t size = base + (s < spare ? 1 : 0);
    map.push_back(ShardRange{begin, begin + size});
    begin += size;
  }
  return map;
}

void FleetHistogram::Record(std::uint64_t sample) {
  int bucket = 0;
  for (std::uint64_t v = sample; v > 0; v >>= 1) {
    ++bucket;
  }
  // bucket b holds samples in [2^(b-1), 2^b), bucket 0 holds zeros.
  ++buckets_[std::min(bucket, kBuckets - 1)];
  if (count_ == 0 || sample < min_) {
    min_ = sample;
  }
  max_ = std::max(max_, sample);
  sum_ += sample;
  ++count_;
}

void FleetHistogram::MergeFrom(const FleetHistogram& other) {
  if (other.count_ == 0) {
    return;
  }
  for (int i = 0; i < kBuckets; ++i) {
    buckets_[i] += other.buckets_[i];
  }
  if (count_ == 0 || other.min_ < min_) {
    min_ = other.min_;
  }
  max_ = std::max(max_, other.max_);
  sum_ += other.sum_;
  count_ += other.count_;
}

std::uint64_t FleetHistogram::Percentile(double p) const {
  if (count_ == 0) {
    return 0;
  }
  const double clamped = std::min(std::max(p, 0.0), 1.0);
  std::uint64_t rank = static_cast<std::uint64_t>(clamped * static_cast<double>(count_));
  if (rank == 0) {
    rank = 1;
  }
  std::uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += buckets_[i];
    if (seen >= rank) {
      if (i == 0) {
        return 0;
      }
      // Upper bound of the bucket, clamped into the observed range.
      const std::uint64_t bound =
          i >= 64 ? std::numeric_limits<std::uint64_t>::max() : (1ull << i) - 1;
      return std::min(bound, max_);
    }
  }
  return max_;
}

std::string FleetHistogram::Summary() const {
  return "n=" + U64(count_) + " min=" + U64(min()) + " p50=" + U64(Percentile(0.50)) +
         " p90=" + U64(Percentile(0.90)) + " p99=" + U64(Percentile(0.99)) +
         " max=" + U64(max_);
}

void FleetAggregates::Fold(const DeviceResult& result) {
  ++devices;
  if (!result.ok) {
    ++errors;
    if (first_error.empty()) {
      first_error = result.error;
    }
    return;
  }
  completed += result.completed ? 1 : 0;
  starved += result.starved ? 1 : 0;
  timed_out += result.timed_out ? 1 : 0;
  iterations += result.iterations;
  reboots += result.reboots;
  charging_us += result.charging_us;
  energy_nj += result.energy_nj;
  monitor_energy_nj += result.monitor_energy_nj;
  monitor_events += result.monitor_events;
  monitor_events_elided += result.monitor_events_elided;
  violations += result.violations;
  devices_with_violations += result.violations > 0 ? 1 : 0;
  commits += result.commits;
  aborts += result.aborts;
  skips += result.skips;
  energy_uj_hist.Record(result.energy_nj / 1000);
  violations_hist.Record(result.violations);
  attempts_hist.Record(result.max_attempts_per_commit);
  if (result.has_obs) {
    has_obs = true;
    for (int k = 0; k < obs::kNumKinds; ++k) {
      obs_counts[static_cast<std::size_t>(k)] += result.obs_counts[static_cast<std::size_t>(k)];
    }
    obs_total += result.obs_total;
    obs_completed_paths += result.obs_completed_paths;
    obs_committed_bytes += result.obs_committed_bytes;
  }
}

void FleetAggregates::MergeFrom(const FleetAggregates& other) {
  devices += other.devices;
  errors += other.errors;
  if (first_error.empty()) {
    first_error = other.first_error;
  }
  completed += other.completed;
  starved += other.starved;
  timed_out += other.timed_out;
  iterations += other.iterations;
  reboots += other.reboots;
  charging_us += other.charging_us;
  energy_nj += other.energy_nj;
  monitor_energy_nj += other.monitor_energy_nj;
  monitor_events += other.monitor_events;
  monitor_events_elided += other.monitor_events_elided;
  violations += other.violations;
  devices_with_violations += other.devices_with_violations;
  commits += other.commits;
  aborts += other.aborts;
  skips += other.skips;
  energy_uj_hist.MergeFrom(other.energy_uj_hist);
  violations_hist.MergeFrom(other.violations_hist);
  attempts_hist.MergeFrom(other.attempts_hist);
  has_obs = has_obs || other.has_obs;
  for (int k = 0; k < obs::kNumKinds; ++k) {
    obs_counts[static_cast<std::size_t>(k)] += other.obs_counts[static_cast<std::size_t>(k)];
  }
  obs_total += other.obs_total;
  obs_completed_paths += other.obs_completed_paths;
  obs_committed_bytes += other.obs_committed_bytes;
  has_traffic = has_traffic || other.has_traffic;
  for (std::size_t c = 0; c < class_traffic.size(); ++c) {
    class_traffic[c] += other.class_traffic[c];
  }
  if (entry_traffic.size() < other.entry_traffic.size()) {
    entry_traffic.resize(other.entry_traffic.size());
  }
  for (std::size_t m = 0; m < other.entry_traffic.size(); ++m) {
    std::vector<std::uint64_t>& dst = entry_traffic[m];
    const std::vector<std::uint64_t>& src = other.entry_traffic[m];
    if (dst.size() < src.size()) {
      dst.resize(src.size(), 0);
    }
    for (std::size_t i = 0; i < src.size(); ++i) {
      dst[i] += src[i];
    }
  }
}

DeviceConfig ConfigForDevice(const FleetSpec& spec, std::uint64_t index) {
  DeviceConfig config;
  config.index = index;
  config.seed = DeviceSeed(spec.seed, index);
  config.charge = spec.charges.empty() ? 0 : spec.charges[index % spec.charges.size()];
  config.budget = spec.budgets.empty() ? 19'500.0 : spec.budgets[index % spec.budgets.size()];
  config.backend = spec.backend;
  config.iterations = spec.iterations;
  config.horizon = spec.horizon;
  if (spec.max_steps != 0) {
    config.max_steps = spec.max_steps;
  } else {
    // Sweep-parity default for finite runs; horizon mode is bounded by
    // simulated time, so the step valve moves out of the way.
    config.max_steps = spec.iterations == 0 ? (1ull << 62) : 2'000'000;
  }
  config.collect_obs = spec.collect_obs;
  return config;
}

StatusOr<FleetOutcome> RunFleet(const FleetSpec& spec) {
  if (spec.devices == 0) {
    return Status::Invalid("fleet: need at least one device");
  }
  if (spec.monitor != "scalar" && spec.monitor != "batch") {
    return Status::Invalid("fleet: unknown monitor mode '" + spec.monitor +
                           "' (scalar|batch)");
  }
  if (spec.monitor == "batch" && spec.backend != MonitorBackend::kCompiled) {
    return Status::Invalid("fleet: batch monitor mode requires the compiled backend");
  }
  if (spec.charges.empty() || spec.budgets.empty()) {
    return Status::Invalid("fleet: charges/budgets axes must be non-empty");
  }
  if (spec.tile == 0) {
    return Status::Invalid("fleet: tile must be >= 1");
  }

  // Validates the app name even when an explicit spec replaces its default.
  StatusOr<std::string> default_spec = sweep::DefaultSpecForApp(spec.app);
  if (!default_spec.ok()) {
    return default_spec.status();
  }
  const std::string spec_text =
      spec.spec_text.empty() ? std::move(default_spec).value() : spec.spec_text;

  // One pipeline run for the whole fleet: parse/validate/lower/compile
  // against a template graph, shared read-only across every shard.
  const AppGraph& template_graph = sweep::SharedAppGraph(spec.app);
  const SpecArtifactStage stage = spec.monitor == "batch"
                                      ? SpecArtifactStage::kCompiled
                                      : StageForBackend(spec.backend);
  StatusOr<SharedSpecArtifactPtr> artifact = BuildSpecArtifact(spec_text, template_graph, stage);
  if (!artifact.ok()) {
    return artifact.status();
  }

  // Analyzer gate (sweep parity): one analysis of the fleet's single spec
  // against its energy axes before any of the N devices burns time. A
  // deployment whose properties are statically infeasible fails here with
  // the rendered diagnostics, identically for any --shards value.
  if (spec.analyze) {
    const Status gate = sweep::PreAnalyzeSpec(
        "fleet", spec.spec_label, spec_text, template_graph, spec.budgets,
        spec.charges, /*flight=*/"off", /*flight_bytes=*/1024);
    if (!gate.ok()) {
      return gate;
    }
  }

  FleetContext ctx;
  ctx.app = spec.app;
  ctx.artifact = artifact.value();

  const int shards = ClampWorkers(spec.shards, static_cast<std::size_t>(std::min<std::uint64_t>(
                                                   spec.devices, 64)));
  const std::vector<ShardRange> cpu_map = BuildCpuMap(spec.devices, shards);
  std::vector<FleetAggregates> partials(cpu_map.size());

  RunWorkers(shards, [&](int worker) {
    const ShardRange range = cpu_map[static_cast<std::size_t>(worker)];
    FleetAggregates& agg = partials[static_cast<std::size_t>(worker)];
    if (spec.monitor == "scalar") {
      for (std::uint64_t i = range.begin; i < range.end; ++i) {
        DeviceInstance instance(ctx, ConfigForDevice(spec, i));
        agg.Fold(instance.RunScalar());
      }
      return;
    }
    // Batch mode: simulate a tile of devices (capturing their monitor
    // traffic), advance all their monitors together, fold, reuse the
    // tile buffers for the next slice of the range.
    TileStepper stepper(ctx.artifact, spec.tile, ArbitrationPolicy::kSeverity);
    if (spec.collect_traffic) {
      stepper.EnableTraffic();
    }
    std::vector<DeviceResult> results(spec.tile);
    std::vector<std::vector<CapturedRecord>> streams;
    std::vector<DeviceResult*> result_ptrs;
    for (std::uint64_t begin = range.begin; begin < range.end; begin += spec.tile) {
      const std::uint64_t end = std::min<std::uint64_t>(begin + spec.tile, range.end);
      const std::uint32_t n = static_cast<std::uint32_t>(end - begin);
      // RunCapture clears each stream and refills it in place, so the
      // buffers keep their capacity from tile to tile.
      streams.resize(n);
      result_ptrs.assign(n, nullptr);
      for (std::uint32_t lane = 0; lane < n; ++lane) {
        DeviceInstance instance(ctx, ConfigForDevice(spec, begin + lane));
        results[lane] = instance.RunCapture(&streams[lane]);
        result_ptrs[lane] = &results[lane];
      }
      stepper.RunTile(streams, result_ptrs);
      for (std::uint32_t lane = 0; lane < n; ++lane) {
        agg.Fold(results[lane]);
      }
    }
    if (spec.collect_traffic) {
      stepper.FoldTraffic(&agg);
    }
  });

  FleetOutcome outcome;
  outcome.devices = spec.devices;
  outcome.shards = shards;
  for (const FleetAggregates& partial : partials) {
    outcome.agg.MergeFrom(partial);
  }
  if (spec.monitor == "batch") {
    TileStepper probe(ctx.artifact, 1, ArbitrationPolicy::kSeverity);
    outcome.handler_classes = probe.ClassHistogram();
    outcome.dead_columns = probe.dead_columns();
    outcome.total_columns = probe.total_columns();
    if (outcome.agg.has_traffic) {
      // Resolve every non-zero entry counter to names via a probe machine
      // (the counters come from the shard workers; the layout is identical
      // because every stepper compiles the same artifact), sort hottest
      // first with a (machine, entry) tie-break, and keep the head — the
      // tail is a long flat list of cold entries.
      struct RawRow {
        std::size_t machine;
        std::uint32_t entry;
        std::uint64_t events;
      };
      std::vector<RawRow> rows;
      for (std::size_t m = 0;
           m < outcome.agg.entry_traffic.size() && m < probe.machine_count(); ++m) {
        const std::vector<std::uint64_t>& counters = outcome.agg.entry_traffic[m];
        for (std::uint32_t e = 0; e < counters.size(); ++e) {
          if (counters[e] > 0) {
            rows.push_back(RawRow{m, e, counters[e]});
          }
        }
      }
      std::sort(rows.begin(), rows.end(), [](const RawRow& a, const RawRow& b) {
        if (a.events != b.events) {
          return a.events > b.events;
        }
        if (a.machine != b.machine) {
          return a.machine < b.machine;
        }
        return a.entry < b.entry;
      });
      constexpr std::size_t kMaxTrafficRows = 16;
      if (rows.size() > kMaxTrafficRows) {
        rows.resize(kMaxTrafficRows);
      }
      static constexpr const char* kClassNames[] = {
          "self_loop", "commit", "store_field_commit", "guard_elapsed_commit", "general"};
      for (const RawRow& raw : rows) {
        const BatchCompiledMonitor& m = probe.machine(raw.machine);
        const BatchCompiledMonitor::EntryInfo info = m.DecodeEntry(raw.entry);
        FleetTrafficRow row;
        row.machine = static_cast<int>(raw.machine);
        row.state = m.machine().state_names[info.state];
        row.kind = info.kind;
        row.task = info.task;
        row.handler_class =
            kClassNames[static_cast<std::size_t>(m.EntryClass(raw.entry))];
        row.events = raw.events;
        outcome.traffic.push_back(std::move(row));
      }
    }
  }
  return outcome;
}

std::string RenderFleetJson(const FleetSpec& spec, const FleetOutcome& outcome) {
  const FleetAggregates& a = outcome.agg;
  std::string out;
  out += "{\n";
  out += "  \"schema\": \"artemis-fleet/1\",\n";
  out += "  \"app\": \"" + JsonEscape(spec.app) + "\",\n";
  out += "  \"spec\": \"" + JsonEscape(spec.spec_label) + "\",\n";
  out += "  \"backend\": \"" + std::string(MonitorBackendName(spec.backend)) + "\",\n";
  out += "  \"monitor_mode\": \"" + JsonEscape(spec.monitor) + "\",\n";
  out += "  \"devices\": " + U64(spec.devices) + ",\n";
  out += "  \"seed\": " + U64(spec.seed) + ",\n";
  out += "  \"iterations\": " + U64(spec.iterations) + ",\n";
  out += "  \"horizon_us\": " + U64(spec.horizon) + ",\n";
  out += "  \"charges_us\": [";
  for (std::size_t i = 0; i < spec.charges.size(); ++i) {
    out += (i == 0 ? "" : ", ") + U64(spec.charges[i]);
  }
  out += "],\n";
  out += "  \"aggregates\": {\n";
  out += "    \"devices\": " + U64(a.devices) + ",\n";
  out += "    \"errors\": " + U64(a.errors) + ",\n";
  out += "    \"completed\": " + U64(a.completed) + ",\n";
  out += "    \"starved\": " + U64(a.starved) + ",\n";
  out += "    \"timed_out\": " + U64(a.timed_out) + ",\n";
  out += "    \"iterations\": " + U64(a.iterations) + ",\n";
  out += "    \"reboots\": " + U64(a.reboots) + ",\n";
  out += "    \"charging_us\": " + U64(a.charging_us) + ",\n";
  out += "    \"energy_nj\": " + U64(a.energy_nj) + ",\n";
  out += "    \"monitor_energy_nj\": " + U64(a.monitor_energy_nj) + ",\n";
  out += "    \"monitor_share\": " + Ratio(a.monitor_energy_nj, a.energy_nj) + ",\n";
  out += "    \"monitor_events\": " + U64(a.monitor_events) + ",\n";
  out += "    \"monitor_events_elided\": " + U64(a.monitor_events_elided) + ",\n";
  out += "    \"elision_rate\": " + Ratio(a.monitor_events_elided, a.monitor_events) + ",\n";
  out += "    \"violations\": " + U64(a.violations) + ",\n";
  out += "    \"violation_rate\": " + Ratio(a.violations, a.monitor_events) + ",\n";
  out += "    \"devices_with_violations\": " + U64(a.devices_with_violations) + ",\n";
  out += "    \"commits\": " + U64(a.commits) + ",\n";
  out += "    \"aborts\": " + U64(a.aborts) + ",\n";
  out += "    \"skips\": " + U64(a.skips) + "\n";
  out += "  },\n";
  out += "  \"energy_uj\": \"" + a.energy_uj_hist.Summary() + "\",\n";
  out += "  \"violations_per_device\": \"" + a.violations_hist.Summary() + "\",\n";
  out += "  \"attempts_per_commit\": \"" + a.attempts_hist.Summary() + "\"";
  if (!outcome.handler_classes.empty()) {
    out += ",\n  \"batch\": {\n";
    out += "    \"handler_classes\": [";
    for (std::size_t i = 0; i < outcome.handler_classes.size(); ++i) {
      out += (i == 0 ? "" : ", ") + U64(outcome.handler_classes[i]);
    }
    out += "],\n";
    out += "    \"dead_columns\": " + U64(outcome.dead_columns) + ",\n";
    out += "    \"columns\": " + U64(outcome.total_columns) + "\n";
    out += "  }";
  }
  if (a.has_traffic) {
    out += ",\n  \"class_traffic\": {";
    static constexpr const char* kClassKeys[] = {
        "self_loop", "commit", "store_field_commit", "guard_elapsed_commit", "general"};
    for (std::size_t c = 0; c < a.class_traffic.size(); ++c) {
      out += std::string(c == 0 ? "" : ", ") + "\"" + kClassKeys[c] +
             "\": " + U64(a.class_traffic[c]);
    }
    out += "},\n  \"traffic\": [";
    for (std::size_t i = 0; i < outcome.traffic.size(); ++i) {
      const FleetTrafficRow& row = outcome.traffic[i];
      out += i == 0 ? "\n" : ",\n";
      out += "    {\"machine\": " + U64(static_cast<std::uint64_t>(row.machine)) +
             ", \"state\": \"" + JsonEscape(row.state) + "\", \"kind\": \"" +
             (row.kind < 0 ? "any" : row.kind == 0 ? "start" : "end") + "\", \"task\": " +
             (row.task < 0 ? std::string("-1") : U64(static_cast<std::uint64_t>(row.task))) +
             ", \"class\": \"" + row.handler_class + "\", \"events\": " + U64(row.events) +
             "}";
    }
    out += outcome.traffic.empty() ? "]" : "\n  ]";
  }
  if (a.has_obs) {
    out += ",\n  \"obs\": {\n";
    out += "    \"total_events\": " + U64(a.obs_total) + ",\n";
    out += "    \"completed_paths\": " + U64(a.obs_completed_paths) + ",\n";
    out += "    \"committed_bytes\": " + U64(a.obs_committed_bytes) + ",\n";
    out += "    \"counts\": {";
    bool first = true;
    for (int k = 0; k < obs::kNumKinds; ++k) {
      const std::uint64_t count = a.obs_counts[static_cast<std::size_t>(k)];
      if (count == 0) {
        continue;
      }
      out += std::string(first ? "" : ", ") + "\"" +
             obs::KindName(static_cast<obs::Kind>(k)) + "\": " + U64(count);
      first = false;
    }
    out += "}\n  }";
  }
  if (!a.first_error.empty()) {
    out += ",\n  \"first_error\": \"" + JsonEscape(a.first_error) + "\"";
  }
  out += ",\n  \"ok\": ";
  out += outcome.AllOk() ? "true" : "false";
  out += "\n}\n";
  return out;
}

std::string RenderFleetTable(const FleetSpec& spec, const FleetOutcome& outcome) {
  const FleetAggregates& a = outcome.agg;
  std::string out;
  out += "fleet: app=" + spec.app + " spec=" + spec.spec_label +
         " backend=" + MonitorBackendName(spec.backend) + " monitor=" + spec.monitor +
         " devices=" + U64(spec.devices) + " seed=" + U64(spec.seed) + "\n";
  out += "outcomes: completed=" + U64(a.completed) + " timed_out=" + U64(a.timed_out) +
         " starved=" + U64(a.starved) + " errors=" + U64(a.errors) + "\n";
  out += "kernel: iterations=" + U64(a.iterations) + " reboots=" + U64(a.reboots) +
         " commits=" + U64(a.commits) + " aborts=" + U64(a.aborts) + " skips=" +
         U64(a.skips) + "\n";
  out += "monitor: events=" + U64(a.monitor_events) + " elided=" +
         U64(a.monitor_events_elided) + " elision_rate=" +
         Ratio(a.monitor_events_elided, a.monitor_events) + " violations=" +
         U64(a.violations) + " violation_rate=" + Ratio(a.violations, a.monitor_events) +
         " devices_with_violations=" + U64(a.devices_with_violations) + "\n";
  out += "energy: total_nj=" + U64(a.energy_nj) + " monitor_nj=" + U64(a.monitor_energy_nj) +
         " monitor_share=" + Ratio(a.monitor_energy_nj, a.energy_nj) + "\n";
  out += "energy_uj: " + a.energy_uj_hist.Summary() + "\n";
  out += "violations_per_device: " + a.violations_hist.Summary() + "\n";
  out += "attempts_per_commit: " + a.attempts_hist.Summary() + "\n";
  if (!outcome.handler_classes.empty()) {
    out += "batch: handler_classes=[";
    for (std::size_t i = 0; i < outcome.handler_classes.size(); ++i) {
      out += (i == 0 ? "" : ",") + U64(outcome.handler_classes[i]);
    }
    out += "] dead_columns=" + U64(outcome.dead_columns) + "/" +
           U64(outcome.total_columns) + "\n";
  }
  for (const FleetTrafficRow& row : outcome.traffic) {
    out += "traffic: machine=" + U64(static_cast<std::uint64_t>(row.machine)) + " state=" +
           row.state + " kind=" +
           (row.kind < 0 ? "any" : row.kind == 0 ? "start" : "end") + " task=" +
           (row.task < 0 ? std::string("any") : U64(static_cast<std::uint64_t>(row.task))) +
           " class=" + row.handler_class + " events=" + U64(row.events) + "\n";
  }
  if (!a.first_error.empty()) {
    out += "first_error: " + a.first_error + "\n";
  }
  return out;
}

}  // namespace artemis::fleet
