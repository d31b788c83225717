// fleet-burst and fleet-outage: fleet::RunFleet over the health app.
//
// Untraced runs call the engine in a closed loop. Traced runs rebuild the
// same computation from the engine's public pieces (BuildCpuMap, one
// benchmark thread per range, DeviceInstance, Fold, MergeFrom, and for
// batch mode a replay of the captured streams through the batch VM) with a
// span around each call, and require the composition to render the bytes
// the engine renders, so the per-layer numbers describe the same work.
#include <algorithm>
#include <bit>
#include <cmath>
#include <exception>
#include <memory>
#include <stdexcept>
#include <thread>

#include "perfbench/layers.h"
#include "perfbench/trace.h"
#include "perfbench/workloads.h"
#include "src/apps/health_app.h"
#include "src/fleet/fleet.h"
#include "src/monitor/arbitration.h"
#include "src/monitor/compiled_batch.h"
#include "src/sweep/sweep.h"

namespace perfbench {
namespace {

using artemis::fleet::CapturedRecord;
using artemis::fleet::DeviceResult;
using artemis::fleet::FleetAggregates;
using artemis::fleet::FleetOutcome;
using artemis::fleet::FleetSpec;

constexpr std::uint64_t kBurstDevices = 100'000;
constexpr std::uint64_t kOutageDevices = 1'000;
// fleet-burst's cross-shard/tile determinism sample.
constexpr std::uint64_t kShardSampleDevices = 20'000;
// fleet.observe_only_gap sample: fleet-burst's configuration, shrunk.
constexpr std::uint64_t kGapDevices = 2'000;

// Short-lived continuous twins: one pass over the path set each.
FleetSpec BurstSpec(std::uint64_t seed, std::uint64_t devices, int shards) {
  FleetSpec spec;  // health, default spec, compiled backend, batch mode
  spec.devices = devices;
  spec.shards = shards;
  spec.seed = seed;
  spec.iterations = 1;
  return spec;
}

// Long-lived twins under outages only, verdicts fed back in-loop.
FleetSpec OutageSpec(std::uint64_t seed, std::uint64_t devices, int shards) {
  FleetSpec spec;
  spec.monitor = "scalar";
  spec.devices = devices;
  spec.shards = shards;
  spec.seed = seed;
  spec.iterations = 0;
  spec.horizon = 480 * artemis::kMinute;
  spec.charges.clear();
  for (const char* schedule : {"1min", "3min", "6min", "10min"}) {
    spec.charges.push_back(artemis::sweep::ParseChargeSchedule(schedule).value());
  }
  spec.budgets = {19'500.0, 12'000.0, 6'000.0};
  return spec;
}

struct FleetRun {
  std::string error;  // empty = ok
  FleetOutcome outcome;
  std::string json;
  double wall_s = 0.0;
};

// One user-visible engine call: run the fleet and render its JSON.
FleetRun RunEngine(const FleetSpec& spec) {
  FleetRun run;
  const std::int64_t t0 = NowNs();
  artemis::StatusOr<FleetOutcome> outcome = artemis::fleet::RunFleet(spec);
  if (outcome.ok()) {
    run.outcome = std::move(outcome).value();
    run.json = artemis::fleet::RenderFleetJson(spec, run.outcome);
  } else {
    run.error = outcome.status().ToString();
  }
  run.wall_s = static_cast<double>(NowNs() - t0) * 1e-9;
  return run;
}

// Conservation laws every fleet outcome obeys; empty when they hold.
std::string ConservationError(const FleetAggregates& a, std::uint64_t devices) {
  if (a.devices != devices) {
    return "fleet folded " + std::to_string(a.devices) + " of " + std::to_string(devices) +
           " devices";
  }
  if (a.completed + a.starved + a.timed_out + a.errors != devices) {
    return "completed + starved + timed_out + errors != devices";
  }
  if (a.monitor_events_elided > a.monitor_events) {
    return "elided monitor events exceed monitor events";
  }
  return "";
}

// Replays each lane's captured stream through one BatchCompiledMonitor per
// machine, fed the way the engine's tile stepper feeds them: an event no
// machine can act on (its column is dead for every machine that sees its
// path) is consumed at feed time, each machine steps only its live or
// path-scoped lane list with StepBatchLanes, and a machine pass is skipped
// when no column present in its list is live for it. Failures are
// arbitrated per lane and event the way MonitorSet does. Fills the lanes'
// monitor_events, monitor_events_elided and violations.
class TileReplay {
 public:
  TileReplay(const artemis::SharedSpecArtifactPtr& artifact, std::uint32_t lanes)
      : pending_(lanes), cursors_(lanes), events_(lanes) {
    std::uint32_t max_task = 0;
    for (const artemis::CompiledMachine& machine : artifact->compiled) {
      machines_.emplace_back(std::shared_ptr<const artemis::CompiledMachine>(artifact, &machine),
                             lanes);
      max_task = std::max(max_task, machine.max_task);
    }
    failures_.resize(machines_.size());
    // Column bit of (kind, task), the engine's fleet layout; the replay
    // keeps every column set in one 64-bit mask.
    cols_ = max_task + 2u;
    if (2u * cols_ > 64u) {
      throw std::runtime_error("monitor columns exceed the replay's 64-bit masks");
    }
    for (const artemis::BatchCompiledMonitor& m : machines_) {
      std::uint64_t live = 0;
      for (std::uint32_t kind = 0; kind < 2; ++kind) {
        for (std::uint32_t t = 0; t < cols_; ++t) {
          if (!m.ColumnDead(static_cast<artemis::EventKind>(kind), static_cast<artemis::TaskId>(t))) {
            live |= std::uint64_t{1} << (kind * cols_ + t);
          }
        }
      }
      live_mask_.push_back(live);
      const artemis::PathId scope = m.machine().path_scope;
      if (scope == artemis::kNoPath) {
        unscoped_live_ |= live;
        continue;
      }
      const auto p = static_cast<std::size_t>(scope);
      if (path_live_.size() <= p) {
        path_live_.resize(p + 1, 0u);
        path_watched_.resize(p + 1, false);
        path_lanes_.resize(p + 1);
      }
      path_live_[p] |= live;
      path_watched_[p] = true;
    }
    path_masks_.resize(path_live_.size());
  }

  // The batch facts RenderFleetJson prints beside the aggregates.
  void SetBatchFacts(FleetOutcome* outcome) const {
    std::uint64_t any_live = 0;
    outcome->handler_classes.assign(artemis::BatchCompiledMonitor::kNumClasses, 0);
    for (std::size_t m = 0; m < machines_.size(); ++m) {
      any_live |= live_mask_[m];
      const std::vector<std::uint64_t> classes = machines_[m].ClassHistogram();
      for (std::size_t c = 0; c < classes.size(); ++c) {
        outcome->handler_classes[c] += classes[c];
      }
    }
    outcome->total_columns = 2u * cols_;
    outcome->dead_columns = 2u * cols_ - static_cast<std::uint32_t>(std::popcount(any_live));
  }

  // Returns the lane-events stepped: the lanes listed to StepBatchLanes,
  // summed over the machine passes not skipped.
  std::uint64_t Run(std::vector<std::vector<CapturedRecord>>& streams,
                    std::vector<DeviceResult>& results, SpanBuffer* buffer, SpanId parent) {
    const auto n = static_cast<std::uint32_t>(streams.size());
    for (std::uint32_t lane = 0; lane < n; ++lane) {
      cursors_[lane] = 0;
      for (artemis::BatchCompiledMonitor& m : machines_) {
        m.HardResetLane(lane);
      }
    }
    std::uint64_t lane_events = 0;
    for (;;) {
      live_lanes_.clear();
      for (std::vector<std::uint32_t>& list : path_lanes_) {
        list.clear();
      }
      std::fill(path_masks_.begin(), path_masks_.end(), std::uint64_t{0});
      std::uint64_t pass_mask = 0;
      for (std::uint32_t lane = 0; lane < n; ++lane) {
        const std::vector<CapturedRecord>& stream = streams[lane];
        std::size_t& cur = cursors_[lane];
        events_[lane] = nullptr;
        for (; cur < stream.size(); ++cur) {
          const CapturedRecord& rec = stream[cur];
          if (rec.kind == CapturedRecord::Kind::kPathRestart) {
            for (artemis::BatchCompiledMonitor& m : machines_) {
              m.OnPathRestartLane(lane, rec.restart_path);
            }
            continue;
          }
          const std::uint64_t bit = ColumnBit(rec.event);
          if ((bit & LiveFor(rec.event.path)) == 0u) {
            ++results[lane].monitor_events;
            ++results[lane].monitor_events_elided;
            continue;
          }
          events_[lane] = &rec.event;
          live_lanes_.push_back(lane);
          pass_mask |= bit;
          const auto p = static_cast<std::size_t>(rec.event.path);
          if (p < path_watched_.size() && path_watched_[p]) {
            path_lanes_[p].push_back(lane);
            path_masks_[p] |= bit;
          }
          break;
        }
      }
      if (live_lanes_.empty()) {
        return lane_events;
      }
      {
        ScopedSpan step(buffer, SpanName::kMonitorStepBatch, parent);
        for (std::size_t m = 0; m < machines_.size(); ++m) {
          failures_[m].clear();
          const artemis::PathId scope = machines_[m].machine().path_scope;
          const bool unscoped = scope == artemis::kNoPath;
          const auto p = static_cast<std::size_t>(scope);
          const std::vector<std::uint32_t>& list = unscoped ? live_lanes_ : path_lanes_[p];
          const std::uint64_t mask = unscoped ? pass_mask : path_masks_[p];
          if (list.empty() || (mask & live_mask_[m]) == 0u) {
            continue;
          }
          machines_[m].StepBatchLanes(events_.data(), list.data(),
                                      static_cast<std::uint32_t>(list.size()), &failures_[m]);
          lane_events += list.size();
        }
      }
      touched_.clear();
      for (std::size_t m = 0; m < machines_.size(); ++m) {
        for (const artemis::BatchFailure& f : failures_[m]) {
          if (pending_[f.lane].empty()) {
            touched_.push_back(f.lane);
          }
          artemis::MonitorVerdict verdict;
          verdict.action = f.action;
          verdict.target_path = f.target_path;
          verdict.property = machines_[m].fail_record(f.fail_index).property;
          pending_[f.lane].push_back(std::move(verdict));
        }
      }
      for (const std::uint32_t lane : live_lanes_) {
        ++results[lane].monitor_events;
        ++cursors_[lane];
      }
      for (const std::uint32_t lane : touched_) {
        if (artemis::Arbitrate(pending_[lane], artemis::ArbitrationPolicy::kSeverity).violated()) {
          ++results[lane].violations;
        }
        pending_[lane].clear();
      }
    }
  }

 private:
  std::uint64_t ColumnBit(const artemis::MonitorEvent& e) const {
    const std::uint32_t t = std::min(static_cast<std::uint32_t>(e.task), cols_ - 1u);
    return std::uint64_t{1} << (static_cast<std::uint32_t>(e.kind) * cols_ + t);
  }

  // Columns live for some machine that sees events on `path`.
  std::uint64_t LiveFor(artemis::PathId path) const {
    const auto p = static_cast<std::size_t>(path);
    return path != artemis::kNoPath && p < path_live_.size() && path_watched_[p]
               ? unscoped_live_ | path_live_[p]
               : unscoped_live_;
  }

  std::uint32_t cols_ = 0;
  std::vector<artemis::BatchCompiledMonitor> machines_;
  std::vector<std::uint64_t> live_mask_;  // [machine] live columns
  std::uint64_t unscoped_live_ = 0;       // OR over unscoped machines
  std::vector<std::uint64_t> path_live_;  // [path] OR over machines scoped to it
  std::vector<bool> path_watched_;        // [path] some machine is scoped to it
  std::vector<std::vector<artemis::BatchFailure>> failures_;
  std::vector<std::vector<artemis::MonitorVerdict>> pending_;
  std::vector<std::uint32_t> touched_;
  std::vector<std::size_t> cursors_;
  std::vector<const artemis::MonitorEvent*> events_;
  // Per pass: the live lanes (ascending), and per watched path the live
  // lanes whose event is on it, with the columns each list holds.
  std::vector<std::uint32_t> live_lanes_;
  std::vector<std::vector<std::uint32_t>> path_lanes_;
  std::vector<std::uint64_t> path_masks_;
};

struct Composed {
  std::string error;  // empty = ok
  std::string json;
  double wall_s = 0.0;
  double shard_busy_s = 0.0;
  double join_wait_s = 0.0;
  std::uint64_t lane_events = 0;
  std::uint64_t records_peak = 0;
};

struct ShardState {
  FleetAggregates agg;
  std::string error;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t lane_events = 0;
  std::uint64_t records_peak = 0;
};

void RunScalarShard(const FleetSpec& spec, const artemis::fleet::FleetContext& ctx,
                    artemis::fleet::ShardRange range, SpanBuffer* buffer, SpanId shard,
                    ShardState* state) {
  buffer->Reserve(2 * (range.end - range.begin));
  for (std::uint64_t i = range.begin; i < range.end; ++i) {
    DeviceResult result;
    {
      ScopedSpan twin(buffer, SpanName::kFleetTwinScalar, shard);
      artemis::fleet::DeviceInstance instance(ctx, artemis::fleet::ConfigForDevice(spec, i));
      result = instance.RunScalar();
    }
    ScopedSpan fold(buffer, SpanName::kFleetFold, shard);
    state->agg.Fold(result);
  }
}

void RunBatchShard(const FleetSpec& spec, const artemis::fleet::FleetContext& ctx,
                   artemis::fleet::ShardRange range, SpanBuffer* buffer, SpanId shard,
                   ShardState* state) {
  buffer->Reserve(range.end - range.begin);
  TileReplay replay(ctx.artifact, spec.tile);
  std::vector<DeviceResult> results;
  std::vector<std::vector<CapturedRecord>> streams;
  for (std::uint64_t begin = range.begin; begin < range.end; begin += spec.tile) {
    const std::uint64_t end = std::min<std::uint64_t>(begin + spec.tile, range.end);
    const auto n = static_cast<std::uint32_t>(end - begin);
    streams.assign(n, {});
    results.assign(n, DeviceResult{});
    std::uint64_t records = 0;
    for (std::uint32_t lane = 0; lane < n; ++lane) {
      ScopedSpan twin(buffer, SpanName::kFleetTwinCapture, shard);
      artemis::fleet::DeviceInstance instance(ctx,
                                              artemis::fleet::ConfigForDevice(spec, begin + lane));
      results[lane] = instance.RunCapture(&streams[lane]);
      records += streams[lane].size();
    }
    state->records_peak = std::max(state->records_peak, records);
    state->lane_events += replay.Run(streams, results, buffer, shard);
    ScopedSpan fold(buffer, SpanName::kFleetFold, shard);
    for (const DeviceResult& result : results) {
      state->agg.Fold(result);
    }
  }
}

// RunFleet + RenderFleetJson rebuilt from public pieces, traced.
Composed ComposeFleet(const FleetSpec& spec, Tracer* tracer) {
  Composed composed;
  SpanBuffer* main = tracer->NewBuffer();
  const std::int64_t t0 = NowNs();
  {
    ScopedSpan call(main, SpanName::kCall, 0);
    artemis::AppGraph graph;
    {
      ScopedSpan s(main, SpanName::kAppsBuildGraph, call.id());
      graph = artemis::sweep::BuildAppGraphByName(spec.app);
    }
    const std::string text = artemis::HealthAppSpec();
    const artemis::SpecArtifactStage stage = spec.monitor == "batch"
                                                 ? artemis::SpecArtifactStage::kCompiled
                                                 : artemis::StageForBackend(spec.backend);
    artemis::StatusOr<artemis::SharedSpecArtifactPtr> artifact = artemis::Status::Internal("");
    {
      ScopedSpan s(main, SpanName::kMonitorArtifact, call.id());
      artifact = artemis::BuildSpecArtifact(text, graph, stage);
    }
    if (!artifact.ok()) {
      composed.error = artifact.status().ToString();
      return composed;
    }
    {
      ScopedSpan s(main, SpanName::kAnalysisPre, call.id());
      const artemis::Status gate = artemis::sweep::PreAnalyzeSpec(
          "fleet", spec.spec_label, text, graph, spec.budgets, spec.charges, "off", 1024);
      if (!gate.ok()) {
        composed.error = gate.ToString();
        return composed;
      }
    }
    artemis::fleet::FleetContext ctx;
    ctx.app = spec.app;
    ctx.artifact = artifact.value();
    std::vector<artemis::fleet::ShardRange> map;
    {
      ScopedSpan s(main, SpanName::kFleetCpuMap, call.id());
      map = artemis::fleet::BuildCpuMap(spec.devices, spec.shards);
    }
    std::vector<ShardState> shards(map.size());
    std::vector<SpanBuffer*> buffers;
    for (std::size_t w = 0; w < map.size(); ++w) {
      buffers.push_back(tracer->NewBuffer());
    }
    std::vector<std::jthread> threads;  // joined on every path, exceptions too
    for (std::size_t w = 0; w < map.size(); ++w) {
      threads.emplace_back([&, w] {
        ShardState& state = shards[w];
        state.start_ns = NowNs();
        try {
          ScopedSpan shard(buffers[w], SpanName::kFleetShard, call.id());
          if (spec.monitor == "batch") {
            RunBatchShard(spec, ctx, map[w], buffers[w], shard.id(), &state);
          } else {
            RunScalarShard(spec, ctx, map[w], buffers[w], shard.id(), &state);
          }
        } catch (const std::exception& e) {
          state.error = e.what();
        }
        state.end_ns = NowNs();
      });
    }
    for (std::jthread& t : threads) {
      t.join();
    }
    const std::int64_t joined = NowNs();
    FleetOutcome outcome;
    {
      ScopedSpan s(main, SpanName::kFleetMerge, call.id());
      for (const ShardState& state : shards) {
        outcome.agg.MergeFrom(state.agg);
      }
    }
    for (const ShardState& state : shards) {
      if (!state.error.empty()) {
        composed.error = state.error;
      }
      composed.shard_busy_s += static_cast<double>(state.end_ns - state.start_ns) * 1e-9;
      composed.join_wait_s += static_cast<double>(joined - state.end_ns) * 1e-9;
      composed.lane_events += state.lane_events;
      composed.records_peak = std::max(composed.records_peak, state.records_peak);
    }
    outcome.devices = spec.devices;
    outcome.shards = static_cast<int>(map.size());
    if (spec.monitor == "batch" && composed.error.empty()) {
      TileReplay(ctx.artifact, 1).SetBatchFacts(&outcome);
    }
    ScopedSpan s(main, SpanName::kFleetRender, call.id());
    composed.json = artemis::fleet::RenderFleetJson(spec, outcome);
  }
  composed.wall_s = static_cast<double>(NowNs() - t0) * 1e-9;
  return composed;
}

struct FleetWorkload {
  std::uint64_t devices;
  bool batch;  // batch monitor mode (observe-only capture + batch VM)
  FleetSpec (*make)(std::uint64_t seed, std::uint64_t devices, int shards);
  // Workload-specific output gate on a successful call; empty = pass.
  std::string (*check)(const Options& options, const FleetRun& run,
                       const std::map<std::string, std::string>& reference,
                       const std::string& first_json);
};

std::string CheckBurst(const Options&, const FleetRun& run,
                       const std::map<std::string, std::string>&, const std::string& first_json) {
  if (!first_json.empty() && run.json != first_json) {
    return "fleet-burst rendering differs between identical calls";
  }
  return ConservationError(run.outcome.agg, kBurstDevices);
}

std::string CheckOutage(const Options& options, const FleetRun& run,
                        const std::map<std::string, std::string>& reference, const std::string&) {
  const std::string conservation = ConservationError(run.outcome.agg, kOutageDevices);
  if (!conservation.empty()) {
    return conservation;
  }
  return CheckDigest(options, reference, "fleet-outage", run.json);
}

const FleetWorkload kBurst{kBurstDevices, true, BurstSpec, CheckBurst};
const FleetWorkload kOutage{kOutageDevices, false, OutageSpec, CheckOutage};

RunResult RunUntraced(const Options& options, const FleetWorkload& w) {
  RunResult result;
  const std::map<std::string, std::string> reference = LoadReference();
  const FleetSpec setup_spec = w.make(options.seed, 1, kWorkers);
  SetupSampler setup([&] { RunEngine(setup_spec); });
  const FleetSpec spec = w.make(options.seed, w.devices, kWorkers);
  RunEngine(spec);  // warm-up: fault in code, heap and thread stacks
  setup.Sample();
  FleetRun run;
  std::string first_json;
  std::vector<double> call_p50_ms;
  const std::vector<CallSample> calls = ClosedLoop(
      options.seconds,
      [&] {
        run = RunEngine(spec);
        return w.devices;
      },
      [&] {
        call_p50_ms.push_back(run.wall_s * 1e3);
        if (!run.error.empty()) {
          result.Fail(run.error);
        }
        result.failed += run.outcome.agg.errors;
        const std::string why =
            run.error.empty() ? w.check(options, run, reference, first_json) : "";
        if (!why.empty()) {
          result.Fail(why);
        }
        if (first_json.empty()) {
          first_json = run.json;
        }
        run = FleetRun{};
        setup.Sample();
      });
  AddEndToEnd(&result, calls, setup.QuietSeconds(), call_p50_ms);

  if (w.batch) {
    // Determinism across shards and tiles: observe-only batch mode has no
    // recorded answer, so the same sample must render identically however
    // it is cut.
    std::string sample_json;
    for (const auto& [shards, tile] : {std::pair<int, std::uint32_t>{1, 256}, {4, 97}, {3, 1000}}) {
      FleetSpec sample = BurstSpec(options.seed, kShardSampleDevices, shards);
      sample.tile = tile;
      const FleetRun r = RunEngine(sample);
      if (!r.error.empty() || (!sample_json.empty() && r.json != sample_json)) {
        result.Fail("fleet-burst rendering depends on shard/tile count");
      }
      sample_json = r.json;
    }
  }
  return result;
}

void SetSimulatedStatistics(const FleetAggregates& a, LayerReport* layers) {
  layers->Set("monitor.events", static_cast<double>(a.monitor_events));
  layers->Set("monitor.violations", static_cast<double>(a.violations));
  layers->Set("monitor.elided_ratio",
              a.monitor_events == 0 ? 0.0
                                    : static_cast<double>(a.monitor_events_elided) /
                                          static_cast<double>(a.monitor_events));
  layers->Set("kernel.reboots", static_cast<double>(a.reboots));
  layers->Set("kernel.commits", static_cast<double>(a.commits));
  layers->Set("kernel.aborts", static_cast<double>(a.aborts));
  layers->Set("kernel.skips", static_cast<double>(a.skips));
  layers->Set("kernel.commit_ratio",
              a.commits + a.aborts == 0 ? 0.0
                                        : static_cast<double>(a.commits) /
                                              static_cast<double>(a.commits + a.aborts));
}

RunResult RunTraced(const Options& options, const FleetWorkload& w) {
  RunResult result;
  LayerReport layers;
  const std::map<std::string, std::string> reference = LoadReference();
  RunEngine(w.make(options.seed, w.devices, kWorkers));  // warm-up
  const FleetRun four = RunEngine(w.make(options.seed, w.devices, kWorkers));
  const FleetRun one = RunEngine(w.make(options.seed, w.devices, 1));
  result.attempted += 2 * w.devices;
  if (!four.error.empty() || !one.error.empty()) {
    result.Fail(!four.error.empty() ? four.error : one.error);
    layers.FinishRun(&result);
    return result;
  }
  result.failed += four.outcome.agg.errors + one.outcome.agg.errors;
  if (four.json != one.json) {
    result.Fail("rendered JSON differs between 1 and 4 workers");
  }
  if (const std::string why = w.check(options, four, reference, ""); !why.empty()) {
    result.Fail(why);
  }
  layers.Set("base.pool_speedup", one.wall_s / four.wall_s);
  result.Note("engine call wall: " + std::to_string(four.wall_s) + " s at " +
              std::to_string(kWorkers) + " workers, " + std::to_string(one.wall_s) +
              " s at 1 worker");
  SetSimulatedStatistics(four.outcome.agg, &layers);

  const double graph_us = BuildGraphUs();
  Tracer tracer;
  const Composed composed =
      ComposeFleet(w.make(options.seed, w.devices, kWorkers), &tracer);
  result.attempted += w.devices;
  if (!composed.error.empty()) {
    result.Fail("traced composition: " + composed.error);
  } else if (composed.json != four.json) {
    result.Fail("traced composition renders different bytes than RunFleet");
  }
  layers.Set("bench.trace_overhead", composed.wall_s / four.wall_s);

  const auto spans = tracer.Summarize();
  const SpanName twin = w.batch ? SpanName::kFleetTwinCapture : SpanName::kFleetTwinScalar;
  const std::vector<double>& twin_us = spans[static_cast<std::size_t>(twin)].durations_us;
  const std::string twin_metric = w.batch ? "fleet.twin_capture_us" : "fleet.twin_scalar_us";
  layers.Set(twin_metric + ".p50", Percentile(twin_us, 0.50));
  layers.Set(twin_metric + ".p99", Percentile(twin_us, 0.99));
  layers.Set("fleet.twin_samples", static_cast<double>(twin_us.size()));
  layers.Set("monitor.build_artifact_ms", MeanUs(spans, SpanName::kMonitorArtifact) * 1e-3);
  layers.Set("analysis.pre_analyze_ms", MeanUs(spans, SpanName::kAnalysisPre) * 1e-3);
  layers.Set("apps.build_graph_us", graph_us);
  layers.Set("apps.build_graph_calls", static_cast<double>(w.devices + 1));
  layers.Set("fleet.shard_busy_s", composed.shard_busy_s);
  layers.Set("fleet.join_wait_s", composed.join_wait_s);
  const auto& fold = spans[static_cast<std::size_t>(SpanName::kFleetFold)];
  const auto& merge = spans[static_cast<std::size_t>(SpanName::kFleetMerge)];
  layers.Set("fleet.fold_us", (fold.total_ns + merge.total_ns) * 1e-3);
  layers.Set("fleet.render_ms", MeanUs(spans, SpanName::kFleetRender) * 1e-3);
  if (w.batch) {
    const auto& step = spans[static_cast<std::size_t>(SpanName::kMonitorStepBatch)];
    layers.Set("fleet.captured_records_peak", static_cast<double>(composed.records_peak));
    layers.Set("monitor.lane_events", static_cast<double>(composed.lane_events));
    layers.Set("monitor.step_batch_ns_per_lane_event",
               composed.lane_events == 0
                   ? 0.0
                   : step.total_ns / static_cast<double>(composed.lane_events));
  }
  layers.SetShares(spans, graph_us);
  if (!tracer.Write(options.trace_dir + "/" + options.workload + ".tsv")) {
    result.Note("could not write the span file under " + options.trace_dir);
  }

  // The known observe-only defect: batch verdicts against faithful scalar
  // ones over fleet-burst's configuration. Reported, not gated.
  FleetSpec gap_spec = BurstSpec(options.seed, kGapDevices, kWorkers);
  const FleetRun batch_run = RunEngine(gap_spec);
  gap_spec.monitor = "scalar";
  const FleetRun scalar_run = RunEngine(gap_spec);
  if (batch_run.error.empty() && scalar_run.error.empty() &&
      scalar_run.outcome.agg.violations > 0) {
    const double b = static_cast<double>(batch_run.outcome.agg.violations);
    const double s = static_cast<double>(scalar_run.outcome.agg.violations);
    layers.Set("fleet.observe_only_gap", std::fabs(b - s) / s);
  }

  layers.FinishRun(&result);
  return result;
}

}  // namespace

RunResult RunFleetBurst(const Options& options) {
  return options.trace ? RunTraced(options, kBurst) : RunUntraced(options, kBurst);
}

RunResult RunFleetOutage(const Options& options) {
  return options.trace ? RunTraced(options, kOutage) : RunUntraced(options, kOutage);
}

}  // namespace perfbench
