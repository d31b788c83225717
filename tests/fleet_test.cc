// Tests for the fleet-scale device-twin engine (src/fleet): the static
// cpu-map, the integral histogram fold, the per-device seed stream, and
// the two determinism contracts that make fleet results trustworthy —
// byte-identical renderings for any shard count, and a single-device
// scalar fleet being the same computation as one sweep point.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "src/base/units.h"
#include "src/fleet/fleet.h"
#include "src/fleet/instance.h"
#include "src/sweep/grid_json.h"
#include "src/sweep/spec_cache.h"
#include "src/sweep/sweep.h"

namespace artemis::fleet {
namespace {

// ---------------------------------------------------------- cpu-map ------

TEST(CpuMapTest, CoversRangeContiguouslyAndBalanced) {
  for (const std::uint64_t devices : {1ull, 7ull, 8ull, 100ull, 1001ull}) {
    for (const int shards : {1, 2, 3, 8, 13}) {
      const std::vector<ShardRange> map = BuildCpuMap(devices, shards);
      ASSERT_EQ(map.size(), static_cast<std::size_t>(shards));
      std::uint64_t expect_begin = 0;
      std::uint64_t min_size = devices;
      std::uint64_t max_size = 0;
      for (const ShardRange& range : map) {
        EXPECT_EQ(range.begin, expect_begin) << devices << "/" << shards;
        EXPECT_LE(range.begin, range.end);
        min_size = std::min(min_size, range.end - range.begin);
        max_size = std::max(max_size, range.end - range.begin);
        expect_begin = range.end;
      }
      EXPECT_EQ(expect_begin, devices) << devices << "/" << shards;
      // Balanced to within one device (some shards may be empty when
      // shards > devices, in which case max is 1).
      EXPECT_LE(max_size - min_size, 1u) << devices << "/" << shards;
    }
  }
}

TEST(CpuMapTest, MoreShardsThanDevicesYieldsEmptyTailRanges) {
  const std::vector<ShardRange> map = BuildCpuMap(3, 8);
  ASSERT_EQ(map.size(), 8u);
  EXPECT_EQ(map[2].end, 3u);
  for (std::size_t s = 3; s < map.size(); ++s) {
    EXPECT_EQ(map[s].begin, map[s].end);
  }
}

// ------------------------------------------------------- device seeds ----

TEST(DeviceSeedTest, NonZeroDistinctAndFleetSeedDependent) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 4096; ++i) {
    const std::uint64_t s = DeviceSeed(1, i);
    EXPECT_NE(s, 0u);
    seen.insert(s);
  }
  EXPECT_EQ(seen.size(), 4096u);  // no collisions across a fleet prefix
  EXPECT_NE(DeviceSeed(1, 0), DeviceSeed(2, 0));
  EXPECT_EQ(DeviceSeed(7, 42), DeviceSeed(7, 42));  // pure function
}

// ---------------------------------------------------------- histogram ----

TEST(FleetHistogramTest, MergeEqualsSingleFold) {
  const std::vector<std::uint64_t> samples = {0, 1, 1, 2, 3, 9, 100, 1000, 1ull << 40};
  FleetHistogram whole;
  FleetHistogram left;
  FleetHistogram right;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    whole.Record(samples[i]);
    (i < samples.size() / 2 ? left : right).Record(samples[i]);
  }
  FleetHistogram merged;
  merged.MergeFrom(left);
  merged.MergeFrom(right);
  EXPECT_EQ(merged.count(), whole.count());
  EXPECT_EQ(merged.sum(), whole.sum());
  EXPECT_EQ(merged.min(), whole.min());
  EXPECT_EQ(merged.max(), whole.max());
  EXPECT_EQ(merged.Summary(), whole.Summary());
}

TEST(FleetHistogramTest, PercentilesBracketSamples) {
  FleetHistogram h;
  for (std::uint64_t v = 1; v <= 1000; ++v) {
    h.Record(v);
  }
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 1000u);
  // Power-of-two buckets: the p-quantile reports its bucket's upper bound,
  // so it can only over-approximate, never under-approximate.
  EXPECT_GE(h.Percentile(0.5), 500u);
  EXPECT_LE(h.Percentile(0.5), 1023u);
  EXPECT_EQ(h.Percentile(1.0), 1000u);  // clamped into the observed range
  EXPECT_EQ(FleetHistogram{}.Percentile(0.5), 0u);
}

// ------------------------------------------------ shard determinism ------

FleetSpec SmallFleet(const std::string& monitor, int shards) {
  FleetSpec spec;
  spec.app = "health";
  spec.monitor = monitor;
  spec.devices = 12;
  spec.shards = shards;
  spec.seed = 3;
  spec.charges = {0, 6 * kMinute - kSecond};  // mixed continuous + harvested
  spec.iterations = 1;
  spec.tile = 5;  // deliberately misaligned with the shard ranges
  return spec;
}

TEST(FleetDeterminismTest, BatchModeByteIdenticalAcrossShardCounts) {
  const FleetSpec base = SmallFleet("batch", 1);
  StatusOr<FleetOutcome> one = RunFleet(base);
  ASSERT_TRUE(one.ok()) << one.status().ToString();
  const std::string golden = RenderFleetJson(base, one.value());
  for (const int shards : {2, 4, 8}) {
    FleetSpec spec = SmallFleet("batch", shards);
    StatusOr<FleetOutcome> outcome = RunFleet(spec);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    EXPECT_EQ(RenderFleetJson(spec, outcome.value()), golden) << "shards=" << shards;
    EXPECT_EQ(RenderFleetTable(spec, outcome.value()),
              RenderFleetTable(base, one.value()))
        << "shards=" << shards;
  }
}

TEST(FleetDeterminismTest, ScalarModeByteIdenticalAcrossShardCounts) {
  const FleetSpec base = SmallFleet("scalar", 1);
  StatusOr<FleetOutcome> one = RunFleet(base);
  ASSERT_TRUE(one.ok()) << one.status().ToString();
  const std::string golden = RenderFleetJson(base, one.value());
  for (const int shards : {3, 8}) {
    FleetSpec spec = SmallFleet("scalar", shards);
    StatusOr<FleetOutcome> outcome = RunFleet(spec);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    EXPECT_EQ(RenderFleetJson(spec, outcome.value()), golden) << "shards=" << shards;
  }
}

// In-loop monitors under outages with mixed budgets, on 4 shard threads:
// every worker runs its devices over the one shared app graph while power
// fails inside task bodies and monitor charges.
TEST(FleetDeterminismTest, ScalarOutageByteIdenticalAcrossShardCounts) {
  FleetSpec base = SmallFleet("scalar", 1);
  base.devices = 16;
  base.charges = {1 * kMinute - kSecond, 6 * kMinute - kSecond};
  base.budgets = {19'500.0, 12'000.0, 6'000.0};
  base.iterations = 0;
  base.horizon = 30 * kMinute;
  StatusOr<FleetOutcome> one = RunFleet(base);
  ASSERT_TRUE(one.ok()) << one.status().ToString();
  EXPECT_GT(one.value().agg.reboots, 0u);
  const std::string golden = RenderFleetJson(base, one.value());
  FleetSpec sharded = base;
  sharded.shards = 4;
  StatusOr<FleetOutcome> outcome = RunFleet(sharded);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(RenderFleetJson(sharded, outcome.value()), golden);
}

TEST(FleetDeterminismTest, BatchModeIndependentOfTileSize) {
  const FleetSpec base = SmallFleet("batch", 2);
  StatusOr<FleetOutcome> one = RunFleet(base);
  ASSERT_TRUE(one.ok());
  for (const std::uint32_t tile : {1u, 3u, 256u}) {
    FleetSpec spec = SmallFleet("batch", 2);
    spec.tile = tile;
    StatusOr<FleetOutcome> outcome = RunFleet(spec);
    ASSERT_TRUE(outcome.ok());
    EXPECT_EQ(RenderFleetJson(spec, outcome.value()),
              RenderFleetJson(base, one.value()))
        << "tile=" << tile;
  }
}

// ------------------------------------------- sweep-point equivalence -----

// A single-device scalar fleet is one sweep point: same app graph, same
// platform, same kernel options, same in-loop monitors, and a seed pinned
// to the fleet's DeviceSeed stream.
TEST(FleetSweepEquivalenceTest, SingleDeviceScalarFleetMatchesSweepPoint) {
  for (const SimDuration charge : {SimDuration{0}, 6 * kMinute - kSecond}) {
    FleetSpec fleet_spec;
    fleet_spec.app = "health";
    fleet_spec.monitor = "scalar";
    fleet_spec.backend = MonitorBackend::kCompiled;
    fleet_spec.devices = 1;
    fleet_spec.seed = 11;
    fleet_spec.charges = {charge};
    fleet_spec.budgets = {19'500.0};
    fleet_spec.iterations = 1;
    StatusOr<FleetOutcome> outcome = RunFleet(fleet_spec);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    const FleetAggregates& agg = outcome.value().agg;

    sweep::SweepSpec sweep_spec;
    sweep_spec.app = "health";
    sweep::SweepPoint point;
    point.app = "health";
    point.system = "artemis";
    point.spec_label = "default";
    point.spec_text = [] {
      sweep::SweepSpec probe;
      auto points = sweep::ExpandGrid(probe);
      return points.value()[0].spec_text;  // the app's embedded default spec
    }();
    point.backend_name = "compiled";
    point.backend = MonitorBackend::kCompiled;
    point.timekeeper = "default";
    point.budget = 19'500.0;
    point.charge = charge;
    point.seed = DeviceSeed(fleet_spec.seed, 0);
    CompiledSpecCache cache;
    const sweep::SweepRow row = sweep::RunSweepPoint(point, sweep_spec, cache);
    ASSERT_TRUE(row.ok) << row.error;

    EXPECT_EQ(agg.completed, row.result.completed ? 1u : 0u);
    EXPECT_EQ(agg.iterations, row.result.iterations_completed);
    EXPECT_EQ(agg.reboots, row.result.stats.reboots);
    EXPECT_EQ(agg.monitor_events, row.monitor_events);
    EXPECT_EQ(agg.violations, row.violations);
    const std::uint64_t sweep_energy_nj =
        static_cast<std::uint64_t>(std::llround(row.result.stats.TotalEnergy() * 1000.0));
    EXPECT_EQ(agg.energy_nj, sweep_energy_nj);
  }
}

// ------------------------------------------------------- validation ------

TEST(FleetValidationTest, RejectsBadSpecs) {
  FleetSpec spec;
  spec.devices = 0;
  EXPECT_FALSE(RunFleet(spec).ok());
  spec = FleetSpec{};
  spec.monitor = "vectorized";
  EXPECT_FALSE(RunFleet(spec).ok());
  spec = FleetSpec{};
  spec.monitor = "batch";
  spec.backend = MonitorBackend::kInterpreted;
  EXPECT_FALSE(RunFleet(spec).ok());
  spec = FleetSpec{};
  spec.charges.clear();
  EXPECT_FALSE(RunFleet(spec).ok());
  spec = FleetSpec{};
  spec.tile = 0;
  EXPECT_FALSE(RunFleet(spec).ok());
  spec = FleetSpec{};
  spec.app = "unknown-app";
  EXPECT_FALSE(RunFleet(spec).ok());
}

// An explicit spec replaces the app's default spec, not the app-name check:
// an unknown app must not silently simulate the health graph.
TEST(FleetValidationTest, UnknownAppRejectedEvenWithExplicitSpec) {
  FleetSpec spec;
  spec.app = "nope";
  spec.spec_text = "accel: { maxTries: 10 onFail: skipPath; }\n";
  const StatusOr<FleetOutcome> outcome = RunFleet(spec);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kInvalidArgument);
}

// Spec labels are free text (a --spec path); control bytes in them must
// still render as valid JSON.
TEST(FleetRenderTest, ControlBytesInLabelsStayValidJson) {
  FleetSpec spec = SmallFleet("batch", 1);
  spec.devices = 1;
  spec.spec_label = "odd\x01label\r\n\t\"end\"";
  const StatusOr<FleetOutcome> outcome = RunFleet(spec);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  const std::string json = RenderFleetJson(spec, outcome.value());
  // JSON forbids raw control bytes inside strings; only the layout's
  // newlines may appear unescaped.
  for (const char c : json) {
    EXPECT_TRUE(c == '\n' || static_cast<unsigned char>(c) >= 0x20)
        << "raw control byte " << static_cast<int>(c);
  }
  const StatusOr<sweep::JsonValuePtr> parsed = sweep::ParseJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const sweep::JsonValuePtr label = parsed.value()->Find("spec");
  ASSERT_NE(label, nullptr);
  EXPECT_EQ(label->string(), spec.spec_label);
}

TEST(FleetValidationTest, AnalyzerGateFailsFastOnInfeasibleDeployment) {
  FleetSpec spec;
  spec.app = "health";
  spec.spec_label = "infeasible";
  spec.spec_text = "accel: {\n  maxTries: 10 onFail: skipPath;\n}\n";
  // 9000 uJ cannot cover accel's ~18 001 uJ atomic attempt: ART009 refuses
  // the whole fleet before any device simulates.
  spec.budgets = {9'000.0};
  spec.devices = 4;
  spec.shards = 2;
  const StatusOr<FleetOutcome> gated = RunFleet(spec);
  ASSERT_FALSE(gated.ok());
  EXPECT_NE(gated.status().ToString().find("ART009"), std::string::npos);
  EXPECT_NE(gated.status().ToString().find("fleet"), std::string::npos);

  // The escape hatch runs the doomed fleet anyway (bounded by the horizon).
  spec.analyze = false;
  spec.devices = 1;
  spec.shards = 1;
  spec.iterations = 0;
  spec.horizon = 1 * kSecond;
  const StatusOr<FleetOutcome> forced = RunFleet(spec);
  ASSERT_TRUE(forced.ok()) << forced.status().ToString();
  EXPECT_EQ(forced.value().devices, 1u);
}

TEST(FleetValidationTest, BatchOutcomeReportsHandlerClasses) {
  FleetSpec spec = SmallFleet("batch", 1);
  spec.devices = 2;
  StatusOr<FleetOutcome> outcome = RunFleet(spec);
  ASSERT_TRUE(outcome.ok());
  ASSERT_EQ(outcome.value().handler_classes.size(), 5u);
  std::uint64_t fast = 0;
  for (std::size_t i = 0; i + 1 < outcome.value().handler_classes.size(); ++i) {
    fast += outcome.value().handler_classes[i];
  }
  // The speedup story rests on most dispatch entries summarizing into the
  // fast classes; the health spec must keep some there.
  EXPECT_GT(fast, 0u);
}

}  // namespace
}  // namespace artemis::fleet
