// Tests for the parallel deterministic sweep engine (src/sweep): grid
// expansion, byte-identical export across worker counts, per-point equality
// with direct serial runs, the compiled-spec cache's build-once guarantee,
// error-row reporting, and the grid JSON loader.
#include <memory>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "src/apps/health_app.h"
#include "src/core/builder.h"
#include "src/core/runtime.h"
#include "src/mayfly/mayfly.h"
#include "src/spec/parser.h"
#include "src/sweep/grid_json.h"
#include "src/sweep/spec_cache.h"
#include "src/sweep/sweep.h"

namespace artemis {
namespace {

constexpr EnergyUj kBudget = 19'500.0;

SimDuration Charge(int minutes) {
  return static_cast<SimDuration>(minutes) * kMinute - 1 * kSecond;
}

// 3 charges x 2 systems x 2 backends x 2 seeds = 24 points, all completing
// (charging delays stay inside the 5-minute MITD window).
sweep::SweepSpec TestGrid() {
  sweep::SweepSpec grid;
  grid.systems = {"artemis", "mayfly"};
  grid.backends = {"builtin", "compiled"};
  grid.charges = {Charge(1), Charge(2), Charge(3)};
  grid.budgets = {kBudget};
  grid.seeds = {1, 2};
  grid.max_wall = 8 * kHour;
  return grid;
}

TEST(SweepGridTest, ExpandsCartesianProductInDocumentedOrder) {
  StatusOr<std::vector<sweep::SweepPoint>> points = sweep::ExpandGrid(TestGrid());
  ASSERT_TRUE(points.ok()) << points.status().ToString();
  ASSERT_EQ(points.value().size(), 24u);
  // Outermost spec, then system, backend, timekeeper, budget, charge, seed.
  EXPECT_EQ(points.value()[0].system, "artemis");
  EXPECT_EQ(points.value()[0].backend_name, "builtin");
  EXPECT_EQ(points.value()[0].charge, Charge(1));
  EXPECT_EQ(points.value()[0].seed, 1u);
  EXPECT_EQ(points.value()[1].seed, 2u);
  EXPECT_EQ(points.value()[2].charge, Charge(2));
  EXPECT_EQ(points.value()[6].backend_name, "compiled");
  EXPECT_EQ(points.value()[12].system, "mayfly");
  for (std::size_t i = 0; i < points.value().size(); ++i) {
    EXPECT_EQ(points.value()[i].index, i);
    EXPECT_FALSE(points.value()[i].spec_text.empty());
  }
}

TEST(SweepGridTest, RejectsBadAxisValues) {
  sweep::SweepSpec grid;
  grid.systems = {"riotos"};
  EXPECT_FALSE(sweep::ExpandGrid(grid).ok());
  grid = sweep::SweepSpec();
  grid.backends = {"jit"};
  EXPECT_FALSE(sweep::ExpandGrid(grid).ok());
  grid = sweep::SweepSpec();
  grid.timekeepers = {"sundial"};
  EXPECT_FALSE(sweep::ExpandGrid(grid).ok());
  grid = sweep::SweepSpec();
  grid.app = "minesweeper";
  EXPECT_FALSE(sweep::ExpandGrid(grid).ok());
  grid = sweep::SweepSpec();
  grid.seeds.clear();
  EXPECT_FALSE(sweep::ExpandGrid(grid).ok());
}

TEST(SweepEngineTest, ExportBytesAreIdenticalForAnyJobCount) {
  const sweep::SweepSpec grid = TestGrid();
  StatusOr<sweep::SweepOutcome> serial = sweep::RunSweep(grid, 1);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ASSERT_TRUE(serial.value().AllOk());
  const std::string json1 = sweep::RenderJson(grid, serial.value());
  const std::string csv1 = sweep::RenderCsv(serial.value());
  const std::string table1 = sweep::RenderTable(serial.value());

  for (const int jobs : {4, 8}) {
    StatusOr<sweep::SweepOutcome> parallel = sweep::RunSweep(grid, jobs);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    EXPECT_EQ(json1, sweep::RenderJson(grid, parallel.value())) << "jobs=" << jobs;
    EXPECT_EQ(csv1, sweep::RenderCsv(parallel.value())) << "jobs=" << jobs;
    EXPECT_EQ(table1, sweep::RenderTable(parallel.value())) << "jobs=" << jobs;
  }
}

// Each sweep row must equal a from-scratch serial run of the same point
// through the public runtime API (full pipeline, no cache, no engine).
TEST(SweepEngineTest, RowsMatchDirectSerialRuns) {
  const sweep::SweepSpec grid = TestGrid();
  StatusOr<sweep::SweepOutcome> outcome = sweep::RunSweep(grid, 8);
  ASSERT_TRUE(outcome.ok());
  ASSERT_TRUE(outcome.value().AllOk());

  StatusOr<std::vector<sweep::SweepPoint>> points = sweep::ExpandGrid(grid);
  ASSERT_TRUE(points.ok());
  for (const std::size_t index : {0u, 7u, 13u, 23u}) {
    const sweep::SweepPoint& point = points.value()[index];
    const sweep::SweepRow& row = outcome.value().rows[index];

    HealthApp app = BuildHealthApp();
    std::unique_ptr<Mcu> mcu =
        PlatformBuilder().WithFixedCharge(point.budget, point.charge).Build();
    KernelRunResult expected;
    if (point.system == "artemis") {
      ArtemisConfig config;
      config.backend = point.backend;
      config.kernel.seed = point.seed;
      config.kernel.max_wall_time = grid.max_wall;
      StatusOr<std::unique_ptr<ArtemisRuntime>> runtime =
          ArtemisRuntime::Create(&app.graph, point.spec_text, mcu.get(), config);
      ASSERT_TRUE(runtime.ok()) << runtime.status().ToString();
      expected = runtime.value()->Run();
    } else {
      StatusOr<SpecAst> parsed = SpecParser::Parse(point.spec_text);
      ASSERT_TRUE(parsed.ok());
      KernelOptions options;
      options.seed = point.seed;
      options.max_wall_time = grid.max_wall;
      StatusOr<std::unique_ptr<MayflyRuntime>> runtime =
          MayflyRuntime::Create(&app.graph, parsed.value(), mcu.get(), options);
      ASSERT_TRUE(runtime.ok());
      expected = runtime.value()->Run();
    }

    EXPECT_EQ(row.result.completed, expected.completed) << "index " << index;
    EXPECT_EQ(row.result.timed_out, expected.timed_out) << "index " << index;
    EXPECT_EQ(row.result.finished_at, expected.finished_at) << "index " << index;
    EXPECT_EQ(row.result.iterations_completed, expected.iterations_completed);
    EXPECT_EQ(row.result.stats.reboots, expected.stats.reboots) << "index " << index;
    EXPECT_DOUBLE_EQ(row.result.stats.TotalEnergy(), expected.stats.TotalEnergy())
        << "index " << index;
  }
}

TEST(SweepEngineTest, CacheCoalescesPipelineWorkAcrossPointsAndWorkers) {
  CompiledSpecCache cache;
  StatusOr<sweep::SweepOutcome> outcome = sweep::RunSweep(TestGrid(), 8, &cache);
  ASSERT_TRUE(outcome.ok());
  // 24 requests; one kAst build shared by builtin + mayfly, one kCompiled
  // build for the compiled backend — regardless of worker interleaving.
  EXPECT_EQ(outcome.value().cache_requests, 24u);
  EXPECT_EQ(outcome.value().cache_builds, 2u);
  EXPECT_EQ(outcome.value().cache_parses, 2u);
  EXPECT_EQ(outcome.value().cache_lowerings, 1u);
  EXPECT_EQ(outcome.value().cache_compilations, 1u);

  // Re-running the whole sweep against the warm cache does zero additional
  // pipeline work: the hit path is a map lookup plus a shared_ptr copy.
  StatusOr<sweep::SweepOutcome> warm = sweep::RunSweep(TestGrid(), 8, &cache);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm.value().cache_requests, 24u);
  EXPECT_EQ(warm.value().cache_builds, 0u);
  EXPECT_EQ(warm.value().cache_parses, 0u);
  EXPECT_EQ(warm.value().cache_lowerings, 0u);
  EXPECT_EQ(warm.value().cache_compilations, 0u);
  EXPECT_EQ(cache.hits(), 24u + 24u - 2u);
}

TEST(SpecCacheTest, SameKeyReturnsSameArtifactInstance) {
  HealthApp app = BuildHealthApp();
  CompiledSpecCache cache;
  StatusOr<SharedSpecArtifactPtr> first =
      cache.Get("health", HealthAppSpec(), app.graph, SpecArtifactStage::kCompiled);
  StatusOr<SharedSpecArtifactPtr> second =
      cache.Get("health", HealthAppSpec(), app.graph, SpecArtifactStage::kCompiled);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first.value().get(), second.value().get());
  EXPECT_EQ(cache.builds(), 1u);
  EXPECT_EQ(cache.parses(), 1u);

  // A different stage is a different artifact (shallower pipeline).
  StatusOr<SharedSpecArtifactPtr> ast_only =
      cache.Get("health", HealthAppSpec(), app.graph, SpecArtifactStage::kAst);
  ASSERT_TRUE(ast_only.ok());
  EXPECT_NE(ast_only.value().get(), first.value().get());
  EXPECT_TRUE(ast_only.value()->compiled.empty());
  EXPECT_FALSE(first.value()->compiled.empty());
  EXPECT_EQ(cache.builds(), 2u);
  EXPECT_EQ(cache.compilations(), 1u);
}

TEST(SpecCacheTest, ParseFailureIsCachedAsStatus) {
  HealthApp app = BuildHealthApp();
  CompiledSpecCache cache;
  for (int i = 0; i < 3; ++i) {
    StatusOr<SharedSpecArtifactPtr> result =
        cache.Get("health", "this is not a spec {", app.graph, SpecArtifactStage::kAst);
    EXPECT_FALSE(result.ok());
  }
  EXPECT_EQ(cache.builds(), 1u);  // The failure is cached too.
  EXPECT_EQ(cache.parses(), 1u);
}

TEST(SweepEngineTest, BadSpecBecomesErrorRowsNotProcessDeath) {
  sweep::SweepSpec grid;
  grid.specs = {{"good", ""}, {"broken", "not a spec at all {"}};
  grid.charges = {Charge(1)};
  grid.budgets = {kBudget};
  grid.max_wall = 8 * kHour;
  StatusOr<sweep::SweepOutcome> outcome = sweep::RunSweep(grid, 4);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  ASSERT_EQ(outcome.value().rows.size(), 2u);
  EXPECT_TRUE(outcome.value().rows[0].ok);
  EXPECT_FALSE(outcome.value().rows[1].ok);
  EXPECT_FALSE(outcome.value().rows[1].error.empty());
  EXPECT_FALSE(outcome.value().AllOk());
  // Error rows render, with the error text carried through.
  const std::string json = sweep::RenderJson(grid, outcome.value());
  EXPECT_NE(json.find("\"status\": \"error\""), std::string::npos);
}

TEST(SweepEngineTest, AnalyzerGateFailsFastOnInfeasibleDeployment) {
  sweep::SweepSpec grid;
  grid.app = "health";
  grid.specs = {{"infeasible", "accel: {\n  maxTries: 10 onFail: skipPath;\n}\n"}};
  // 9000 uJ cannot cover accel's ~18 001 uJ atomic attempt: ART009 before
  // any point simulates, with the same status for any job count.
  grid.budgets = {9'000.0};
  grid.max_wall = 1 * kSecond;
  const StatusOr<sweep::SweepOutcome> gated = sweep::RunSweep(grid, 4);
  ASSERT_FALSE(gated.ok());
  EXPECT_NE(gated.status().ToString().find("ART009"), std::string::npos);
  EXPECT_NE(gated.status().ToString().find("sweep"), std::string::npos);
  const StatusOr<sweep::SweepOutcome> serial = sweep::RunSweep(grid, 1);
  ASSERT_FALSE(serial.ok());
  EXPECT_EQ(serial.status().ToString(), gated.status().ToString());

  // The documented escape hatch: the grid still runs (and starves).
  grid.analyze = false;
  const StatusOr<sweep::SweepOutcome> forced = sweep::RunSweep(grid, 1);
  ASSERT_TRUE(forced.ok()) << forced.status().ToString();
  ASSERT_EQ(forced.value().rows.size(), 1u);
}

TEST(SweepEngineTest, AnalyzerGateStillYieldsErrorRowsForUnparseableSpecs) {
  // The gate must not steal the error-row contract: a spec the frontend
  // rejects is a per-point diagnosis, not engine death.
  sweep::SweepSpec grid;
  grid.specs = {{"broken", "not a spec at all {"}};
  grid.charges = {Charge(1)};
  grid.budgets = {kBudget};
  const StatusOr<sweep::SweepOutcome> outcome = sweep::RunSweep(grid, 2);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  ASSERT_EQ(outcome.value().rows.size(), 1u);
  EXPECT_FALSE(outcome.value().rows[0].ok);
}

TEST(SweepEngineTest, CollectStatsDoesNotPerturbSimulation) {
  sweep::SweepSpec grid;
  grid.charges = {Charge(2)};
  grid.budgets = {kBudget};
  grid.max_wall = 8 * kHour;
  StatusOr<sweep::SweepOutcome> plain = sweep::RunSweep(grid, 1);
  grid.collect_stats = true;
  StatusOr<sweep::SweepOutcome> observed = sweep::RunSweep(grid, 1);
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(observed.ok());
  EXPECT_EQ(plain.value().rows[0].result.finished_at,
            observed.value().rows[0].result.finished_at);
  EXPECT_DOUBLE_EQ(plain.value().rows[0].result.stats.TotalEnergy(),
                   observed.value().rows[0].result.stats.TotalEnergy());
  ASSERT_TRUE(observed.value().rows[0].stats.has_value());
  EXPECT_GT(observed.value().rows[0].stats->total_events(), 0u);
  EXPECT_FALSE(plain.value().rows[0].stats.has_value());
}

TEST(SweepEngineTest, PostRunHookSeesThePointsEventsWithoutPerturbing) {
  sweep::SweepSpec grid;
  grid.systems = {"artemis", "mayfly"};
  grid.charges = {Charge(6)};
  grid.budgets = {kBudget};
  grid.max_wall = 2 * kHour;
  StatusOr<sweep::SweepOutcome> plain = sweep::RunSweep(grid, 1);
  grid.post_run = [](const sweep::SweepPoint&, const sweep::SweepRunArtifacts& artifacts,
                     sweep::SweepRow* row) {
    double boots = 0;
    for (const obs::Event& e : *artifacts.events) {
      boots += e.kind == obs::Kind::kKernelBoot ? 1 : 0;
    }
    row->metrics.emplace_back("kernel_boots", boots);
  };
  StatusOr<sweep::SweepOutcome> hooked = sweep::RunSweep(grid, 2);
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(hooked.ok());
  for (std::size_t i = 0; i < 2; ++i) {
    const sweep::SweepRow& row = hooked.value().rows[i];
    EXPECT_EQ(row.result.finished_at, plain.value().rows[i].result.finished_at);
    ASSERT_EQ(row.metrics.size(), 1u);
    // The first boot plus one per power failure.
    EXPECT_EQ(row.metrics[0].second, 1.0 + static_cast<double>(row.result.stats.reboots));
  }
}

TEST(SweepChargeScheduleTest, ParsesNamedBinsAndContinuous) {
  StatusOr<SimDuration> continuous = sweep::ParseChargeSchedule("continuous");
  ASSERT_TRUE(continuous.ok());
  EXPECT_EQ(continuous.value(), 0u);
  StatusOr<SimDuration> six = sweep::ParseChargeSchedule("6min");
  ASSERT_TRUE(six.ok());
  EXPECT_EQ(six.value(), 6 * kMinute - 1 * kSecond);
  EXPECT_FALSE(sweep::ParseChargeSchedule("yesterday").ok());
  EXPECT_FALSE(sweep::ParseChargeSchedule("500ms").ok());  // inside boot margin
}

TEST(SweepGridJsonTest, ParsesFullGridDocument) {
  const std::string text = R"({
    "app": "health",
    "systems": ["artemis", "mayfly"],
    "charges": ["continuous", "6min"],
    "budgets": [19500],
    "backends": ["builtin", "compiled"],
    "timekeepers": ["default", "rtc:0.01"],
    "seeds": [1, 7],
    "max_wall": "8h",
    "collect_stats": true,
    "analyze": false,
    "specs": [{"label": "default"}, {"label": "inline", "text": "accel: { maxTries: 3 onFail: skipPath; }"}]
  })";
  StatusOr<sweep::SweepSpec> grid = sweep::ParseGridJson(text);
  ASSERT_TRUE(grid.ok()) << grid.status().ToString();
  EXPECT_EQ(grid.value().systems.size(), 2u);
  EXPECT_EQ(grid.value().charges[0], 0u);
  EXPECT_EQ(grid.value().charges[1], 6 * kMinute - 1 * kSecond);
  EXPECT_EQ(grid.value().seeds[1], 7u);
  EXPECT_EQ(grid.value().max_wall, 8 * kHour);
  EXPECT_TRUE(grid.value().collect_stats);
  EXPECT_FALSE(grid.value().analyze);
  EXPECT_EQ(grid.value().specs[1].label, "inline");
  StatusOr<std::vector<sweep::SweepPoint>> points = sweep::ExpandGrid(grid.value());
  ASSERT_TRUE(points.ok()) << points.status().ToString();
  EXPECT_EQ(points.value().size(), 2u * 2u * 2u * 2u * 2u * 2u);
}

TEST(SweepGridJsonTest, RejectsUnknownKeysAndBadTypes) {
  EXPECT_FALSE(sweep::ParseGridJson(R"({"charge_times": ["6min"]})").ok());
  EXPECT_FALSE(sweep::ParseGridJson(R"({"systems": "artemis"})").ok());
  EXPECT_FALSE(sweep::ParseGridJson(R"({"budgets": ["lots"]})").ok());
  EXPECT_FALSE(sweep::ParseGridJson(R"({"specs": [{"text": "x"}]})").ok());
  EXPECT_FALSE(sweep::ParseGridJson("[1, 2]").ok());
  EXPECT_FALSE(sweep::ParseGridJson("{").ok());
  // File references require a loader.
  EXPECT_FALSE(sweep::ParseGridJson(R"({"specs": [{"label": "f", "file": "x.spec"}]})").ok());
  StatusOr<sweep::SweepSpec> loaded = sweep::ParseGridJson(
      R"({"specs": [{"label": "f", "file": "x.spec"}]})",
      [](const std::string&) -> StatusOr<std::string> { return std::string("accel: {}"); });
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().specs[0].text, "accel: {}");
}

TEST(SpecTextHashTest, IsStableAndCollisionResistantEnough) {
  EXPECT_EQ(SpecTextHash("abc"), SpecTextHash("abc"));
  EXPECT_NE(SpecTextHash("abc"), SpecTextHash("abd"));
  EXPECT_NE(SpecTextHash(""), SpecTextHash(" "));
}

}  // namespace
}  // namespace artemis
