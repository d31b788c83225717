// Byte goldens for the fleet and sweep engines' exports (fleet JSON; sweep
// JSON, CSV and console table).
//
// The engines' determinism tests compare runs of the *current* code with
// each other (shards vs shards, jobs vs jobs). These goldens pin the bytes
// themselves, so a host-side optimisation of the simulation (fused monitor
// charging, a shared app graph, buffer reuse) is held to "same simulated
// answer, byte for byte" across the change. The configurations cover both
// fleet monitor modes, reboots under mixed charges and budgets, all three
// apps, both systems, all three backends and a non-default timekeeper.
//
// Regenerate after an intended change of simulated behaviour with
//   UPDATE_GOLDEN=1 ./engine_golden_test
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "src/fleet/fleet.h"
#include "src/sweep/sweep.h"

namespace artemis {
namespace {

#ifndef ARTEMIS_SOURCE_DIR
#define ARTEMIS_SOURCE_DIR "."
#endif

SimDuration Schedule(const std::string& text) {
  StatusOr<SimDuration> charge = sweep::ParseChargeSchedule(text);
  EXPECT_TRUE(charge.ok()) << text;
  return charge.ok() ? charge.value() : 0;
}

// Compares `actual` with tests/golden/<relative>, or rewrites the golden
// when UPDATE_GOLDEN is set.
void ExpectGolden(const std::string& relative, const std::string& actual) {
  const std::string path = std::string(ARTEMIS_SOURCE_DIR) + "/tests/golden/" + relative;
  if (std::getenv("UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "cannot read " << path << " (regenerate with UPDATE_GOLDEN=1)";
  std::ostringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(golden.str(), actual) << relative << " (regenerate with UPDATE_GOLDEN=1)";
}

std::string FleetJson(const fleet::FleetSpec& spec) {
  StatusOr<fleet::FleetOutcome> outcome = fleet::RunFleet(spec);
  EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
  return outcome.ok() ? fleet::RenderFleetJson(spec, outcome.value()) : "";
}

std::string SweepJson(const sweep::SweepSpec& spec) {
  StatusOr<sweep::SweepOutcome> outcome = sweep::RunSweep(spec, /*jobs=*/2);
  EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
  return outcome.ok() ? sweep::RenderJson(spec, outcome.value()) : "";
}

// Runs `spec` once and checks its JSON, CSV and table renderings against
// tests/golden/sweep/<name>.{json,csv,txt}.
void ExpectSweepGoldens(const std::string& name, const sweep::SweepSpec& spec) {
  StatusOr<sweep::SweepOutcome> outcome = sweep::RunSweep(spec, /*jobs=*/2);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  ExpectGolden("sweep/" + name + ".json", sweep::RenderJson(spec, outcome.value()));
  ExpectGolden("sweep/" + name + ".csv", sweep::RenderCsv(outcome.value()));
  ExpectGolden("sweep/" + name + ".txt", sweep::RenderTable(outcome.value()));
}

fleet::FleetSpec ScalarFleet(const std::string& app) {
  fleet::FleetSpec spec;
  spec.app = app;
  spec.monitor = "scalar";
  spec.devices = 12;
  spec.shards = 2;
  spec.seed = 5;
  spec.charges = {0, Schedule("1min"), Schedule("6min")};
  spec.iterations = 1;
  return spec;
}

// ------------------------------------------------------------- fleet -----

// In-loop monitors under outage: horizon mode, so every device reboots
// many times and power fails inside monitor charges; the obs fold pins the
// sim.power-fail / sim.boot counts as well.
TEST(EngineGoldenTest, FleetHealthScalarOutage) {
  fleet::FleetSpec spec;
  spec.app = "health";
  spec.monitor = "scalar";
  spec.devices = 36;
  spec.shards = 3;
  spec.seed = 9;
  spec.charges = {Schedule("1min"), Schedule("6min")};
  spec.budgets = {19'500.0, 12'000.0, 6'000.0};
  spec.iterations = 0;
  spec.horizon = 2 * kHour;
  spec.collect_obs = true;
  ExpectGolden("fleet/health_scalar_outage.json", FleetJson(spec));
}

TEST(EngineGoldenTest, FleetHealthBatch) {
  fleet::FleetSpec spec;
  spec.app = "health";
  spec.monitor = "batch";
  spec.devices = 40;
  spec.shards = 2;
  spec.seed = 3;
  spec.charges = {0, Schedule("6min")};
  spec.iterations = 1;
  spec.tile = 7;
  spec.collect_traffic = true;
  ExpectGolden("fleet/health_batch.json", FleetJson(spec));
}

TEST(EngineGoldenTest, FleetGreenhouseScalar) {
  ExpectGolden("fleet/greenhouse_scalar.json", FleetJson(ScalarFleet("greenhouse")));
}

TEST(EngineGoldenTest, FleetArScalar) {
  ExpectGolden("fleet/ar_scalar.json", FleetJson(ScalarFleet("ar")));
}

// ------------------------------------------------------------- sweep -----

// artemis + mayfly x every backend x continuous/1min/6min x default/rtc.
TEST(EngineGoldenTest, SweepHealthGrid) {
  sweep::SweepSpec spec;
  spec.app = "health";
  spec.systems = {"artemis", "mayfly"};
  spec.backends = {"builtin", "interpreted", "compiled"};
  spec.charges = {0, Schedule("1min"), Schedule("6min")};
  spec.timekeepers = {"default", "rtc:0.05"};
  ExpectSweepGoldens("health_grid", spec);
}

// The flight recorder and the stats bus attached: power failures inside
// flight appends and monitor charges, with every obs kind folded.
TEST(EngineGoldenTest, SweepHealthFlightStats) {
  sweep::SweepSpec spec;
  spec.app = "health";
  spec.backends = {"builtin", "compiled"};
  spec.charges = {Schedule("1min"), Schedule("6min")};
  spec.budgets = {19'500.0, 8'000.0};
  spec.flight = "full";
  spec.flight_bytes = 512;
  spec.collect_stats = true;
  ExpectGolden("sweep/health_flight_stats.json", SweepJson(spec));
}

// The hot-swap axis is the only producer of the per-row "metrics" object.
// The first spec's label needs JSON escaping and CSV quoting; the second
// spec does not parse, so its points are error rows with error text.
TEST(EngineGoldenTest, SweepHealthHotSwap) {
  StatusOr<std::string> health = sweep::DefaultSpecForApp("health");
  ASSERT_TRUE(health.ok());
  sweep::SweepSpec spec;
  spec.app = "health";
  spec.specs = {{"v1, \"quoted\"\tlabel", health.value()}, {"broken", "accel: {"}};
  spec.backends = {"compiled"};
  spec.charges = {0, Schedule("1min"), Schedule("6min")};
  spec.budgets = {19'500.0, 8'000.0};
  spec.spec2 = {"v2", health.value() + "\n// v2\n"};
  spec.swap_at = 2 * kMinute;
  ExpectSweepGoldens("health_hotswap", spec);
}

}  // namespace
}  // namespace artemis
