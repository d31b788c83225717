// Unit tests for the MCU: clock, memory arenas, cost accounting, and the
// full outage sequence.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/flight/recorder.h"
#include "src/monitor/monitor_set.h"
#include "src/obs/bus.h"
#include "src/sim/clock.h"
#include "src/sim/mcu.h"
#include "src/sim/memory.h"
#include "src/sim/peripherals.h"

namespace artemis {
namespace {

std::unique_ptr<Mcu> FixedChargeMcu(EnergyUj budget, SimDuration charge) {
  return std::make_unique<Mcu>(std::make_unique<FixedChargePowerModel>(budget, charge),
                               DefaultCostModel());
}

// ---------------------------------------------------------------- clock --

TEST(PersistentClockTest, IdealClockTracksTrueTime) {
  PersistentClock clock;
  clock.Advance(5 * kSecond);
  EXPECT_EQ(clock.TrueNow(), 5 * kSecond);
  EXPECT_EQ(clock.Read(), 5 * kSecond);
  clock.NotifyPowerFailure();
  EXPECT_EQ(clock.Read(), 5 * kSecond);  // No drift configured.
  EXPECT_EQ(clock.outage_count(), 1u);
}

TEST(PersistentClockTest, AdvanceToNeverGoesBack) {
  PersistentClock clock;
  clock.AdvanceTo(kMinute);
  clock.AdvanceTo(kSecond);
  EXPECT_EQ(clock.TrueNow(), kMinute);
}

TEST(PersistentClockTest, DriftBoundedPerOutage) {
  PersistentClock clock;
  clock.SetMaxDriftPerOutage(100 * kMillisecond);
  clock.Advance(kHour);
  for (int i = 0; i < 50; ++i) {
    clock.NotifyPowerFailure();
  }
  const std::int64_t error = static_cast<std::int64_t>(clock.Read()) -
                             static_cast<std::int64_t>(clock.TrueNow());
  EXPECT_LE(std::abs(error), 50 * 100 * static_cast<std::int64_t>(kMillisecond));
}

// --------------------------------------------------------------- arenas --

TEST(NvmArenaTest, AccountsByOwner) {
  NvmArena arena(1024);
  EXPECT_TRUE(arena.Allocate(MemOwner::kRuntime, 100, "a").ok());
  EXPECT_TRUE(arena.Allocate(MemOwner::kMonitor, 200, "b").ok());
  EXPECT_TRUE(arena.Allocate(MemOwner::kRuntime, 50, "c").ok());
  const MemoryReport report = arena.Report();
  EXPECT_EQ(report.total, 350u);
  EXPECT_EQ(report.by_owner.at(MemOwner::kRuntime), 150u);
  EXPECT_EQ(report.by_owner.at(MemOwner::kMonitor), 200u);
}

TEST(NvmArenaTest, ReportsExhaustion) {
  NvmArena arena(128);
  EXPECT_TRUE(arena.Allocate(MemOwner::kApp, 100, "a").ok());
  const Status status = arena.Allocate(MemOwner::kApp, 100, "b");
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  // The structured error names the requesting subsystem and what was left.
  EXPECT_NE(status.message().find("'b'"), std::string::npos) << status.message();
  EXPECT_NE(status.message().find("app"), std::string::npos) << status.message();
  EXPECT_NE(status.message().find("28 of 128 remaining"), std::string::npos)
      << status.message();
  EXPECT_EQ(arena.used(), 200u);  // Still recorded for the report.
}

TEST(RamArenaTest, LosePowerRunsResetHooks) {
  RamArena arena(128);
  int value = 42;
  arena.Allocate(MemOwner::kApp, sizeof(int), "v", [&value] { value = 0; });
  value = 99;
  arena.LosePower();
  EXPECT_EQ(value, 0);
}

TEST(VolatileTest, ResetsToInitialOnPowerLoss) {
  RamArena arena(128);
  Volatile<int> counter(&arena, MemOwner::kApp, "counter", 7);
  counter.set(123);
  arena.LosePower();
  EXPECT_EQ(counter.get(), 7);
}

TEST(PersistentTest, RegistersBytes) {
  NvmArena arena(128);
  Persistent<double> value(&arena, MemOwner::kMonitor, "x", 1.5);
  EXPECT_EQ(arena.used(), sizeof(double));
  EXPECT_DOUBLE_EQ(value.get(), 1.5);
}

// ------------------------------------------------------------------ mcu --

TEST(McuTest, ExecuteAdvancesClockAndAccountsTag) {
  auto mcu = FixedChargeMcu(1e9, kSecond);
  EXPECT_EQ(mcu->Execute(kSecond, 2.0, CostTag::kApp), ExecStatus::kOk);
  EXPECT_EQ(mcu->TrueNow(), kSecond);
  EXPECT_EQ(mcu->stats().busy_time[static_cast<int>(CostTag::kApp)], kSecond);
  EXPECT_DOUBLE_EQ(mcu->stats().energy[static_cast<int>(CostTag::kApp)], 2000.0);
  EXPECT_EQ(mcu->stats().reboots, 0u);
}

TEST(McuTest, PowerFailureRunsFullOutageSequence) {
  // Budget covers 500 ms at 1 mW (500 uJ); ask for 1 s.
  auto mcu = FixedChargeMcu(500.0, 10 * kSecond);
  EXPECT_EQ(mcu->Execute(kSecond, 1.0, CostTag::kApp), ExecStatus::kPowerFailure);
  EXPECT_EQ(mcu->stats().reboots, 1u);
  // Clock includes: 500 ms run + 10 s charge + boot restore time.
  EXPECT_GT(mcu->TrueNow(), 10 * kSecond + 500 * kMillisecond);
  EXPECT_GT(mcu->stats().busy_time[static_cast<int>(CostTag::kReboot)], 0u);
  EXPECT_EQ(mcu->stats().charging_time, 10 * kSecond);
}

TEST(McuTest, RamClearedOnPowerFailure) {
  auto mcu = FixedChargeMcu(500.0, kSecond);
  Volatile<int> scratch(&mcu->ram(), MemOwner::kApp, "scratch", 0);
  scratch.set(55);
  (void)mcu->Execute(kSecond, 1.0, CostTag::kApp);
  EXPECT_EQ(scratch.get(), 0);
}

TEST(McuTest, StarvesWhenBudgetCannotBoot) {
  // Budget smaller than the boot restore cost itself.
  const CostModel& costs = DefaultCostModel();
  const EnergyUj boot_cost =
      EnergyFor(costs.mcu_active_power, costs.CyclesToTime(costs.reboot_restore_cycles));
  auto mcu = FixedChargeMcu(boot_cost / 4.0, kSecond);
  const ExecStatus status = mcu->Execute(kSecond, 5.0, CostTag::kApp);
  EXPECT_EQ(status, ExecStatus::kStarved);
  EXPECT_TRUE(mcu->starved());
  // Subsequent calls short-circuit.
  EXPECT_EQ(mcu->Execute(kSecond, 1.0, CostTag::kApp), ExecStatus::kStarved);
}

TEST(McuTest, ExecuteCyclesUsesCostModelClock) {
  auto mcu = FixedChargeMcu(1e9, kSecond);
  EXPECT_EQ(mcu->ExecuteCycles(1000, CostTag::kRuntime), ExecStatus::kOk);
  // 1000 cycles at 1 MHz = 1000 us.
  EXPECT_EQ(mcu->stats().busy_time[static_cast<int>(CostTag::kRuntime)], 1000u);
}

TEST(McuTest, ReadClockChargesTimestampCost) {
  auto mcu = FixedChargeMcu(1e9, kSecond);
  const SimTime t = mcu->ReadClock(CostTag::kRuntime);
  EXPECT_EQ(t, static_cast<SimTime>(DefaultCostModel().timestamp_read_cycles));
}

TEST(McuTest, IdleAdvancesTimeWithoutEnergy) {
  auto mcu = FixedChargeMcu(100.0, kSecond);
  mcu->Idle(kHour);
  EXPECT_EQ(mcu->TrueNow(), kHour);
  EXPECT_DOUBLE_EQ(mcu->stats().TotalEnergy(), 0.0);
}

TEST(McuTest, ResetStatsKeepsMemoryRegistration) {
  auto mcu = FixedChargeMcu(1e9, kSecond);
  mcu->nvm().Allocate(MemOwner::kMonitor, 64, "m");
  (void)mcu->Execute(kSecond, 1.0, CostTag::kApp);
  mcu->ResetStats();
  EXPECT_DOUBLE_EQ(mcu->stats().TotalEnergy(), 0.0);
  EXPECT_EQ(mcu->nvm().used(), 64u);
}

TEST(McuStatsTest, TotalsSumAcrossTags) {
  McuStats stats;
  stats.busy_time = {1, 2, 3, 4};
  stats.energy = {1.5, 2.5, 3.0, 3.0};
  EXPECT_EQ(stats.TotalBusy(), 10u);
  EXPECT_DOUBLE_EQ(stats.TotalEnergy(), 10.0);
}

TEST(CostTagTest, NamesForAllTags) {
  EXPECT_STREQ(CostTagName(CostTag::kApp), "app");
  EXPECT_STREQ(CostTagName(CostTag::kRuntime), "runtime");
  EXPECT_STREQ(CostTagName(CostTag::kMonitor), "monitor");
  EXPECT_STREQ(CostTagName(CostTag::kReboot), "reboot");
  EXPECT_STREQ(CostTagName(CostTag::kFlight), "flight");
}

// -------------------------------------------------------- fused charging --
//
// Mcu::ExecuteCyclesRepeated(c, n) is defined as n back-to-back
// ExecuteCycles(c) calls that stop at the first non-kOk status. Each case
// builds two identical devices (obs bus and flight recorder attached), runs
// the fused call on one and the loop on the other, and demands the same
// status, count, statistics bit for bit, clocks, stored charge and
// published events.

using PowerFactory = std::function<std::unique_ptr<PowerModel>()>;

// Members are declared so that the device is destroyed before what it
// points at.
struct Rig {
  explicit Rig(const PowerFactory& power)
      : recorder(256, flight::FlightLevel::kFull), mcu(power(), DefaultCostModel()) {
    bus.AddSink(&sink);
    mcu.set_observer(&bus);
    EXPECT_TRUE(mcu.AttachFlightRecorder(&recorder).ok());
  }
  obs::CollectingSink sink;
  obs::EventBus bus;
  flight::FlightRecorder recorder;
  Mcu mcu;
};

ExecStatus LoopCycles(Mcu& mcu, double cycles, std::size_t n, CostTag tag,
                      std::size_t* done) {
  *done = 0;
  for (; *done < n; ++*done) {
    const ExecStatus status = mcu.ExecuteCycles(cycles, tag);
    if (status != ExecStatus::kOk) {
      return status;
    }
  }
  return ExecStatus::kOk;
}

void ExpectSameEvents(const std::vector<obs::Event>& a, const std::vector<obs::Event>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kind, b[i].kind) << i;
    EXPECT_EQ(a[i].time, b[i].time) << i;
    EXPECT_EQ(a[i].true_time, b[i].true_time) << i;
    EXPECT_EQ(a[i].duration, b[i].duration) << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i].value), std::bit_cast<std::uint64_t>(b[i].value))
        << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i].energy_uj),
              std::bit_cast<std::uint64_t>(b[i].energy_uj))
        << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i].energy_fraction),
              std::bit_cast<std::uint64_t>(b[i].energy_fraction))
        << i;
  }
}

void ExpectSameDevice(Rig& fused, Rig& loop) {
  const McuStats& a = fused.mcu.stats();
  const McuStats& b = loop.mcu.stats();
  for (int t = 0; t < kNumCostTags; ++t) {
    EXPECT_EQ(a.busy_time[t], b.busy_time[t]) << CostTagName(static_cast<CostTag>(t));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.energy[t]), std::bit_cast<std::uint64_t>(b.energy[t]))
        << CostTagName(static_cast<CostTag>(t));
  }
  EXPECT_EQ(a.reboots, b.reboots);
  EXPECT_EQ(a.charging_time, b.charging_time);
  EXPECT_EQ(fused.mcu.TrueNow(), loop.mcu.TrueNow());
  EXPECT_EQ(fused.mcu.Now(), loop.mcu.Now());
  EXPECT_EQ(fused.mcu.starved(), loop.mcu.starved());
  EXPECT_EQ(std::bit_cast<std::uint64_t>(fused.mcu.power_model().StoredEnergyFraction()),
            std::bit_cast<std::uint64_t>(loop.mcu.power_model().StoredEnergyFraction()));
  EXPECT_EQ(fused.recorder.current_epoch(), loop.recorder.current_epoch());
  EXPECT_EQ(fused.recorder.stats().records_sealed, loop.recorder.stats().records_sealed);
  ExpectSameEvents(fused.sink.events(), loop.sink.events());
}

// Runs `prefix` single charges, then `rounds` rounds of the fused call vs
// the loop, comparing the two devices after every round. Returns the first
// round's completed count.
std::size_t CheckFusedEqualsLoop(const PowerFactory& power, double cycles, std::size_t n,
                                 std::size_t prefix, int rounds) {
  Rig fused(power);
  Rig loop(power);
  for (std::size_t i = 0; i < prefix; ++i) {
    EXPECT_EQ(fused.mcu.ExecuteCycles(cycles, CostTag::kApp),
              loop.mcu.ExecuteCycles(cycles, CostTag::kApp));
  }
  std::size_t first_done = 0;
  for (int round = 0; round < rounds; ++round) {
    std::size_t fused_done = 99;
    std::size_t loop_done = 0;
    const ExecStatus a =
        fused.mcu.ExecuteCyclesRepeated(cycles, n, CostTag::kMonitor, &fused_done);
    const ExecStatus b = LoopCycles(loop.mcu, cycles, n, CostTag::kMonitor, &loop_done);
    EXPECT_EQ(a, b) << "round " << round;
    EXPECT_EQ(fused_done, loop_done) << "round " << round;
    ExpectSameDevice(fused, loop);
    if (round == 0) {
      first_done = fused_done;
    }
  }
  return first_done;
}

TEST(McuFusedChargeTest, AlwaysOnMatchesLoop) {
  const PowerFactory power = [] { return std::make_unique<AlwaysOnPowerModel>(); };
  for (const std::size_t n : {0u, 1u, 2u, 7u, 64u}) {
    EXPECT_EQ(CheckFusedEqualsLoop(power, 18, n, 3, 4), n);
  }
  EXPECT_EQ(CheckFusedEqualsLoop(power, 46.5, 5, 0, 3), 5u);
}

TEST(McuFusedChargeTest, FixedChargeDiesAtEveryOffset) {
  const CostModel& costs = DefaultCostModel();
  const double cycles = costs.compiled_step_cycles;
  const EnergyUj step = EnergyFor(costs.mcu_active_power, costs.CyclesToTime(cycles));
  // The prefix drains most of a budget large enough to pay the reboot
  // restore and the flight boot record, so the device survives its outage.
  const std::size_t prefix = 2000;
  constexpr std::size_t kN = 8;
  for (std::size_t offset = 0; offset <= kN; ++offset) {
    for (const double slack : {0.5, 0.0}) {
      const EnergyUj budget = static_cast<double>(prefix + offset) * step + slack * step;
      const PowerFactory power = [budget] {
        return std::make_unique<FixedChargePowerModel>(budget, 30 * kSecond);
      };
      const std::size_t done = CheckFusedEqualsLoop(power, cycles, kN, prefix, 5);
      if (slack > 0.0) {
        EXPECT_EQ(done, offset) << "offset " << offset;
      }
    }
  }
  // A budget that cannot even boot: both sides starve identically.
  const PowerFactory tiny = [step] {
    return std::make_unique<FixedChargePowerModel>(3.5 * step, kSecond);
  };
  CheckFusedEqualsLoop(tiny, cycles, kN, 0, 3);
}

TEST(McuFusedChargeTest, CapacitorMatchesLoop) {
  const PowerFactory power = [] {
    return std::make_unique<CapacitorPowerModel>(CapacitorConfig{},
                                                 std::make_unique<ConstantHarvester>(0.05));
  };
  CheckFusedEqualsLoop(power, 20'000, 16, 2, 6);
}

TEST(McuFusedChargeTest, TraceMatchesLoop) {
  const PowerFactory power = [] {
    return std::make_unique<TracePowerModel>(std::vector<std::pair<SimTime, SimTime>>{
        {0, 100 * kMillisecond}, {kSecond, kSecond + 50 * kMillisecond}, {3 * kSecond, kHour}});
  };
  CheckFusedEqualsLoop(power, 9'000, 12, 1, 6);
}

TEST(McuFusedChargeTest, StochasticMatchesLoop) {
  const PowerFactory power = [] {
    return std::make_unique<StochasticPowerModel>(40 * kMillisecond, kSecond, 7);
  };
  CheckFusedEqualsLoop(power, 3'000, 20, 1, 8);
}

// A monitor that counts its steps; its per-event cost is configurable so a
// set can mix runs of equal and differing costs.
class CountingMonitor final : public Monitor {
 public:
  CountingMonitor(double cycles, int* steps) : cycles_(cycles), steps_(steps) {}
  bool Step(const MonitorEvent&, MonitorVerdict*) override {
    ++*steps_;
    return false;
  }
  void HardReset() override {}
  void OnPathRestart(PathId) override {}
  const std::string& label() const override { return label_; }
  double StepCycles(const CostModel&) const override { return cycles_; }
  std::size_t FramBytes() const override { return 8; }

 private:
  double cycles_;
  int* steps_;
  std::string label_ = "counting";
};

// A power failure injected at each monitor index: the first delivery steps
// exactly the monitors before it, the re-delivery resumes there, and every
// monitor ends up stepped exactly once. The device matches a reference
// that charges the same sequence one ExecuteCycles call at a time.
TEST(McuFusedChargeTest, MonitorSetResumesAtFailingMonitor) {
  const CostModel& costs = DefaultCostModel();
  const std::vector<double> cycles = {18, 18, 18, 46, 46, 14, 18, 18};
  const auto energy = [&costs](double c) {
    return EnergyFor(costs.mcu_active_power, costs.CyclesToTime(c));
  };
  const std::size_t prefix = 2000;
  for (std::size_t fail_at = 0; fail_at <= cycles.size(); ++fail_at) {
    EnergyUj budget = static_cast<double>(prefix) * energy(18) + energy(costs.monitor_call_cycles);
    for (std::size_t i = 0; i < fail_at; ++i) {
      budget += energy(cycles[i]);
    }
    // Half of the failing monitor's charge (or, past the end, slack).
    budget += 0.5 * energy(fail_at < cycles.size() ? cycles[fail_at] : 18);
    const PowerFactory power = [budget] {
      return std::make_unique<FixedChargePowerModel>(budget, 30 * kSecond);
    };
    Rig fused(power);
    Rig reference(power);
    std::vector<int> steps(cycles.size(), 0);
    MonitorSet set;
    for (std::size_t i = 0; i < cycles.size(); ++i) {
      set.Add(std::make_unique<CountingMonitor>(cycles[i], &steps[i]));
    }
    set.HardReset(fused.mcu);
    reference.mcu.nvm().Allocate(MemOwner::kMonitor, set.FramBytes(), "monitor-set");
    for (std::size_t i = 0; i < prefix; ++i) {
      fused.mcu.ExecuteCycles(18, CostTag::kApp);
      reference.mcu.ExecuteCycles(18, CostTag::kApp);
    }

    MonitorEvent event;
    event.seq = 1;
    const CheckOutcome first = set.OnEvent(event, fused.mcu);
    std::size_t resume = cycles.size();
    reference.mcu.ExecuteCycles(costs.monitor_call_cycles, CostTag::kMonitor);
    for (std::size_t i = 0; i < cycles.size(); ++i) {
      if (reference.mcu.ExecuteCycles(cycles[i], CostTag::kMonitor) != ExecStatus::kOk) {
        resume = i;
        break;
      }
    }
    EXPECT_EQ(resume, fail_at);
    if (fail_at == cycles.size()) {
      EXPECT_EQ(first.status, static_cast<int>(ExecStatus::kOk));
    } else {
      EXPECT_EQ(first.status, static_cast<int>(ExecStatus::kPowerFailure)) << fail_at;
      for (std::size_t i = 0; i < cycles.size(); ++i) {
        EXPECT_EQ(steps[i], i < fail_at ? 1 : 0) << "fail_at " << fail_at << " monitor " << i;
      }
      const CheckOutcome again = set.OnEvent(event, fused.mcu);
      EXPECT_EQ(again.status, static_cast<int>(ExecStatus::kOk)) << fail_at;
      reference.mcu.ExecuteCycles(costs.monitor_call_cycles, CostTag::kMonitor);
      for (std::size_t i = resume; i < cycles.size(); ++i) {
        reference.mcu.ExecuteCycles(cycles[i], CostTag::kMonitor);
      }
    }
    for (std::size_t i = 0; i < cycles.size(); ++i) {
      EXPECT_EQ(steps[i], 1) << "fail_at " << fail_at << " monitor " << i;
    }
    EXPECT_EQ(set.events_processed(), 1u);
    ExpectSameDevice(fused, reference);
  }
}

// ----------------------------------------------------------- peripherals --

TEST(PeripheralCatalogTest, ThunderboardDefaultsPresent) {
  const PeripheralCatalog catalog = PeripheralCatalog::ThunderboardDefaults();
  for (const char* op : {"temp_read", "accel_burst", "mic_capture", "ble_send", "heart_rate"}) {
    EXPECT_TRUE(catalog.Has(op)) << op;
  }
  EXPECT_FALSE(catalog.Has("laser"));
}

TEST(PeripheralCatalogTest, AccelIsTheExpensiveOne) {
  // Section 5.1: accel is the highest-consuming task.
  const PeripheralCatalog catalog = PeripheralCatalog::ThunderboardDefaults();
  const EnergyUj accel = catalog.Get("accel_burst").Energy();
  for (const char* op : {"temp_read", "mic_capture", "ble_send", "heart_rate"}) {
    EXPECT_GT(accel, catalog.Get(op).Energy()) << op;
  }
}

TEST(PeripheralCatalogTest, RegisterOverrides) {
  PeripheralCatalog catalog;
  catalog.Register({.name = "x", .duration = kSecond, .power = 1.0});
  catalog.Register({.name = "x", .duration = 2 * kSecond, .power = 1.0});
  EXPECT_EQ(catalog.Get("x").duration, 2 * kSecond);
}

}  // namespace
}  // namespace artemis
