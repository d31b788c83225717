// Allocation guard for the verdict-faithful scalar twin. Every task
// boundary consults every monitor, re-executed boundaries included, so the
// per-event path must not allocate: verdicts borrow their labels, task
// bodies stage into buffers the kernel reuses, and dead columns skip the
// VM. This binary replaces the global operator new with a counter and runs
// one scalar health twin (1 min charges, 19,500 uJ) for 1 h and for 4 h.
// The longer run has about four times the events, reboots and violations,
// yet may allocate only a small constant more: ChannelStore's sample
// vectors grow geometrically, so their reallocations are logarithmic in
// run length. Anything that allocates per event or per violation fails.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "src/fleet/fleet.h"
#include "src/fleet/instance.h"
#include "src/monitor/shared_spec.h"
#include "src/sweep/sweep.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace artemis::fleet {
namespace {

struct TwinRun {
  std::uint64_t allocations = 0;
  DeviceResult result;
};

TwinRun RunHealthTwin(const FleetContext& ctx, SimDuration horizon) {
  FleetSpec spec;
  spec.monitor = "scalar";
  spec.iterations = 0;
  spec.horizon = horizon;
  spec.charges = {sweep::ParseChargeSchedule("1min").value()};
  spec.budgets = {19'500.0};
  DeviceInstance instance(ctx, ConfigForDevice(spec, 0));
  TwinRun run;
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  run.result = instance.RunScalar();
  run.allocations = g_allocations.load(std::memory_order_relaxed) - before;
  return run;
}

TEST(AllocGuardTest, ScalarTwinAllocationsDoNotGrowWithEvents) {
  const AppGraph& graph = sweep::SharedAppGraph("health");
  StatusOr<SharedSpecArtifactPtr> artifact = BuildSpecArtifact(
      sweep::DefaultSpecForApp("health").value(), graph, SpecArtifactStage::kCompiled);
  ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();
  FleetContext ctx;
  ctx.artifact = artifact.value();

  const TwinRun short_run = RunHealthTwin(ctx, kHour);
  const TwinRun long_run = RunHealthTwin(ctx, 4 * kHour);
  ASSERT_TRUE(short_run.result.ok) << short_run.result.error;
  ASSERT_TRUE(long_run.result.ok) << long_run.result.error;

  // The guard only means something if the longer run did much more of
  // the work that used to allocate: events, reboots and violations.
  EXPECT_GT(short_run.result.violations, 0u);
  EXPECT_GT(short_run.result.reboots, 0u);
  EXPECT_GE(long_run.result.monitor_events, 3 * short_run.result.monitor_events);
  EXPECT_GE(long_run.result.violations, 3 * short_run.result.violations);

  const std::uint64_t growth = long_run.allocations - short_run.allocations;
  EXPECT_LE(growth, 32u) << "1 h twin: " << short_run.allocations << " allocations, "
                         << short_run.result.monitor_events << " events, "
                         << short_run.result.violations << " violations; 4 h twin: "
                         << long_run.allocations << " allocations, "
                         << long_run.result.monitor_events << " events, "
                         << long_run.result.violations << " violations";
}

}  // namespace
}  // namespace artemis::fleet
