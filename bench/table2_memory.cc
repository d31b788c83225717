// Table 2: memory requirements in bytes — code size (.text proxy), RAM, and
// FRAM for the Mayfly runtime, the ARTEMIS runtime, and the generated
// ARTEMIS monitors of the health benchmark.
//
// Expected shape (paper): ARTEMIS runtime needs *less* FRAM than Mayfly's
// (the fused Mayfly runtime keeps the property state inside its own FRAM
// region), both need almost no RAM, and the application-specific monitors
// add their own (larger) text + FRAM block.
//
// .text caveat: no MSP430 compiler exists here, so code size uses the
// documented per-construct proxy model (sim/cost_model.h); the relative
// ordering is the reproduced result.
#include <cstdio>

#include "bench/bench_common.h"
#include "src/core/builder.h"
#include "src/ir/codegen_c.h"
#include "src/ir/lowering.h"
#include "src/spec/parser.h"
#include "src/spec/validator.h"

using namespace artemis;
using namespace artemis::bench;

int main() {
  std::printf("=== Table 2: memory requirements (bytes) ===\n\n");

  HealthApp app = BuildHealthApp();
  auto parsed = SpecParser::Parse(HealthAppSpec());
  if (!parsed.ok()) {
    std::fprintf(stderr, "parse: %s\n", parsed.status().ToString().c_str());
    return 1;
  }

  // --- Mayfly: run it so its fused state registers in the arena. ---------
  auto mayfly_mcu = PlatformBuilder().WithContinuousPower().Build();
  auto mayfly = MayflyRuntime::Create(&app.graph, parsed.value(), mayfly_mcu.get(), {});
  mayfly.value()->Run();
  const MemoryReport mayfly_nvm = mayfly_mcu->nvm().Report();
  const MemoryReport mayfly_ram = mayfly_mcu->ram().Report();

  // --- ARTEMIS: run, then split runtime vs monitor ownership. ------------
  HealthApp app2 = BuildHealthApp();
  auto artemis_mcu = PlatformBuilder().WithContinuousPower().Build();
  auto artemis = ArtemisRuntime::Create(&app2.graph, HealthAppSpec(), artemis_mcu.get(), {});
  artemis.value()->Run();
  const MemoryReport artemis_nvm = artemis_mcu->nvm().Report();
  const MemoryReport artemis_ram = artemis_mcu->ram().Report();

  // Monitor .text proxy from the machines the code generator would emit.
  auto machines = LowerSpec(parsed.value(), app.graph, {});
  const std::size_t monitor_text = CCodeGenerator::EstimateTextBytes(machines.value());

  auto owner_bytes = [](const MemoryReport& report, MemOwner owner) {
    const auto it = report.by_owner.find(owner);
    return it != report.by_owner.end() ? it->second : 0u;
  };

  std::vector<MemoryRow> rows;
  rows.push_back(MemoryRow{.component = "Mayfly runtime",
                           .text = MayflyRuntime::RuntimeTextBytes(),
                           .ram = owner_bytes(mayfly_ram, MemOwner::kRuntime),
                           .fram = owner_bytes(mayfly_nvm, MemOwner::kRuntime)});
  rows.push_back(MemoryRow{.component = "ARTEMIS runtime",
                           .text = ArtemisRuntime::RuntimeTextBytes(),
                           .ram = owner_bytes(artemis_ram, MemOwner::kRuntime),
                           .fram = owner_bytes(artemis_nvm, MemOwner::kRuntime)});
  rows.push_back(MemoryRow{.component = "ARTEMIS monitor",
                           .text = monitor_text,
                           .ram = owner_bytes(artemis_ram, MemOwner::kMonitor),
                           .fram = owner_bytes(artemis_nvm, MemOwner::kMonitor)});
  std::printf("%s", FormatMemoryTable(rows).c_str());

  const bool shape_ok =
      owner_bytes(artemis_nvm, MemOwner::kRuntime) < owner_bytes(mayfly_nvm, MemOwner::kRuntime) &&
      monitor_text > ArtemisRuntime::RuntimeTextBytes();
  std::printf("\npaper shape: ARTEMIS runtime FRAM < Mayfly runtime FRAM (separation of\n"
              "monitoring state), monitor adds the largest text block  -> %s\n",
              shape_ok ? "reproduced" : "NOT reproduced");
  return shape_ok ? 0 : 1;
}
