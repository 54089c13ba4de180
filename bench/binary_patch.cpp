// E7 (extension) -- post-link acceleration with zolcscan: take the compiled
// XRdefault binary of each benchmark, find the hottest safe counted loop,
// patch its overhead instructions to nops, program a uZOLC with the
// recovered plan, and measure the speedup. No recompilation involved --
// the deployment story for fielding a ZOLC under existing binaries.
#include <cstdio>
#include <string>

#include "cfg/zolcscan.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "cpu/pipeline.hpp"
#include "flow/compiled_unit.hpp"
#include "flow/workload.hpp"
#include "isa/encoding.hpp"
#include "kernels/kernels.hpp"

int main() {
  using namespace zolcsim;
  constexpr std::uint32_t kBase = 0x1000;

  std::printf("E7: binary patching with zolcscan (uZOLC, no recompilation)\n\n");

  TextTable table({"benchmark", "candidates", "chosen depth", "baseline",
                   "patched+uZOLC", "reduction", "verified"});
  for (const auto& kernel : kernels::kernel_registry()) {
    const kernels::KernelEnv env;
    // The compile-stage artifact already carries the zolcscan analysis
    // (geometry-derived init window, a superset of the old fixed-8 scan;
    // identical plans for this suite -- verified against the seed output).
    flow::CompileSpec spec;
    spec.kernel = std::string(kernel->name());
    spec.machine = codegen::MachineKind::kXrDefault;
    spec.env = env;
    const auto unit = flow::CompiledUnit::compile(spec);
    if (!unit.ok()) continue;
    const codegen::Program& prog = unit.value().program();

    const cfg::ScanReport& report = unit.value().scan();
    const cfg::MicroPlan* plan = report.best();

    flow::Workload baseline_load = flow::Workload::prepare(unit.value());
    cpu::Pipeline baseline(baseline_load.memory());
    baseline.set_pc(kBase);
    baseline.run(200'000'000);

    if (plan == nullptr) {
      table.add_row({std::string(kernel->name()), "0", "-",
                     std::to_string(baseline.stats().cycles), "-", "-",
                     "(no safe loop)"});
      continue;
    }

    const auto patched = cfg::apply_patch(prog.code, *plan);
    mem::Memory fast_mem;
    std::vector<std::uint32_t> words;
    for (const auto& instr : patched) words.push_back(isa::encode(instr));
    fast_mem.load_words(kBase, words);
    kernel->setup(env, fast_mem);
    zolc::ZolcController micro(zolc::ZolcVariant::kMicro);
    cfg::program_micro_controller(micro, *plan);
    cpu::Pipeline fast(fast_mem);
    fast.set_accelerator(&micro);
    fast.set_pc(kBase);
    fast.run(200'000'000);

    const bool ok = kernel->verify(env, fast_mem).ok();
    const double red = 100.0 * (1.0 - static_cast<double>(fast.stats().cycles) /
                                          static_cast<double>(
                                              baseline.stats().cycles));
    table.add_row({std::string(kernel->name()),
                   std::to_string(report.candidates.size()),
                   std::to_string(plan->depth),
                   std::to_string(baseline.stats().cycles),
                   std::to_string(fast.stats().cycles),
                   format_fixed(red, 1) + "%", ok ? "yes" : "NO (!)"});
    if (!ok) {
      std::fprintf(stderr, "VERIFICATION FAILED for %s\n",
                   std::string(kernel->name()).c_str());
      return 1;
    }
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "zolcscan recovers nearly the full uZOLC benefit of the recompiling\n"
      "flow (compare scenarios/ablation_variants.json) from unmodified\n"
      "binaries; loops it cannot prove safe (multi-exit, live-out index,\n"
      "branches into the patched tail) are skipped with a reason.\n");
  return 0;
}
