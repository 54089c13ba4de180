// Shared helpers for simulator tests: program loading, 32-bit immediate
// materialization, one-call ISS / pipeline runs, and one-shot kernel
// compile + run.
#ifndef ZOLCSIM_TESTS_SIM_TEST_UTIL_HPP
#define ZOLCSIM_TESTS_SIM_TEST_UTIL_HPP

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "cpu/iss.hpp"
#include "cpu/pipeline.hpp"
#include "flow/compiled_unit.hpp"
#include "flow/run.hpp"
#include "isa/build.hpp"
#include "isa/encoding.hpp"
#include "mem/memory.hpp"

namespace zolcsim::test {

inline void load_program(mem::Memory& memory, std::uint32_t addr,
                         std::span<const isa::Instruction> program) {
  std::vector<std::uint32_t> words;
  words.reserve(program.size());
  for (const isa::Instruction& instr : program) {
    words.push_back(isa::encode(instr));
  }
  memory.load_words(addr, words);
}

/// Appends instructions materializing `value` into `reg` (1 or 2 ops).
inline void emit_li(std::vector<isa::Instruction>& out, std::uint8_t reg,
                    std::uint32_t value) {
  namespace b = isa::build;
  const auto sv = static_cast<std::int32_t>(value);
  if (sv >= -32768 && sv <= 32767) {
    out.push_back(b::addi(reg, 0, sv));
  } else if ((value & 0xFFFFu) == 0) {
    out.push_back(b::lui(reg, static_cast<std::int32_t>(value >> 16)));
  } else {
    out.push_back(b::lui(reg, static_cast<std::int32_t>(value >> 16)));
    out.push_back(b::ori(reg, reg, static_cast<std::int32_t>(value & 0xFFFFu)));
  }
}

struct RunResult {
  cpu::PipelineStats pipe_stats;
  cpu::RegFile regs;
};

/// Runs `program` (already terminated by halt) on a fresh pipeline.
inline RunResult run_pipeline(std::span<const isa::Instruction> program,
                              cpu::PipelineConfig config = {},
                              zolc::ZolcController* accel = nullptr,
                              std::uint32_t base = 0x1000,
                              std::uint64_t max_cycles = 2'000'000) {
  mem::Memory memory;
  load_program(memory, base, program);
  cpu::Pipeline pipe(memory, config);
  pipe.set_accelerator(accel);
  pipe.set_pc(base);
  pipe.run(max_cycles);
  return RunResult{pipe.stats(), pipe.regs()};
}

struct IssResult {
  cpu::IssStats stats;
  cpu::RegFile regs;
};

inline IssResult run_iss(std::span<const isa::Instruction> program,
                         zolc::ZolcController* accel = nullptr,
                         std::uint32_t base = 0x1000,
                         std::uint64_t max_steps = 2'000'000) {
  mem::Memory memory;
  load_program(memory, base, program);
  cpu::Iss iss(memory);
  iss.set_accelerator(accel);
  iss.set_pc(base);
  iss.run(max_steps);
  return IssResult{iss.stats(), iss.regs()};
}

/// Compiles `kernel` for `machine` (with `env` and `geometry`) and runs the
/// unit once under `plan`: flow::CompiledUnit::compile + flow::run for tests
/// that never reuse the unit.
inline Result<harness::ExperimentResult> compile_and_run(
    const kernels::Kernel& kernel, codegen::MachineKind machine,
    const flow::RunPlan& plan = {}, const kernels::KernelEnv& env = {},
    const zolc::ZolcGeometry& geometry = {}) {
  flow::CompileSpec spec;
  spec.kernel = std::string(kernel.name());
  spec.machine = machine;
  spec.geometry = geometry;
  spec.env = env;
  auto unit = flow::CompiledUnit::compile(kernel, spec);
  if (!unit.ok()) return std::move(unit).error();
  return flow::run(unit.value(), plan);
}

}  // namespace zolcsim::test

#endif  // ZOLCSIM_TESTS_SIM_TEST_UTIL_HPP
