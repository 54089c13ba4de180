// Fast-path equivalence suite: the loop-summary tier (Iss::set_fast_path)
// must be architecturally invisible. Part one co-simulates every kernel in
// both registries under baseline and fast ISS and demands identical
// register files, memory images, instruction counts, ZOLC statistics, and
// controller snapshots. Part two drives each typed BailoutReason with a
// hand-built ZOLC program (or the validation seam) and checks that the
// decline is counted AND that the architectural state still matches the
// baseline exactly. A hand-built uZOLC program pins the re-arming region on
// the shared replay engine, and part three pins the per-run statistics
// reset.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "cpu/iss.hpp"
#include "flow/compiled_unit.hpp"
#include "flow/scheduler.hpp"
#include "flow/workload.hpp"
#include "kernels/kernels.hpp"
#include "sim_test_util.hpp"
#include "zolc/controller.hpp"

namespace zolcsim {
namespace {

namespace b = isa::build;
using codegen::MachineKind;
using cpu::BailoutReason;
using cpu::FastPathStats;
using isa::Instruction;
using isa::Opcode;
using zolc::LoopCond;
using zolc::LoopEntry;
using zolc::TaskEntry;
using zolc::ZolcController;
using zolc::ZolcVariant;

// ---------------- part one: whole-kernel co-simulation ----------------

/// One ISS run of a compiled unit, keeping everything the equivalence
/// check needs to look at (the workload owns the final memory image).
struct TierRun {
  flow::Workload workload;
  cpu::IssStats stats;
  FastPathStats fastpath;
  cpu::RegFile regs;
  zolc::ZolcStats zolc_stats;
  cpu::AccelSnapshot snapshot;
};

TierRun run_tier(const flow::CompiledUnit& unit, bool fast) {
  TierRun out{flow::Workload::prepare(unit), {}, {}, {}, {}, {}};
  std::unique_ptr<ZolcController> controller;
  if (const auto variant = codegen::machine_zolc_variant(unit.machine())) {
    controller = std::make_unique<ZolcController>(*variant, unit.geometry());
  }
  cpu::Iss iss(out.workload.memory());
  iss.set_accelerator(controller.get());
  iss.set_code_image(unit.image());
  iss.set_fast_path(fast);
  iss.set_pc(unit.program().base);
  iss.run(50'000'000);
  EXPECT_TRUE(iss.halted());
  out.stats = iss.stats();
  out.fastpath = iss.fastpath_stats();
  out.regs = iss.regs();
  if (controller) {
    out.zolc_stats = controller->zolc_stats();
    out.snapshot = controller->snapshot();
  }
  return out;
}

/// Runs `kernel` x `machine` under both tiers and checks every piece of
/// architectural state. Returns the fast tier's counters so the caller can
/// assert the suite actually replayed something.
FastPathStats cosim(const kernels::Kernel& kernel, MachineKind machine,
                    zolc::ZolcGeometry geometry = {}) {
  flow::CompileSpec spec;
  spec.kernel = std::string(kernel.name());
  spec.machine = machine;
  spec.geometry = geometry;
  const auto unit = flow::CompiledUnit::compile(kernel, spec);
  EXPECT_TRUE(unit.ok()) << unit.error().to_string();
  if (!unit.ok()) return {};

  const TierRun base = run_tier(unit.value(), /*fast=*/false);
  const TierRun fast = run_tier(unit.value(), /*fast=*/true);
  const std::string label = std::string(kernel.name()) + " on " +
                            std::string(codegen::machine_name(machine));

  EXPECT_TRUE(fast.regs == base.regs) << label << ": register file diverged";
  EXPECT_TRUE(fast.workload.memory() == base.workload.memory())
      << label << ": memory image diverged";
  EXPECT_EQ(fast.stats.instructions, base.stats.instructions) << label;
  EXPECT_EQ(fast.stats.taken_control, base.stats.taken_control) << label;
  EXPECT_EQ(fast.stats.zolc_fetch_events, base.stats.zolc_fetch_events)
      << label;
  EXPECT_EQ(fast.stats.zolc_resolution_events,
            base.stats.zolc_resolution_events)
      << label;
  EXPECT_TRUE(fast.zolc_stats == base.zolc_stats)
      << label << ": ZOLC statistics diverged";
  EXPECT_TRUE(fast.snapshot == base.snapshot)
      << label << ": controller snapshot diverged";
  // The baseline tier must never touch the summarizer.
  EXPECT_TRUE(base.fastpath == FastPathStats{}) << label;

  const auto base_ok = base.workload.verify();
  const auto fast_ok = fast.workload.verify();
  EXPECT_TRUE(base_ok.ok()) << label << ": " << base_ok.error().to_string();
  EXPECT_TRUE(fast_ok.ok()) << label << ": " << fast_ok.error().to_string();
  return fast.fastpath;
}

TEST(FastPathCosim, PaperSuiteMatchesBaselineOnEveryMachine) {
  std::uint64_t replayed = 0;
  std::uint64_t micro_replayed = 0;
  for (const auto& kernel : kernels::kernel_registry()) {
    for (const MachineKind machine :
         {MachineKind::kUZolc, MachineKind::kZolcLite, MachineKind::kZolcFull}) {
      const FastPathStats fast = cosim(*kernel, machine);
      replayed += fast.replayed_instructions;
      if (machine == MachineKind::kUZolc) {
        micro_replayed += fast.replayed_instructions;
      }
    }
  }
  // The tier must have actually engaged somewhere, or this test proves
  // nothing about replay -- uZOLC included, which replays through the same
  // exported NestProgram as the task-table variants.
  EXPECT_GT(replayed, 0u);
  EXPECT_GT(micro_replayed, 0u);
}

TEST(FastPathCosim, DeclinedRegionCountsEveryRetry) {
  // On uZOLC each of these kernels' one region is declined, and every fetch
  // redirect offers it again. Each offer counts one attempt and one bailout
  // (the CLI and the BENCH artifact print both), and the tier stays
  // invisible. vecmax's region is one the cache rejected, so its retries
  // return before copying the controller state.
  struct Pin {
    const char* kernel;
    std::uint64_t attempts;
    BailoutReason reason;
  };
  for (const Pin pin : {Pin{"conv2d", 600, BailoutReason::kShortLoop},
                        Pin{"vecmax", 63, BailoutReason::kControlFlow},
                        Pin{"fft", 28, BailoutReason::kNonAffineUpdate}}) {
    const kernels::Kernel* kernel = kernels::find_kernel(pin.kernel);
    ASSERT_NE(kernel, nullptr) << pin.kernel;
    const FastPathStats fast = cosim(*kernel, MachineKind::kUZolc);
    EXPECT_EQ(fast.attempts, pin.attempts) << pin.kernel;
    EXPECT_EQ(fast.engagements, 0u) << pin.kernel;
    EXPECT_EQ(fast.replayed_instructions, 0u) << pin.kernel;
    EXPECT_EQ(fast.bailout(pin.reason), pin.attempts) << pin.kernel;
    EXPECT_EQ(fast.total_bailouts(), pin.attempts) << pin.kernel;
  }
}

TEST(FastPathCosim, ExtendedSuiteMatchesBaselineOnDeepGeometries) {
  std::uint64_t replayed = 0;
  std::uint64_t engagements = 0;
  for (const auto& kernel : kernels::extended_kernel_registry()) {
    const FastPathStats lite =
        cosim(*kernel, MachineKind::kZolcLite, {32, 16, 0, 0, 16});
    const FastPathStats full =
        cosim(*kernel, MachineKind::kZolcFull, {32, 16, 4, 4, 16});
    replayed += lite.replayed_instructions + full.replayed_instructions;
    engagements += lite.engagements + full.engagements;
  }
  // Deep nests are the fast path's home turf: it must engage and carry the
  // bulk of the execution, not just match while declining.
  EXPECT_GT(engagements, 0u);
  EXPECT_GT(replayed, 10'000u);
}

// ---------------- part two: typed bailout reasons ----------------

constexpr std::uint32_t kBase = 0x1000;
constexpr std::uint8_t kScratch = 8;  // register for table payloads
constexpr std::uint8_t kBaseReg = 9;  // register holding the base address

/// Fixed-length (2-instruction) load-immediate so program layouts stay
/// deterministic while we compute table offsets.
void li32(std::vector<Instruction>& out, std::uint8_t reg,
          std::uint32_t value) {
  out.push_back(b::lui(reg, static_cast<std::int32_t>(value >> 16)));
  out.push_back(b::ori(reg, reg, static_cast<std::int32_t>(value & 0xFFFFu)));
}

void emit_table_write(std::vector<Instruction>& out, Opcode op,
                      std::uint8_t idx, std::uint32_t payload) {
  li32(out, kScratch, payload);
  out.push_back(b::zolc_write(op, idx, kScratch));
}

void emit_loop(std::vector<Instruction>& out, std::uint8_t id,
               std::int16_t initial, std::int16_t final, std::int8_t step,
               std::uint8_t index_rf, LoopCond cond = LoopCond::kLt) {
  LoopEntry e;
  e.initial = initial;
  e.final = final;
  e.step = step;
  e.index_rf = index_rf;
  e.cond = cond;
  e.valid = true;
  emit_table_write(out, Opcode::kZolwLp0, id, e.pack_word0());
  emit_table_write(out, Opcode::kZolwLp1, id, e.pack_word1());
}

void emit_task(std::vector<Instruction>& out, std::uint8_t id,
               std::uint16_t start_ofs, std::uint16_t end_ofs,
               std::uint8_t loop_id, std::uint8_t cont, std::uint8_t done,
               bool is_last) {
  TaskEntry e;
  e.end_pc_ofs = end_ofs;
  e.loop_id = loop_id;
  e.next_task_cont = cont;
  e.next_task_done = done;
  e.is_last = is_last;
  e.valid = true;
  emit_table_write(out, Opcode::kZolwTe, id, e.pack());
  emit_table_write(out, Opcode::kZolwTs, id, start_ofs);
}

void emit_activate(std::vector<Instruction>& out, std::uint8_t start_task) {
  li32(out, kBaseReg, kBase);
  out.push_back(b::zolon(start_task, kBaseReg));
}

struct BailoutRun {
  cpu::IssStats stats;
  cpu::RegFile regs;
  FastPathStats fastpath;
  zolc::ZolcStats zolc_stats;
  bool controller_active = false;
};

BailoutRun run_iss_tier(const std::vector<Instruction>& prog,
                        ZolcVariant variant, bool fast,
                        std::uint64_t min_backedges = 2,
                        const std::vector<std::uint32_t>& data = {},
                        std::uint32_t data_base = 0x4000) {
  mem::Memory memory;
  test::load_program(memory, kBase, prog);
  if (!data.empty()) memory.load_words(data_base, data);
  ZolcController controller(variant);
  cpu::Iss iss(memory);
  iss.set_accelerator(&controller);
  iss.set_fast_path(fast);
  iss.summarizer().set_min_backedges(min_backedges);
  iss.set_pc(kBase);
  iss.run(2'000'000);
  EXPECT_TRUE(iss.halted());
  return BailoutRun{iss.stats(), iss.regs(), iss.fastpath_stats(),
                    controller.zolc_stats(), controller.active()};
}

/// The fast tier preempted every `quantum` instructions: the controller's
/// full context is saved, the controller clobbered with reset(), and the
/// context restored (alternating the JSON codec round-trip) before the next
/// slice -- flow::preempt_cycle, DESIGN.md section 9.
BailoutRun run_fast_tier_preempted(const std::vector<Instruction>& prog,
                                   ZolcVariant variant,
                                   std::uint64_t min_backedges,
                                   std::uint64_t quantum,
                                   const std::vector<std::uint32_t>& data = {},
                                   std::uint32_t data_base = 0x4000) {
  mem::Memory memory;
  test::load_program(memory, kBase, prog);
  if (!data.empty()) memory.load_words(data_base, data);
  ZolcController controller(variant);
  cpu::Iss iss(memory);
  iss.set_accelerator(&controller);
  iss.set_fast_path(true);
  iss.summarizer().set_min_backedges(min_backedges);
  iss.set_pc(kBase);
  bool serialize = false;
  while (!iss.halted()) {
    iss.run_slice(quantum);
    if (iss.halted()) break;
    flow::preempt_cycle(controller, serialize);
    serialize = !serialize;
  }
  return BailoutRun{iss.stats(), iss.regs(), iss.fastpath_stats(),
                    controller.zolc_stats(), controller.active()};
}

/// Runs `prog` under both tiers, requires architectural equality, and
/// returns the fast tier's run for bailout-counter assertions. A third run
/// preempts the fast tier mid-replay (save/clobber/restore every 13
/// instructions) and demands the typed bailout still fires while counters
/// and architectural state stay identical to the baseline.
BailoutRun expect_bailout_cosim(const std::vector<Instruction>& prog,
                                ZolcVariant variant, BailoutReason reason,
                                std::uint64_t min_backedges = 2,
                                const std::vector<std::uint32_t>& data = {}) {
  const BailoutRun base =
      run_iss_tier(prog, variant, /*fast=*/false, min_backedges, data);
  const BailoutRun fast =
      run_iss_tier(prog, variant, /*fast=*/true, min_backedges, data);
  EXPECT_TRUE(fast.regs == base.regs)
      << "bailout " << cpu::bailout_reason_name(reason)
      << " is not architecturally invisible";
  EXPECT_EQ(fast.stats.instructions, base.stats.instructions);
  EXPECT_EQ(fast.stats.zolc_fetch_events, base.stats.zolc_fetch_events);
  EXPECT_TRUE(fast.zolc_stats == base.zolc_stats);
  EXPECT_EQ(fast.controller_active, base.controller_active);
  EXPECT_GE(fast.fastpath.bailout(reason), 1u)
      << "expected at least one " << cpu::bailout_reason_name(reason);

  const BailoutRun preempted = run_fast_tier_preempted(
      prog, variant, min_backedges, /*quantum=*/13, data);
  EXPECT_TRUE(preempted.regs == base.regs)
      << "bailout " << cpu::bailout_reason_name(reason)
      << " diverged under mid-replay save/restore";
  EXPECT_EQ(preempted.stats.instructions, base.stats.instructions);
  EXPECT_EQ(preempted.stats.zolc_fetch_events, base.stats.zolc_fetch_events);
  EXPECT_TRUE(preempted.zolc_stats == base.zolc_stats);
  EXPECT_EQ(preempted.controller_active, base.controller_active);
  EXPECT_GE(preempted.fastpath.bailout(reason), 1u)
      << "expected " << cpu::bailout_reason_name(reason)
      << " to survive save/restore mid-replay";
  return fast;
}

/// acc += i for i in [0, n): 17-instruction prologue, then the body.
std::vector<Instruction> summing_loop_program(
    std::int16_t n, const std::vector<Instruction>& body) {
  std::vector<Instruction> prog;
  prog.push_back(b::addi(2, 0, 0));  // acc
  prog.push_back(b::addi(1, 0, 0));  // index register
  emit_loop(prog, 0, 0, n, 1, /*index_rf=*/1);
  const auto start = static_cast<std::uint16_t>(17);
  const auto end = static_cast<std::uint16_t>(17 + body.size() - 1);
  emit_task(prog, 0, start, end, /*loop=*/0, /*cont=*/0, /*done=*/0,
            /*is_last=*/true);
  emit_activate(prog, 0);
  EXPECT_EQ(prog.size(), 17u);
  prog.insert(prog.end(), body.begin(), body.end());
  prog.push_back(b::halt());
  return prog;
}

TEST(FastPathBailouts, ShortLoopDeclinesBelowMinBackedges) {
  const auto prog =
      summing_loop_program(50, {b::add(2, 2, 1), b::nop()});
  const BailoutRun fast = expect_bailout_cosim(
      prog, ZolcVariant::kLite, BailoutReason::kShortLoop,
      /*min_backedges=*/std::uint64_t{1} << 30);
  EXPECT_EQ(fast.regs.read(2), 50 * 49 / 2);
  EXPECT_EQ(fast.fastpath.engagements, 0u);  // every attempt declined
}

TEST(FastPathBailouts, ControlFlowInBodyDeclines) {
  // r5 = 1, so the branch never fires -- but its presence alone must keep
  // the region out of the micro-op tier.
  std::vector<Instruction> prog;
  prog.push_back(b::addi(2, 0, 0));  // acc
  prog.push_back(b::addi(1, 0, 0));  // index
  prog.push_back(b::addi(5, 0, 1));  // branch sentinel, never zero
  emit_loop(prog, 0, 0, 50, 1, /*index_rf=*/1);
  emit_task(prog, 0, /*start=*/18, /*end=*/20, 0, 0, 0, true);
  emit_activate(prog, 0);
  ASSERT_EQ(prog.size(), 18u);
  prog.push_back(b::add(2, 2, 1));   // 18
  prog.push_back(b::beq(5, 0, 1));   // 19: never taken
  prog.push_back(b::nop());          // 20: task end
  prog.push_back(b::halt());
  const BailoutRun fast = expect_bailout_cosim(prog, ZolcVariant::kLite,
                                               BailoutReason::kControlFlow);
  EXPECT_EQ(fast.regs.read(2), 50 * 49 / 2);
}

TEST(FastPathBailouts, BodyWritingLoopIndexDeclines) {
  // add r1, r1, r0 rewrites the index with its own value: architecturally a
  // no-op, but the body now writes the index register and closed-form
  // replay of the recurrence is off the table.
  const auto prog = summing_loop_program(
      50, {b::add(2, 2, 1), b::add(1, 1, 0), b::nop()});
  const BailoutRun fast = expect_bailout_cosim(
      prog, ZolcVariant::kLite, BailoutReason::kNonAffineUpdate);
  EXPECT_EQ(fast.regs.read(2), 50 * 49 / 2);
}

TEST(FastPathBailouts, ArmedExitRecordDeclines) {
  // ZOLCfull with a candidate-exit record armed for loop 0. No branch ever
  // takes it (the body is branch-free), but replaying in closed form would
  // skip the per-iteration chance of an exit match, so the tier declines.
  std::vector<Instruction> prog;
  prog.push_back(b::addi(2, 0, 0));  // acc
  prog.push_back(b::addi(1, 0, 0));  // index
  emit_loop(prog, 0, 0, 40, 1, /*index_rf=*/1);
  emit_task(prog, 0, /*start=*/20, /*end=*/21, 0, 0, 0, true);
  {
    zolc::ExitRecord rec;
    rec.branch_pc_ofs = 20;
    rec.next_task = 0;
    rec.reinit_mask = 0x1;
    rec.valid = true;
    rec.deactivate = true;
    emit_table_write(prog, Opcode::kZolwEx0, 0, rec.pack_lo());
  }
  emit_activate(prog, 0);
  ASSERT_EQ(prog.size(), 20u);
  prog.push_back(b::add(2, 2, 1));  // 20
  prog.push_back(b::nop());         // 21: task end
  prog.push_back(b::halt());
  const BailoutRun fast = expect_bailout_cosim(prog, ZolcVariant::kFull,
                                               BailoutReason::kExitRecord);
  EXPECT_EQ(fast.regs.read(2), 40 * 39 / 2);
  EXPECT_EQ(fast.fastpath.engagements, 0u);
}

TEST(FastPathBailouts, ZolcInstructionInRegionDeclines) {
  // Two sequential loops; the second body deactivates the controller with
  // zoloff. The first loop replays in closed form, then the chain into the
  // second region hits the ZOLC instruction and bails before executing it.
  std::vector<Instruction> prog;
  prog.push_back(b::addi(2, 0, 0));  // acc
  prog.push_back(b::addi(1, 0, 0));  // i
  prog.push_back(b::addi(3, 0, 0));  // j (never advanced: loop 1 dies early)
  emit_loop(prog, 0, 0, 10, 1, /*index_rf=*/1);
  emit_loop(prog, 1, 0, 5, 1, /*index_rf=*/3);
  emit_task(prog, 0, /*start=*/30, /*end=*/31, /*loop=*/0, /*cont=*/0,
            /*done=*/1, /*is_last=*/false);
  emit_task(prog, 1, /*start=*/32, /*end=*/33, /*loop=*/1, /*cont=*/1,
            /*done=*/1, /*is_last=*/true);
  emit_activate(prog, 0);
  ASSERT_EQ(prog.size(), 30u);
  prog.push_back(b::add(2, 2, 1));  // 30: loop 0 body
  prog.push_back(b::nop());         // 31: task 0 end
  prog.push_back(b::zoloff());      // 32: loop 1 body -- kills the controller
  prog.push_back(b::nop());         // 33: task 1 end (never triggers)
  prog.push_back(b::halt());        // 34
  const BailoutRun fast = expect_bailout_cosim(prog, ZolcVariant::kLite,
                                               BailoutReason::kAccelMutation);
  EXPECT_EQ(fast.regs.read(2), 10 * 9 / 2);
  EXPECT_FALSE(fast.controller_active);
  EXPECT_GE(fast.fastpath.engagements, 1u);  // loop 0 still replayed
}

TEST(FastPathBailouts, MisalignedAccessBailsThenTrapsPrecisely) {
  // The pointer advances by 2 each iteration: the first load is aligned,
  // the second traps. The fast path must bail at the exact instruction
  // boundary so the baseline raises the same MemoryFault both ways.
  std::vector<Instruction> prog;
  prog.push_back(b::addi(2, 0, 0));  // acc
  prog.push_back(b::addi(1, 0, 0));  // index
  li32(prog, 7, 0x4000);             // data pointer (fills 2 slots)
  emit_loop(prog, 0, 0, 50, 1, /*index_rf=*/1);
  emit_task(prog, 0, /*start=*/19, /*end=*/21, 0, 0, 0, true);
  emit_activate(prog, 0);
  ASSERT_EQ(prog.size(), 19u);
  prog.push_back(b::lw(6, 0, 7));    // 19
  prog.push_back(b::addi(7, 7, 2));  // 20: misaligns the next load
  prog.push_back(b::nop());          // 21: task end
  prog.push_back(b::halt());

  const auto run_to_fault = [&](bool fast, bool preempt) {
    mem::Memory memory;
    test::load_program(memory, kBase, prog);
    const std::vector<std::uint32_t> data = {11, 22, 33};
    memory.load_words(0x4000, data);
    ZolcController controller(ZolcVariant::kLite);
    cpu::Iss iss(memory);
    iss.set_accelerator(&controller);
    iss.set_fast_path(fast);
    iss.set_pc(kBase);
    if (preempt) {
      bool serialize = false;
      EXPECT_THROW(
          {
            while (!iss.halted()) {
              iss.run_slice(13);
              if (iss.halted()) break;
              flow::preempt_cycle(controller, serialize);
              serialize = !serialize;
            }
          },
          mem::MemoryFault);
    } else {
      EXPECT_THROW(iss.run(2'000'000), mem::MemoryFault);
    }
    return BailoutRun{iss.stats(), iss.regs(), iss.fastpath_stats(),
                      controller.zolc_stats(), controller.active()};
  };
  const BailoutRun base = run_to_fault(false, false);
  const BailoutRun fast = run_to_fault(true, false);
  // Both tiers stop at the same architectural point: r7 misaligned, the
  // first element still in r6, the fault instruction not retired.
  EXPECT_TRUE(fast.regs == base.regs);
  EXPECT_EQ(fast.stats.instructions, base.stats.instructions);
  EXPECT_GE(fast.fastpath.bailout(BailoutReason::kTrap), 1u);
  EXPECT_EQ(fast.regs.read_u(7), 0x4002u);
  EXPECT_EQ(fast.regs.read(6), 11);
  // Save/clobber/restore mid-replay must not move the fault point.
  const BailoutRun preempted = run_to_fault(true, true);
  EXPECT_TRUE(preempted.regs == base.regs);
  EXPECT_EQ(preempted.stats.instructions, base.stats.instructions);
  EXPECT_GE(preempted.fastpath.bailout(BailoutReason::kTrap), 1u);
}

TEST(FastPathBailouts, StoreIntoSummarizedCodeDeclines) {
  // The body rewrites its own first instruction with identical bytes: the
  // baseline executes it harmlessly, the fast path must refuse to replay a
  // region whose code it may be invalidating.
  std::vector<Instruction> prog;
  prog.push_back(b::addi(2, 0, 0));            // acc
  prog.push_back(b::addi(1, 0, 0));            // index
  li32(prog, 7, kBase + 4 * 19);               // address of body start
  emit_loop(prog, 0, 0, 30, 1, /*index_rf=*/1);
  emit_task(prog, 0, /*start=*/19, /*end=*/22, 0, 0, 0, true);
  emit_activate(prog, 0);
  ASSERT_EQ(prog.size(), 19u);
  prog.push_back(b::lw(6, 0, 7));    // 19: load own encoding
  prog.push_back(b::sw(6, 0, 7));    // 20: store it back unchanged
  prog.push_back(b::add(2, 2, 1));   // 21
  prog.push_back(b::nop());          // 22: task end
  prog.push_back(b::halt());
  const BailoutRun fast = expect_bailout_cosim(
      prog, ZolcVariant::kLite, BailoutReason::kSelfModifyingStore);
  EXPECT_EQ(fast.regs.read(2), 30 * 29 / 2);
}

TEST(FastPathBailouts, OverlappingStoresInOneIterationDecline) {
  // Two word stores to the same address per iteration: the recorded pattern
  // self-overlaps, so closed-form replay (which commits one value per slot)
  // cannot represent the write ordering and must bail after validation.
  std::vector<Instruction> prog;
  prog.push_back(b::addi(2, 0, 7));  // first store value
  prog.push_back(b::addi(1, 0, 0));  // index
  li32(prog, 7, 0x4000);             // output pointer (loop-invariant)
  emit_loop(prog, 0, 0, 30, 1, /*index_rf=*/1);
  emit_task(prog, 0, /*start=*/19, /*end=*/21, 0, 0, 0, true);
  emit_activate(prog, 0);
  ASSERT_EQ(prog.size(), 19u);
  prog.push_back(b::sw(2, 0, 7));    // 19
  prog.push_back(b::sw(1, 0, 7));    // 20: overwrites the same word
  prog.push_back(b::nop());          // 21: task end
  prog.push_back(b::halt());
  const BailoutRun fast = expect_bailout_cosim(
      prog, ZolcVariant::kLite, BailoutReason::kOverlappingStore);
  // The last iteration's second store wins, exactly as per-instruction
  // execution would have it.
  EXPECT_EQ(fast.regs.read(1), 0);  // reinit-on-exit
}

TEST(FastPathBailouts, ValidationSeamRejectsDoctoredRecordings) {
  using Summarizer = cpu::LoopSummarizer;
  using SR = Summarizer::StoreRecord;
  const auto check = [](std::vector<SR> first, std::vector<SR> second,
                        std::vector<std::int64_t> strides) {
    return Summarizer::check_recorded_iterations(first, second, strides);
  };

  // Consistent recording: disjoint stores advancing by the predicted
  // stride, second iteration matching.
  EXPECT_EQ(check({{0x100, 4}, {0x200, 2}}, {{0x104, 4}, {0x202, 2}}, {4, 2}),
            std::nullopt);
  // First iteration not yet validated (second empty): only overlap checked.
  EXPECT_EQ(check({{0x100, 4}}, {}, {}), std::nullopt);

  // Overlap inside the first iteration, including partial byte overlap.
  EXPECT_EQ(check({{0x100, 4}, {0x102, 4}}, {}, {}),
            BailoutReason::kOverlappingStore);
  EXPECT_EQ(check({{0x100, 4}, {0x103, 1}}, {}, {}),
            BailoutReason::kOverlappingStore);

  // Second iteration contradicting the prediction: wrong stride, wrong
  // store count, or wrong access width.
  EXPECT_EQ(check({{0x100, 4}}, {{0x108, 4}}, {4}),
            BailoutReason::kValidationMismatch);
  EXPECT_EQ(check({{0x100, 4}}, {{0x104, 4}, {0x200, 4}}, {4}),
            BailoutReason::kValidationMismatch);
  EXPECT_EQ(check({{0x100, 4}}, {{0x104, 2}}, {4}),
            BailoutReason::kValidationMismatch);
}

// ---------------- uZOLC on the shared replay engine ----------------

/// One ISS run of a hand-built program with everything the equivalence
/// check compares, memory included.
struct MicroRun {
  mem::Memory memory;
  cpu::IssStats stats;
  cpu::RegFile regs;
  FastPathStats fastpath;
  zolc::ZolcStats zolc_stats;
  cpu::AccelSnapshot snapshot;
};

void run_micro(const std::vector<Instruction>& prog, bool fast,
               MicroRun& out) {
  test::load_program(out.memory, kBase, prog);
  ZolcController controller(ZolcVariant::kMicro);
  cpu::Iss iss(out.memory);
  iss.set_accelerator(&controller);
  iss.set_fast_path(fast);
  iss.set_pc(kBase);
  iss.run(2'000'000);
  EXPECT_TRUE(iss.halted());
  out.stats = iss.stats();
  out.regs = iss.regs();
  out.fastpath = iss.fastpath_stats();
  out.zolc_stats = controller.zolc_stats();
  out.snapshot = controller.snapshot();
}

TEST(FastPathMicro, ReArmedRegionReplaysOnEveryEntry) {
  // uZOLC over a 4-instruction body (i in [0, 20)), wrapped in a software
  // loop that re-enters the region three times. The done event re-arms the
  // controller and falls through, so each entry starts with the index back
  // at its initial value; its first back-edge redirects into the body and
  // the rest of the loop replays from there.
  constexpr std::uint16_t kStart = 26;
  constexpr std::uint16_t kEnd = 29;
  constexpr std::int16_t kTrips = 20;
  constexpr int kEntries = 3;
  std::vector<Instruction> prog;
  prog.push_back(b::addi(2, 0, 0));          // acc
  prog.push_back(b::addi(1, 0, 0));          // index
  prog.push_back(b::addi(10, 0, kEntries));  // software loop counter
  li32(prog, 7, 0x4000);                     // output pointer
  const auto micro = [&](zolc::MicroReg reg, std::uint32_t value) {
    emit_table_write(prog, Opcode::kZolwU, static_cast<std::uint8_t>(reg),
                     value);
  };
  micro(zolc::MicroReg::kInitial, 0);
  micro(zolc::MicroReg::kFinal, kTrips);
  micro(zolc::MicroReg::kStep, 1);
  micro(zolc::MicroReg::kStartPc, kBase + 4 * kStart);
  micro(zolc::MicroReg::kEndPc, kBase + 4 * kEnd);
  micro(zolc::MicroReg::kCtrl, zolc::pack_micro_ctrl(1, LoopCond::kLt));
  emit_activate(prog, 0);
  ASSERT_EQ(prog.size(), kStart);
  prog.push_back(b::add(2, 2, 1));      // 26: body start
  prog.push_back(b::sw(2, 0, 7));       // 27
  prog.push_back(b::addi(7, 7, 4));     // 28
  prog.push_back(b::nop());             // 29: end PC
  prog.push_back(b::addi(10, 10, -1));  // 30: after the done event
  prog.push_back(b::bne(10, 0, -6));    // 31: re-enter at 26
  prog.push_back(b::halt());

  MicroRun base;
  MicroRun fast;
  run_micro(prog, /*fast=*/false, base);
  run_micro(prog, /*fast=*/true, fast);
  EXPECT_TRUE(fast.regs == base.regs);
  EXPECT_TRUE(fast.memory == base.memory);
  EXPECT_TRUE(fast.stats == base.stats);
  EXPECT_TRUE(fast.zolc_stats == base.zolc_stats);
  EXPECT_TRUE(fast.snapshot == base.snapshot);
  EXPECT_EQ(fast.regs.read(2), kEntries * (kTrips * (kTrips - 1) / 2));
  EXPECT_EQ(fast.regs.read_u(7), 0x4000u + 4 * kEntries * kTrips);
  EXPECT_EQ(base.zolc_stats.continue_events,
            std::uint64_t{kEntries} * (kTrips - 1));
  EXPECT_EQ(base.zolc_stats.done_events, std::uint64_t{kEntries});
  EXPECT_TRUE(fast.snapshot.active);  // re-armed after the last entry

  // Every entry engages once, after its first (stepped) back-edge: the
  // remaining kTrips - 1 passes replay, ending in the re-arming done event.
  EXPECT_EQ(fast.fastpath.attempts, std::uint64_t{kEntries});
  EXPECT_EQ(fast.fastpath.engagements, std::uint64_t{kEntries});
  EXPECT_EQ(fast.fastpath.replayed_backedges,
            std::uint64_t{kEntries} * (kTrips - 1));
  EXPECT_EQ(fast.fastpath.replayed_instructions,
            std::uint64_t{kEntries} * (kTrips - 1) * 4);
  EXPECT_EQ(fast.fastpath.total_bailouts(), 0u);
}

// ---------------- part three: per-run statistics reset ----------------

TEST(FastPathStatsReset, RunCountsThisRunOnly) {
  // Four filler instructions and a halt; two step() calls leave residue
  // that run() must discard before counting its own retirements.
  std::vector<Instruction> prog;
  for (int i = 0; i < 4; ++i) prog.push_back(b::addi(2, 2, 1));
  prog.push_back(b::halt());
  mem::Memory memory;
  test::load_program(memory, kBase, prog);
  cpu::Iss iss(memory);
  iss.set_pc(kBase);
  iss.step();
  iss.step();
  EXPECT_EQ(iss.stats().instructions, 2u);
  iss.run(1000);
  // Only the three instructions this run retired -- not 2 + 3.
  EXPECT_EQ(iss.stats().instructions, 3u);
  EXPECT_EQ(iss.regs().read(2), 4);
}

TEST(FastPathStatsReset, FastPathCountersResetPerRun) {
  const auto prog =
      summing_loop_program(50, {b::add(2, 2, 1), b::nop()});
  mem::Memory memory;
  test::load_program(memory, kBase, prog);
  ZolcController controller(ZolcVariant::kLite);
  cpu::Iss iss(memory);
  iss.set_accelerator(&controller);
  iss.set_fast_path(true);
  iss.set_pc(kBase);
  iss.run(2'000'000);
  EXPECT_TRUE(iss.halted());
  EXPECT_GE(iss.fastpath_stats().engagements, 1u);
  EXPECT_GT(iss.fastpath_stats().replayed_instructions, 0u);
  // A second run (immediately halted) reports a clean slate, not the
  // previous run's engagement history.
  iss.run(1000);
  EXPECT_EQ(iss.stats().instructions, 0u);
  EXPECT_TRUE(iss.fastpath_stats() == FastPathStats{});
}

}  // namespace
}  // namespace zolcsim
