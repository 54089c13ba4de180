// Integration tests: ZOLC controller attached to the cycle-accurate
// pipeline, with initialization performed by the actual zolw*/zolon
// instruction sequence. Verifies the paper's central property -- hardware
// loop back-edges cost zero cycles -- by exact cycle accounting, plus
// speculation rollback, fetch gating, multi-exit breaks, and multi-entry
// jumps. Every program is also co-simulated on the ISS golden model.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "assembler/assembler.hpp"
#include "sim_test_util.hpp"
#include "zolc/controller.hpp"

namespace zolcsim {
namespace {

namespace b = isa::build;
using cpu::BranchResolveStage;
using cpu::PipelineConfig;
using cpu::SpeculationPolicy;
using isa::Instruction;
using isa::Opcode;
using zolc::LoopCond;
using zolc::LoopEntry;
using zolc::TaskEntry;
using zolc::ZolcController;
using zolc::ZolcVariant;

constexpr std::uint32_t kBase = 0x1000;
constexpr std::uint8_t kScratch = 8;   // register for table payloads
constexpr std::uint8_t kBaseReg = 9;   // register holding the base address

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

/// Runs `prog` on the pipeline with a fresh controller of `variant`, then
/// cross-checks the architectural state against an ISS run with another
/// fresh controller. Returns the pipeline result.
struct ZolcRun {
  cpu::PipelineStats pipe_stats;
  cpu::RegFile regs;
  zolc::ZolcStats zolc_stats;
  bool controller_active = false;
};

ZolcRun run_with_zolc(const std::vector<Instruction>& prog,
                      ZolcVariant variant, PipelineConfig config = {},
                      const std::vector<std::uint32_t>& data = {},
                      std::uint32_t data_base = 0x4000) {
  mem::Memory pipe_mem;
  test::load_program(pipe_mem, kBase, prog);
  if (!data.empty()) pipe_mem.load_words(data_base, data);
  ZolcController pipe_ctrl(variant);
  cpu::Pipeline pipe(pipe_mem, config);
  pipe.set_accelerator(&pipe_ctrl);
  pipe.set_pc(kBase);
  pipe.run(2'000'000);

  // ISS co-simulation with an independent controller instance.
  mem::Memory iss_mem;
  test::load_program(iss_mem, kBase, prog);
  if (!data.empty()) iss_mem.load_words(data_base, data);
  ZolcController iss_ctrl(variant);
  cpu::Iss iss(iss_mem);
  iss.set_accelerator(&iss_ctrl);
  iss.set_pc(kBase);
  iss.run(2'000'000);

  EXPECT_TRUE(pipe.regs() == iss.regs()) << "pipeline/ISS divergence";
  EXPECT_EQ(pipe.stats().instructions, iss.stats().instructions);
  EXPECT_EQ(pipe_ctrl.active(), iss_ctrl.active());

  return ZolcRun{pipe.stats(), pipe.regs(), pipe_ctrl.zolc_stats(),
                 pipe_ctrl.active()};
}

// ---------------- single hardware loop (ZOLClite) ----------------

/// acc += i for i in [0, n): 17-instruction prologue, 2-instruction body.
std::vector<Instruction> single_loop_program(std::int16_t n) {
  std::vector<Instruction> prog;
  prog.push_back(b::addi(2, 0, 0));  // acc
  prog.push_back(b::addi(1, 0, 0));  // index register (software-initialized)
  emit_loop(prog, 0, 0, n, 1, /*index_rf=*/1);
  emit_task(prog, 0, /*start=*/17, /*end=*/18, /*loop=*/0, /*cont=*/0,
            /*done=*/0, /*is_last=*/true);
  emit_activate(prog, 0);
  EXPECT_EQ(prog.size(), 17u);
  prog.push_back(b::add(2, 2, 1));  // body[0]: acc += i
  prog.push_back(b::nop());         // body[1]: task end
  prog.push_back(b::halt());
  return prog;
}

TEST(ZolcPipeline, SingleLoopZeroOverheadCycleCount) {
  constexpr std::int16_t kN = 50;
  const auto prog = single_loop_program(kN);
  const auto r = run_with_zolc(prog, ZolcVariant::kLite);

  EXPECT_EQ(r.regs.read(2), kN * (kN - 1) / 2);
  EXPECT_EQ(r.regs.read(1), 0);  // reinit-on-exit
  EXPECT_FALSE(r.controller_active);

  const std::uint64_t retired = 17 + 2 * kN + 1;
  EXPECT_EQ(r.pipe_stats.instructions, retired);
  // THE paper's claim: no stalls, no flushes, no branches -- the loop's
  // back-edge is completely free. Total = instructions + pipeline fill.
  EXPECT_EQ(r.pipe_stats.cycles, retired + 4);
  EXPECT_EQ(r.pipe_stats.taken_control, 0u);
  EXPECT_EQ(r.pipe_stats.control_flush_slots, 0u);
  EXPECT_EQ(r.pipe_stats.zolc_fetch_events, static_cast<std::uint64_t>(kN));
  EXPECT_EQ(r.zolc_stats.continue_events, static_cast<std::uint64_t>(kN - 1));
  EXPECT_EQ(r.zolc_stats.done_events, 1u);
}

TEST(ZolcPipeline, SingleLoopBeatsSoftwareLoop) {
  constexpr std::int16_t kN = 50;
  const auto zolc_run = run_with_zolc(single_loop_program(kN),
                                      ZolcVariant::kLite);

  // Software equivalent: add/nop body + index update + compare-branch.
  std::vector<Instruction> sw;
  sw.push_back(b::addi(2, 0, 0));
  sw.push_back(b::addi(1, 0, 0));
  sw.push_back(b::addi(3, 0, kN));
  sw.push_back(b::add(2, 2, 1));    // loop:
  sw.push_back(b::nop());
  sw.push_back(b::addi(1, 1, 1));
  sw.push_back(b::bne(1, 3, -4));
  sw.push_back(b::halt());
  const auto sw_run = test::run_pipeline(sw, {}, nullptr, kBase);

  EXPECT_EQ(sw_run.regs.read(2), zolc_run.regs.read(2));
  // Expected software cost: per-iteration 2 loop-overhead instructions plus
  // a 2-cycle taken-branch penalty on every back-edge.
  const std::uint64_t sw_retired = 3 + 4 * kN + 1;
  EXPECT_EQ(sw_run.pipe_stats.cycles, sw_retired + 4 + 2 * (kN - 1));
  EXPECT_LT(zolc_run.pipe_stats.cycles, sw_run.pipe_stats.cycles);
  // For this tight kernel the saving should exceed 45% (Fig. 2's best cases
  // reach 48.2%).
  const double saving =
      1.0 - static_cast<double>(zolc_run.pipe_stats.cycles) /
                static_cast<double>(sw_run.pipe_stats.cycles);
  EXPECT_GT(saving, 0.45);
}

// ---------------- perfect nests and cascades ----------------

std::vector<Instruction> nested_loop_program(std::int16_t outer,
                                             std::int16_t inner) {
  std::vector<Instruction> prog;
  prog.push_back(b::addi(2, 0, 0));  // acc
  prog.push_back(b::addi(4, 0, 0));  // i
  prog.push_back(b::addi(5, 0, 0));  // j
  emit_loop(prog, 0, 0, outer, 1, /*rf=*/4);
  emit_loop(prog, 1, 0, inner, 1, /*rf=*/5);
  emit_task(prog, 0, 30, 31, /*loop=*/1, /*cont=*/0, /*done=*/1, false);
  emit_task(prog, 1, 30, 31, /*loop=*/0, /*cont=*/0, /*done=*/1, true);
  emit_activate(prog, 0);
  EXPECT_EQ(prog.size(), 30u);
  prog.push_back(b::addi(2, 2, 1));  // body
  prog.push_back(b::nop());          // shared boundary of both loops
  prog.push_back(b::halt());
  return prog;
}

TEST(ZolcPipeline, PerfectNestSharedBoundaryIsFree) {
  constexpr std::int16_t kI = 7, kJ = 5;
  const auto r = run_with_zolc(nested_loop_program(kI, kJ), ZolcVariant::kLite);

  EXPECT_EQ(r.regs.read(2), kI * kJ);
  EXPECT_EQ(r.regs.read(4), 0);
  EXPECT_EQ(r.regs.read(5), 0);
  const std::uint64_t retired = 30 + 2 * kI * kJ + 1;
  EXPECT_EQ(r.pipe_stats.instructions, retired);
  // Outer back-edges ride the same fetch event as the inner completion:
  // still zero overhead.
  EXPECT_EQ(r.pipe_stats.cycles, retired + 4);
  EXPECT_EQ(r.zolc_stats.cascade_chains, static_cast<std::uint64_t>(kI));
  EXPECT_EQ(r.zolc_stats.max_cascade_depth, 2u);
  EXPECT_EQ(r.zolc_stats.continue_events,
            static_cast<std::uint64_t>(kI * (kJ - 1) + (kI - 1)));
  EXPECT_EQ(r.zolc_stats.done_events, static_cast<std::uint64_t>(kI + 1));
}

std::vector<Instruction> triple_nest_program(std::int16_t n1, std::int16_t n2,
                                             std::int16_t n3) {
  std::vector<Instruction> prog;
  prog.push_back(b::addi(2, 0, 0));
  prog.push_back(b::addi(4, 0, 0));
  prog.push_back(b::addi(5, 0, 0));
  prog.push_back(b::addi(6, 0, 0));
  emit_loop(prog, 0, 0, n1, 1, 4);
  emit_loop(prog, 1, 0, n2, 1, 5);
  emit_loop(prog, 2, 0, n3, 1, 6);
  emit_task(prog, 0, 43, 44, 2, 0, 1, false);
  emit_task(prog, 1, 43, 44, 1, 0, 2, false);
  emit_task(prog, 2, 43, 44, 0, 0, 2, true);
  emit_activate(prog, 0);
  EXPECT_EQ(prog.size(), 43u);
  prog.push_back(b::addi(2, 2, 1));
  prog.push_back(b::nop());
  prog.push_back(b::halt());
  return prog;
}

TEST(ZolcPipeline, TripleNestCascadesThreeDeep) {
  constexpr std::int16_t kA = 3, kB = 4, kC = 5;
  const auto r = run_with_zolc(triple_nest_program(kA, kB, kC),
                               ZolcVariant::kLite);
  EXPECT_EQ(r.regs.read(2), kA * kB * kC);
  const std::uint64_t retired = 43 + 2 * kA * kB * kC + 1;
  EXPECT_EQ(r.pipe_stats.cycles, retired + 4);
  EXPECT_EQ(r.zolc_stats.max_cascade_depth, 3u);
}

// ---------------- software loop inside a hardware task ----------------

/// The stress case for speculation: a software inner loop whose taken
/// back-branch shadow crosses the hardware task-end PC every iteration.
std::vector<Instruction> mixed_loop_program(std::int16_t outer,
                                            std::int16_t inner) {
  std::vector<Instruction> prog;
  prog.push_back(b::addi(2, 0, 0));      // outer work counter
  prog.push_back(b::addi(4, 0, 0));      // inner work counter
  prog.push_back(b::addi(5, 0, inner));  // inner bound
  prog.push_back(b::addi(1, 0, 0));      // hw index
  emit_loop(prog, 0, 0, outer, 1, 1);
  emit_task(prog, 0, 19, 24, 0, 0, 0, true);
  emit_activate(prog, 0);
  EXPECT_EQ(prog.size(), 19u);
  prog.push_back(b::addi(2, 2, 1));   // 19: outer body work
  prog.push_back(b::addi(3, 0, 0));   // 20: j = 0
  prog.push_back(b::addi(4, 4, 1));   // 21: inner body  <- branch target
  prog.push_back(b::addi(3, 3, 1));   // 22: j++
  prog.push_back(b::bne(3, 5, -3));   // 23: software back-branch
  prog.push_back(b::nop());           // 24: hardware task end
  prog.push_back(b::halt());          // 25
  return prog;
}

TEST(ZolcPipeline, RollbackRecoversFromWrongPathTaskEnd) {
  constexpr std::int16_t kOuter = 4, kInner = 2;
  const auto r = run_with_zolc(mixed_loop_program(kOuter, kInner),
                               ZolcVariant::kLite);
  EXPECT_EQ(r.regs.read(2), kOuter);
  EXPECT_EQ(r.regs.read(4), kOuter * kInner);
  // Each outer iteration takes the inner back-branch (kInner-1) times; every
  // taken back-branch's wrong-path shadow fetches the task-end PC and the
  // speculative ZOLC event must be rolled back.
  EXPECT_EQ(r.pipe_stats.zolc_rollbacks,
            static_cast<std::uint64_t>(kOuter * (kInner - 1)));
  EXPECT_FALSE(r.controller_active);
}

TEST(ZolcPipeline, GatePolicyAvoidsRollbacksAtACycleCost) {
  constexpr std::int16_t kOuter = 4, kInner = 2;
  const auto prog = mixed_loop_program(kOuter, kInner);

  PipelineConfig gate_cfg;
  gate_cfg.speculation = SpeculationPolicy::kGate;
  const auto gated = run_with_zolc(prog, ZolcVariant::kLite, gate_cfg);
  const auto rollback = run_with_zolc(prog, ZolcVariant::kLite);

  EXPECT_TRUE(gated.regs == rollback.regs);
  EXPECT_EQ(gated.pipe_stats.zolc_rollbacks, 0u);
  EXPECT_GT(gated.pipe_stats.gate_stalls, 0u);
  EXPECT_GE(gated.pipe_stats.cycles, rollback.pipe_stats.cycles);
}

// ---------------- multi-exit (ZOLCfull) ----------------

std::vector<Instruction> search_program(std::int16_t n,
                                        std::uint32_t data_base,
                                        std::int32_t key) {
  std::vector<Instruction> prog;
  prog.push_back(b::addi(1, 0, 0));  // index
  li32(prog, 7, data_base);          // data pointer
  li32(prog, 10, static_cast<std::uint32_t>(key));
  emit_loop(prog, 0, 0, n, 1, 1);
  emit_task(prog, 0, /*start=*/23, /*end=*/26, 0, 0, 0, true);
  {
    zolc::ExitRecord rec;
    rec.branch_pc_ofs = 25;
    rec.next_task = 0;
    rec.reinit_mask = 0x1;
    rec.valid = true;
    rec.deactivate = true;
    emit_table_write(prog, Opcode::kZolwEx0, 0, rec.pack_lo());
  }
  emit_activate(prog, 0);
  EXPECT_EQ(prog.size(), 23u);
  prog.push_back(b::lw(6, 0, 7));      // 23: load element
  prog.push_back(b::addi(7, 7, 4));    // 24: bump pointer
  prog.push_back(b::beq(6, 10, 1));    // 25: candidate exit -> 27
  prog.push_back(b::nop());            // 26: task end
  prog.push_back(b::halt());           // 27
  return prog;
}

TEST(ZolcPipeline, MultiExitBreakMatchesExitRecord) {
  constexpr std::int16_t kN = 10;
  constexpr std::uint32_t kData = 0x4000;
  std::vector<std::uint32_t> data(kN);
  for (int i = 0; i < kN; ++i) data[static_cast<unsigned>(i)] = 100u + i;
  constexpr int kFoundAt = 6;
  const std::int32_t key = 100 + kFoundAt;

  const auto r = run_with_zolc(search_program(kN, kData, key),
                               ZolcVariant::kFull, {}, data, kData);
  // Pointer stopped right after the match; loop index was re-initialized by
  // the exit record and the controller deactivated.
  EXPECT_EQ(r.regs.read_u(7), kData + 4 * (kFoundAt + 1));
  EXPECT_EQ(r.regs.read(1), 0);
  EXPECT_FALSE(r.controller_active);
  EXPECT_EQ(r.zolc_stats.exit_matches, 1u);
  EXPECT_EQ(r.pipe_stats.taken_control, 1u);
  // The taken exit's shadow fetched the task-end PC: one rollback.
  EXPECT_EQ(r.pipe_stats.zolc_rollbacks, 1u);
}

TEST(ZolcPipeline, MultiExitNotFoundCompletesNormally) {
  constexpr std::int16_t kN = 10;
  constexpr std::uint32_t kData = 0x4000;
  std::vector<std::uint32_t> data(kN, 1u);  // key absent

  const auto r = run_with_zolc(search_program(kN, kData, /*key=*/999),
                               ZolcVariant::kFull, {}, data, kData);
  EXPECT_EQ(r.regs.read_u(7), kData + 4 * kN);
  EXPECT_EQ(r.zolc_stats.exit_matches, 0u);
  EXPECT_EQ(r.zolc_stats.done_events, 1u);
  EXPECT_FALSE(r.controller_active);
}

// ---------------- multi-entry (ZOLCfull) ----------------

std::vector<Instruction> multi_entry_program() {
  std::vector<Instruction> prog;
  prog.push_back(b::addi(2, 0, 0));
  prog.push_back(b::addi(3, 0, 0));
  prog.push_back(b::addi(1, 0, 0));
  emit_loop(prog, 0, 0, 3, 1, 1);
  emit_task(prog, 0, /*start=*/22, /*end=*/24, 0, 0, 0, true);
  {
    zolc::EntryRecord rec;
    rec.entry_pc_ofs = 23;
    rec.next_task = 0;
    rec.reinit_mask = 0x1;
    rec.valid = true;
    emit_table_write(prog, Opcode::kZolwEn0, 0, rec.pack_lo());
  }
  emit_activate(prog, 0);
  EXPECT_EQ(prog.size(), 21u);
  prog.push_back(b::j(kBase + 23 * 4));  // 21: enter the loop mid-body
  prog.push_back(b::addi(2, 2, 1));      // 22: full-body part
  prog.push_back(b::addi(3, 3, 1));      // 23: entry point
  prog.push_back(b::nop());              // 24: task end
  prog.push_back(b::halt());             // 25
  return prog;
}

TEST(ZolcPipeline, MultiEntryJumpMatchesEntryRecord) {
  const auto r = run_with_zolc(multi_entry_program(), ZolcVariant::kFull);
  // First (partial) pass executes only the tail; two more full passes.
  EXPECT_EQ(r.regs.read(2), 2);
  EXPECT_EQ(r.regs.read(3), 3);
  EXPECT_EQ(r.zolc_stats.entry_matches, 1u);
  EXPECT_FALSE(r.controller_active);
}

// ---------------- micro variant on the pipeline ----------------

std::vector<Instruction> micro_program(std::int32_t n) {
  std::vector<Instruction> prog;
  prog.push_back(b::addi(2, 0, 0));
  prog.push_back(b::addi(1, 0, 0));
  emit_table_write(prog, Opcode::kZolwU, 0, 0);  // initial
  emit_table_write(prog, Opcode::kZolwU, 1, static_cast<std::uint32_t>(n));
  emit_table_write(prog, Opcode::kZolwU, 2, 1);  // step
  emit_table_write(prog, Opcode::kZolwU, 4, kBase + 23 * 4);  // start
  emit_table_write(prog, Opcode::kZolwU, 5, kBase + 24 * 4);  // end
  emit_table_write(prog, Opcode::kZolwU, 6,
                   zolc::pack_micro_ctrl(1, LoopCond::kLt));
  li32(prog, kBaseReg, kBase);
  prog.push_back(b::zolon(0, kBaseReg));
  EXPECT_EQ(prog.size(), 23u);
  prog.push_back(b::add(2, 2, 1));  // 23: body
  prog.push_back(b::nop());         // 24: end
  prog.push_back(b::halt());        // 25
  return prog;
}

TEST(ZolcPipeline, MicroVariantZeroOverhead) {
  constexpr std::int32_t kN = 20;
  const auto r = run_with_zolc(micro_program(kN), ZolcVariant::kMicro);
  EXPECT_EQ(r.regs.read(2), kN * (kN - 1) / 2);
  const std::uint64_t retired = 23 + 2 * kN + 1;
  EXPECT_EQ(r.pipe_stats.cycles, retired + 4);
  EXPECT_TRUE(r.controller_active);  // uZOLC stays armed
}

// ---------------- two fetch events in flight ----------------

/// Assembly source for two one-instruction tasks that redirect into each
/// other: task 0 is a compare-branch whose redirect target (task 1) is
/// itself a task end, whose redirect target is task 0 again. Every fetch in
/// the region raises an event, so IF/ID and ID/EX both carry one and this
/// cycle's fetch raises a third. The branch is taken once the loop-0 index
/// reaches 3: its own event and the two younger ones are wrong-path.
std::string chained_task_source() {
  LoopEntry lp;
  lp.final = 100;
  lp.step = 1;
  lp.valid = true;
  TaskEntry te;
  te.valid = true;
  std::ostringstream src;
  src << std::hex << std::showbase;
  const auto table_write = [&src](const char* op, int idx,
                                  std::uint32_t payload) {
    src << "    li $t0, " << payload << "\n    " << op << " " << idx
        << ", $t0\n";
  };
  src << "    .text 0x1000\n"
         "    addi $v1, $zero, 0    ; task-1 work counter\n"
         "    addi $a0, $zero, 0    ; loop-0 index\n"
         "    addi $a1, $zero, 0    ; loop-1 index\n"
         "    addi $a2, $zero, 3    ; exit when the loop-0 index reaches 3\n";
  lp.index_rf = 4;
  table_write("zolw.lp0", 0, lp.pack_word0());
  table_write("zolw.lp1", 0, lp.pack_word1());
  lp.index_rf = 5;
  table_write("zolw.lp0", 1, lp.pack_word0());
  table_write("zolw.lp1", 1, lp.pack_word1());
  te.end_pc_ofs = 32;  // exit_br
  te.loop_id = 0;
  te.next_task_cont = 1;
  te.next_task_done = 1;
  table_write("zolw.te", 0, te.pack());
  table_write("zolw.ts", 0, 32);
  te.end_pc_ofs = 33;  // tail
  te.loop_id = 1;
  te.next_task_cont = 0;
  te.next_task_done = 0;
  te.is_last = true;
  table_write("zolw.te", 1, te.pack());
  table_write("zolw.ts", 1, 33);
  src << "    li $t1, 0x1000\n"
         "    zolon 0, $t1\n"
         "    nop                   ; zolon is active before exit_br's fetch\n"
         "exit_br:\n"
         "    beq $a0, $a2, out     ; task 0: start == end\n"
         "tail:\n"
         "    addi $v1, $v1, 1      ; task 1: start == end\n"
         "out:\n"
         "    halt\n";
  return src.str();
}

TEST(ZolcPipeline, OlderOfTwoInFlightFetchEventsIsRestored) {
  const auto assembled = assembler::assemble(chained_task_source());
  ASSERT_TRUE(assembled.ok()) << assembled.error().to_string();
  const assembler::AsmProgram& prog = assembled.value();
  ASSERT_EQ(prog.symbols.at("exit_br"), kBase + 32 * 4);
  ASSERT_EQ(prog.symbols.at("tail"), kBase + 33 * 4);

  mem::Memory iss_mem;
  prog.load_into(iss_mem);
  ZolcController iss_ctrl(ZolcVariant::kLite);
  cpu::Iss iss(iss_mem);
  iss.set_accelerator(&iss_ctrl);
  iss.set_pc(prog.entry);
  std::vector<std::uint32_t> iss_pcs;
  iss.set_retire_hook([&iss_pcs](std::uint32_t pc, const Instruction&) {
    iss_pcs.push_back(pc);
  });
  iss.run(10'000);
  // Three full passes, then the taken branch discards its own event.
  EXPECT_EQ(iss.regs().read(3), 3);
  EXPECT_EQ(iss.regs().read(4), 3);
  EXPECT_EQ(iss.regs().read(5), 3);

  // Wrong-path events past the taken branch: the EX-resolved branch shadow
  // holds two fetches (tail, then exit_br again), the ID-resolved one.
  for (const auto& [resolve, shadow_events] :
       {std::pair{BranchResolveStage::kExecute, 2u},
        std::pair{BranchResolveStage::kDecode, 1u}}) {
    SCOPED_TRACE(resolve == BranchResolveStage::kExecute ? "resolve in EX"
                                                         : "resolve in ID");
    mem::Memory pipe_mem;
    prog.load_into(pipe_mem);
    ZolcController pipe_ctrl(ZolcVariant::kLite);
    PipelineConfig config;
    config.branch_resolve = resolve;
    cpu::Pipeline pipe(pipe_mem, config);
    pipe.set_accelerator(&pipe_ctrl);
    pipe.set_pc(prog.entry);
    std::vector<std::uint32_t> pipe_pcs;
    pipe.set_retire_hook([&pipe_pcs](std::uint32_t pc, const Instruction&) {
      pipe_pcs.push_back(pc);
    });
    pipe.run(10'000);

    EXPECT_EQ(pipe_pcs, iss_pcs);
    EXPECT_TRUE(pipe.regs() == iss.regs());
    EXPECT_EQ(pipe.stats().zolc_fetch_events,
              iss.stats().zolc_fetch_events + shadow_events);
    // One restore undoes all of them: the branch's own (oldest) snapshot,
    // taken before the loop-0 index advanced past 3 and task 1 was entered.
    EXPECT_EQ(pipe.stats().zolc_rollbacks, 1u);
    const cpu::AccelSnapshot snap = pipe_ctrl.snapshot();
    EXPECT_TRUE(snap == iss_ctrl.snapshot());
    EXPECT_TRUE(snap.active);
    EXPECT_EQ(snap.current_task, 0u);
    EXPECT_EQ(snap.loop_current[0], 3);
    EXPECT_EQ(snap.loop_current[1], 3);
  }
}

// ---------------- all configurations agree ----------------

class ZolcConfigMatrix
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ZolcConfigMatrix, ArchitecturalStateIndependentOfMicroarchitecture) {
  const auto [prog_id, cfg_id] = GetParam();
  std::vector<Instruction> prog;
  ZolcVariant variant = ZolcVariant::kLite;
  switch (prog_id) {
    case 0: prog = single_loop_program(13); break;
    case 1: prog = nested_loop_program(4, 6); break;
    case 2: prog = mixed_loop_program(3, 3); break;
    case 3:
      prog = multi_entry_program();
      variant = ZolcVariant::kFull;
      break;
    default:
      prog = triple_nest_program(2, 3, 4);
      break;
  }
  PipelineConfig cfg;
  switch (cfg_id) {
    case 0: break;
    case 1: cfg.branch_resolve = BranchResolveStage::kDecode; break;
    case 2: cfg.speculation = SpeculationPolicy::kGate; break;
    default:
      cfg.branch_resolve = BranchResolveStage::kDecode;
      cfg.speculation = SpeculationPolicy::kGate;
      break;
  }
  // run_with_zolc internally cross-checks pipeline vs ISS.
  const auto r = run_with_zolc(prog, variant, cfg);
  EXPECT_GT(r.pipe_stats.instructions, 0u);
}

INSTANTIATE_TEST_SUITE_P(Matrix, ZolcConfigMatrix,
                         ::testing::Combine(::testing::Range(0, 5),
                                            ::testing::Range(0, 4)));

}  // namespace
}  // namespace zolcsim
