// Functional (ISS) semantics: one test per instruction class, each checking
// architecturally visible results against hand-computed values.
#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "common/strings.hpp"
#include "sim_test_util.hpp"
#include "zolc/controller.hpp"

namespace zolcsim::cpu {
namespace {

namespace b = isa::build;
using isa::Instruction;
using test::emit_li;
using test::run_iss;

std::int32_t run_binary_op(Instruction op_instr, std::int32_t a,
                           std::int32_t b_val, std::uint8_t dest = 3) {
  std::vector<Instruction> prog;
  emit_li(prog, 1, static_cast<std::uint32_t>(a));
  emit_li(prog, 2, static_cast<std::uint32_t>(b_val));
  prog.push_back(op_instr);
  prog.push_back(b::halt());
  return run_iss(prog).regs.read(dest);
}

TEST(ExecAlu, AddSubWrapAround) {
  EXPECT_EQ(run_binary_op(b::add(3, 1, 2), 5, 7), 12);
  EXPECT_EQ(run_binary_op(b::add(3, 1, 2), INT32_MAX, 1), INT32_MIN);
  EXPECT_EQ(run_binary_op(b::sub(3, 1, 2), 5, 7), -2);
  EXPECT_EQ(run_binary_op(b::sub(3, 1, 2), INT32_MIN, 1), INT32_MAX);
}

TEST(ExecAlu, Bitwise) {
  EXPECT_EQ(run_binary_op(b::and_(3, 1, 2), 0x0FF0, 0x00FF), 0x00F0);
  EXPECT_EQ(run_binary_op(b::or_(3, 1, 2), 0x0FF0, 0x00FF), 0x0FFF);
  EXPECT_EQ(run_binary_op(b::xor_(3, 1, 2), 0x0FF0, 0x00FF), 0x0F0F);
  EXPECT_EQ(run_binary_op(b::nor_(3, 1, 2), 0, 0), -1);
}

TEST(ExecAlu, SetLessThan) {
  EXPECT_EQ(run_binary_op(b::slt(3, 1, 2), -1, 1), 1);
  EXPECT_EQ(run_binary_op(b::slt(3, 1, 2), 1, -1), 0);
  EXPECT_EQ(run_binary_op(b::sltu(3, 1, 2), -1, 1), 0);  // 0xFFFFFFFF > 1
  EXPECT_EQ(run_binary_op(b::sltu(3, 1, 2), 1, -1), 1);
}

TEST(ExecAlu, ShiftsImmediate) {
  std::vector<Instruction> prog;
  emit_li(prog, 2, 0x8000'0001u);
  prog.push_back(b::sll(3, 2, 1));
  prog.push_back(b::srl(4, 2, 1));
  prog.push_back(b::sra(5, 2, 1));
  prog.push_back(b::sll(6, 2, 0));
  prog.push_back(b::halt());
  const auto r = run_iss(prog);
  EXPECT_EQ(r.regs.read_u(3), 0x0000'0002u);
  EXPECT_EQ(r.regs.read_u(4), 0x4000'0000u);
  EXPECT_EQ(r.regs.read_u(5), 0xC000'0000u);
  EXPECT_EQ(r.regs.read_u(6), 0x8000'0001u);
}

TEST(ExecAlu, VariableShiftsMaskAmountTo5Bits) {
  // shift amount 33 & 31 == 1
  EXPECT_EQ(run_binary_op(b::sllv(3, 1, 2), 33, 1), 2);
  EXPECT_EQ(run_binary_op(b::srlv(3, 1, 2), 32, 8), 8);  // 32&31==0
  EXPECT_EQ(run_binary_op(b::srav(3, 1, 2), 1, -4), -2);
}

TEST(ExecAlu, LuiOriComposition) {
  std::vector<Instruction> prog;
  prog.push_back(b::lui(1, 0xDEAD));
  prog.push_back(b::ori(1, 1, 0xBEEF));
  prog.push_back(b::halt());
  EXPECT_EQ(run_iss(prog).regs.read_u(1), 0xDEAD'BEEFu);
}

TEST(ExecAlu, ImmediateOps) {
  std::vector<Instruction> prog;
  prog.push_back(b::addi(1, 0, 100));
  prog.push_back(b::addi(2, 1, -1));
  prog.push_back(b::slti(3, 1, 101));
  prog.push_back(b::sltiu(4, 1, 99));
  prog.push_back(b::andi(5, 1, 0x6));
  prog.push_back(b::xori(6, 1, 0xFF));
  prog.push_back(b::halt());
  const auto r = run_iss(prog);
  EXPECT_EQ(r.regs.read(1), 100);
  EXPECT_EQ(r.regs.read(2), 99);
  EXPECT_EQ(r.regs.read(3), 1);
  EXPECT_EQ(r.regs.read(4), 0);
  EXPECT_EQ(r.regs.read(5), 100 & 6);
  EXPECT_EQ(r.regs.read(6), 100 ^ 0xFF);
}

TEST(ExecDsp, MultiplyFamily) {
  EXPECT_EQ(run_binary_op(b::mul(3, 1, 2), 7, -6), -42);
  EXPECT_EQ(run_binary_op(b::mul(3, 1, 2), 0x10000, 0x10000), 0);  // low 32
  EXPECT_EQ(run_binary_op(b::mulh(3, 1, 2), 0x10000, 0x10000), 1);
  EXPECT_EQ(run_binary_op(b::mulh(3, 1, 2), -1, -1), 0);
  EXPECT_EQ(run_binary_op(b::mulhu(3, 1, 2), -1, -1), -2);  // 0xFFFFFFFE
}

TEST(ExecDsp, MacAccumulates) {
  std::vector<Instruction> prog;
  emit_li(prog, 1, 3);
  emit_li(prog, 2, 4);
  emit_li(prog, 3, 100);
  prog.push_back(b::mac(3, 1, 2));  // 100 + 12
  prog.push_back(b::mac(3, 1, 2));  // 112 + 12
  prog.push_back(b::halt());
  EXPECT_EQ(run_iss(prog).regs.read(3), 124);
}

TEST(ExecDsp, MinMaxAbsClz) {
  EXPECT_EQ(run_binary_op(b::max(3, 1, 2), -5, 3), 3);
  EXPECT_EQ(run_binary_op(b::min(3, 1, 2), -5, 3), -5);
  std::vector<Instruction> prog;
  emit_li(prog, 1, static_cast<std::uint32_t>(-7));
  prog.push_back(b::abs_(3, 1));
  emit_li(prog, 2, 0x0001'0000u);
  prog.push_back(b::clz(4, 2));
  prog.push_back(b::clz(5, 0));
  prog.push_back(b::halt());
  const auto r = run_iss(prog);
  EXPECT_EQ(r.regs.read(3), 7);
  EXPECT_EQ(r.regs.read(4), 15);
  EXPECT_EQ(r.regs.read(5), 32);
}

TEST(ExecMem, LoadStoreWidthsAndExtension) {
  std::vector<Instruction> prog;
  emit_li(prog, 1, 0x2000);            // base
  emit_li(prog, 2, 0xFFFF'FF80u);      // -128 pattern
  prog.push_back(b::sw(2, 0, 1));
  prog.push_back(b::lb(3, 0, 1));      // sign-extended byte
  prog.push_back(b::lbu(4, 0, 1));     // zero-extended byte
  prog.push_back(b::lh(5, 0, 1));
  prog.push_back(b::lhu(6, 0, 1));
  prog.push_back(b::lw(7, 0, 1));
  prog.push_back(b::halt());
  const auto r = run_iss(prog);
  EXPECT_EQ(r.regs.read(3), -128);
  EXPECT_EQ(r.regs.read(4), 0x80);
  EXPECT_EQ(r.regs.read(5), -128);
  EXPECT_EQ(r.regs.read(6), 0xFF80);
  EXPECT_EQ(r.regs.read_u(7), 0xFFFF'FF80u);
}

TEST(ExecMem, SubWordStoresMerge) {
  std::vector<Instruction> prog;
  emit_li(prog, 1, 0x2000);
  emit_li(prog, 2, 0x1111'1111u);
  prog.push_back(b::sw(2, 0, 1));
  emit_li(prog, 3, 0xAB);
  prog.push_back(b::sb(3, 1, 1));   // byte 1
  emit_li(prog, 4, 0xCDEF);
  prog.push_back(b::sh(4, 2, 1));   // upper half
  prog.push_back(b::lw(5, 0, 1));
  prog.push_back(b::halt());
  EXPECT_EQ(run_iss(prog).regs.read_u(5), 0xCDEF'AB11u);
}

TEST(ExecMem, NegativeOffsets) {
  std::vector<Instruction> prog;
  emit_li(prog, 1, 0x2010);
  emit_li(prog, 2, 77);
  prog.push_back(b::sw(2, -16, 1));
  prog.push_back(b::lw(3, -16, 1));
  prog.push_back(b::halt());
  EXPECT_EQ(run_iss(prog).regs.read(3), 77);
}

struct BranchCase {
  Instruction instr;
  std::int32_t rs;
  std::int32_t rt;
  bool taken;
  const char* name;
};

class BranchSemantics : public ::testing::TestWithParam<BranchCase> {};

TEST_P(BranchSemantics, TakenMatchesSpec) {
  const BranchCase& c = GetParam();
  // Layout: set r1, r2; branch +1 over a marker write; marker r10=1 executes
  // only when the branch is NOT taken.
  std::vector<Instruction> prog;
  emit_li(prog, 1, static_cast<std::uint32_t>(c.rs));
  emit_li(prog, 2, static_cast<std::uint32_t>(c.rt));
  Instruction br = c.instr;
  br.rs = 1;
  br.rt = 2;
  br.imm = 1;
  prog.push_back(br);
  prog.push_back(b::addi(10, 0, 1));
  prog.push_back(b::halt());
  const auto r = run_iss(prog);
  EXPECT_EQ(r.regs.read(10) == 0, c.taken) << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    AllConditions, BranchSemantics,
    ::testing::Values(
        BranchCase{b::beq(0, 0, 0), 4, 4, true, "beq_eq"},
        BranchCase{b::beq(0, 0, 0), 4, 5, false, "beq_ne"},
        BranchCase{b::bne(0, 0, 0), 4, 5, true, "bne_ne"},
        BranchCase{b::bne(0, 0, 0), 4, 4, false, "bne_eq"},
        BranchCase{b::blt(0, 0, 0), -1, 0, true, "blt_neg"},
        BranchCase{b::blt(0, 0, 0), 0, 0, false, "blt_eq"},
        BranchCase{b::bge(0, 0, 0), 0, 0, true, "bge_eq"},
        BranchCase{b::bge(0, 0, 0), -2, -1, false, "bge_lt"},
        BranchCase{b::bltu(0, 0, 0), 1, -1, true, "bltu_wrap"},
        BranchCase{b::bltu(0, 0, 0), -1, 1, false, "bltu_wrap2"},
        BranchCase{b::bgeu(0, 0, 0), -1, 1, true, "bgeu_wrap"},
        BranchCase{b::blez(0, 0), 0, 0, true, "blez_zero"},
        BranchCase{b::blez(0, 0), 1, 0, false, "blez_pos"},
        BranchCase{b::bgtz(0, 0), 1, 0, true, "bgtz_pos"},
        BranchCase{b::bgtz(0, 0), 0, 0, false, "bgtz_zero"}),
    [](const ::testing::TestParamInfo<BranchCase>& info) {
      return info.param.name;
    });

TEST(ExecBranch, DbneDecrementsAndBranches) {
  // Loop three times: r1 = 3; body increments r2.
  std::vector<Instruction> prog;
  emit_li(prog, 1, 3);
  prog.push_back(b::addi(2, 2, 1));   // loop body (also the dbne target)
  prog.push_back(b::dbne(1, -2));     // back to the addi
  prog.push_back(b::halt());
  const auto r = run_iss(prog);
  EXPECT_EQ(r.regs.read(2), 3);
  EXPECT_EQ(r.regs.read(1), 0);  // counter consumed
}

TEST(ExecJump, JalLinksAndJrReturns) {
  const std::uint32_t base = 0x1000;
  // 0x1000 addi r4,r0,1 ; 0x1004 jal 0x1010 ; 0x1008 addi r5,r0,1 ;
  // 0x100C halt ; 0x1010 addi r6,r0,1 ; 0x1014 jr $ra
  std::vector<Instruction> prog;
  prog.push_back(b::addi(4, 0, 1));
  prog.push_back(b::jal(base + 0x10));
  prog.push_back(b::addi(5, 0, 1));
  prog.push_back(b::halt());
  prog.push_back(b::addi(6, 0, 1));
  prog.push_back(b::jr(31));
  const auto r = run_iss(prog, nullptr, base);
  EXPECT_EQ(r.regs.read(4), 1);
  EXPECT_EQ(r.regs.read(5), 1);  // executed after return
  EXPECT_EQ(r.regs.read(6), 1);
  EXPECT_EQ(r.regs.read_u(31), base + 0x8);
}

TEST(ExecJump, JalrLinksIntoChosenRegister) {
  const std::uint32_t base = 0x1000;
  std::vector<Instruction> prog;
  emit_li(prog, 9, base + 0x10);       // 0x1000 target address
  prog.push_back(b::jalr(20, 9));      // 0x1004
  prog.push_back(b::halt());           // 0x1008 (skipped first)
  prog.push_back(b::nop());            // 0x100C
  prog.push_back(b::jr(20));           // 0x1010 -> back to 0x1008
  const auto r = run_iss(prog, nullptr, base);
  EXPECT_EQ(r.regs.read_u(20), base + 0x8);
}

TEST(ExecMisc, WritesToZeroRegisterIgnored) {
  std::vector<Instruction> prog;
  prog.push_back(b::addi(0, 0, 55));
  prog.push_back(b::add(3, 0, 0));
  prog.push_back(b::halt());
  const auto r = run_iss(prog);
  EXPECT_EQ(r.regs.read(0), 0);
  EXPECT_EQ(r.regs.read(3), 0);
}

TEST(ExecMisc, IllegalInstructionTraps) {
  mem::Memory memory;
  memory.load_words(0x1000, std::vector<std::uint32_t>{0xFFFF'FFFFu});
  Iss iss(memory);
  iss.set_pc(0x1000);
  EXPECT_THROW(iss.step(), SimError);
}

TEST(ExecMisc, ZolcInstructionWithoutAccelTraps) {
  std::vector<isa::Instruction> prog;
  prog.push_back(b::zoloff());
  prog.push_back(b::halt());
  EXPECT_THROW(run_iss(prog), SimError);
}

TEST(ExecMisc, RunHonorsStepLimit) {
  // Infinite loop: j self.
  const std::uint32_t base = 0x1000;
  std::vector<isa::Instruction> prog;
  prog.push_back(b::j(base));
  mem::Memory memory;
  test::load_program(memory, base, prog);
  Iss iss(memory);
  iss.set_pc(base);
  EXPECT_THROW(iss.run(1000), SimError);
}

TEST(ExecMisc, HaltStopsExecution) {
  std::vector<isa::Instruction> prog;
  prog.push_back(b::addi(1, 0, 1));
  prog.push_back(b::halt());
  prog.push_back(b::addi(1, 0, 99));  // must not execute
  const auto r = run_iss(prog);
  EXPECT_EQ(r.regs.read(1), 1);
  EXPECT_EQ(r.stats.instructions, 2u);
}

// ---- one execute path, on and off the predecoded image ----

/// Everything observable after an ISS run.
struct Placed {
  RegFile regs;
  IssStats stats;
  std::uint32_t pc = 0;
  bool halted = false;
  mem::Memory memory;
  std::string error;  ///< SimError text, empty if none was thrown
  AccelSnapshot accel;
};

constexpr std::uint32_t kPlacedBase = 0x1000;
constexpr std::uint32_t kPlacedData = 0x8000;

/// Runs `words` from kPlacedBase with the first `image_words` of them
/// attached as the predecoded image; the rest are fetched from memory.
Placed run_placed(const std::vector<std::uint32_t>& words,
                  std::size_t image_words, bool with_accel) {
  Placed out;
  out.memory.load_words(kPlacedBase, words);
  out.memory.load_words(kPlacedData,
                        std::vector<std::uint32_t>{0x8899'AABBu, 0xCCDD'EEFFu,
                                                   0x8765'4321u, 0x0102'0304u});
  std::vector<isa::Instruction> image;
  for (std::size_t i = 0; i < image_words; ++i) {
    image.push_back(isa::decode(words[i]));
  }
  zolc::ZolcController controller(zolc::ZolcVariant::kFull);
  Iss iss(out.memory);
  if (with_accel) iss.set_accelerator(&controller);
  iss.set_code_image(isa::CodeImage{kPlacedBase, image.data(), image.size()});
  iss.set_pc(kPlacedBase);
  try {
    iss.run(100);
  } catch (const SimError& e) {
    out.error = e.what();
  }
  out.regs = iss.regs();
  out.stats = iss.stats();
  out.pc = iss.pc();
  out.halted = iss.halted();
  out.accel = controller.snapshot();
  return out;
}

/// The instruction under test with every operand field its format uses set
/// to the registers and values run_placed()'s prologue prepares.
isa::Instruction operand_instance(isa::Opcode op, std::uint32_t pc) {
  const isa::OpcodeInfo& info = isa::opcode_info(op);
  isa::Instruction in;
  in.op = op;
  switch (info.format) {
    case isa::Format::kR3:
    case isa::Format::kR3Acc:
      in.rd = 3, in.rs = 1, in.rt = 2;
      break;
    case isa::Format::kRShift:
      in.rd = 3, in.rt = 1, in.shamt = 3;
      break;
    case isa::Format::kR2:
    case isa::Format::kR1:
      in.rd = 3, in.rs = op == isa::Opcode::kJalr || op == isa::Opcode::kJr
                             ? 5
                             : 1;
      break;
    case isa::Format::kI:
      in.rt = 3, in.rs = 1, in.imm = info.imm_is_signed ? -3 : 0xF0F0;
      break;
    case isa::Format::kLui:
      in.rt = 3, in.imm = 0x1234;
      break;
    case isa::Format::kBranchCmp:
    case isa::Format::kBranchZero:
      in.rs = 1, in.rt = 2, in.imm = 1;  // taken: skip the next word
      if (info.format == isa::Format::kBranchZero) in.rt = 0;
      break;
    case isa::Format::kMem:
      in.rs = 4, in.rt = info.is_store ? 2 : 3, in.imm = 8;
      break;
    case isa::Format::kJump:
      in.target = (pc + 8) >> 2;
      break;
    case isa::Format::kZolcWrite:
      // zolon's operand is the region base, which must be word-aligned.
      in.rs = op == isa::Opcode::kZolOn ? 4 : 2, in.zidx = 1;
      break;
    case isa::Format::kZolcNone:
    case isa::Format::kNone:
      break;
  }
  return in;
}

/// Prologue (r1 = -7, r2 = 5, r4 = data, r5 = jump-register target), the
/// word under test, then a halt on both the fall-through and the taken
/// path. Returns the words and the index of the word under test.
std::pair<std::vector<std::uint32_t>, std::size_t> placed_program(
    std::uint32_t word_under_test) {
  std::vector<isa::Instruction> prologue;
  emit_li(prologue, 1, static_cast<std::uint32_t>(-7));
  emit_li(prologue, 2, 5);
  emit_li(prologue, 4, kPlacedData);
  const auto at = static_cast<std::uint32_t>(prologue.size() + 1);
  emit_li(prologue, 5, kPlacedBase + 4 * (at + 2));
  std::vector<std::uint32_t> words;
  for (const isa::Instruction& in : prologue) words.push_back(isa::encode(in));
  words.push_back(word_under_test);
  words.push_back(isa::encode(b::halt()));
  words.push_back(isa::encode(b::halt()));
  return {words, prologue.size()};
}

void expect_same(const Placed& on, const Placed& off, const std::string& what) {
  EXPECT_EQ(on.error, off.error) << what;
  EXPECT_TRUE(on.regs == off.regs) << what;
  EXPECT_TRUE(on.stats == off.stats) << what;
  EXPECT_EQ(on.pc, off.pc) << what;
  EXPECT_EQ(on.halted, off.halted) << what;
  EXPECT_TRUE(on.memory == off.memory) << what;
  EXPECT_TRUE(on.accel == off.accel) << what;
}

TEST(ExecDispatch, EveryOpcodeRunsTheSameOnAndOffTheImage) {
  const std::size_t index = placed_program(0).second;
  const std::uint32_t pc = kPlacedBase + 4 * static_cast<std::uint32_t>(index);
  for (std::size_t i = 1; i < static_cast<std::size_t>(
                                  isa::Opcode::kOpcodeCount_);
       ++i) {
    const auto op = static_cast<isa::Opcode>(i);
    const std::string name(isa::opcode_info(op).mnemonic);
    const std::vector<std::uint32_t> program =
        placed_program(isa::encode(operand_instance(op, pc))).first;
    for (const bool with_accel : {true, false}) {
      const Placed on = run_placed(program, program.size(), with_accel);
      const Placed off = run_placed(program, index, with_accel);
      const std::string what =
          name + (with_accel ? " with" : " without") + " accelerator";
      expect_same(on, off, what);
      if (!isa::opcode_info(op).is_zolc) {
        EXPECT_TRUE(on.error.empty()) << what << ": " << on.error;
        EXPECT_TRUE(on.halted) << what;
      } else if (with_accel) {
        // The controller may reject the operands (a uZOLC register write on
        // ZOLCfull); whatever it does, it does the same on both paths.
        EXPECT_EQ(on.stats.instructions, index + (on.error.empty() ? 2 : 0))
            << what;
      } else {
        EXPECT_EQ(on.error, "ZOLC instruction at " + hex32(pc) +
                                " with no loop accelerator attached")
            << what;
      }
    }
  }
}

TEST(ExecDispatch, IllegalWordTrapsTheSameOnAndOffTheImage) {
  const auto [program, index] = placed_program(0xFFFF'FFFFu);
  const std::uint32_t pc = kPlacedBase + 4 * static_cast<std::uint32_t>(index);
  const Placed on = run_placed(program, program.size(), false);
  const Placed off = run_placed(program, index, false);
  expect_same(on, off, "illegal word");
  EXPECT_EQ(on.error, "illegal instruction 0xFFFFFFFF at " + hex32(pc));
  EXPECT_EQ(on.stats.instructions, index);
}

}  // namespace
}  // namespace zolcsim::cpu
