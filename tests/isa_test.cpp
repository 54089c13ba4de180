#include <gtest/gtest.h>

#include <vector>

#include "common/contracts.hpp"
#include "cpu/exec.hpp"
#include "isa/build.hpp"
#include "isa/disasm.hpp"
#include "isa/encoding.hpp"

namespace zolcsim::isa {
namespace {

namespace b = build;

/// A representative instruction per opcode with distinctive field values,
/// used by the encode/decode round-trip property suite.
std::vector<Instruction> representative_instructions() {
  std::vector<Instruction> v;
  v.push_back(b::add(1, 2, 3));
  v.push_back(b::sub(4, 5, 6));
  v.push_back(b::and_(7, 8, 9));
  v.push_back(b::or_(10, 11, 12));
  v.push_back(b::xor_(13, 14, 15));
  v.push_back(b::nor_(16, 17, 18));
  v.push_back(b::slt(19, 20, 21));
  v.push_back(b::sltu(22, 23, 24));
  v.push_back(b::sllv(25, 26, 27));
  v.push_back(b::srlv(28, 29, 30));
  v.push_back(b::srav(31, 1, 2));
  v.push_back(b::sll(3, 4, 31));
  v.push_back(b::srl(5, 6, 1));
  v.push_back(b::sra(7, 8, 16));
  v.push_back(b::jr(31));
  v.push_back(b::jalr(30, 29));
  v.push_back(b::mul(1, 2, 3));
  v.push_back(b::mulh(4, 5, 6));
  v.push_back(b::mulhu(7, 8, 9));
  v.push_back(b::mac(10, 11, 12));
  v.push_back(b::max(13, 14, 15));
  v.push_back(b::min(16, 17, 18));
  v.push_back(b::abs_(19, 20));
  v.push_back(b::clz(21, 22));
  v.push_back(b::addi(1, 2, -32768));
  v.push_back(b::slti(3, 4, 32767));
  v.push_back(b::sltiu(5, 6, 0xFFFF));
  v.push_back(b::andi(7, 8, 0xABCD));
  v.push_back(b::ori(9, 10, 0x1234));
  v.push_back(b::xori(11, 12, 0x0F0F));
  v.push_back(b::lui(13, 0x8000));
  v.push_back(b::beq(1, 2, -4));
  v.push_back(b::bne(3, 4, 100));
  v.push_back(b::blez(5, -1));
  v.push_back(b::bgtz(6, 7));
  v.push_back(b::blt(7, 8, 2));
  v.push_back(b::bge(9, 10, -2));
  v.push_back(b::bltu(11, 12, 3));
  v.push_back(b::bgeu(13, 14, -3));
  v.push_back(b::lb(1, -128, 2));
  v.push_back(b::lh(3, 256, 4));
  v.push_back(b::lw(5, 1024, 6));
  v.push_back(b::lbu(7, 1, 8));
  v.push_back(b::lhu(9, 2, 10));
  v.push_back(b::sb(11, -1, 12));
  v.push_back(b::sh(13, 6, 14));
  v.push_back(b::sw(15, 8, 16));
  v.push_back(b::j(0x0040'0000));
  v.push_back(b::jal(0x0000'1234 & ~3u));
  v.push_back(b::dbne(17, -20));
  v.push_back(b::zolc_write(Opcode::kZolwTe, 31, 8));
  v.push_back(b::zolc_write(Opcode::kZolwTs, 0, 9));
  v.push_back(b::zolc_write(Opcode::kZolwLp0, 7, 10));
  v.push_back(b::zolc_write(Opcode::kZolwLp1, 6, 11));
  v.push_back(b::zolc_write(Opcode::kZolwEx0, 31, 12));
  v.push_back(b::zolc_write(Opcode::kZolwEx1, 30, 13));
  v.push_back(b::zolc_write(Opcode::kZolwEn0, 29, 14));
  v.push_back(b::zolc_write(Opcode::kZolwEn1, 28, 15));
  v.push_back(b::zolc_write(Opcode::kZolwU, 5, 16));
  v.push_back(b::zolon(3, 17));
  v.push_back(b::zoloff());
  v.push_back(b::halt());
  return v;
}

class RoundTrip : public ::testing::TestWithParam<Instruction> {};

TEST_P(RoundTrip, EncodeDecodeIsIdentity) {
  const Instruction original = GetParam();
  const std::uint32_t word = encode(original);
  const Instruction decoded = decode(word);
  EXPECT_EQ(decoded, original) << "word=" << word << " op="
                               << opcode_info(original.op).mnemonic;
}

INSTANTIATE_TEST_SUITE_P(
    AllOpcodes, RoundTrip, ::testing::ValuesIn(representative_instructions()),
    [](const ::testing::TestParamInfo<Instruction>& info) {
      std::string name(opcode_info(info.param.op).mnemonic);
      for (char& c : name) {
        if (c == '.') c = '_';
      }
      return name + "_" + std::to_string(info.index);
    });

TEST(Coverage, RepresentativeSetCoversEveryOpcode) {
  std::vector<bool> seen(static_cast<std::size_t>(Opcode::kOpcodeCount_), false);
  for (const Instruction& instr : representative_instructions()) {
    seen[static_cast<std::size_t>(instr.op)] = true;
  }
  for (std::size_t i = 1; i < seen.size(); ++i) {
    EXPECT_TRUE(seen[i]) << "opcode index " << i << " ("
                         << opcode_info(static_cast<Opcode>(i)).mnemonic
                         << ") missing from the round-trip suite";
  }
}

TEST(Decode, InvalidWordsYieldInvalid) {
  EXPECT_FALSE(decode(0xFFFF'FFFFu).valid());           // halt group, junk funct
  EXPECT_FALSE(decode(0x0000'003Fu).valid());           // SPECIAL, undefined funct
  EXPECT_FALSE(decode(0x7000'0000u).valid());           // undefined primary 0x1C+? (0x1C<<26 is DSP)... 0x70000000>>26=0x1C
  EXPECT_FALSE(decode(0xC000'0000u).valid());           // primary 0x30 undefined
}

TEST(Decode, ZeroWordIsCanonicalNop) {
  const Instruction instr = decode(0);
  EXPECT_TRUE(instr.valid());
  EXPECT_TRUE(is_nop(instr));
}

TEST(Encode, RejectsOutOfRangeImmediates) {
  EXPECT_THROW((void)encode(b::addi(1, 2, 40000)), ContractViolation);
  EXPECT_THROW((void)encode(b::addi(1, 2, -40000)), ContractViolation);
  EXPECT_THROW((void)encode(b::ori(1, 2, -1)), ContractViolation);  // unsigned imm
}

TEST(OpcodeInfo, MnemonicLookupRoundTrips) {
  for (std::size_t i = 1; i < static_cast<std::size_t>(Opcode::kOpcodeCount_);
       ++i) {
    const auto op = static_cast<Opcode>(i);
    const OpcodeInfo& info = opcode_info(op);
    const auto found = opcode_from_mnemonic(info.mnemonic);
    ASSERT_TRUE(found.has_value()) << info.mnemonic;
    EXPECT_EQ(*found, op);
  }
  EXPECT_FALSE(opcode_from_mnemonic("bogus").has_value());
}

TEST(OpcodeInfo, StorePropertiesAreConsistent) {
  for (Opcode op : {Opcode::kSb, Opcode::kSh, Opcode::kSw}) {
    const OpcodeInfo& info = opcode_info(op);
    EXPECT_TRUE(info.is_store);
    EXPECT_TRUE(info.reads_rt);
    EXPECT_FALSE(info.writes_rt);
  }
}

TEST(OpcodeInfo, DbneReadsAndWritesCounter) {
  const OpcodeInfo& info = opcode_info(Opcode::kDbne);
  EXPECT_TRUE(info.reads_rs);
  EXPECT_TRUE(info.writes_rs);
  EXPECT_TRUE(info.is_cond_branch);
}

TEST(Operands, SourceAndDestRegs) {
  EXPECT_EQ(dest_reg(b::add(5, 6, 7)).value(), 5);
  EXPECT_EQ(dest_reg(b::addi(9, 1, 4)).value(), 9);
  EXPECT_EQ(dest_reg(b::dbne(3, -1)).value(), 3);
  EXPECT_EQ(dest_reg(b::jal(0x1000)).value(), 31);
  EXPECT_FALSE(dest_reg(b::sw(1, 0, 2)).has_value());
  EXPECT_FALSE(dest_reg(b::beq(1, 2, 3)).has_value());
  EXPECT_FALSE(dest_reg(b::add(0, 1, 2)).has_value());  // $zero dest

  const SourceRegs mac_srcs = source_regs(b::mac(4, 5, 6));
  EXPECT_EQ(mac_srcs.count, 3);  // rs, rt, and the accumulator rd

  const SourceRegs sw_srcs = source_regs(b::sw(1, 0, 2));
  EXPECT_EQ(sw_srcs.count, 2);
}

TEST(Targets, BranchTargetArithmetic) {
  EXPECT_EQ(branch_target(b::beq(0, 0, -1), 0x1000), 0x1000u);  // self loop
  EXPECT_EQ(branch_target(b::beq(0, 0, 0), 0x1000), 0x1004u);
  EXPECT_EQ(branch_target(b::beq(0, 0, 3), 0x1000), 0x1010u);
  EXPECT_EQ(branch_target(b::beq(0, 0, -5), 0x1010), 0x1000u);
}

TEST(Targets, JumpTargetRegionForm) {
  EXPECT_EQ(jump_target(b::j(0x0123'4560), 0x1000), 0x0123'4560u);
}

TEST(Disasm, GoldenStrings) {
  EXPECT_EQ(disassemble(b::add(8, 9, 10), 0), "add $t0, $t1, $t2");
  EXPECT_EQ(disassemble(b::addi(4, 0, -7), 0), "addi $a0, $zero, -7");
  EXPECT_EQ(disassemble(b::lw(2, 16, 29), 0), "lw $v0, 16($sp)");
  EXPECT_EQ(disassemble(b::sw(2, -4, 30), 0), "sw $v0, -4($fp)");
  EXPECT_EQ(disassemble(b::beq(1, 2, -1), 0x1000), "beq $at, $v0, 0x00001000");
  EXPECT_EQ(disassemble(b::sll(1, 1, 4), 0), "sll $at, $at, 4");
  EXPECT_EQ(disassemble(b::nop(), 0), "nop");
  EXPECT_EQ(disassemble(b::halt(), 0), "halt");
  EXPECT_EQ(disassemble(b::dbne(9, -8), 0x2000),
            "dbne $t1, 0x00001FE4");
  EXPECT_EQ(disassemble(b::zoloff(), 0), "zoloff");
  EXPECT_EQ(disassemble(b::zolon(2, 9), 0), "zolon 2, $t1");
  EXPECT_EQ(disassemble_word(encode(b::mac(1, 2, 3)), 0),
            "mac $at, $v0, $v1");
  EXPECT_EQ(disassemble_word(0xFFFFFFFF, 0), "<invalid>");
}

TEST(Regs, NamesRoundTrip) {
  for (unsigned r = 0; r < kNumRegs; ++r) {
    EXPECT_EQ(reg_from_name(reg_name(r)).value(), r);
  }
  EXPECT_EQ(reg_from_name("$5").value(), 5u);
  EXPECT_EQ(reg_from_name("r31").value(), 31u);
  EXPECT_FALSE(reg_from_name("$32").has_value());
  EXPECT_FALSE(reg_from_name("x1").has_value());
  EXPECT_FALSE(reg_from_name("").has_value());
}

TEST(ControlFlow, Classification) {
  // The engines and the loop summarizer read this off the per-word record.
  const auto control = [](const Instruction& instr) {
    return cpu::predecode(instr, 0x1000).control;
  };
  EXPECT_TRUE(control(b::beq(0, 0, 1)));
  EXPECT_TRUE(control(b::j(0)));
  EXPECT_TRUE(control(b::jr(31)));
  EXPECT_TRUE(control(b::dbne(1, -1)));
  EXPECT_FALSE(control(b::add(1, 2, 3)));
  EXPECT_FALSE(control(b::halt()));
}

}  // namespace
}  // namespace zolcsim::isa
