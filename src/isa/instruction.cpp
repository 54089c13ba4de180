#include "isa/instruction.hpp"

#include "common/contracts.hpp"

namespace zolcsim::isa {

SourceRegs source_regs(const Instruction& instr) {
  const OpcodeInfo& info = opcode_info(instr.op);
  SourceRegs out;
  if (info.reads_rs) out.push(instr.rs);
  if (info.reads_rt) out.push(instr.rt);
  if (info.reads_rd) out.push(instr.rd);
  return out;
}

std::optional<std::uint8_t> dest_reg(const Instruction& instr) {
  const OpcodeInfo& info = opcode_info(instr.op);
  std::uint8_t dest = 0;
  if (info.writes_rd) dest = instr.rd;
  else if (info.writes_rt) dest = instr.rt;
  else if (info.writes_rs) dest = instr.rs;
  else if (instr.op == Opcode::kJal) dest = 31;  // link register
  else return std::nullopt;
  if (dest == 0) return std::nullopt;
  return dest;
}

bool is_control_flow(const Instruction& instr) {
  const OpcodeInfo& info = opcode_info(instr.op);
  return info.is_cond_branch || info.is_jump;
}

std::uint32_t branch_target(const Instruction& instr, std::uint32_t pc) {
  const OpcodeInfo& info = opcode_info(instr.op);
  ZS_EXPECTS(info.is_cond_branch);
  return pc + 4 + (static_cast<std::uint32_t>(instr.imm) << 2);
}

std::uint32_t jump_target(const Instruction& instr, std::uint32_t pc) {
  ZS_EXPECTS(instr.op == Opcode::kJ || instr.op == Opcode::kJal);
  return ((pc + 4) & 0xF000'0000u) | (instr.target << 2);
}

Instruction make_nop() noexcept {
  Instruction nop;
  nop.op = Opcode::kSll;
  return nop;
}

bool is_nop(const Instruction& instr) noexcept {
  return instr.op == Opcode::kSll && instr.rd == 0 && instr.rt == 0 &&
         instr.shamt == 0;
}

}  // namespace zolcsim::isa
