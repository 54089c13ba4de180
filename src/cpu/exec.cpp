#include "cpu/exec.hpp"

#include "common/strings.hpp"

namespace zolcsim::cpu {

void zolc_without_accelerator(std::uint32_t pc) {
  throw SimError("ZOLC instruction at " + hex32(pc) +
                 " with no loop accelerator attached");
}

OpRecord predecode(const isa::Instruction& instr, std::uint32_t pc) {
  OpRecord op;
  op.op = instr.op;
  op.rd = instr.rd;
  op.rs = instr.rs;
  op.rt = instr.rt;
  op.imm = instr.imm;
  if (!instr.valid()) return op;
  const isa::OpcodeInfo& info = isa::opcode_info(instr.op);
  op.aux = info.is_zolc ? instr.zidx : instr.shamt;
  op.dest = isa::dest_reg(instr).value_or(0);
  op.load = info.is_load;
  op.store = info.is_store;
  op.zolc = info.is_zolc;
  op.branch = info.is_cond_branch;
  op.control = info.is_cond_branch || info.is_jump;
  const isa::SourceRegs srcs = isa::source_regs(instr);
  for (std::uint8_t i = 0; i < srcs.count; ++i) {
    op.src_mask |= (1u << srcs.regs[i]) & ~1u;
  }
  if (info.is_cond_branch) {
    op.target = isa::branch_target(instr, pc);
  } else if (instr.op == isa::Opcode::kJ || instr.op == isa::Opcode::kJal) {
    op.target = isa::jump_target(instr, pc);
  }
  return op;
}

std::vector<OpRecord> predecode_image(const isa::CodeImage& image) {
  std::vector<OpRecord> out;
  if (image.code == nullptr) return out;
  out.reserve(image.size_words);
  for (std::size_t i = 0; i < image.size_words; ++i) {
    out.push_back(
        predecode(image.code[i], image.base + 4 * static_cast<std::uint32_t>(i)));
  }
  return out;
}

}  // namespace zolcsim::cpu
