#include "cpu/iss.hpp"

#include <bit>

#include "common/strings.hpp"
#include "isa/encoding.hpp"
#include "zolc/controller.hpp"

namespace zolcsim::cpu {

namespace {

using isa::Instruction;
using isa::Opcode;

[[noreturn]] void illegal_instruction(const mem::Memory& memory,
                                      std::uint32_t pc) {
  throw SimError("illegal instruction " + hex32(memory.fetch32(pc)) + " at " +
                 hex32(pc));
}

[[noreturn]] void zolc_without_accelerator(std::uint32_t pc) {
  throw SimError("ZOLC instruction at " + hex32(pc) +
                 " with no loop accelerator attached");
}

// One helper per operand form. Each dispatch case passes its own opcode as
// a constant, so the inline alu_eval / branch_taken fold to the single
// operation while the semantics keep their one definition in exec.hpp.

/// rd := rs op rt (register-form ALU and DSP ops; shifts read rt, shamt).
template <Opcode kOp>
inline void reg_form(RegFile& regs, std::uint8_t rd, std::uint8_t rs,
                     std::uint8_t rt, std::uint8_t shamt) {
  regs.write_raw(rd, alu_eval(kOp, AluInputs{regs.read_raw(rs),
                                             regs.read_raw(rt), 0, shamt}));
}

/// rt := rs op imm (immediate-form ALU ops).
template <Opcode kOp>
inline void imm_form(RegFile& regs, std::uint8_t rt, std::uint8_t rs,
                     std::int32_t imm) {
  regs.write_raw(rt, alu_eval(kOp, AluInputs{regs.read_raw(rs), imm, 0, 0}));
}

}  // namespace

Iss::ExecOp Iss::predecode(const Instruction& instr, std::uint32_t pc) {
  ExecOp op;
  op.op = instr.op;
  op.rd = instr.rd;
  op.rs = instr.rs;
  op.rt = instr.rt;
  op.imm = instr.imm;
  if (!instr.valid()) return op;
  const isa::OpcodeInfo& info = isa::opcode_info(instr.op);
  op.aux = info.is_zolc ? instr.zidx : instr.shamt;
  op.control = info.is_cond_branch || info.is_jump;
  if (info.is_cond_branch) {
    op.target = isa::branch_target(instr, pc);
  } else if (instr.op == Opcode::kJ || instr.op == Opcode::kJal) {
    op.target = isa::jump_target(instr, pc);
  }
  return op;
}

void Iss::set_code_image(isa::CodeImage image) {
  image_ = image;
  image_ops_.clear();
  if (image.code != nullptr) {
    image_ops_.reserve(image.size_words);
    for (std::size_t i = 0; i < image.size_words; ++i) {
      const auto pc = image.base + 4 * static_cast<std::uint32_t>(i);
      image_ops_.push_back(predecode(image.code[i], pc));
    }
  }
  summarizer_.clear_cache();
}

const Iss::ExecOp& Iss::decode_off_image(std::uint32_t pc) {
  off_image_instr_ = isa::decode(mem_.fetch32(pc));
  off_image_op_ = predecode(off_image_instr_, pc);
  return off_image_op_;
}

[[gnu::always_inline]] inline bool Iss::dispatch(const ExecOp& op,
                                                 std::uint32_t pc,
                                                 std::uint32_t& target) {
  using O = Opcode;
  RegFile& r = regs_;
  const auto rs = [&r, &op] { return r.read_raw(op.rs); };
  const auto rt = [&r, &op] { return r.read_raw(op.rt); };
  const auto addr = [&r, &op] {
    return static_cast<std::uint32_t>(
        detail::wrap_add(r.read_raw(op.rs), op.imm));
  };
  const auto link = static_cast<std::int32_t>(pc + 4);
  bool taken = false;
  target = op.target;
  // clang-format off
  switch (op.op) {
    case O::kAdd:   reg_form<O::kAdd>(r, op.rd, op.rs, op.rt, 0); break;
    case O::kSub:   reg_form<O::kSub>(r, op.rd, op.rs, op.rt, 0); break;
    case O::kAnd:   reg_form<O::kAnd>(r, op.rd, op.rs, op.rt, 0); break;
    case O::kOr:    reg_form<O::kOr>(r, op.rd, op.rs, op.rt, 0); break;
    case O::kXor:   reg_form<O::kXor>(r, op.rd, op.rs, op.rt, 0); break;
    case O::kNor:   reg_form<O::kNor>(r, op.rd, op.rs, op.rt, 0); break;
    case O::kSlt:   reg_form<O::kSlt>(r, op.rd, op.rs, op.rt, 0); break;
    case O::kSltu:  reg_form<O::kSltu>(r, op.rd, op.rs, op.rt, 0); break;
    case O::kSllv:  reg_form<O::kSllv>(r, op.rd, op.rs, op.rt, 0); break;
    case O::kSrlv:  reg_form<O::kSrlv>(r, op.rd, op.rs, op.rt, 0); break;
    case O::kSrav:  reg_form<O::kSrav>(r, op.rd, op.rs, op.rt, 0); break;
    case O::kSll:   reg_form<O::kSll>(r, op.rd, 0, op.rt, op.aux); break;
    case O::kSrl:   reg_form<O::kSrl>(r, op.rd, 0, op.rt, op.aux); break;
    case O::kSra:   reg_form<O::kSra>(r, op.rd, 0, op.rt, op.aux); break;
    case O::kMul:   reg_form<O::kMul>(r, op.rd, op.rs, op.rt, 0); break;
    case O::kMulh:  reg_form<O::kMulh>(r, op.rd, op.rs, op.rt, 0); break;
    case O::kMulhu: reg_form<O::kMulhu>(r, op.rd, op.rs, op.rt, 0); break;
    case O::kMax:   reg_form<O::kMax>(r, op.rd, op.rs, op.rt, 0); break;
    case O::kMin:   reg_form<O::kMin>(r, op.rd, op.rs, op.rt, 0); break;
    case O::kAbs:   reg_form<O::kAbs>(r, op.rd, op.rs, 0, 0); break;
    case O::kClz:   reg_form<O::kClz>(r, op.rd, op.rs, 0, 0); break;
    case O::kMac:
      r.write_raw(op.rd, alu_eval(O::kMac, AluInputs{rs(), rt(),
                                                     r.read_raw(op.rd), 0}));
      break;

    case O::kAddi:  imm_form<O::kAddi>(r, op.rt, op.rs, op.imm); break;
    case O::kSlti:  imm_form<O::kSlti>(r, op.rt, op.rs, op.imm); break;
    case O::kSltiu: imm_form<O::kSltiu>(r, op.rt, op.rs, op.imm); break;
    case O::kAndi:  imm_form<O::kAndi>(r, op.rt, op.rs, op.imm); break;
    case O::kOri:   imm_form<O::kOri>(r, op.rt, op.rs, op.imm); break;
    case O::kXori:  imm_form<O::kXori>(r, op.rt, op.rs, op.imm); break;
    case O::kLui:   imm_form<O::kLui>(r, op.rt, 0, op.imm); break;

    case O::kBeq:  taken = branch_taken(O::kBeq, rs(), rt()); break;
    case O::kBne:  taken = branch_taken(O::kBne, rs(), rt()); break;
    case O::kBlez: taken = branch_taken(O::kBlez, rs(), 0); break;
    case O::kBgtz: taken = branch_taken(O::kBgtz, rs(), 0); break;
    case O::kBlt:  taken = branch_taken(O::kBlt, rs(), rt()); break;
    case O::kBge:  taken = branch_taken(O::kBge, rs(), rt()); break;
    case O::kBltu: taken = branch_taken(O::kBltu, rs(), rt()); break;
    case O::kBgeu: taken = branch_taken(O::kBgeu, rs(), rt()); break;
    case O::kDbne: {
      const std::int32_t dec = alu_eval(O::kDbne, AluInputs{rs(), 0, 0, 0});
      r.write_raw(op.rs, dec);
      taken = branch_taken(O::kDbne, dec, 0);
      break;
    }

    case O::kLb:  r.write_raw(op.rt, mem_load(O::kLb, mem_, addr())); break;
    case O::kLh:  r.write_raw(op.rt, mem_load(O::kLh, mem_, addr())); break;
    case O::kLw:  r.write_raw(op.rt, mem_load(O::kLw, mem_, addr())); break;
    case O::kLbu: r.write_raw(op.rt, mem_load(O::kLbu, mem_, addr())); break;
    case O::kLhu: r.write_raw(op.rt, mem_load(O::kLhu, mem_, addr())); break;
    case O::kSb:  mem_store(O::kSb, mem_, addr(), rt()); break;
    case O::kSh:  mem_store(O::kSh, mem_, addr(), rt()); break;
    case O::kSw:  mem_store(O::kSw, mem_, addr(), rt()); break;

    case O::kJ:
      taken = true;
      break;
    case O::kJal:
      taken = true;
      r.write_raw(31, link);
      break;
    case O::kJr:
      taken = true;
      target = static_cast<std::uint32_t>(rs());
      break;
    case O::kJalr:
      taken = true;
      target = static_cast<std::uint32_t>(rs());
      r.write_raw(op.rd, link);
      break;

    case O::kZolwTe:
    case O::kZolwTs:
    case O::kZolwLp0:
    case O::kZolwLp1:
    case O::kZolwEx0:
    case O::kZolwEx1:
    case O::kZolwEn0:
    case O::kZolwEn1:
    case O::kZolwU:
      if (accel_ == nullptr) zolc_without_accelerator(pc);
      accel_->init_write(op.op, op.aux, static_cast<std::uint32_t>(rs()));
      break;
    case O::kZolOn:
      if (accel_ == nullptr) zolc_without_accelerator(pc);
      accel_->activate(op.aux, static_cast<std::uint32_t>(rs()));
      break;
    case O::kZolOff:
      if (accel_ == nullptr) zolc_without_accelerator(pc);
      accel_->deactivate();
      break;

    case O::kHalt:
      halted_ = true;
      break;

    case O::kInvalid:
    case O::kOpcodeCount_:
      ZS_UNREACHABLE("ISS dispatch: not an executable opcode");
  }
  // clang-format on
  return taken;
}

[[gnu::always_inline]] inline void Iss::execute() {
  const std::uint32_t pc = pc_;
  fetch_redirected_ = false;

  // Rotating the byte offset moves a misaligned PC's low bits to the top,
  // so one compare rejects PCs below, past and between the image's words.
  const std::uint32_t word = std::rotr(pc - image_.base, 2);
  const bool in_image = word < image_ops_.size();
  const ExecOp& op = in_image ? image_ops_[word] : decode_off_image(pc);
  if (op.op == Opcode::kInvalid) illegal_instruction(mem_, pc);
  const Instruction& instr = in_image ? image_.code[word] : off_image_instr_;

  if (accel_ != nullptr && accel_->will_trigger(pc)) [[unlikely]] {
    execute_fetch_event(op, instr, pc);
    return;
  }
  std::uint32_t target;
  const bool taken = dispatch(op, pc, target);
  ++stats_.instructions;
  if (retire_hook_) retire_hook_(pc, instr);
  if (taken) {
    take_control(pc, target);
  } else {
    pc_ = pc + 4;
  }
}

void Iss::take_control(std::uint32_t pc, std::uint32_t target) {
  ++stats_.taken_control;
  if (accel_ != nullptr) {
    if (auto resolution = accel_->on_taken_control(pc, target)) {
      ++stats_.zolc_resolution_events;
      for (const RfWrite& w : resolution->rf_writes) {
        regs_.write(w.reg, w.value);
      }
    }
  }
  pc_ = target;
}

// Fetch-time ZOLC event (speculative: discarded if this instruction is a
// taken control transfer, mirroring the pipeline's rollback). Only a branch
// or jump can be taken, so only those need the rollback snapshot.
void Iss::execute_fetch_event(const ExecOp& op, const Instruction& instr,
                              std::uint32_t pc) {
  if (op.control) pre_fetch_ = accel_->snapshot();
  const std::optional<AccelEvent> fetch_event = accel_->on_fetch(pc);
  ++stats_.zolc_fetch_events;
  std::uint32_t target;
  const bool taken = dispatch(op, pc, target);
  ++stats_.instructions;
  if (retire_hook_) retire_hook_(pc, instr);
  if (taken) {
    if (fetch_event) accel_->restore(pre_fetch_);
    take_control(pc, target);
    return;
  }
  if (fetch_event) {
    for (const RfWrite& w : fetch_event->rf_writes) {
      regs_.write(w.reg, w.value);
    }
    fetch_redirected_ = fetch_event->redirect.has_value();
    pc_ = fetch_event->redirect.value_or(pc + 4);
    return;
  }
  pc_ = pc + 4;
}

void Iss::step() {
  if (!halted_) execute();
}

std::uint64_t Iss::run(std::uint64_t max_steps) {
  stats_ = IssStats{};
  summarizer_.reset_stats();
  const std::uint64_t executed = run_slice(max_steps);
  if (!halted_) {
    throw SimError("ISS step limit (" + std::to_string(max_steps) +
                   ") exceeded at pc " + hex32(pc_));
  }
  return executed;
}

std::uint64_t Iss::run_slice(std::uint64_t max_steps) {
  std::uint64_t executed = 0;
  while (!halted_ && executed < max_steps) {
    execute();
    ++executed;
    // A fetch-event redirect is the only way execution (re-)enters a
    // ZOLC-managed body's first instruction mid-region; that is where the
    // summary tier can take over. Disabled under a retire hook, which must
    // observe every instruction individually. The slice budget caps the
    // replay, so a preemption point inside a would-be replay simply ends
    // the replay early and re-validates after the restore.
    if (fast_path_ && fetch_redirected_ && accel_ != nullptr &&
        !retire_hook_) {
      const LoopSummarizer::Replay replay = summarizer_.try_engage(
          *accel_, image_, mem_, regs_, pc_, max_steps - executed);
      if (replay.engaged) {
        executed += replay.instructions;
        stats_.instructions += replay.instructions;
        stats_.zolc_fetch_events += replay.fetch_events;
        pc_ = replay.resume_pc;
      }
    }
  }
  return executed;
}

}  // namespace zolcsim::cpu
