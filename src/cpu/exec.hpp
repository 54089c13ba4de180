// Shared functional semantics: pure ALU evaluation, branch decisions,
// load/store memory-op behaviour, the per-word execute record (OpRecord)
// and the one opcode dispatch switch, used identically by the ISS (golden
// model), the pipeline (ID and EX/MEM stages) and the loop summarizer, so
// the simulators cannot diverge on instruction behaviour. Everything but
// the once-per-word builders (exec.cpp) is inline: it sits on a simulator
// hot path.
#ifndef ZOLCSIM_CPU_EXEC_HPP
#define ZOLCSIM_CPU_EXEC_HPP

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/contracts.hpp"
#include "isa/code_image.hpp"
#include "isa/instruction.hpp"
#include "mem/memory.hpp"

namespace zolcsim::cpu {

/// Thrown on simulator traps: illegal instruction, disabled ISA extension,
/// runaway execution.
class SimError : public std::runtime_error {
 public:
  explicit SimError(const std::string& what_arg)
      : std::runtime_error(what_arg) {}
};

/// Throws the SimError for a ZOLC instruction at `pc` executed with no
/// loop controller attached.
[[noreturn]] void zolc_without_accelerator(std::uint32_t pc);

/// What both engines execute for one code word (DESIGN.md section 7.4):
/// the decoded operand fields with the branch or jump target already
/// resolved against the word's PC, plus the facts the pipeline's hazard
/// and control logic asks of it every cycle. The opcode is the dispatch
/// kind: it is dense and already distinguishes register from immediate
/// forms. An invalid word gets the inert record: opcode kInvalid, no
/// sources, no destination, no flags.
struct OpRecord {
  isa::Opcode op = isa::Opcode::kInvalid;
  std::uint8_t rd = 0;
  std::uint8_t rs = 0;
  std::uint8_t rt = 0;
  std::uint8_t aux = 0;   ///< shift amount, or the ZOLC table index
  std::uint8_t dest = 0;  ///< register written; 0 = none ($zero never counts)
  bool load = false;
  bool store = false;
  bool zolc = false;
  bool branch = false;   ///< conditional branch (dbne included)
  bool control = false;  ///< branch or jump: may take control
  std::int32_t imm = 0;
  std::uint32_t target = 0;  ///< taken-branch / direct-jump destination
  /// Bit r set iff the op reads register r; bit 0 is always clear, so a
  /// producer with no destination (dest 0) never raises a hazard.
  std::uint32_t src_mask = 0;

  /// True iff the op reads register `reg` (reg 0 never matches).
  [[nodiscard]] bool reads(std::uint8_t reg) const noexcept {
    return ((src_mask >> reg) & 1u) != 0;
  }
};

/// Builds the record for `instr` fetched at `pc`.
[[nodiscard]] OpRecord predecode(const isa::Instruction& instr,
                                 std::uint32_t pc);

/// One record per word of `image` (empty for an empty image), each built by
/// predecode() against the word's own PC: the table an engine dispatches
/// from while fetches stay inside the image.
[[nodiscard]] std::vector<OpRecord> predecode_image(
    const isa::CodeImage& image);

/// Operand bundle for alu_eval. `a` = rs value, `b` = rt value or extended
/// immediate (per format), `acc` = rd value for accumulating ops (mac).
struct AluInputs {
  std::int32_t a = 0;
  std::int32_t b = 0;
  std::int32_t acc = 0;
  std::uint8_t shamt = 0;
};

namespace detail {

// Two's-complement arithmetic via unsigned math (defined overflow), as the
// hardware does; the core has no overflow traps.
[[nodiscard]] inline std::int32_t wrap_add(std::int32_t a,
                                           std::int32_t b) noexcept {
  return static_cast<std::int32_t>(static_cast<std::uint32_t>(a) +
                                   static_cast<std::uint32_t>(b));
}

[[nodiscard]] inline std::int32_t wrap_sub(std::int32_t a,
                                           std::int32_t b) noexcept {
  return static_cast<std::int32_t>(static_cast<std::uint32_t>(a) -
                                   static_cast<std::uint32_t>(b));
}

[[nodiscard]] inline std::int32_t wrap_mul(std::int32_t a,
                                           std::int32_t b) noexcept {
  return static_cast<std::int32_t>(static_cast<std::uint32_t>(a) *
                                   static_cast<std::uint32_t>(b));
}

}  // namespace detail

/// Evaluates the ALU/DSP result of `op`. For jal/jalr pass the link value
/// through `in.acc`. Precondition: op has an ALU result (not a pure branch,
/// store, or zolc op). Inline so a caller passing a constant opcode (the
/// ISS's per-kind dispatch) compiles down to the one operation.
[[nodiscard]] inline std::int32_t alu_eval(isa::Opcode op,
                                           const AluInputs& in) {
  using O = isa::Opcode;
  using detail::wrap_add;
  using detail::wrap_mul;
  using detail::wrap_sub;
  const auto ua = static_cast<std::uint32_t>(in.a);
  const auto ub = static_cast<std::uint32_t>(in.b);
  switch (op) {
    case O::kAdd:
    case O::kAddi:
      return wrap_add(in.a, in.b);
    case O::kSub:
      return wrap_sub(in.a, in.b);
    case O::kAnd:
    case O::kAndi:
      return static_cast<std::int32_t>(ua & ub);
    case O::kOr:
    case O::kOri:
      return static_cast<std::int32_t>(ua | ub);
    case O::kXor:
    case O::kXori:
      return static_cast<std::int32_t>(ua ^ ub);
    case O::kNor:
      return static_cast<std::int32_t>(~(ua | ub));
    case O::kSlt:
    case O::kSlti:
      return in.a < in.b ? 1 : 0;
    case O::kSltu:
    case O::kSltiu:
      return ua < ub ? 1 : 0;
    case O::kSll:
      return static_cast<std::int32_t>(ub << in.shamt);
    case O::kSrl:
      return static_cast<std::int32_t>(ub >> in.shamt);
    case O::kSra:
      return in.b >> in.shamt;
    case O::kSllv:
      return static_cast<std::int32_t>(ub << (ua & 31u));
    case O::kSrlv:
      return static_cast<std::int32_t>(ub >> (ua & 31u));
    case O::kSrav:
      return in.b >> (ua & 31u);
    case O::kLui:
      return static_cast<std::int32_t>(ub << 16);
    case O::kMul:
      return wrap_mul(in.a, in.b);
    case O::kMulh:
      return static_cast<std::int32_t>(
          (static_cast<std::int64_t>(in.a) * static_cast<std::int64_t>(in.b)) >>
          32);
    case O::kMulhu:
      return static_cast<std::int32_t>(
          (static_cast<std::uint64_t>(ua) * static_cast<std::uint64_t>(ub)) >>
          32);
    case O::kMac:
      return wrap_add(in.acc, wrap_mul(in.a, in.b));
    case O::kMax:
      return in.a > in.b ? in.a : in.b;
    case O::kMin:
      return in.a < in.b ? in.a : in.b;
    case O::kAbs:
      return in.a < 0 ? wrap_sub(0, in.a) : in.a;
    case O::kClz:
      return static_cast<std::int32_t>(std::countl_zero(ua));
    case O::kDbne:
      return wrap_sub(in.a, 1);  // decremented counter, written back to rs
    case O::kJal:
    case O::kJalr:
      return in.acc;  // link value (pc + 4), supplied by the caller
    default:
      ZS_UNREACHABLE("alu_eval: opcode has no ALU result");
  }
}

/// rd := rs op rt for a register-form ALU or DSP op (shifts take rt and
/// the shift amount). Each engine's dispatch case names its own opcode as
/// the constant, so the inline alu_eval folds to the one operation while
/// the semantics keep their one definition.
template <isa::Opcode kOp>
[[nodiscard]] inline std::int32_t reg_form(std::int32_t rs, std::int32_t rt,
                                           std::uint8_t shamt = 0) {
  return alu_eval(kOp, AluInputs{rs, rt, 0, shamt});
}

/// rt := rs op imm for an immediate-form ALU op (constant opcode, as
/// reg_form).
template <isa::Opcode kOp>
[[nodiscard]] inline std::int32_t imm_form(std::int32_t rs, std::int32_t imm) {
  return alu_eval(kOp, AluInputs{rs, imm, 0, 0});
}

/// Branch decision for conditional branches. For dbne, `rs` must be the
/// *decremented* value (rs_old - 1).
[[nodiscard]] inline bool branch_taken(isa::Opcode op, std::int32_t rs,
                                       std::int32_t rt) {
  using O = isa::Opcode;
  const auto urs = static_cast<std::uint32_t>(rs);
  const auto urt = static_cast<std::uint32_t>(rt);
  switch (op) {
    case O::kBeq:  return rs == rt;
    case O::kBne:  return rs != rt;
    case O::kBlez: return rs <= 0;
    case O::kBgtz: return rs > 0;
    case O::kBlt:  return rs < rt;
    case O::kBge:  return rs >= rt;
    case O::kBltu: return urs < urt;
    case O::kBgeu: return urs >= urt;
    case O::kDbne: return rs != 0;  // rs is the decremented value
    default:
      ZS_UNREACHABLE("branch_taken: not a conditional branch");
  }
}

/// Performs the load described by `op` at byte address `addr` and returns
/// the register write-back value (width and sign extension per opcode).
/// Precondition: op is a load. Inline: this sits on both simulators' hot
/// paths (ISS step and pipeline MEM stage).
[[nodiscard]] inline std::int32_t mem_load(isa::Opcode op,
                                           const mem::Memory& memory,
                                           std::uint32_t addr) {
  using O = isa::Opcode;
  switch (op) {
    case O::kLb:
      return static_cast<std::int8_t>(memory.read8(addr));
    case O::kLbu:
      return memory.read8(addr);
    case O::kLh:
      return static_cast<std::int16_t>(memory.read16(addr));
    case O::kLhu:
      return memory.read16(addr);
    case O::kLw:
      return static_cast<std::int32_t>(memory.read32(addr));
    default:
      ZS_UNREACHABLE("mem_load: not a load opcode");
  }
}

/// Performs the store described by `op` at byte address `addr` with register
/// value `value` (truncated to the access width). Precondition: op is a
/// store.
inline void mem_store(isa::Opcode op, mem::Memory& memory, std::uint32_t addr,
                      std::int32_t value) {
  using O = isa::Opcode;
  const auto uv = static_cast<std::uint32_t>(value);
  switch (op) {
    case O::kSb:
      memory.write8(addr, static_cast<std::uint8_t>(uv));
      break;
    case O::kSh:
      memory.write16(addr, static_cast<std::uint16_t>(uv));
      break;
    case O::kSw:
      memory.write32(addr, uv);
      break;
    default:
      ZS_UNREACHABLE("mem_store: not a store opcode");
  }
}

/// The one opcode dispatch switch: executes `op` (fetched at `pc`) against
/// an engine `core`, which supplies the operand values and receives the
/// effects. The ISS reads its register file and applies every effect at
/// once; the pipeline's EX stage reads bypassed latch values and records
/// the result, address and control outcome in its EX/MEM latch. `Core`
/// provides:
///   rs(), rt(), rd()        operand values (rd: mac's accumulator)
///   write(reg, value)       register result (ALU, DSP, dbne, link)
///   load<kOp>(reg, addr)    load into reg
///   store<kOp>(addr, value)
///   branch(taken)           conditional outcome; the target is op.target
///   jump(target)            unconditional transfer
///   zolc()                  ZOLC table write, zolon or zoloff (op.op)
///   halt()
/// Precondition: op.op is a real opcode (callers trap kInvalid first).
template <class Core>
[[gnu::always_inline]] inline void dispatch(const OpRecord& op,
                                            std::uint32_t pc, Core& core) {
  using O = isa::Opcode;
  const auto addr = [&core, &op] {
    return static_cast<std::uint32_t>(detail::wrap_add(core.rs(), op.imm));
  };
  const auto link = static_cast<std::int32_t>(pc + 4);
  // clang-format off
  switch (op.op) {
    case O::kAdd:   core.write(op.rd, reg_form<O::kAdd>(core.rs(), core.rt())); break;
    case O::kSub:   core.write(op.rd, reg_form<O::kSub>(core.rs(), core.rt())); break;
    case O::kAnd:   core.write(op.rd, reg_form<O::kAnd>(core.rs(), core.rt())); break;
    case O::kOr:    core.write(op.rd, reg_form<O::kOr>(core.rs(), core.rt())); break;
    case O::kXor:   core.write(op.rd, reg_form<O::kXor>(core.rs(), core.rt())); break;
    case O::kNor:   core.write(op.rd, reg_form<O::kNor>(core.rs(), core.rt())); break;
    case O::kSlt:   core.write(op.rd, reg_form<O::kSlt>(core.rs(), core.rt())); break;
    case O::kSltu:  core.write(op.rd, reg_form<O::kSltu>(core.rs(), core.rt())); break;
    case O::kSllv:  core.write(op.rd, reg_form<O::kSllv>(core.rs(), core.rt())); break;
    case O::kSrlv:  core.write(op.rd, reg_form<O::kSrlv>(core.rs(), core.rt())); break;
    case O::kSrav:  core.write(op.rd, reg_form<O::kSrav>(core.rs(), core.rt())); break;
    case O::kSll:   core.write(op.rd, reg_form<O::kSll>(0, core.rt(), op.aux)); break;
    case O::kSrl:   core.write(op.rd, reg_form<O::kSrl>(0, core.rt(), op.aux)); break;
    case O::kSra:   core.write(op.rd, reg_form<O::kSra>(0, core.rt(), op.aux)); break;
    case O::kMul:   core.write(op.rd, reg_form<O::kMul>(core.rs(), core.rt())); break;
    case O::kMulh:  core.write(op.rd, reg_form<O::kMulh>(core.rs(), core.rt())); break;
    case O::kMulhu: core.write(op.rd, reg_form<O::kMulhu>(core.rs(), core.rt())); break;
    case O::kMax:   core.write(op.rd, reg_form<O::kMax>(core.rs(), core.rt())); break;
    case O::kMin:   core.write(op.rd, reg_form<O::kMin>(core.rs(), core.rt())); break;
    case O::kAbs:   core.write(op.rd, reg_form<O::kAbs>(core.rs(), 0)); break;
    case O::kClz:   core.write(op.rd, reg_form<O::kClz>(core.rs(), 0)); break;
    case O::kMac:
      core.write(op.rd, alu_eval(O::kMac, AluInputs{core.rs(), core.rt(),
                                                    core.rd(), 0}));
      break;

    case O::kAddi:  core.write(op.rt, imm_form<O::kAddi>(core.rs(), op.imm)); break;
    case O::kSlti:  core.write(op.rt, imm_form<O::kSlti>(core.rs(), op.imm)); break;
    case O::kSltiu: core.write(op.rt, imm_form<O::kSltiu>(core.rs(), op.imm)); break;
    case O::kAndi:  core.write(op.rt, imm_form<O::kAndi>(core.rs(), op.imm)); break;
    case O::kOri:   core.write(op.rt, imm_form<O::kOri>(core.rs(), op.imm)); break;
    case O::kXori:  core.write(op.rt, imm_form<O::kXori>(core.rs(), op.imm)); break;
    case O::kLui:   core.write(op.rt, imm_form<O::kLui>(0, op.imm)); break;

    case O::kBeq:  core.branch(branch_taken(O::kBeq, core.rs(), core.rt())); break;
    case O::kBne:  core.branch(branch_taken(O::kBne, core.rs(), core.rt())); break;
    case O::kBlez: core.branch(branch_taken(O::kBlez, core.rs(), 0)); break;
    case O::kBgtz: core.branch(branch_taken(O::kBgtz, core.rs(), 0)); break;
    case O::kBlt:  core.branch(branch_taken(O::kBlt, core.rs(), core.rt())); break;
    case O::kBge:  core.branch(branch_taken(O::kBge, core.rs(), core.rt())); break;
    case O::kBltu: core.branch(branch_taken(O::kBltu, core.rs(), core.rt())); break;
    case O::kBgeu: core.branch(branch_taken(O::kBgeu, core.rs(), core.rt())); break;
    case O::kDbne: {
      const std::int32_t dec = alu_eval(O::kDbne, AluInputs{core.rs(), 0, 0, 0});
      core.write(op.rs, dec);
      core.branch(branch_taken(O::kDbne, dec, 0));
      break;
    }

    case O::kLb:  core.template load<O::kLb>(op.rt, addr()); break;
    case O::kLh:  core.template load<O::kLh>(op.rt, addr()); break;
    case O::kLw:  core.template load<O::kLw>(op.rt, addr()); break;
    case O::kLbu: core.template load<O::kLbu>(op.rt, addr()); break;
    case O::kLhu: core.template load<O::kLhu>(op.rt, addr()); break;
    case O::kSb:  core.template store<O::kSb>(addr(), core.rt()); break;
    case O::kSh:  core.template store<O::kSh>(addr(), core.rt()); break;
    case O::kSw:  core.template store<O::kSw>(addr(), core.rt()); break;

    case O::kJ:
      core.jump(op.target);
      break;
    case O::kJal:
      core.write(31, link);
      core.jump(op.target);
      break;
    case O::kJr:
      core.jump(static_cast<std::uint32_t>(core.rs()));
      break;
    case O::kJalr: {
      const auto target = static_cast<std::uint32_t>(core.rs());
      core.write(op.rd, link);
      core.jump(target);
      break;
    }

    case O::kZolwTe:
    case O::kZolwTs:
    case O::kZolwLp0:
    case O::kZolwLp1:
    case O::kZolwEx0:
    case O::kZolwEx1:
    case O::kZolwEn0:
    case O::kZolwEn1:
    case O::kZolwU:
    case O::kZolOn:
    case O::kZolOff:
      core.zolc();
      break;

    case O::kHalt:
      core.halt();
      break;

    case O::kInvalid:
    case O::kOpcodeCount_:
      ZS_UNREACHABLE("dispatch: not an executable opcode");
  }
  // clang-format on
}

}  // namespace zolcsim::cpu

#endif  // ZOLCSIM_CPU_EXEC_HPP
