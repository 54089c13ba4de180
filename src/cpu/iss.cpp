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

}  // namespace

/// Reads operands from the register file and applies every effect at once.
struct Iss::Core {
  Iss& iss;
  const OpRecord& op;
  std::uint32_t pc;
  std::uint32_t target;
  bool taken = false;

  [[nodiscard]] std::int32_t rs() const { return iss.regs_.read_raw(op.rs); }
  [[nodiscard]] std::int32_t rt() const { return iss.regs_.read_raw(op.rt); }
  [[nodiscard]] std::int32_t rd() const { return iss.regs_.read_raw(op.rd); }
  void write(std::uint8_t reg, std::int32_t value) {
    iss.regs_.write_raw(reg, value);
  }
  template <Opcode kOp>
  void load(std::uint8_t reg, std::uint32_t addr) {
    write(reg, mem_load(kOp, iss.mem_, addr));
  }
  template <Opcode kOp>
  void store(std::uint32_t addr, std::int32_t value) {
    mem_store(kOp, iss.mem_, addr, value);
  }
  void branch(bool t) { taken = t; }
  void jump(std::uint32_t t) {
    taken = true;
    target = t;
  }
  void zolc() {
    if (iss.accel_ == nullptr) zolc_without_accelerator(pc);
    iss.accel_->execute(op.op, op.aux, static_cast<std::uint32_t>(rs()));
  }
  void halt() { iss.halted_ = true; }
};

void Iss::set_code_image(isa::CodeImage image) {
  image_ = image;
  image_ops_ = predecode_image(image);
  image_words_ = static_cast<std::uint32_t>(image_ops_.size());
  summarizer_.clear_cache();
}

const OpRecord& Iss::decode_off_image(std::uint32_t pc) {
  off_image_instr_ = isa::decode(mem_.fetch32(pc));
  off_image_op_ = predecode(off_image_instr_, pc);
  return off_image_op_;
}

[[gnu::always_inline]] inline bool Iss::execute_op(const OpRecord& op,
                                                   std::uint32_t pc,
                                                   std::uint32_t& target) {
  Core core{*this, op, pc, op.target};
  dispatch(op, pc, core);
  target = core.target;
  return core.taken;
}

[[gnu::always_inline]] inline void Iss::execute() {
  const std::uint32_t pc = pc_;
  fetch_redirected_ = false;

  // Rotating the byte offset moves a misaligned PC's low bits to the top,
  // so one compare rejects PCs below, past and between the image's words.
  const std::uint32_t word = std::rotr(pc - image_.base, 2);
  const bool in_image = word < image_words_;
  const OpRecord& op = in_image ? image_ops_[word] : decode_off_image(pc);
  if (op.op == Opcode::kInvalid) illegal_instruction(mem_, pc);
  const Instruction& instr = in_image ? image_.code[word] : off_image_instr_;

  if (accel_ != nullptr && accel_->will_trigger(pc)) [[unlikely]] {
    execute_fetch_event(op, instr, pc);
    return;
  }
  std::uint32_t target;
  const bool taken = execute_op(op, pc, target);
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
  if (accel_ != nullptr && accel_->on_taken_control(pc, target, event_)) {
    ++stats_.zolc_resolution_events;
    for (const RfWrite& w : event_.rf_writes) regs_.write(w.reg, w.value);
  }
  pc_ = target;
}

// Fetch-time ZOLC event (speculative: discarded if this instruction is a
// taken control transfer, mirroring the pipeline's rollback). Only a branch
// or jump can be taken, so only those need the rollback snapshot.
void Iss::execute_fetch_event(const OpRecord& op, const Instruction& instr,
                              std::uint32_t pc) {
  if (op.control) accel_->snapshot(pre_fetch_);
  const bool fired = accel_->on_fetch(pc, event_);
  ++stats_.zolc_fetch_events;
  std::uint32_t target;
  const bool taken = execute_op(op, pc, target);
  ++stats_.instructions;
  if (retire_hook_) retire_hook_(pc, instr);
  if (taken) {
    if (fired) accel_->restore(pre_fetch_);
    take_control(pc, target);
    return;
  }
  if (fired) {
    for (const RfWrite& w : event_.rf_writes) regs_.write(w.reg, w.value);
    fetch_redirected_ = event_.redirect.has_value();
    pc_ = event_.redirect.value_or(pc + 4);
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
