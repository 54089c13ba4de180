#include "cpu/pipeline.hpp"

#include <bit>

#include "common/strings.hpp"
#include "isa/encoding.hpp"
#include "zolc/controller.hpp"

namespace zolcsim::cpu {

namespace {

using isa::Opcode;

/// A register number no operand field can hold: the bypass source of a
/// producer that cannot forward.
constexpr std::uint8_t kNoReg = 0xFF;

}  // namespace

/// Operands come from the register file, already updated by this cycle's
/// WB, plus the one producer WB has not reached yet: the old EX/MEM
/// latch's (a load's value does not exist before MEM, hence the load-use
/// interlock). That equals the classic ID-read-then-forward network: every
/// write landing between ID and EX is a WB the MEM/WB bypass would have
/// supplied.
struct Pipeline::Core {
  Pipeline& pipe;
  const OpRecord& op;
  std::uint32_t pc;
  std::uint8_t bypass;  ///< register the old EX/MEM latch supplies
  std::int32_t bypass_value;
  std::int32_t& result;
  std::int32_t& store_val;
  std::uint32_t target;
  bool taken = false;

  [[nodiscard]] std::int32_t read(std::uint8_t reg) const {
    return reg == bypass ? bypass_value : pipe.regs_.read_raw(reg);
  }
  [[nodiscard]] std::int32_t rs() const { return read(op.rs); }
  [[nodiscard]] std::int32_t rt() const { return read(op.rt); }
  [[nodiscard]] std::int32_t rd() const { return read(op.rd); }
  void write(std::uint8_t /*reg: the record's dest*/, std::int32_t value) {
    result = value;
  }
  template <Opcode>
  void load(std::uint8_t /*reg*/, std::uint32_t addr) {
    result = static_cast<std::int32_t>(addr);
  }
  template <Opcode>
  void store(std::uint32_t addr, std::int32_t value) {
    result = static_cast<std::int32_t>(addr);
    store_val = value;
  }
  void branch(bool t) { taken = t; }
  void jump(std::uint32_t t) {
    taken = true;
    target = t;
  }
  void zolc() {
    if (pipe.accel_ == nullptr) zolc_without_accelerator(pc);
    pipe.accel_->execute(op.op, op.aux, static_cast<std::uint32_t>(rs()));
  }
  void halt() {}  // takes effect when it retires
};

Pipeline::Pipeline(mem::Memory& memory, PipelineConfig config)
    : mem_(memory), config_(config) {}

void Pipeline::set_code_image(isa::CodeImage image) {
  image_ = image;
  image_ops_ = predecode_image(image);
  image_words_ = static_cast<std::uint32_t>(image_ops_.size());
}

const Pipeline::OffImageWord& Pipeline::fetch_off_image(std::uint32_t pc) {
  OffImageWord& w = off_image_[off_image_next_];
  off_image_next_ = (off_image_next_ + 1) % kOffImageRing;
  w.instr = isa::decode(mem_.fetch32(pc));
  w.op = predecode(w.instr, pc);
  return w;
}

[[gnu::always_inline]] inline void Pipeline::step() {
  IfId& if_id = latches_.if_id;
  IdEx& id_ex = latches_.id_ex;
  ExMem& ex_mem = latches_.ex_mem;
  MemWb& mem_wb = latches_.mem_wb;
  const bool resolve_in_ex =
      config_.branch_resolve == BranchResolveStage::kExecute;

  // Previous-cycle values that stages still read after an older stage has
  // overwritten their latch.
  const OpRecord& old_exm = *ex_mem.op;
  const std::int32_t old_exm_alu = ex_mem.alu;
  // The register the old EX/MEM latch forwards: none for a load (its value
  // does not exist before MEM), for no destination, or without forwarding.
  const std::uint8_t exm_bypass =
      config_.forwarding && !old_exm.load && old_exm.dest != 0 ? old_exm.dest
                                                               : kNoReg;
  const bool old_ifid_live = if_id.op != &kBubble;
  const std::int8_t old_ifid_slot = if_id.fetch_slot;
  const std::int8_t old_idex_slot = id_ex.fetch_slot;
  // Unresolved control flow ahead of IF, for the kGate policy.
  const bool control_in_flight =
      if_id.op->control || (resolve_in_ex && id_ex.op->control);

  // Redirect bookkeeping for this cycle.
  bool redirect = false;
  std::uint32_t redirect_target = 0;
  std::uint32_t resolved_pc = 0;
  bool redirect_from_ex = false;
  // Oldest accel snapshot to restore on a wrong-path rollback.
  const AccelSnapshot* rollback_to = nullptr;

  // ---------------- WB ----------------
  if (mem_wb.op != &kBubble) {
    const OpRecord& op = *mem_wb.op;
    // Commit-time illegal-instruction trap: wrong-path garbage never gets
    // here (squashed at resolution), correct-path garbage traps precisely.
    if (op.op == Opcode::kInvalid) {
      throw SimError("illegal instruction at " + hex32(mem_wb.pc));
    }
    regs_.write_raw(op.dest, mem_wb.value);
    ++stats_.instructions;
    if (retire_hook_) retire_hook_(mem_wb.pc, *mem_wb.instr);
    if (op.zolc) ++stats_.zolc_init_instructions;
    if (op.op == Opcode::kHalt) halted_ = true;
  }

  // ---------------- MEM ----------------
  {
    const OpRecord& op = *ex_mem.op;
    mem_wb.op = ex_mem.op;
    mem_wb.instr = ex_mem.instr;
    mem_wb.pc = ex_mem.pc;
    mem_wb.value = ex_mem.alu;
    const auto addr = static_cast<std::uint32_t>(ex_mem.alu);
    if (op.load) {
      mem_wb.value = mem_load(op.op, mem_, addr);
      ++stats_.loads;
    } else if (op.store) {
      mem_store(op.op, mem_, addr, ex_mem.store_val);
      ++stats_.stores;
    }
  }

  // ---------------- EX ----------------
  // An invalid instruction passes through as an inert bubble (its record
  // has no destination and no flags, and its fetch event, if any, is
  // dropped); it traps at WB.
  {
    const OpRecord& op = *id_ex.op;
    ex_mem.op = id_ex.op;
    ex_mem.instr = id_ex.instr;
    ex_mem.pc = id_ex.pc;
    if (op.op != Opcode::kInvalid) {
      bool taken = false;
      std::uint32_t target = 0;
      if (!resolve_in_ex && op.control) {
        // Resolved in ID, which also computed its result.
        ex_mem.alu = id_ex.id_result;
      } else {
        Core core{*this,       op,         id_ex.pc,         exm_bypass,
                  old_exm_alu, ex_mem.alu, ex_mem.store_val, op.target};
        dispatch(op, id_ex.pc, core);
        taken = core.taken;
        target = core.target;
      }

      // Commit this instruction's fetch-time ZOLC write-backs now that it
      // is in EX (non-speculative) -- unless it is itself a taken control
      // transfer, in which case the fetch-time speculation was wrong-path.
      if (id_ex.fetch_slot >= 0) {
        const FetchInfo& fi = fetch_ring_[id_ex.fetch_slot];
        if (taken) {
          rollback_to = &fi.before;
        } else {
          for (const RfWrite& w : fi.event.rf_writes) {
            regs_.write(w.reg, w.value);
          }
        }
      }

      if (taken) {
        redirect = true;
        redirect_from_ex = true;
        redirect_target = target;
        resolved_pc = id_ex.pc;
        ++stats_.taken_control;
      }
    }
  }

  // ---------------- ID ----------------
  // Skip decode entirely when the EX stage redirected this cycle: the
  // instruction in ID is wrong-path and is squashed below. The new EX/MEM
  // latch now holds the instruction that was in EX this cycle. An invalid
  // instruction reads no registers and is no control transfer, so it moves
  // on as an inert bubble (its fetch event, if any, is dropped in EX) and
  // traps at WB if it ever retires.
  bool stall = false;
  const OpRecord& id_op = *if_id.op;
  if (id_op.src_mask != 0 && !redirect_from_ex) {
    const OpRecord& ex = *ex_mem.op;
    if (config_.forwarding) {
      // Load-use interlock: producer load currently in EX.
      if (ex.load && id_op.reads(ex.dest)) {
        stall = true;
        ++stats_.load_use_stalls;
      } else if (!resolve_in_ex && id_op.control &&
                 (id_op.reads(ex.dest) ||
                  (old_exm.load && id_op.reads(old_exm.dest)))) {
        // ID-resolution interlocks: branch operands must be available in
        // ID.
        stall = true;
        ++stats_.interlock_stalls;
      }
    } else if (id_op.reads(ex.dest) || id_op.reads(old_exm.dest)) {
      // No forwarding: wait until every producer has written back.
      stall = true;
      ++stats_.raw_stalls;
    }
  }
  if (stall || redirect_from_ex || &id_op == &kBubble) {
    // On a stall IF/ID holds its contents.
    id_ex.op = &kBubble;
    id_ex.fetch_slot = -1;
  } else {
    id_ex.op = &id_op;
    id_ex.instr = if_id.instr;
    id_ex.pc = if_id.pc;
    id_ex.fetch_slot = if_id.fetch_slot;

    // Early (decode-stage) control resolution, on operands the register
    // file already holds (WB wrote before ID reads) or the previous EX
    // result supplies; the interlocks above cover every other producer.
    if (!resolve_in_ex && id_op.control) {
      std::int32_t unused_store = 0;
      Core core{*this,       id_op,           id_ex.pc,    exm_bypass,
                old_exm_alu, id_ex.id_result, unused_store, id_op.target};
      dispatch(id_op, id_ex.pc, core);
      if (core.taken) {
        redirect = true;
        redirect_target = core.target;
        resolved_pc = id_ex.pc;
        ++stats_.taken_control;
        // This branch's own fetch-time event was fall-through speculation:
        // cancel it (write-backs never applied) and remember the rollback.
        if (id_ex.fetch_slot >= 0) {
          if (rollback_to == nullptr) {
            rollback_to = &fetch_ring_[id_ex.fetch_slot].before;
          }
          id_ex.fetch_slot = -1;
        }
      }
    }
  }

  // ---------------- IF ----------------
  std::uint32_t next_pc = pc_;
  if (!stall) {
    const bool triggers = accel_ != nullptr && accel_->will_trigger(pc_);
    if (triggers && config_.speculation == SpeculationPolicy::kGate &&
        control_in_flight) {
      ++stats_.gate_stalls;
      if_id.op = &kBubble;
      if_id.fetch_slot = -1;
    } else {
      if_id.pc = pc_;
      // Rotating the byte offset moves a misaligned PC's low bits to the
      // top, so one compare rejects PCs below, past and between the words.
      const std::uint32_t word = std::rotr(pc_ - image_.base, 2);
      if (word < image_words_) {
        if_id.op = &image_ops_[word];
        if_id.instr = &image_.code[word];
      } else {
        const OffImageWord& w = fetch_off_image(pc_);
        if_id.op = &w.op;
        if_id.instr = &w.instr;
      }
      next_pc = pc_ + 4;
      if_id.fetch_slot = -1;
      if (triggers) {
        // Every older live event came from the old IF/ID or ID/EX latch
        // (kFetchRing), so round-robin allocation must miss both slots.
        const auto slot = static_cast<std::int8_t>(fetch_next_);
        fetch_next_ = (fetch_next_ + 1) % kFetchRing;
        ZS_ASSERT(slot != old_idex_slot && slot != old_ifid_slot);
        FetchInfo& fi = fetch_ring_[slot];
        accel_->snapshot(fi.before);
        const bool fired = accel_->on_fetch(pc_, fi.event);
        ZS_ASSERT(fired);
        ++stats_.zolc_fetch_events;
        if (fi.event.redirect) next_pc = *fi.event.redirect;
        if_id.fetch_slot = slot;
      }
    }
  }

  // ------------- redirect / squash -------------
  if (redirect) {
    // Determine the oldest wrong-path ZOLC event and restore its snapshot.
    // Priority (oldest first): the branch's own event (already captured in
    // rollback_to), then the squashed old IF/ID instruction (EX resolution
    // only), then this cycle's squashed fetch (IF/ID is live here only if
    // IF fetched: a redirect implies no stall).
    if (rollback_to == nullptr && redirect_from_ex && old_ifid_slot >= 0) {
      rollback_to = &fetch_ring_[old_ifid_slot].before;
    }
    if (rollback_to == nullptr && if_id.fetch_slot >= 0) {
      rollback_to = &fetch_ring_[if_id.fetch_slot].before;
    }
    if (rollback_to != nullptr) {
      ZS_ASSERT(accel_ != nullptr);
      accel_->restore(*rollback_to);
      ++stats_.zolc_rollbacks;
    }
    // Resolution-time ZOLC hook (candidate exits / entries).
    if (accel_ != nullptr &&
        accel_->on_taken_control(resolved_pc, redirect_target, resolution_)) {
      ++stats_.zolc_resolution_events;
      for (const RfWrite& w : resolution_.rf_writes) {
        regs_.write(w.reg, w.value);
      }
    }
    // Squash wrong-path slots (this cycle's fetch, plus -- for EX
    // resolution -- the instruction that was in ID; ID/EX is already empty
    // then because ID was skipped).
    if (if_id.op != &kBubble) ++stats_.control_flush_slots;
    if_id.op = &kBubble;
    if_id.fetch_slot = -1;
    if (redirect_from_ex && old_ifid_live) ++stats_.control_flush_slots;
    next_pc = redirect_target;
  }

  pc_ = next_pc;
  ++stats_.cycles;
}

void Pipeline::cycle() {
  if (!halted_) step();
}

std::uint64_t Pipeline::run(std::uint64_t max_cycles) {
  std::uint64_t consumed = 0;
  while (!halted_) {
    if (consumed >= max_cycles) {
      throw SimError("pipeline cycle limit (" + std::to_string(max_cycles) +
                     ") exceeded at pc " + hex32(pc_));
    }
    step();
    ++consumed;
  }
  return consumed;
}

}  // namespace zolcsim::cpu
