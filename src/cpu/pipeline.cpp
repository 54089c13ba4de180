#include "cpu/pipeline.hpp"

#include <utility>

#include "common/strings.hpp"
#include "zolc/controller.hpp"

namespace zolcsim::cpu {

namespace {

using isa::Format;
using isa::Instruction;
using isa::Opcode;

}  // namespace

Pipeline::Pipeline(mem::Memory& memory, PipelineConfig config)
    : mem_(memory), config_(config) {}

void Pipeline::set_code_image(isa::CodeImage image) {
  image_ = image;
  image_hazards_.clear();
  image_hazards_.reserve(image.size_words);
  for (std::size_t i = 0; i < image.size_words; ++i) {
    image_hazards_.push_back(isa::hazard_info(image.code[i]));
  }
}

void Pipeline::cycle() {
  if (halted_) return;
  IfId& if_id = latches_.if_id;
  IdEx& id_ex = latches_.id_ex;
  ExMem& ex_mem = latches_.ex_mem;
  MemWb& mem_wb = latches_.mem_wb;

  // Previous-cycle values that stages still read after an older stage has
  // overwritten their latch. A destination of 0 means "no producer".
  const std::uint8_t old_exm_dest = ex_mem.valid ? ex_mem.dest : 0;
  const bool old_exm_is_load = ex_mem.valid && ex_mem.is_load;
  const std::int32_t old_exm_alu = ex_mem.alu;
  const std::uint8_t old_mwb_dest = mem_wb.valid ? mem_wb.dest : 0;
  const std::int32_t old_mwb_value = mem_wb.value;
  const bool old_ifid_valid = if_id.valid;
  const std::int8_t old_ifid_slot = if_id.valid ? if_id.fetch_slot : -1;
  const std::int8_t old_idex_slot = id_ex.valid ? id_ex.fetch_slot : -1;
  // Unresolved control flow ahead of IF, for the kGate policy.
  const bool control_in_flight =
      (if_id.valid && if_id.hz.is_control) ||
      (config_.branch_resolve == BranchResolveStage::kExecute &&
       id_ex.valid && id_ex.hz.is_control);

  // Redirect bookkeeping for this cycle.
  bool redirect = false;
  std::uint32_t redirect_target = 0;
  std::uint32_t resolved_pc = 0;
  bool redirect_from_ex = false;
  // Oldest accel snapshot to restore on a wrong-path rollback.
  const AccelSnapshot* rollback_to = nullptr;

  // ---------------- WB ----------------
  if (mem_wb.valid) {
    // Commit-time illegal-instruction trap: wrong-path garbage never gets
    // here (squashed at resolution), correct-path garbage traps precisely.
    if (!mem_wb.instr.valid()) {
      throw SimError("illegal instruction at " + hex32(mem_wb.pc));
    }
    if (mem_wb.dest != 0) regs_.write(mem_wb.dest, mem_wb.value);
    ++stats_.instructions;
    if (retire_hook_) retire_hook_(mem_wb.pc, mem_wb.instr);
    if (mem_wb.is_zolc) ++stats_.zolc_init_instructions;
    if (mem_wb.instr.op == Opcode::kHalt) halted_ = true;
  }

  // ---------------- MEM ----------------
  mem_wb.valid = ex_mem.valid;
  if (ex_mem.valid) {
    mem_wb.pc = ex_mem.pc;
    mem_wb.instr = ex_mem.instr;
    mem_wb.dest = ex_mem.dest;
    mem_wb.is_zolc = ex_mem.is_zolc;
    mem_wb.value = ex_mem.alu;
    if (ex_mem.is_load) {
      mem_wb.value = mem_load(ex_mem.instr.op, mem_,
                              static_cast<std::uint32_t>(ex_mem.alu));
      ++stats_.loads;
    } else if (ex_mem.is_store) {
      mem_store(ex_mem.instr.op, mem_, static_cast<std::uint32_t>(ex_mem.alu),
                ex_mem.store_val);
      ++stats_.stores;
    }
  }

  // ---------------- EX ----------------
  // An invalid instruction passes through as an inert bubble (its metadata
  // has no destination and no flags); it traps at WB.
  ex_mem.valid = id_ex.valid;
  if (id_ex.valid) {
    ex_mem.pc = id_ex.pc;
    ex_mem.instr = id_ex.instr;
    ex_mem.dest = id_ex.hz.dest;
    ex_mem.is_load = id_ex.hz.is_load;
    ex_mem.is_store = id_ex.hz.is_store;
    ex_mem.is_zolc = id_ex.hz.is_zolc;
  }
  if (id_ex.valid && id_ex.hz.info != nullptr) {
    const Instruction& instr = id_ex.instr;
    const isa::OpcodeInfo& info = *id_ex.hz.info;

    // Youngest producer wins: the old EX/MEM latch first, then MEM/WB.
    const auto forward = [&](std::uint8_t reg, std::int32_t id_value) {
      if (!config_.forwarding || reg == 0) return id_value;
      if (reg == old_exm_dest && !old_exm_is_load) return old_exm_alu;
      if (reg == old_mwb_dest) return old_mwb_value;
      return id_value;
    };
    const std::int32_t a = forward(instr.rs, id_ex.rs_val);
    const std::int32_t rt_fwd = forward(instr.rt, id_ex.rt_val);
    const std::int32_t acc = forward(instr.rd, id_ex.rd_val);

    // Resolve control flow first (EX-resolution config); under kDecode it
    // was already resolved in ID and the latch carries no live branch work.
    bool taken = false;
    std::uint32_t target = 0;
    if (config_.branch_resolve == BranchResolveStage::kExecute) {
      if (info.is_cond_branch) {
        std::int32_t lhs = a;
        if (instr.op == Opcode::kDbne) {
          lhs = alu_eval(Opcode::kDbne, AluInputs{a, 0, 0, 0});
        }
        taken = branch_taken(instr.op, lhs, rt_fwd);
        target = isa::branch_target(instr, id_ex.pc);
      } else if (info.is_jump) {
        taken = true;
        target = (instr.op == Opcode::kJ || instr.op == Opcode::kJal)
                     ? isa::jump_target(instr, id_ex.pc)
                     : static_cast<std::uint32_t>(a);
      }
    }

    // Commit this instruction's fetch-time ZOLC write-backs now that it is
    // entering EX (non-speculative) -- unless it is itself a taken control
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

    switch (info.format) {
      case Format::kR3:
      case Format::kR3Acc:
      case Format::kR2:
      case Format::kR1:
      case Format::kRShift: {
        if (instr.op == Opcode::kJr) break;
        if (instr.op == Opcode::kJalr) {
          ex_mem.alu = static_cast<std::int32_t>(id_ex.pc + 4);
          break;
        }
        AluInputs in;
        in.a = a;
        in.b = rt_fwd;
        in.acc = acc;
        in.shamt = instr.shamt;
        ex_mem.alu = alu_eval(instr.op, in);
        break;
      }
      case Format::kI:
      case Format::kLui: {
        AluInputs in;
        in.a = a;
        in.b = instr.imm;
        ex_mem.alu = alu_eval(instr.op, in);
        break;
      }
      case Format::kMem:
        ex_mem.alu =
            static_cast<std::int32_t>(static_cast<std::uint32_t>(a) +
                                      static_cast<std::uint32_t>(instr.imm));
        ex_mem.store_val = rt_fwd;
        break;
      case Format::kBranchCmp:
      case Format::kBranchZero:
        if (instr.op == Opcode::kDbne) {
          ex_mem.alu = alu_eval(Opcode::kDbne, AluInputs{a, 0, 0, 0});
        }
        break;
      case Format::kJump:
        if (instr.op == Opcode::kJal) {
          ex_mem.alu = static_cast<std::int32_t>(id_ex.pc + 4);
        }
        break;
      case Format::kZolcWrite:
      case Format::kZolcNone: {
        if (accel_ == nullptr) {
          throw SimError("ZOLC instruction at " + hex32(id_ex.pc) +
                         " with no loop accelerator attached");
        }
        if (instr.op == Opcode::kZolOn) {
          accel_->activate(instr.zidx, static_cast<std::uint32_t>(a));
        } else if (instr.op == Opcode::kZolOff) {
          accel_->deactivate();
        } else {
          accel_->init_write(instr.op, instr.zidx,
                             static_cast<std::uint32_t>(a));
        }
        break;
      }
      case Format::kNone:
        break;
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
  id_ex.valid = false;
  if (if_id.valid && !redirect_from_ex) {
    const Instruction& instr = if_id.instr;
    const isa::HazardInfo& hz = if_id.hz;
    const std::uint8_t ex_dest = ex_mem.valid ? ex_mem.dest : 0;
    if (config_.forwarding) {
      // Load-use interlock: producer load currently in EX.
      if (ex_mem.is_load && hz.reads(ex_dest)) {
        stall = true;
        ++stats_.load_use_stalls;
      }
      // ID-resolution interlocks: branch operands must be available in ID.
      if (!stall && config_.branch_resolve == BranchResolveStage::kDecode &&
          hz.is_control) {
        const bool ex_hazard = hz.reads(ex_dest);
        const bool mem_load_hazard = old_exm_is_load && hz.reads(old_exm_dest);
        if (ex_hazard || mem_load_hazard) {
          stall = true;
          ++stats_.interlock_stalls;
        }
      }
    } else {
      // No forwarding: wait until every producer has written back.
      if (hz.reads(ex_dest) || hz.reads(old_exm_dest)) {
        stall = true;
        ++stats_.raw_stalls;
      }
    }

    if (!stall) {
      // The register file was already updated by this cycle's WB (write-
      // before-read). The only in-flight value visible to ID is the
      // previous EX result.
      const auto read = [&](std::uint8_t reg) {
        if (config_.forwarding && reg != 0 && reg == old_exm_dest &&
            !old_exm_is_load) {
          return old_exm_alu;
        }
        return regs_.read(reg);
      };
      id_ex.valid = true;
      id_ex.fetch_slot = if_id.fetch_slot;
      id_ex.pc = if_id.pc;
      id_ex.instr = instr;
      id_ex.hz = hz;
      id_ex.rs_val = read(instr.rs);
      id_ex.rt_val = read(instr.rt);
      id_ex.rd_val = read(instr.rd);

      // Early (decode-stage) control resolution.
      if (config_.branch_resolve == BranchResolveStage::kDecode &&
          hz.is_control) {
        bool taken = false;
        std::uint32_t target = 0;
        if (hz.info->is_cond_branch) {
          std::int32_t lhs = id_ex.rs_val;
          if (instr.op == Opcode::kDbne) {
            lhs = alu_eval(Opcode::kDbne, AluInputs{id_ex.rs_val, 0, 0, 0});
          }
          taken = branch_taken(instr.op, lhs, id_ex.rt_val);
          target = isa::branch_target(instr, id_ex.pc);
        } else {
          taken = true;
          target = (instr.op == Opcode::kJ || instr.op == Opcode::kJal)
                       ? isa::jump_target(instr, id_ex.pc)
                       : static_cast<std::uint32_t>(id_ex.rs_val);
        }
        if (taken) {
          redirect = true;
          redirect_target = target;
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
    // On a stall IF/ID holds its contents.
  }

  // ---------------- IF ----------------
  std::uint32_t next_pc = pc_;
  if (!stall) {
    const bool triggers = accel_ != nullptr && accel_->will_trigger(pc_);
    if (triggers && config_.speculation == SpeculationPolicy::kGate &&
        control_in_flight) {
      ++stats_.gate_stalls;
      if_id.valid = false;
    } else {
      if_id.valid = true;
      if_id.pc = pc_;
      if (image_.covers(pc_)) {
        const std::size_t word = (pc_ - image_.base) / 4;
        if_id.instr = image_.code[word];
        if_id.hz = image_hazards_[word];
      } else {
        if_id.instr = isa::decode(mem_.fetch32(pc_));
        if_id.hz = isa::hazard_info(if_id.instr);
      }
      if (triggers) {
        // Every older live event came from the old IF/ID or ID/EX latch
        // (kFetchRing), so round-robin allocation must miss both slots.
        const auto slot = static_cast<std::int8_t>(fetch_next_);
        fetch_next_ = (fetch_next_ + 1) % kFetchRing;
        ZS_ASSERT(slot != old_idex_slot && slot != old_ifid_slot);
        FetchInfo& fi = fetch_ring_[slot];
        fi.before = accel_->snapshot();
        auto event = accel_->on_fetch(pc_);
        ZS_ASSERT(event.has_value());
        fi.event = std::move(*event);
        ++stats_.zolc_fetch_events;
        next_pc = fi.event.redirect.value_or(pc_ + 4);
        if_id.fetch_slot = slot;
      } else {
        next_pc = pc_ + 4;
        if_id.fetch_slot = -1;
      }
    }
  }

  // ------------- redirect / squash -------------
  if (redirect) {
    // Determine the oldest wrong-path ZOLC event and restore its snapshot.
    // Priority (oldest first): the branch's own event (already captured in
    // rollback_to), then the squashed old IF/ID instruction (EX resolution
    // only), then this cycle's squashed fetch (IF/ID is valid here only if
    // IF fetched: a redirect implies no stall).
    if (rollback_to == nullptr && redirect_from_ex && old_ifid_slot >= 0) {
      rollback_to = &fetch_ring_[old_ifid_slot].before;
    }
    if (rollback_to == nullptr && if_id.valid && if_id.fetch_slot >= 0) {
      rollback_to = &fetch_ring_[if_id.fetch_slot].before;
    }
    if (rollback_to != nullptr) {
      ZS_ASSERT(accel_ != nullptr);
      accel_->restore(*rollback_to);
      ++stats_.zolc_rollbacks;
    }
    // Resolution-time ZOLC hook (candidate exits / entries).
    if (accel_ != nullptr) {
      if (auto resolution =
              accel_->on_taken_control(resolved_pc, redirect_target)) {
        ++stats_.zolc_resolution_events;
        for (const RfWrite& w : resolution->rf_writes) {
          regs_.write(w.reg, w.value);
        }
      }
    }
    // Squash wrong-path slots (this cycle's fetch, plus -- for EX
    // resolution -- the instruction that was in ID; ID/EX is already empty
    // then because ID was skipped).
    if (if_id.valid) ++stats_.control_flush_slots;
    if_id.valid = false;
    if (redirect_from_ex && old_ifid_valid) ++stats_.control_flush_slots;
    next_pc = redirect_target;
  }

  pc_ = next_pc;
  ++stats_.cycles;
}

std::uint64_t Pipeline::run(std::uint64_t max_cycles) {
  std::uint64_t consumed = 0;
  while (!halted_) {
    if (consumed >= max_cycles) {
      throw SimError("pipeline cycle limit (" + std::to_string(max_cycles) +
                     ") exceeded at pc " + hex32(pc_));
    }
    cycle();
    ++consumed;
  }
  return consumed;
}

}  // namespace zolcsim::cpu
