#include "cpu/summary.hpp"

#include <algorithm>
#include <cstring>

#include "common/contracts.hpp"
#include "cpu/exec.hpp"
#include "isa/encoding.hpp"
#include "zolc/controller.hpp"

namespace zolcsim::cpu {

namespace {

using isa::Format;
using isa::Instruction;
using isa::Opcode;

constexpr std::size_t idx(BailoutReason reason) noexcept {
  return static_cast<std::size_t>(reason);
}

std::uint8_t access_width(Opcode op) noexcept {
  switch (op) {
    case Opcode::kLb:
    case Opcode::kLbu:
    case Opcode::kSb:
      return 1;
    case Opcode::kLh:
    case Opcode::kLhu:
    case Opcode::kSh:
      return 2;
    case Opcode::kLw:
    case Opcode::kSw:
      return 4;
    default:
      ZS_UNREACHABLE("access_width: not a memory opcode");
  }
}

// The specialized micro-op kinds use alu_eval's own wrap-around helpers.
using detail::wrap_add;
using detail::wrap_mul;

}  // namespace

const char* bailout_reason_name(BailoutReason reason) {
  switch (reason) {
    case BailoutReason::kShortLoop:
      return "short_loop";
    case BailoutReason::kControlFlow:
      return "control_flow";
    case BailoutReason::kNonAffineUpdate:
      return "non_affine_update";
    case BailoutReason::kExitRecord:
      return "exit_record";
    case BailoutReason::kAccelMutation:
      return "accel_mutation";
    case BailoutReason::kTrap:
      return "trap";
    case BailoutReason::kSelfModifyingStore:
      return "self_modifying_store";
    case BailoutReason::kOverlappingStore:
      return "overlapping_store";
    case BailoutReason::kValidationMismatch:
      return "validation_mismatch";
  }
  ZS_UNREACHABLE("bailout_reason_name: bad enum value");
}

LoopSummarizer::CacheEntry LoopSummarizer::analyze_body(
    std::uint32_t body_start, std::uint32_t body_end,
    const isa::CodeImage& image, const mem::Memory& mem) {
  CacheEntry entry;
  if (body_start > body_end || ((body_end - body_start) & 3u) != 0) {
    entry.rejected = BailoutReason::kTrap;
    return entry;
  }
  BodyInfo& body = entry.body;
  // Registers with at least one non-self-affine write; such a register can
  // still be read, but disqualifies closed-form replay of any store whose
  // address it bases.
  std::uint32_t nonaffine_mask = 0;
  for (std::uint32_t p = body_start;; p += 4) {
    const Instruction instr =
        image.covers(p) ? image.at(p) : isa::decode(mem.fetch32(p));
    if (!instr.valid()) {
      entry.rejected = BailoutReason::kTrap;
      return entry;
    }
    const isa::OpcodeInfo& info = isa::opcode_info(instr.op);
    if (info.is_zolc) {
      entry.rejected = BailoutReason::kAccelMutation;
      return entry;
    }
    if (isa::is_control_flow(instr) || instr.op == Opcode::kHalt) {
      entry.rejected = BailoutReason::kControlFlow;
      return entry;
    }
    Uop u;
    u.op = instr.op;
    u.rs = instr.rs;
    u.rt = instr.rt;
    u.shamt = instr.shamt;
    u.imm = instr.imm;
    switch (info.format) {
      case Format::kR3:
      case Format::kR3Acc:
      case Format::kR2:
      case Format::kR1:
      case Format::kRShift:
        u.dest = instr.rd;
        switch (instr.op) {
          case Opcode::kAdd:
            u.kind = Uop::Kind::kAdd;
            break;
          case Opcode::kMac:
            u.kind = Uop::Kind::kMac;
            break;
          case Opcode::kMax:
            u.kind = Uop::Kind::kMax;
            break;
          case Opcode::kSll:
            u.kind = Uop::Kind::kSll;
            break;
          case Opcode::kMul:
            u.kind = Uop::Kind::kMul;
            break;
          default:
            u.kind = Uop::Kind::kAlu;
            break;
        }
        break;
      case Format::kI:
      case Format::kLui:
        u.kind = instr.op == Opcode::kAddi ? Uop::Kind::kAddi
                                           : Uop::Kind::kAluImm;
        u.dest = instr.rt;
        break;
      case Format::kMem:
        u.kind = info.is_load ? Uop::Kind::kLoad : Uop::Kind::kStore;
        u.dest = instr.rt;
        u.width = access_width(instr.op);
        u.sign_extend =
            instr.op == Opcode::kLb || instr.op == Opcode::kLh;
        break;
      default:
        // Branches/jumps were rejected above; anything else left in the
        // region (e.g. a stray no-format opcode) cannot be micro-op'd.
        entry.rejected = BailoutReason::kControlFlow;
        return entry;
    }

    const isa::SourceRegs srcs = isa::source_regs(instr);
    for (std::uint8_t i = 0; i < srcs.count; ++i) {
      body.reads_mask |= 1u << srcs.regs[i];
    }
    if (const auto dest = isa::dest_reg(instr)) {
      body.writes_mask |= 1u << *dest;
      if (instr.op == Opcode::kAddi && instr.rs == *dest) {
        body.affine_delta[*dest] += instr.imm;
      } else {
        nonaffine_mask |= 1u << *dest;
      }
    }
    if (u.kind == Uop::Kind::kStore) {
      body.store_slots.push_back(static_cast<std::uint32_t>(body.uops.size()));
    }
    body.uops.push_back(u);
    if (p == body_end) break;
  }
  // A non-affine write poisons the affine delta too: the register's
  // per-iteration advance is no longer the sum of its addi immediates.
  for (unsigned r = 0; r < isa::kNumRegs; ++r) {
    if ((nonaffine_mask >> r) & 1u) body.affine_delta[r] = 0;
  }
  for (std::uint32_t slot : body.store_slots) {
    const std::uint8_t base = body.uops[slot].rs;
    if (((body.writes_mask >> base) & 1u) != 0 &&
        ((nonaffine_mask >> base) & 1u) != 0) {
      entry.bulk_rejected = BailoutReason::kNonAffineUpdate;
      break;
    }
  }
  return entry;
}

LoopSummarizer::CacheEntry& LoopSummarizer::region(std::uint32_t start,
                                                   std::uint32_t end,
                                                   const isa::CodeImage& image,
                                                   const mem::Memory& mem) {
  const std::uint64_t key = (static_cast<std::uint64_t>(start) << 32) | end;
  // Two MRU ways: a loop nest with an imperfect level alternates between
  // the innermost body and the wrapper region every iteration.
  if (mru_entry_[0] != nullptr && key == mru_key_[0]) return *mru_entry_[0];
  if (mru_entry_[1] != nullptr && key == mru_key_[1]) {
    std::swap(mru_key_[0], mru_key_[1]);
    std::swap(mru_entry_[0], mru_entry_[1]);
    return *mru_entry_[0];
  }
  auto it = cache_.find(key);
  if (it == cache_.end()) {
    it = cache_.emplace(key, analyze_body(start, end, image, mem)).first;
    if (!it->second.rejected) {
      cache_lo_ = std::min(cache_lo_, start);
      cache_hi_ = std::max(cache_hi_, end);
    }
  }
  mru_key_[1] = mru_key_[0];
  mru_entry_[1] = mru_entry_[0];
  mru_key_[0] = key;
  mru_entry_[0] = &it->second;
  return it->second;
}

std::optional<BailoutReason> LoopSummarizer::check_recorded_iterations(
    const std::vector<StoreRecord>& first,
    const std::vector<StoreRecord>& second,
    const std::vector<std::int64_t>& predicted_strides) {
  for (std::size_t i = 0; i < first.size(); ++i) {
    const std::uint64_t a_lo = first[i].addr;
    const std::uint64_t a_hi = a_lo + first[i].size;
    for (std::size_t j = i + 1; j < first.size(); ++j) {
      const std::uint64_t b_lo = first[j].addr;
      const std::uint64_t b_hi = b_lo + first[j].size;
      if (a_lo < b_hi && b_lo < a_hi) return BailoutReason::kOverlappingStore;
    }
  }
  if (second.empty()) return std::nullopt;
  if (second.size() != first.size() ||
      predicted_strides.size() != first.size()) {
    return BailoutReason::kValidationMismatch;
  }
  for (std::size_t i = 0; i < first.size(); ++i) {
    const std::int64_t observed = static_cast<std::int64_t>(second[i].addr) -
                                  static_cast<std::int64_t>(first[i].addr);
    if (observed != predicted_strides[i] || second[i].size != first[i].size) {
      return BailoutReason::kValidationMismatch;
    }
  }
  return std::nullopt;
}

LoopSummarizer::RunOutcome LoopSummarizer::run_region(
    const BodyInfo& body, mem::Memory& mem, RegFile& regs,
    std::uint64_t passes, std::uint64_t edge_limit, std::uint8_t idx_reg,
    std::int32_t idx_step, std::int32_t* idx_val,
    std::vector<StoreRecord>* record, std::optional<BailoutReason>* bail) {
  RunOutcome out;
  const Uop* const uops = body.uops.data();
  const std::size_t n = body.uops.size();
  // Access statistics are batched into one count_accesses() call so the
  // raw-page accesses below leave MemoryStats exactly as read*/write*
  // would have (misaligned accesses bail before they are counted, just as
  // the throwing path counts nothing).
  std::uint64_t reads = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t writes = 0;
  std::uint64_t bytes_written = 0;
  for (std::uint64_t pass = 0; pass < passes; ++pass) {
  for (std::size_t j = 0; j < n; ++j) {
    const Uop& u = uops[j];
    switch (u.kind) {
      case Uop::Kind::kAddi:
        regs.write_raw(u.dest, wrap_add(regs.read_raw(u.rs), u.imm));
        break;
      case Uop::Kind::kAdd:
        regs.write_raw(u.dest,
                       wrap_add(regs.read_raw(u.rs), regs.read_raw(u.rt)));
        break;
      case Uop::Kind::kMac: {
        const std::int32_t prod =
            wrap_mul(regs.read_raw(u.rs), regs.read_raw(u.rt));
        regs.write_raw(u.dest, wrap_add(regs.read_raw(u.dest), prod));
        break;
      }
      case Uop::Kind::kMax: {
        const std::int32_t a = regs.read_raw(u.rs);
        const std::int32_t b = regs.read_raw(u.rt);
        regs.write_raw(u.dest, a > b ? a : b);
        break;
      }
      case Uop::Kind::kSll:
        regs.write_raw(u.dest,
                       static_cast<std::int32_t>(
                           static_cast<std::uint32_t>(regs.read_raw(u.rt))
                           << u.shamt));
        break;
      case Uop::Kind::kMul:
        regs.write_raw(u.dest,
                       wrap_mul(regs.read_raw(u.rs), regs.read_raw(u.rt)));
        break;
      case Uop::Kind::kAlu: {
        AluInputs in;
        in.a = regs.read_raw(u.rs);
        in.b = regs.read_raw(u.rt);
        in.acc = regs.read_raw(u.dest);
        in.shamt = u.shamt;
        regs.write_raw(u.dest, alu_eval(u.op, in));
        break;
      }
      case Uop::Kind::kAluImm: {
        AluInputs in;
        in.a = regs.read_raw(u.rs);
        in.b = u.imm;
        regs.write_raw(u.dest, alu_eval(u.op, in));
        break;
      }
      case Uop::Kind::kLoad: {
        const auto addr =
            static_cast<std::uint32_t>(regs.read_raw(u.rs) + u.imm);
        if ((addr & (u.width - 1u)) != 0) {
          // Resume at this instruction; the baseline re-executes it and
          // raises the MemoryFault with its precise message.
          *bail = BailoutReason::kTrap;
          out.partial = j;
          goto account;
        }
        ++reads;
        bytes_read += u.width;
        const std::uint32_t page_no = addr >> mem::Memory::kPageBits;
        const std::uint8_t* page;
        if (page_no == load_page_no_[0]) {
          page = load_page_[0];
        } else if (page_no == load_page_no_[1]) {
          page = load_page_[1];
        } else if (page_no == load_page_no_[2]) {
          page = load_page_[2];
        } else if (page_no == load_page_no_[3]) {
          page = load_page_[3];
        } else {
          // Only resident pages are cached: a miss (nullptr) is re-looked
          // up every time so a page materializing later is observed.
          page = mem.peek_page(addr);
          if (page == nullptr) {
            regs.write_raw(u.dest, 0);
            break;
          }
          load_page_no_[load_victim_] = page_no;
          load_page_[load_victim_] = page;
          load_victim_ = (load_victim_ + 1) & 3u;
        }
        const std::uint32_t ofs = addr & (mem::Memory::kPageSize - 1);
        std::int32_t value = 0;
        switch (u.width) {
          case 1:
            value = u.sign_extend ? static_cast<std::int8_t>(page[ofs])
                                  : page[ofs];
            break;
          case 2: {
            std::uint16_t v = 0;
            std::memcpy(&v, page + ofs, 2);
            value = u.sign_extend ? static_cast<std::int16_t>(v) : v;
            break;
          }
          default: {
            std::uint32_t v = 0;
            std::memcpy(&v, page + ofs, 4);
            value = static_cast<std::int32_t>(v);
            break;
          }
        }
        regs.write_raw(u.dest, value);
        break;
      }
      case Uop::Kind::kStore: {
        const auto addr =
            static_cast<std::uint32_t>(regs.read_raw(u.rs) + u.imm);
        if ((addr & (u.width - 1u)) != 0) {
          *bail = BailoutReason::kTrap;
          out.partial = j;
          goto account;
        }
        // Bail before a store lands inside any summarized region: the
        // cached micro-ops must never go stale. Conservative (the bounds
        // cover the whole cached span), costs two compares per store.
        if (addr <= cache_hi_ + 3 && addr + u.width > cache_lo_) {
          *bail = BailoutReason::kSelfModifyingStore;
          out.partial = j;
          goto account;
        }
        if (record != nullptr) record->push_back({addr, u.width});
        ++writes;
        bytes_written += u.width;
        const std::uint32_t page_no = addr >> mem::Memory::kPageBits;
        if (page_no != store_page_no_) {
          store_page_no_ = page_no;
          store_page_ = mem.touch_page(addr);
          // touch_page may have just privatized a copy-on-write baseline
          // page; a load way still holding the baseline pointer for the
          // same page would read pre-store data. Repoint it.
          for (unsigned w = 0; w < 4; ++w) {
            if (load_page_no_[w] == page_no) load_page_[w] = store_page_;
          }
          mem_epoch_ = mem.cow_epoch();
        }
        const std::uint32_t ofs = addr & (mem::Memory::kPageSize - 1);
        const auto uv = static_cast<std::uint32_t>(regs.read_raw(u.rt));
        switch (u.width) {
          case 1:
            store_page_[ofs] = static_cast<std::uint8_t>(uv);
            break;
          case 2: {
            const auto v = static_cast<std::uint16_t>(uv);
            std::memcpy(store_page_ + ofs, &v, 2);
            break;
          }
          default:
            std::memcpy(store_page_ + ofs, &uv, 4);
            break;
        }
        break;
      }
    }
  }
  ++out.passes;
  if (out.passes <= edge_limit) {
    // Fused back-edge: the hardware's continue event at the body's last
    // instruction -- index recurrence applied; the redirect is implicit in
    // the next pass starting over at the first micro-op.
    *idx_val = wrap_add(*idx_val, idx_step);
    regs.write_raw(idx_reg, *idx_val);
  }
  }
account:
  mem.count_accesses(reads, bytes_read, writes, bytes_written);
  return out;
}

LoopSummarizer::Replay LoopSummarizer::try_engage(
    zolc::ZolcController& zolc, const isa::CodeImage& image, mem::Memory& mem,
    RegFile& regs, std::uint32_t pc, std::uint64_t max_instructions) {
  // Copy-on-write memories invalidate handed-out page pointers when a
  // baseline page is privatized or the dirty set is reset; re-validate the
  // page caches against the epoch before touching them.
  if (mem.cow_epoch() != mem_epoch_) {
    drop_page_cache();
    mem_epoch_ = mem.cow_epoch();
  }
  return engage_nest(zolc, image, mem, regs, pc, max_instructions);
}

LoopSummarizer::Replay LoopSummarizer::engage_nest(
    zolc::ZolcController& zolc, const isa::CodeImage& image, mem::Memory& mem,
    RegFile& regs, std::uint32_t pc, std::uint64_t max_instructions) {
  Replay out;
  out.resume_pc = pc;
  if (!zolc.active()) return out;
  const NestProgram& np = zolc.nest_program();
  if (zolc.current_task() >= np.tasks.size()) return out;
  const NestTaskDesc& first = np.tasks[zolc.current_task()];
  if (!first.valid || pc > first.end_pc) return out;
  ++stats_.attempts;
  // A recently rejected region stops the walk below at its first lookup:
  // count that bailout without copying the controller state.
  if (first.walk_safe) {
    if (const CacheEntry* entry = recent_region(pc, first.end_pc);
        entry != nullptr && entry->rejected) {
      ++stats_.bailouts[idx(*entry->rejected)];
      return out;
    }
  }
  AccelSnapshot snap;
  zolc.snapshot(snap);

  // Engagement-local copies of the controller's dynamic state. The entire
  // run below -- region passes, back-edges, boundary events, cascades --
  // operates on these; the final state is written back once via restore().
  // uZOLC keeps its one loop's index in micro_current.
  std::int32_t* const index =
      np.micro ? &snap.micro_current : snap.loop_current.data();
  const std::size_t loop_count = np.loops.size();
  std::array<std::int32_t, kMaxAccelLoops> cur;
  for (std::size_t i = 0; i < loop_count; ++i) cur[i] = index[i];
  std::uint8_t cur_task = snap.current_task;
  bool active = true;
  std::uint32_t cur_pc = pc;
  std::uint64_t continues = 0;
  std::uint64_t dones = 0;
  std::uint64_t cascades = 0;
  std::uint64_t max_depth = 0;
  std::optional<BailoutReason> bail;

  const NestTaskDesc* const tasks = np.tasks.data();
  const NestLoopDesc* const loops = np.loops.data();
  // Engagement-local direct-mapped region cache: a nest cycles through a
  // handful of regions, and this keeps their CacheEntry pointers (stable
  // map nodes) in locals, skipping the region() call on the steady state.
  std::uint64_t rkey[4] = {0, 0, 0, 0};
  CacheEntry* rent[4] = {nullptr, nullptr, nullptr, nullptr};

  while (out.instructions < max_instructions && active) {
    const NestTaskDesc& task = tasks[cur_task];
    // An invalid current task never raises an event; nothing bounds a
    // summarizable region, so hand back to cycle-accurate stepping.
    if (!task.valid) break;
    if (!task.walk_safe) {
      // The boundary event could hit a table-programming fault mid-walk;
      // decline so the baseline raises the SimError precisely at the fetch.
      bail = BailoutReason::kTrap;
      break;
    }
    const std::uint32_t trig = task.end_pc;
    if (cur_pc > trig) break;
    const std::uint64_t rk =
        (static_cast<std::uint64_t>(cur_pc) << 32) | trig;
    const unsigned ri = (cur_pc >> 2) & 3u;
    CacheEntry* entry_p = rent[ri];
    if (entry_p == nullptr || rkey[ri] != rk) {
      entry_p = &region(cur_pc, trig, image, mem);
      rkey[ri] = rk;
      rent[ri] = entry_p;
    }
    CacheEntry& entry = *entry_p;
    if (entry.rejected) {
      bail = *entry.rejected;
      break;
    }
    const BodyInfo& body = entry.body;
    const std::size_t body_len = body.uops.size();

    // A self-looping task from its body start replays in bulk: all its
    // remaining passes run fused in run_region, back-edges included, with
    // no boundary-event resolution until the final (done) iteration. A
    // task whose continue successor self-loops over the same loop and body
    // (the per-level re-entry tasks a nest compiles to) is equally
    // bulk-eligible: its first back-edge just renames the current task.
    bool body_done = false;  // final pass already executed by the bulk path
    bool self = task.cont == cur_task && cur_pc == task.start_pc;
    if (!self && cur_pc == task.start_pc) {
      const NestTaskDesc& ct = tasks[task.cont];
      self = ct.valid && ct.walk_safe && ct.cont == task.cont &&
             ct.loop == task.loop && ct.start_pc == task.start_pc &&
             ct.end_pc == task.end_pc;
    }
    if (self) {
      const NestLoopDesc& loop = loops[task.loop];
      if (loop.has_exit_records) {
        bail = BailoutReason::kExitRecord;
        break;
      }
      if (((body.writes_mask >> loop.index_rf) & 1u) != 0 ||
          entry.bulk_rejected) {
        bail = BailoutReason::kNonAffineUpdate;
        break;
      }
      const std::int64_t remaining =
          cur[task.loop] == loop.initial && loop.trips > 0
              ? static_cast<std::int64_t>(loop.trips) - 1
              : nest_remaining_backedges(cur[task.loop], loop.step, loop.final,
                                         loop.cond);
      if (remaining > 0 &&
          static_cast<std::uint64_t>(remaining) >= min_backedges_) {
        const bool reads_index =
            ((body.reads_mask >> loop.index_rf) & 1u) != 0;

        const std::uint64_t budget = max_instructions - out.instructions;
        // Passes to run: remaining + 1 includes the final (done) iteration,
        // whose boundary event the walk below resolves. A budget clamp
        // stops mid-loop instead, with every completed pass back-edged.
        // The guard multiplies instead of dividing (the division is hot);
        // the magnitude pre-check keeps the product from overflowing.
        std::uint64_t want = static_cast<std::uint64_t>(remaining) + 1;
        bool budget_stop = false;
        if (want > (std::uint64_t{1} << 40) || want * body_len > budget) {
          const std::uint64_t room = budget / body_len;
          if (room < want) {
            want = room;
            budget_stop = true;
          }
        }
        if (want == 0) break;
        const std::uint64_t backedges_total =
            budget_stop ? want : static_cast<std::uint64_t>(remaining);

        // With stores present, the first two passes run singly with store
        // recording, validating the static stride prediction before the
        // fused remainder commits. A store-free body has nothing to
        // validate (the check is vacuous), so all passes fuse directly.
        const std::int32_t entry_index = cur[task.loop];
        std::int32_t ival = entry_index;
        std::uint64_t done_passes = 0;
        std::size_t partial = 0;
        scratch_rec_[0].clear();
        scratch_rec_[1].clear();
        const std::uint64_t prefix =
            body.store_slots.empty() ? 0 : std::min<std::uint64_t>(2, want);
        std::vector<std::int64_t>& strides = scratch_strides_;
        if (prefix != 0) {
          // Per-iteration address stride each store slot is predicted to
          // take, for validating the recorded passes below.
          strides.clear();
          for (std::uint32_t slot : body.store_slots) {
            const std::uint8_t base = body.uops[slot].rs;
            strides.push_back(base == loop.index_rf
                                  ? loop.step
                                  : body.affine_delta[base]);
          }
        }
        for (std::uint64_t it = 0; it < prefix && !bail; ++it) {
          partial = run_region(body, mem, regs, 1, 0, 0, 0, nullptr,
                               &scratch_rec_[it], &bail)
                        .partial;
          if (bail) break;
          ++done_passes;
          if (done_passes <= backedges_total) {
            ival = wrap_add(ival, loop.step);
            if (reads_index) regs.write_raw(loop.index_rf, ival);
          }
          if (it == 1) {
            if (auto check = check_recorded_iterations(
                    scratch_rec_[0], scratch_rec_[1], strides)) {
              bail = check;
              partial = 0;  // the iteration completed; boundary is exact
            }
          }
        }
        if (!bail && done_passes < want) {
          const std::uint64_t rem_edges =
              backedges_total > done_passes ? backedges_total - done_passes
                                            : 0;
          const RunOutcome o = run_region(
              body, mem, regs, want - done_passes,
              reads_index ? rem_edges : 0, loop.index_rf, loop.step, &ival,
              nullptr, &bail);
          partial = o.partial;
          done_passes += o.passes;
        }
        const std::uint64_t backedges_taken =
            std::min<std::uint64_t>(done_passes, backedges_total);
        if (!reads_index) {
          // Index writes elided during replay (the body never reads the
          // index): one closed-form write lands the final value.
          ival = static_cast<std::int32_t>(
              static_cast<std::uint32_t>(entry_index) +
              static_cast<std::uint32_t>(loop.step) *
                  static_cast<std::uint32_t>(backedges_taken));
          if (backedges_taken > 0) regs.write_raw(loop.index_rf, ival);
        }
        cur[task.loop] = ival;
        out.instructions += done_passes * body_len + (bail ? partial : 0);
        out.fetch_events += backedges_taken;
        continues += backedges_taken;
        // The first back-edge switched to the continue successor (a no-op
        // for a strictly self-looping task).
        if (backedges_taken > 0) cur_task = task.cont;
        if (bail) {
          cur_pc = task.start_pc + 4 * static_cast<std::uint32_t>(partial);
          break;
        }
        if (budget_stop) {
          cur_pc = task.start_pc;
          break;
        }
        body_done = true;
      } else if (remaining >= 0 && out.instructions == 0) {
        bail = BailoutReason::kShortLoop;
        break;
      }
      // remaining < 0 (non-terminating recurrence) or a short loop reached
      // mid-chain: run pass-by-pass, the walk taking each back-edge.
    }

    if (!body_done) {
      if (out.instructions + body_len > max_instructions) break;
      const std::size_t partial =
          run_region(body, mem, regs, 1, 0, 0, 0, nullptr, nullptr, &bail)
              .partial;
      if (bail) {
        out.instructions += partial;
        cur_pc += 4 * static_cast<std::uint32_t>(partial);
        break;
      }
      out.instructions += body_len;
    }

    // Boundary event at trig, resolved inline: an exact mirror of the
    // controller's on_fetch walk (continue / done / combinational cascade /
    // deactivate), on the engagement-local state.
    ++out.fetch_events;  // mirrors the baseline's zolc_fetch_events count
    unsigned depth = 0;
    std::uint8_t t = cur_task;
    std::optional<std::uint32_t> redirect;
    while (active) {
      const NestTaskDesc& td = tasks[t];
      if (!td.valid || td.end_pc != trig) break;
      ++depth;
      const NestLoopDesc& ld = loops[td.loop];
      const std::int32_t next = wrap_add(cur[td.loop], ld.step);
      if (nest_cond_holds(ld.cond, next, ld.final)) {
        cur[td.loop] = next;
        regs.write_raw(ld.index_rf, next);
        t = td.cont;
        redirect = tasks[td.cont].start_pc;
        ++continues;
        break;
      }
      cur[td.loop] = ld.initial;
      regs.write_raw(ld.index_rf, ld.initial);
      ++dones;
      if (td.is_last || td.rearm) {
        // Fall through to the code after the region; a re-arming (uZOLC)
        // task keeps the controller active for the next entry.
        active = td.rearm;
        redirect.reset();
        break;
      }
      t = td.done;
      redirect = tasks[td.done].start_pc;
    }
    if (depth > 1) {
      ++cascades;
      if (depth > max_depth) max_depth = depth;
    }
    cur_task = t;
    cur_pc = redirect ? *redirect : trig + 4;
  }

  // One write-back covers every event resolved above; the credited counters
  // are exactly what the skipped on_fetch calls would have counted.
  if (continues + dones > 0) {
    for (std::size_t i = 0; i < loop_count; ++i) index[i] = cur[i];
    snap.current_task = cur_task;
    snap.active = active;
    zolc.restore(snap);
    zolc.credit_summary_events(continues, dones, cascades, max_depth);
  }

  out.resume_pc = cur_pc;
  if (bail) ++stats_.bailouts[idx(*bail)];
  out.engaged = out.instructions > 0;
  if (out.engaged) ++stats_.engagements;
  stats_.replayed_instructions += out.instructions;
  stats_.replayed_backedges += out.fetch_events;
  return out;
}

}  // namespace zolcsim::cpu
