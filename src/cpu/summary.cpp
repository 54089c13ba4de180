#include "cpu/summary.hpp"

#include <algorithm>

#include "common/contracts.hpp"
#include "cpu/exec.hpp"
#include "isa/encoding.hpp"
#include "zolc/controller.hpp"

namespace zolcsim::cpu {

namespace {

using isa::Opcode;

constexpr std::size_t idx(BailoutReason reason) noexcept {
  return static_cast<std::size_t>(reason);
}

using detail::wrap_add;

/// True iff the task `t`, entered at `pc`, replays in bulk: it loops onto
/// itself from its body start, or its continue successor does so over the
/// same loop and body (the per-level re-entry tasks a nest compiles to,
/// whose first back-edge just renames the current task).
bool bulk_eligible(const NestTaskDesc* tasks, std::uint8_t t,
                   std::uint32_t pc) {
  const NestTaskDesc& task = tasks[t];
  if (pc != task.start_pc) return false;
  if (task.cont == t) return true;
  const NestTaskDesc& ct = tasks[task.cont];
  return ct.valid && ct.walk_safe && ct.cont == task.cont &&
         ct.loop == task.loop && ct.start_pc == task.start_pc &&
         ct.end_pc == task.end_pc;
}

/// Back-edges `loop` still takes from index value `index`; -1 when the
/// recurrence does not terminate.
std::int64_t remaining_backedges(const NestLoopDesc& loop,
                                 std::int32_t index) {
  return index == loop.initial && loop.trips > 0
             ? static_cast<std::int64_t>(loop.trips) - 1
             : nest_remaining_backedges(index, loop.step, loop.final,
                                        loop.cond);
}

}  // namespace

/// dispatch()'s engine for a region pass: operands from the register file,
/// memory through the ISS's own mem_load/mem_store, so MemoryStats and
/// copy-on-write privatization come out exactly as under stepping. A load
/// or store that must not run sets `bail` and changes nothing: a misaligned
/// access (the baseline re-executes it and raises the precise MemoryFault)
/// or a store into cached code. A region holds no branch, jump, ZOLC or
/// halt op (analyze_body rejects them).
struct LoopSummarizer::Core {
  RegFile& regs;
  mem::Memory& mem;
  std::uint32_t code_lo;  ///< cached code span, as cache_lo_/cache_hi_
  std::uint32_t code_hi;
  std::vector<StoreRecord>* record;
  const OpRecord* op = nullptr;
  std::optional<BailoutReason> bail;

  [[nodiscard]] std::int32_t rs() const { return regs.read_raw(op->rs); }
  [[nodiscard]] std::int32_t rt() const { return regs.read_raw(op->rt); }
  [[nodiscard]] std::int32_t rd() const { return regs.read_raw(op->rd); }
  void write(std::uint8_t reg, std::int32_t value) {
    regs.write_raw(reg, value);
  }
  template <Opcode kOp>
  void load(std::uint8_t reg, std::uint32_t addr) {
    if ((addr & (access_bytes(kOp) - 1u)) != 0) {
      bail = BailoutReason::kTrap;
      return;
    }
    write(reg, mem_load(kOp, mem, addr));
  }
  template <Opcode kOp>
  void store(std::uint32_t addr, std::int32_t value) {
    constexpr std::uint8_t kSize = access_bytes(kOp);
    if ((addr & (kSize - 1u)) != 0) {
      bail = BailoutReason::kTrap;
      return;
    }
    // Conservative: the bounds cover the whole cached span.
    if (addr <= code_hi + 3 && addr + kSize > code_lo) {
      bail = BailoutReason::kSelfModifyingStore;
      return;
    }
    if (record != nullptr) record->push_back({addr, kSize});
    mem_store(kOp, mem, addr, value);
  }
  void branch(bool) { ZS_UNREACHABLE("summary region: branch"); }
  void jump(std::uint32_t) { ZS_UNREACHABLE("summary region: jump"); }
  void zolc() { ZS_UNREACHABLE("summary region: ZOLC instruction"); }
  void halt() { ZS_UNREACHABLE("summary region: halt"); }
};

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
  // Registers with at least one non-self-affine write; such a register can
  // still be read, but disqualifies closed-form replay of any store whose
  // address it bases.
  std::uint32_t nonaffine_mask = 0;
  for (std::uint32_t p = body_start;; p += 4) {
    const OpRecord op = predecode(
        image.covers(p) ? image.at(p) : isa::decode(mem.fetch32(p)), p);
    if (op.op == Opcode::kInvalid) {
      entry.rejected = BailoutReason::kTrap;
      return entry;
    }
    if (op.zolc) {
      entry.rejected = BailoutReason::kAccelMutation;
      return entry;
    }
    if (op.control || op.op == Opcode::kHalt) {
      entry.rejected = BailoutReason::kControlFlow;
      return entry;
    }
    entry.reads_mask |= op.src_mask;
    if (op.dest != 0) {
      entry.writes_mask |= 1u << op.dest;
      if (op.op == Opcode::kAddi && op.rs == op.dest) {
        entry.affine_delta[op.dest] += op.imm;
      } else {
        nonaffine_mask |= 1u << op.dest;
      }
    }
    if (op.store) {
      entry.store_slots.push_back(static_cast<std::uint32_t>(entry.ops.size()));
    }
    entry.ops.push_back(op);
    if (p == body_end) break;
  }
  // A non-affine write poisons the affine delta too: the register's
  // per-iteration advance is no longer the sum of its addi immediates.
  for (unsigned r = 0; r < isa::kNumRegs; ++r) {
    if ((nonaffine_mask >> r) & 1u) entry.affine_delta[r] = 0;
  }
  for (std::uint32_t slot : entry.store_slots) {
    const std::uint8_t base = entry.ops[slot].rs;
    if (((entry.writes_mask >> base) & 1u) != 0 &&
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
    const CacheEntry& body, mem::Memory& mem, RegFile& regs,
    std::uint64_t passes, std::uint64_t edge_limit, std::uint8_t idx_reg,
    std::int32_t idx_step, std::int32_t* idx_val,
    std::vector<StoreRecord>* record, std::optional<BailoutReason>* bail) {
  RunOutcome out;
  const OpRecord* const ops = body.ops.data();
  const std::size_t n = body.ops.size();
  Core core{regs, mem, cache_lo_, cache_hi_, record, nullptr, std::nullopt};
  for (std::uint64_t pass = 0; pass < passes; ++pass) {
    for (std::size_t j = 0; j < n; ++j) {
      core.op = &ops[j];
      dispatch(ops[j], /*pc: no region op links*/ 0, core);
      if (core.bail) [[unlikely]] {
        *bail = core.bail;
        out.partial = j;
        return out;
      }
    }
    ++out.passes;
    if (out.passes <= edge_limit) {
      // Fused back-edge: the hardware's continue event at the body's last
      // instruction -- index recurrence applied; the redirect is implicit
      // in the next pass starting over at the first op.
      *idx_val = wrap_add(*idx_val, idx_step);
      regs.write_raw(idx_reg, *idx_val);
    }
  }
  return out;
}

LoopSummarizer::Replay LoopSummarizer::try_engage(
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

  const NestTaskDesc* const tasks = np.tasks.data();
  const NestLoopDesc* const loops = np.loops.data();
  // Why a bulk-eligible task over `body` cannot replay in closed form.
  const auto bulk_decline =
      [](const CacheEntry& body,
         const NestLoopDesc& loop) -> std::optional<BailoutReason> {
    if (loop.has_exit_records) return BailoutReason::kExitRecord;
    if (((body.writes_mask >> loop.index_rf) & 1u) != 0 ||
        body.bulk_rejected) {
      return BailoutReason::kNonAffineUpdate;
    }
    return std::nullopt;
  };
  const auto engages = [this](std::int64_t remaining) {
    return remaining > 0 &&
           static_cast<std::uint64_t>(remaining) >= min_backedges_;
  };

  // A first region that declines before running anything is decided from
  // the cached region, the task's loop and the live index: count that
  // bailout without copying the controller state.
  std::optional<BailoutReason> decline;
  if (!first.walk_safe) {
    decline = BailoutReason::kTrap;
  } else if (const CacheEntry& entry = region(pc, first.end_pc, image, mem);
             entry.rejected) {
    decline = entry.rejected;
  } else if (bulk_eligible(tasks, zolc.current_task(), pc)) {
    const NestLoopDesc& loop = loops[first.loop];
    decline = bulk_decline(entry, loop);
    const std::int64_t remaining =
        remaining_backedges(loop, zolc.loop_index(first.loop));
    if (!decline && remaining >= 0 && !engages(remaining)) {
      decline = BailoutReason::kShortLoop;
    }
  }
  if (decline) {
    ++stats_.bailouts[idx(*decline)];
    return out;
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
    const CacheEntry& body = *entry_p;
    if (body.rejected) {
      bail = *body.rejected;
      break;
    }
    const std::size_t body_len = body.ops.size();

    // A bulk-eligible task replays all its remaining passes fused in
    // run_region, back-edges included, with no boundary-event resolution
    // until the final (done) iteration. The first region's declines were
    // decided before the walk; mid-chain, a short loop (or a
    // non-terminating recurrence) runs pass-by-pass below, the walk taking
    // each back-edge.
    bool body_done = false;  // final pass already executed by the bulk path
    if (bulk_eligible(tasks, cur_task, cur_pc)) {
      const NestLoopDesc& loop = loops[task.loop];
      bail = bulk_decline(body, loop);
      if (bail) break;
      const std::int64_t remaining =
          remaining_backedges(loop, cur[task.loop]);
      if (engages(remaining)) {
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
            const std::uint8_t base = body.ops[slot].rs;
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
      }
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
