#include "zolc/controller.hpp"

#include <algorithm>
#include <sstream>

#include "common/bitutil.hpp"
#include "common/contracts.hpp"
#include "common/strings.hpp"
#include "cpu/exec.hpp"

namespace zolcsim::zolc {

namespace {

using cpu::AccelEvent;
using cpu::RfWrite;
using cpu::SimError;
using isa::Opcode;

static_assert(kMaxGeometryLoops <= cpu::kMaxAccelLoops,
              "AccelSnapshot cannot carry the largest geometry");

}  // namespace

ZolcController::ZolcController(ZolcVariant variant,
                               const ZolcGeometry& geometry)
    : variant_(variant),
      geom_(geometry.for_variant(variant)),
      pc_mask_(mask32(geom_.pc_ofs_bits)) {
  ZS_EXPECTS(geometry.valid());
  tasks_.resize(geom_.max_tasks);
  task_start_.resize(geom_.max_tasks);
  loops_.resize(geom_.max_loops);
  exits_.resize(geom_.exit_record_count());
  entries_.resize(geom_.entry_record_count());
}

const TaskEntry& ZolcController::task(unsigned idx) const {
  ZS_EXPECTS(idx < tasks_.size());
  return tasks_[idx];
}

std::uint16_t ZolcController::task_start(unsigned idx) const {
  ZS_EXPECTS(idx < task_start_.size());
  return task_start_[idx];
}

const LoopEntry& ZolcController::loop(unsigned idx) const {
  ZS_EXPECTS(variant_ != ZolcVariant::kMicro && idx < loops_.size());
  return loops_[idx];
}

const ExitRecord& ZolcController::exit_record(unsigned idx) const {
  ZS_EXPECTS(variant_ == ZolcVariant::kFull && idx < exits_.size());
  return exits_[idx];
}

const EntryRecord& ZolcController::entry_record(unsigned idx) const {
  ZS_EXPECTS(variant_ == ZolcVariant::kFull && idx < entries_.size());
  return entries_[idx];
}

void ZolcController::reset() {
  std::fill(tasks_.begin(), tasks_.end(), TaskEntry{});
  std::fill(task_start_.begin(), task_start_.end(), std::uint16_t{0});
  std::fill(loops_.begin(), loops_.end(), LoopEntry{});
  std::fill(exits_.begin(), exits_.end(), ExitRecord{});
  std::fill(entries_.begin(), entries_.end(), EntryRecord{});
  micro_ = {};
  base_ = 0;
  current_task_ = 0;
  active_ = false;
  stats_ = {};
  trigger_pc_ = kNoTrigger;
  nest_dirty_ = true;
}

void ZolcController::refresh_trigger() noexcept {
  trigger_pc_ = kNoTrigger;
  if (!active_) return;
  if (variant_ == ZolcVariant::kMicro) {
    trigger_pc_ = micro_.end_pc;
    return;
  }
  if (tasks_.empty()) return;
  const TaskEntry& t = tasks_[current_task_];
  if (t.valid) trigger_pc_ = ofs_to_pc(t.end_pc_ofs);
}

void ZolcController::init_write(Opcode op, std::uint8_t idx,
                                std::uint32_t value) {
  if (active_) {
    throw SimError("ZOLC table write while the controller is active");
  }
  ++stats_.table_writes;
  nest_dirty_ = true;
  switch (op) {
    case Opcode::kZolwTe: {
      if (variant_ == ZolcVariant::kMicro || idx >= tasks_.size()) {
        throw SimError("zolw.te: no task entry " + std::to_string(idx) +
                       " on " + std::string(variant_name(variant_)));
      }
      // Range-check the packed ids: the field widths are rounded up to
      // whole bits, so non-power-of-two geometries admit encodings beyond
      // the table sizes (the hardware write decoder traps them).
      const TaskEntry entry = TaskEntry::unpack(value, geom_);
      if (entry.loop_id >= geom_.max_loops ||
          entry.next_task_cont >= geom_.max_tasks ||
          entry.next_task_done >= geom_.max_tasks) {
        throw SimError("zolw.te: packed id out of range for geometry " +
                       geom_.label());
      }
      tasks_[idx] = entry;
      break;
    }
    case Opcode::kZolwTs:
      if (variant_ == ZolcVariant::kMicro || idx >= tasks_.size()) {
        throw SimError("zolw.ts: no task entry " + std::to_string(idx) +
                       " on " + std::string(variant_name(variant_)));
      }
      task_start_[idx] =
          static_cast<std::uint16_t>(value & mask32(geom_.pc_ofs_bits));
      break;
    case Opcode::kZolwLp0:
    case Opcode::kZolwLp1:
      if (variant_ == ZolcVariant::kMicro || idx >= loops_.size()) {
        throw SimError("zolw.lp: no loop entry " + std::to_string(idx) +
                       " on " + std::string(variant_name(variant_)));
      }
      if (op == Opcode::kZolwLp0) loops_[idx].unpack_word0(value);
      else loops_[idx].unpack_word1(value);
      break;
    case Opcode::kZolwEx0:
    case Opcode::kZolwEx1:
      if (variant_ != ZolcVariant::kFull || idx >= exits_.size()) {
        throw SimError("zolw.ex: no exit record " + std::to_string(idx) +
                       " on " + std::string(variant_name(variant_)));
      }
      if (op == Opcode::kZolwEx0) exits_[idx].unpack_lo(value, geom_);
      else exits_[idx].unpack_hi(value, geom_);
      if (exits_[idx].next_task >= geom_.max_tasks) {
        throw SimError("zolw.ex: packed next_task out of range for geometry " +
                       geom_.label());
      }
      break;
    case Opcode::kZolwEn0:
    case Opcode::kZolwEn1:
      if (variant_ != ZolcVariant::kFull || idx >= entries_.size()) {
        throw SimError("zolw.en: no entry record " + std::to_string(idx) +
                       " on " + std::string(variant_name(variant_)));
      }
      if (op == Opcode::kZolwEn0) entries_[idx].unpack_lo(value, geom_);
      else entries_[idx].unpack_hi(value, geom_);
      if (entries_[idx].next_task >= geom_.max_tasks) {
        throw SimError("zolw.en: packed next_task out of range for geometry " +
                       geom_.label());
      }
      break;
    case Opcode::kZolwU: {
      if (variant_ != ZolcVariant::kMicro || idx >= kMicroRegCount) {
        throw SimError("zolw.u: no uZOLC register " + std::to_string(idx) +
                       " on " + std::string(variant_name(variant_)));
      }
      const auto sv = static_cast<std::int32_t>(value);
      switch (static_cast<MicroReg>(idx)) {
        case MicroReg::kInitial: micro_.initial = sv; break;
        case MicroReg::kFinal:   micro_.final = sv; break;
        case MicroReg::kStep:    micro_.step = sv; break;
        case MicroReg::kCurrent: micro_.current = sv; break;
        case MicroReg::kStartPc: micro_.start_pc = value; break;
        case MicroReg::kEndPc:   micro_.end_pc = value; break;
        case MicroReg::kCtrl:
          micro_.index_rf = static_cast<std::uint8_t>(extract_bits(value, 0, 5));
          micro_.cond = static_cast<LoopCond>(extract_bits(value, 5, 2));
          break;
        case MicroReg::kCount:
        case MicroReg::kStatus:
          break;  // reserved, accepted and ignored
      }
      break;
    }
    default:
      throw SimError("not a ZOLC table-write opcode");
  }
}

void ZolcController::activate(std::uint8_t start_task, std::uint32_t base) {
  if (active_) {
    throw SimError("zolon while the controller is already active");
  }
  if (variant_ == ZolcVariant::kMicro) {
    micro_.current = micro_.initial;
    active_ = true;
    refresh_trigger();
    return;
  }
  if (start_task >= tasks_.size()) {
    throw SimError("zolon: start task " + std::to_string(start_task) +
                   " out of range");
  }
  if (!is_aligned(base, 4)) {
    throw SimError("zolon: base address " + hex32(base) +
                   " is not word-aligned");
  }
  base_ = base;
  nest_dirty_ = true;  // the export resolves table offsets against base_
  current_task_ = start_task;
  for (LoopEntry& loop : loops_) {
    if (loop.valid) loop.current = loop.initial;
  }
  active_ = true;
  refresh_trigger();
}

void ZolcController::deactivate() {
  active_ = false;
  trigger_pc_ = kNoTrigger;
}

bool ZolcController::pc_to_ofs(std::uint32_t pc, std::uint16_t& ofs) const {
  if (pc < base_) return false;
  const std::uint32_t delta = (pc - base_) >> 2;
  if (delta > pc_mask_) return false;
  ofs = static_cast<std::uint16_t>(delta);
  return true;
}

std::uint32_t ZolcController::ofs_to_pc(std::uint16_t ofs) const noexcept {
  return base_ + (static_cast<std::uint32_t>(ofs) << 2);
}

bool ZolcController::on_fetch(std::uint32_t pc, AccelEvent& ev) {
  if (!will_trigger(pc)) return false;

  ev.redirect.reset();
  ev.rf_writes.clear();
  if (variant_ == ZolcVariant::kMicro) {
    const std::int32_t next = micro_.current + micro_.step;
    if (cond_holds(micro_.cond, next, micro_.final)) {
      micro_.current = next;
      ev.rf_writes.push_back(RfWrite{micro_.index_rf, next});
      ev.redirect = micro_.start_pc;
      ++stats_.continue_events;
    } else {
      // Reinit-on-exit: the controller stays armed so an enclosing software
      // loop can re-enter the region with no reprogramming.
      micro_.current = micro_.initial;
      ev.rf_writes.push_back(RfWrite{micro_.index_rf, micro_.initial});
      ++stats_.done_events;
    }
    return true;
  }

  std::uint16_t ofs = 0;
  ZS_ASSERT(pc_to_ofs(pc, ofs));
  unsigned depth = 0;
  while (active_) {
    const TaskEntry& t = tasks_[current_task_];
    if (!t.valid || t.end_pc_ofs != ofs) break;
    if (++depth > geom_.max_loops) {
      throw SimError("ZOLC cascade exceeded hardware depth at " + hex32(pc));
    }
    LoopEntry& loop = loops_[t.loop_id];
    if (!loop.valid) {
      throw SimError("task " + std::to_string(current_task_) +
                     " references invalid loop " + std::to_string(t.loop_id));
    }
    const std::int32_t next = loop.current + loop.step;
    if (cond_holds(loop.cond, next, loop.final)) {
      // Loop back-edge: zero-overhead task switch to the body start.
      loop.current = next;
      ev.rf_writes.push_back(RfWrite{loop.index_rf, next});
      current_task_ = t.next_task_cont;
      ev.redirect = ofs_to_pc(task_start_[t.next_task_cont]);
      ++stats_.continue_events;
      break;
    }
    // Loop completion: reinit-on-exit, then hand over to the done successor
    // (which may share this end_pc -- the combinational cascade).
    loop.current = loop.initial;
    ev.rf_writes.push_back(RfWrite{loop.index_rf, loop.initial});
    ++stats_.done_events;
    if (t.is_last) {
      active_ = false;
      ev.redirect.reset();  // fall through to the code after the region
      break;
    }
    current_task_ = t.next_task_done;
    ev.redirect = ofs_to_pc(task_start_[t.next_task_done]);
  }
  if (depth > 1) {
    ++stats_.cascade_chains;
    stats_.max_cascade_depth = std::max<std::uint64_t>(stats_.max_cascade_depth,
                                                       depth);
  }
  refresh_trigger();
  return true;
}

void ZolcController::apply_reinit_mask(std::uint32_t mask, AccelEvent& ev) {
  for (unsigned i = 0; i < geom_.max_loops; ++i) {
    if ((mask & (1u << i)) == 0) continue;
    LoopEntry& loop = loops_[i];
    if (!loop.valid) {
      throw SimError("reinit mask references invalid loop " +
                     std::to_string(i));
    }
    loop.current = loop.initial;
    ev.rf_writes.push_back(RfWrite{loop.index_rf, loop.initial});
  }
}

bool ZolcController::on_taken_control(std::uint32_t pc, std::uint32_t target,
                                      AccelEvent& ev) {
  if (!active_ || variant_ != ZolcVariant::kFull) return false;

  ev.redirect.reset();
  ev.rf_writes.clear();
  bool matched = false;

  // Candidate exits, scoped to the current task's controlling loop (the
  // hardware compares only that loop's bank of records).
  const TaskEntry& t = tasks_[current_task_];
  std::uint16_t ofs = 0;
  if (t.valid && pc_to_ofs(pc, ofs)) {
    const unsigned bank = t.loop_id * geom_.max_exits_per_loop;
    for (unsigned slot = 0; slot < geom_.max_exits_per_loop; ++slot) {
      const ExitRecord& r = exits_[bank + slot];
      if (!r.valid || r.branch_pc_ofs != ofs) continue;
      matched = true;
      ++stats_.exit_matches;
      apply_reinit_mask(r.reinit_mask, ev);
      current_task_ = r.next_task;
      if (r.deactivate) active_ = false;
      break;
    }
  }

  // Multi-entry records, matched on the transfer target.
  std::uint16_t tofs = 0;
  if (active_ && pc_to_ofs(target, tofs)) {
    for (const EntryRecord& r : entries_) {
      if (!r.valid || r.entry_pc_ofs != tofs) continue;
      matched = true;
      ++stats_.entry_matches;
      apply_reinit_mask(r.reinit_mask, ev);
      current_task_ = r.next_task;
      break;
    }
  }

  if (matched) refresh_trigger();
  return matched;
}

void ZolcController::snapshot(cpu::AccelSnapshot& s) const {
  s.loop_count = static_cast<std::uint8_t>(loops_.size());
  for (unsigned i = 0; i < loops_.size(); ++i) {
    s.loop_current[i] = loops_[i].current;
  }
  s.micro_current = micro_.current;
  s.current_task = current_task_;
  s.active = active_;
}

const cpu::NestProgram& ZolcController::nest_program() const {
  if (!nest_dirty_) return nest_prog_;
  nest_dirty_ = false;
  static_assert(static_cast<int>(LoopCond::kLt) ==
                        static_cast<int>(cpu::NestCond::kLt) &&
                    static_cast<int>(LoopCond::kGe) ==
                        static_cast<int>(cpu::NestCond::kGe),
                "NestCond must mirror LoopCond");
  const auto describe_loop = [](cpu::NestLoopDesc& d, std::uint8_t index_rf,
                                LoopCond cond, std::int32_t step,
                                std::int32_t initial, std::int32_t final) {
    d.valid = true;
    d.index_rf = index_rf;
    d.cond = static_cast<cpu::NestCond>(cond);
    d.step = step;
    d.initial = initial;
    d.final = final;
    const std::int64_t edges =
        cpu::nest_remaining_backedges(initial, step, final, d.cond);
    d.trips = edges < 0 ? 0 : static_cast<std::uint64_t>(edges) + 1;
  };
  nest_prog_.micro = variant_ == ZolcVariant::kMicro;
  if (nest_prog_.micro) {
    // One task over one loop: continue redirects to start_pc, done
    // re-initializes the index and falls through with the controller armed.
    nest_prog_.loops.assign(1, cpu::NestLoopDesc{});
    describe_loop(nest_prog_.loops[0], micro_.index_rf, micro_.cond,
                  micro_.step, micro_.initial, micro_.final);
    cpu::NestTaskDesc t;
    t.start_pc = micro_.start_pc;
    t.end_pc = micro_.end_pc;
    t.rearm = true;
    t.valid = true;
    t.walk_safe = true;
    nest_prog_.tasks.assign(1, t);
    return nest_prog_;
  }
  nest_prog_.loops.assign(loops_.size(), cpu::NestLoopDesc{});
  nest_prog_.tasks.assign(tasks_.size(), cpu::NestTaskDesc{});
  for (unsigned i = 0; i < loops_.size(); ++i) {
    const LoopEntry& l = loops_[i];
    cpu::NestLoopDesc& d = nest_prog_.loops[i];
    if (!l.valid) continue;
    describe_loop(d, l.index_rf, l.cond, l.step, l.initial, l.final);
    if (variant_ == ZolcVariant::kFull) {
      const unsigned bank = i * geom_.max_exits_per_loop;
      for (unsigned slot = 0; slot < geom_.max_exits_per_loop; ++slot) {
        if (exits_[bank + slot].valid) {
          d.has_exit_records = true;
          break;
        }
      }
    }
  }
  for (unsigned i = 0; i < tasks_.size(); ++i) {
    const TaskEntry& t = tasks_[i];
    cpu::NestTaskDesc& d = nest_prog_.tasks[i];
    // start_pc resolves for every entry: on_fetch redirects through
    // task_start_ without a validity check, and the export must mirror that.
    d.start_pc = ofs_to_pc(task_start_[i]);
    d.valid = t.valid;
    if (!t.valid) continue;
    d.end_pc = ofs_to_pc(t.end_pc_ofs);
    d.loop = t.loop_id;
    d.cont = t.next_task_cont;
    d.done = t.next_task_done;
    d.is_last = t.is_last;
  }
  // walk_safe: the worst-case done-cascade from each task (successors
  // sharing its end PC) references only valid loops and stays within the
  // hardware depth limit, so an inline event walk can never hit a condition
  // on_fetch would report as a SimError.
  for (cpu::NestTaskDesc& d : nest_prog_.tasks) {
    if (!d.valid) continue;
    bool safe = true;
    unsigned cur = static_cast<unsigned>(&d - nest_prog_.tasks.data());
    unsigned depth = 0;
    while (true) {
      const cpu::NestTaskDesc& t = nest_prog_.tasks[cur];
      if (!t.valid || t.end_pc != d.end_pc) break;  // cascade stops cleanly
      if (++depth > geom_.max_loops || !nest_prog_.loops[t.loop].valid) {
        safe = false;
        break;
      }
      if (t.is_last) break;  // done here deactivates
      cur = t.done;
    }
    d.walk_safe = safe;
  }
  return nest_prog_;
}

void ZolcController::credit_summary_events(std::uint64_t continues,
                                           std::uint64_t dones,
                                           std::uint64_t cascades,
                                           std::uint64_t max_cascade_depth) {
  stats_.continue_events += continues;
  stats_.done_events += dones;
  stats_.cascade_chains += cascades;
  stats_.max_cascade_depth =
      std::max(stats_.max_cascade_depth, max_cascade_depth);
}

void ZolcController::restore(const cpu::AccelSnapshot& snapshot) {
  if (auto restored = try_restore(snapshot); !restored.ok()) {
    throw SimError(restored.error().to_string());
  }
}

Result<void> ZolcController::try_restore(const cpu::AccelSnapshot& snapshot) {
  if (snapshot.loop_count != loops_.size()) {
    return Error{ErrorCode::kBadContext,
                 "snapshot carries " + std::to_string(snapshot.loop_count) +
                     " loops, geometry " + geom_.label() + " has " +
                     std::to_string(loops_.size())};
  }
  for (unsigned i = 0; i < loops_.size(); ++i) {
    loops_[i].current = snapshot.loop_current[i];
  }
  micro_.current = snapshot.micro_current;
  current_task_ = snapshot.current_task;
  active_ = snapshot.active;
  refresh_trigger();
  return {};
}

ZolcContext ZolcController::save_context() const {
  ZolcContext ctx;
  ctx.variant = variant_;
  ctx.geometry = geom_;
  ctx.tasks = tasks_;
  ctx.task_start = task_start_;
  ctx.loops = loops_;
  ctx.exits = exits_;
  ctx.entries = entries_;
  ctx.micro = micro_;
  ctx.base = base_;
  ctx.current_task = current_task_;
  ctx.active = active_;
  ctx.stats = stats_;
  return ctx;
}

Result<void> ZolcController::restore_context(const ZolcContext& context) {
  if (context.variant != variant_ || !(context.geometry == geom_)) {
    return Error{ErrorCode::kBadContext,
                 "context for " + std::string(variant_name(context.variant)) +
                     "/" + context.geometry.label() + " cannot restore onto " +
                     std::string(variant_name(variant_)) + "/" + geom_.label()};
  }
  if (context.tasks.size() != tasks_.size() ||
      context.task_start.size() != task_start_.size() ||
      context.loops.size() != loops_.size() ||
      context.exits.size() != exits_.size() ||
      context.entries.size() != entries_.size()) {
    return Error{ErrorCode::kBadContext,
                 "context table sizes do not match geometry " + geom_.label()};
  }
  tasks_ = context.tasks;
  task_start_ = context.task_start;
  loops_ = context.loops;
  exits_ = context.exits;
  entries_ = context.entries;
  micro_ = context.micro;
  base_ = context.base;
  current_task_ = context.current_task;
  active_ = context.active;
  stats_ = context.stats;
  nest_dirty_ = true;  // the export resolves table offsets against base_
  refresh_trigger();
  return {};
}

std::string ZolcController::describe() const {
  std::ostringstream os;
  os << "ZOLC variant: " << variant_name(variant_)
     << (active_ ? " [active, task " + std::to_string(current_task_) + "]"
                 : " [inactive]")
     << '\n';
  if (variant_ == ZolcVariant::kMicro) {
    os << "  loop: initial=" << micro_.initial << " final=" << micro_.final
       << " step=" << micro_.step << " current=" << micro_.current
       << " index_rf=" << isa::reg_name(micro_.index_rf)
       << " start=" << hex32(micro_.start_pc) << " end=" << hex32(micro_.end_pc)
       << '\n';
    return os.str();
  }
  os << "  geometry: " << geom_.label() << '\n';
  os << "  base: " << hex32(base_) << '\n';
  for (unsigned i = 0; i < tasks_.size(); ++i) {
    const TaskEntry& t = tasks_[i];
    if (!t.valid) continue;
    os << "  task " << i << ": start_ofs=" << task_start_[i]
       << " end_ofs=" << t.end_pc_ofs << " loop=" << unsigned(t.loop_id)
       << " cont->" << unsigned(t.next_task_cont) << " done->"
       << unsigned(t.next_task_done) << (t.is_last ? " [last]" : "") << '\n';
  }
  for (unsigned i = 0; i < loops_.size(); ++i) {
    const LoopEntry& l = loops_[i];
    if (!l.valid) continue;
    os << "  loop " << i << ": init=" << l.initial << " final=" << l.final
       << " step=" << int(l.step) << " index_rf=" << isa::reg_name(l.index_rf)
       << " cond=" << unsigned(static_cast<std::uint8_t>(l.cond))
       << " current=" << l.current << '\n';
  }
  if (variant_ == ZolcVariant::kFull) {
    for (unsigned i = 0; i < exits_.size(); ++i) {
      const ExitRecord& r = exits_[i];
      if (!r.valid) continue;
      os << "  exit[" << i / geom_.max_exits_per_loop << '.'
         << i % geom_.max_exits_per_loop << "]: branch_ofs=" << r.branch_pc_ofs
         << " next_task=" << unsigned(r.next_task) << " reinit=0x" << std::hex
         << r.reinit_mask << std::dec
         << (r.deactivate ? " [deactivate]" : "") << '\n';
    }
    for (unsigned i = 0; i < entries_.size(); ++i) {
      const EntryRecord& r = entries_[i];
      if (!r.valid) continue;
      os << "  entry[" << i / geom_.max_entries_per_loop << '.'
         << i % geom_.max_entries_per_loop << "]: entry_ofs=" << r.entry_pc_ofs
         << " next_task=" << unsigned(r.next_task) << " reinit=0x" << std::hex
         << r.reinit_mask << std::dec << '\n';
    }
  }
  return os.str();
}

}  // namespace zolcsim::zolc
