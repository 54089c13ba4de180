// ZolcController: architectural model of the zero-overhead loop controller,
// called directly by the ISS, the pipeline and the summary tier (the fixed
// hookup of the paper's Fig. 1; the data it exchanges is in cpu/accel.hpp).
// One class models all three hardware variants (table geometry differs;
// uZOLC additionally bypasses the task machinery entirely and uses its
// private register file).
// The geometry is a construction-time parameter: the default reproduces the
// paper's prototype, wider/deeper geometries size every table at runtime.
//
// Event semantics (DESIGN.md 4.2):
//  * task end     -- fetch PC matches the current task's end_pc: update the
//                    controlling loop's index, pick the continue/done
//                    successor, redirect fetch; `done` re-initializes the
//                    index (reinit-on-exit) so any later re-entry finds it
//                    ready; `done` at an is_last task deactivates.
//  * cascade      -- done-successor tasks sharing the same end_pc resolve
//                    combinationally in the same event (perfect-nest shared
//                    boundaries cost zero cycles).
//  * taken branch -- ZOLCfull matches candidate exit records (scoped to the
//                    current task's loop) and entry records; a match switches
//                    tasks and re-initializes the loops in the record's mask.
#ifndef ZOLCSIM_ZOLC_CONTROLLER_HPP
#define ZOLCSIM_ZOLC_CONTROLLER_HPP

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "cpu/accel.hpp"
#include "zolc/config.hpp"
#include "zolc/context.hpp"
#include "zolc/tables.hpp"

namespace zolcsim::zolc {

class ZolcController {
 public:
  /// Builds a controller of `variant` with the tables sized by `geometry`
  /// (restricted to the tables the variant implements). The default geometry
  /// is the paper's prototype. Precondition: geometry.valid().
  explicit ZolcController(ZolcVariant variant,
                          const ZolcGeometry& geometry = ZolcGeometry{});

  [[nodiscard]] ZolcVariant variant() const noexcept { return variant_; }
  [[nodiscard]] const ZolcGeometry& geometry() const noexcept { return geom_; }
  [[nodiscard]] bool active() const noexcept { return active_; }
  [[nodiscard]] std::uint8_t current_task() const noexcept {
    return current_task_;
  }
  [[nodiscard]] const ZolcStats& zolc_stats() const noexcept { return stats_; }

  /// Direct table access for tests and the loop-structure explorer example.
  [[nodiscard]] const TaskEntry& task(unsigned idx) const;
  [[nodiscard]] std::uint16_t task_start(unsigned idx) const;
  [[nodiscard]] const LoopEntry& loop(unsigned idx) const;
  [[nodiscard]] const ExitRecord& exit_record(unsigned idx) const;
  [[nodiscard]] const EntryRecord& entry_record(unsigned idx) const;

  /// Human-readable dump of the programmed tables.
  [[nodiscard]] std::string describe() const;

  /// Clears all tables and state back to power-on.
  void reset();

  // ---- full context switching (DESIGN.md section 9) ----

  /// Captures the complete controller state: table images, live loop
  /// indices, task position, uZOLC registers, activation base, and event
  /// counters. The counters travel with the context so a resumed run
  /// reports the same final statistics as an uninterrupted one.
  [[nodiscard]] ZolcContext save_context() const;

  /// Restores a context captured from a controller of the same variant and
  /// geometry; kBadContext otherwise, with this controller untouched.
  [[nodiscard]] Result<void> restore_context(const ZolcContext& context);

  /// Typed restore of the CPU-side loop-index snapshot: kBadContext when
  /// the snapshot's loop count does not match the active geometry (this
  /// controller untouched), instead of the SimError restore() throws.
  [[nodiscard]] Result<void> try_restore(const cpu::AccelSnapshot& snapshot);

  // ---- processor hookup ----

  /// Initialization-mode table write (zolw.* instructions). `op` selects the
  /// table, `idx` the entry, `value` the payload (from GPR rs).
  void init_write(isa::Opcode op, std::uint8_t idx, std::uint32_t value);

  /// zolon: switch to active mode starting at `start_task`, with table PC
  /// offsets relative to byte address `base`.
  void activate(std::uint8_t start_task, std::uint32_t base);

  /// zoloff: leave active mode.
  void deactivate();

  /// Executes one ZOLC instruction: a table write, zolon or zoloff (`op`),
  /// with its table index / start task `idx` and GPR rs value `value`.
  void execute(isa::Opcode op, std::uint8_t idx, std::uint32_t value) {
    if (op == isa::Opcode::kZolOn) {
      activate(idx, value);
    } else if (op == isa::Opcode::kZolOff) {
      deactivate();
    } else {
      init_write(op, idx, value);
    }
  }

  /// Would on_fetch(pc) produce an event? One compare against the latched
  /// task-end comparator (uZOLC: its end PC). Used by the simulators to
  /// skip snapshots on the common path and by the fetch-gating policy.
  [[nodiscard]] bool will_trigger(std::uint32_t pc) const noexcept {
    return pc == trigger_pc_;
  }

  /// Fetch-time event ("PC decode" side): if `pc` ends the current task,
  /// performs the task switch (including combinational cascades across
  /// shared nest boundaries), overwrites `ev` with the redirect + index
  /// write-backs and returns true; otherwise returns false with `ev`
  /// untouched. Allocation-free: the engines pass the slot the event rides
  /// in.
  bool on_fetch(std::uint32_t pc, cpu::AccelEvent& ev);

  /// on_fetch() returning the event by value (nullopt: no event).
  std::optional<cpu::AccelEvent> on_fetch(std::uint32_t pc) {
    std::optional<cpu::AccelEvent> ev(std::in_place);
    if (!on_fetch(pc, *ev)) ev.reset();
    return ev;
  }

  /// Resolution-time event: a taken branch/jump at `pc` targeting `target`.
  /// Matches candidate exit records (loop break-outs) and entry records
  /// (multi-entry loops). Returns true iff one matches, with `ev`
  /// overwritten by the reinit write-backs; otherwise `ev` carries nothing
  /// the caller may read.
  bool on_taken_control(std::uint32_t pc, std::uint32_t target,
                        cpu::AccelEvent& ev);

  /// on_taken_control() returning the event by value (nullopt: no match).
  std::optional<cpu::AccelEvent> on_taken_control(std::uint32_t pc,
                                                  std::uint32_t target) {
    std::optional<cpu::AccelEvent> ev(std::in_place);
    if (!on_taken_control(pc, target, *ev)) ev.reset();
    return ev;
  }

  /// Active-mode state for speculative fetch events and their rollback,
  /// written into `out` in place (only the live loop entries).
  void snapshot(cpu::AccelSnapshot& out) const;
  [[nodiscard]] cpu::AccelSnapshot snapshot() const {
    cpu::AccelSnapshot s;
    snapshot(s);
    return s;
  }
  void restore(const cpu::AccelSnapshot& snapshot);

  // ---- summary tier ----

  /// The programmed tables in summary-executable form (uZOLC as one
  /// re-arming task over one loop). The reference stays valid until the
  /// next table write, activation, context restore, or reset.
  [[nodiscard]] const cpu::NestProgram& nest_program() const;

  /// Credits event counters for boundary events the summary tier resolved
  /// itself from nest_program() (their architectural effects were applied
  /// through restore() and direct register writes). Mirrors exactly what
  /// the skipped on_fetch calls would have counted.
  void credit_summary_events(std::uint64_t continues, std::uint64_t dones,
                             std::uint64_t cascades,
                             std::uint64_t max_cascade_depth);

 private:
  /// Maps a byte PC to a word offset (pc_ofs_bits wide) from the activation
  /// base; returns false when the PC lies outside the addressable window.
  [[nodiscard]] bool pc_to_ofs(std::uint32_t pc, std::uint16_t& ofs) const;
  [[nodiscard]] std::uint32_t ofs_to_pc(std::uint16_t ofs) const noexcept;

  /// Re-initializes every loop in `mask`, appending RF write-backs to `ev`.
  void apply_reinit_mask(std::uint32_t mask, cpu::AccelEvent& ev);

  /// Recomputes trigger_pc_ -- the hardware's latched task-end comparator
  /// input (uZOLC: its end PC register) -- after anything that changes the
  /// current task, the base, the end PC, or the active flag.
  void refresh_trigger() noexcept;

  /// Sentinel trigger_pc_ value no word-aligned fetch can match.
  static constexpr std::uint32_t kNoTrigger = 1;

  ZolcVariant variant_;
  ZolcGeometry geom_;
  std::uint32_t pc_mask_ = 0;      ///< mask32(geom_.pc_ofs_bits), cached
  std::uint32_t trigger_pc_ = kNoTrigger;

  // ZOLClite / ZOLCfull storage, sized by geom_.
  std::vector<TaskEntry> tasks_;
  std::vector<std::uint16_t> task_start_;
  std::vector<LoopEntry> loops_;
  std::vector<ExitRecord> exits_;
  std::vector<EntryRecord> entries_;
  std::uint32_t base_ = 0;

  // uZOLC storage (six 32-bit + control registers).
  MicroLoopState micro_;

  std::uint8_t current_task_ = 0;
  bool active_ = false;

  /// Lazily built nest_program() export: a pure function of the tables and
  /// the activation base, so it is invalidated by init writes, activation,
  /// and reset, never by active-mode events.
  mutable cpu::NestProgram nest_prog_;
  mutable bool nest_dirty_ = true;

  ZolcStats stats_;
};

}  // namespace zolcsim::zolc

#endif  // ZOLCSIM_ZOLC_CONTROLLER_HPP
