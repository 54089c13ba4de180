// Instruction-set simulator (functional golden model). Executes one
// instruction per step with ZOLC semantics identical to the pipeline's:
// fetch-time task-end events are speculated and rolled back if the
// triggering instruction turns out to be a taken control transfer. Used for
// co-simulation tests against the cycle-accurate pipeline and for fast
// functional verification of kernels.
#ifndef ZOLCSIM_CPU_ISS_HPP
#define ZOLCSIM_CPU_ISS_HPP

#include <cstdint>
#include <functional>
#include <vector>

#include "cpu/accel.hpp"
#include "cpu/exec.hpp"
#include "cpu/regfile.hpp"
#include "cpu/summary.hpp"
#include "isa/code_image.hpp"
#include "mem/memory.hpp"

namespace zolcsim::cpu {

/// Observer invoked once per architecturally executed instruction, in
/// program order. Shared by the ISS and the pipeline so retirement streams
/// can be compared instruction-by-instruction.
using RetireHook =
    std::function<void(std::uint32_t pc, const isa::Instruction& instr)>;

struct IssStats {
  std::uint64_t instructions = 0;
  std::uint64_t taken_control = 0;
  std::uint64_t zolc_fetch_events = 0;
  std::uint64_t zolc_resolution_events = 0;

  friend bool operator==(const IssStats&, const IssStats&) = default;
};

class Iss {
 public:
  explicit Iss(mem::Memory& memory) : mem_(memory) {}

  /// Attaches the loop controller (non-owning; may be nullptr).
  void set_accelerator(zolc::ZolcController* accel) noexcept {
    accel_ = accel;
  }

  /// Attaches a predecoded code image (non-owning; must outlive the ISS)
  /// and builds one OpRecord per image word. Fetches inside the image
  /// dispatch from those records; fetches outside it decode the word from
  /// memory into the same record form on the fly.
  void set_code_image(isa::CodeImage image);

  /// Enables the loop-summary fast path (DESIGN.md section 7): hardware-
  /// managed loops replay region by region through the same OpRecords and
  /// dispatch switch, with self-loops in closed form, instead of
  /// per-instruction stepping. Architecturally invisible; automatically
  /// disabled while a retire hook is attached (the hook must observe every
  /// instruction individually).
  void set_fast_path(bool on) noexcept { fast_path_ = on; }
  [[nodiscard]] bool fast_path() const noexcept { return fast_path_; }

  /// Observer called after each executed instruction.
  void set_retire_hook(RetireHook hook) { retire_hook_ = std::move(hook); }

  void set_pc(std::uint32_t pc) noexcept { pc_ = pc; }
  [[nodiscard]] std::uint32_t pc() const noexcept { return pc_; }
  [[nodiscard]] bool halted() const noexcept { return halted_; }

  [[nodiscard]] RegFile& regs() noexcept { return regs_; }
  [[nodiscard]] const RegFile& regs() const noexcept { return regs_; }
  [[nodiscard]] const IssStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const FastPathStats& fastpath_stats() const noexcept {
    return summarizer_.stats();
  }
  /// Direct summarizer access for tests (thresholds, validation seam).
  [[nodiscard]] LoopSummarizer& summarizer() noexcept { return summarizer_; }

  /// Executes one instruction: one iteration of run_slice()'s loop. No-op
  /// when halted. Throws SimError on an invalid instruction or a ZOLC
  /// instruction with no accelerator attached.
  void step();

  /// Runs until halt or `max_steps`. Returns the number of instructions
  /// executed by this call. Throws SimError if the limit is hit. Starts
  /// from clean IssStats and FastPathStats so counters describe this run
  /// only, regardless of earlier step()/run() activity.
  std::uint64_t run(std::uint64_t max_steps);

  /// Runs until halt or until `max_steps` more instructions executed,
  /// whichever comes first, and returns the number executed by this call.
  /// Unlike run(), statistics accumulate across slices and exhausting the
  /// budget is not an error: callers time-slicing execution (preemption,
  /// tenant scheduling) check halted() and enforce their own global budget.
  std::uint64_t run_slice(std::uint64_t max_steps);

 private:
  /// dispatch()'s engine over the register file and memory (iss.cpp).
  struct Core;

  /// Decodes the word at `pc` from memory (a fetch outside the image) into
  /// off_image_instr_ / off_image_op_ and returns the latter.
  const OpRecord& decode_off_image(std::uint32_t pc);

  /// Executes the instruction at pc_. Precondition: !halted_.
  void execute();
  /// execute() for a PC the accelerator triggers on.
  void execute_fetch_event(const OpRecord& op, const isa::Instruction& instr,
                           std::uint32_t pc);
  /// Runs `op`'s semantics; returns true iff it takes control to `target`.
  bool execute_op(const OpRecord& op, std::uint32_t pc, std::uint32_t& target);
  /// Retires a taken control transfer from `pc` to `target`.
  void take_control(std::uint32_t pc, std::uint32_t target);

  mem::Memory& mem_;
  RegFile regs_;
  isa::CodeImage image_;
  std::vector<OpRecord> image_ops_;  ///< parallel to image_
  std::uint32_t image_words_ = 0;    ///< image_ops_.size()
  isa::Instruction off_image_instr_;  ///< last word decoded off the image
  OpRecord off_image_op_;
  zolc::ZolcController* accel_ = nullptr;
  RetireHook retire_hook_;
  LoopSummarizer summarizer_;
  std::uint32_t pc_ = 0;
  bool halted_ = false;
  bool fast_path_ = false;
  bool fetch_redirected_ = false;  ///< last step applied a fetch-event redirect
  AccelSnapshot pre_fetch_;  ///< accelerator state before a fetch event
  IssStats stats_;
  AccelEvent event_;  ///< the current fetch or resolution event, in place
};

}  // namespace zolcsim::cpu

#endif  // ZOLCSIM_CPU_ISS_HPP
