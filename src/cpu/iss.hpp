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

  /// Attaches a loop accelerator (non-owning; may be nullptr).
  void set_accelerator(LoopAccelerator* accel) noexcept { accel_ = accel; }

  /// Attaches a predecoded code image (non-owning; must outlive the ISS).
  /// Fetches inside the image skip the per-step decode; fetches outside it
  /// decode from memory as before.
  void set_code_image(isa::CodeImage image) noexcept {
    image_ = image;
    summarizer_.clear_cache();
  }

  /// Enables the loop-summary fast path (DESIGN.md section 7): hardware-
  /// managed innermost loops replay through pre-bound micro-ops instead of
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

  /// Executes one instruction. No-op when halted. Throws SimError on an
  /// invalid instruction or a ZOLC instruction with no accelerator attached.
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
  mem::Memory& mem_;
  RegFile regs_;
  isa::CodeImage image_;
  LoopAccelerator* accel_ = nullptr;
  RetireHook retire_hook_;
  LoopSummarizer summarizer_;
  std::uint32_t pc_ = 0;
  bool halted_ = false;
  bool fast_path_ = false;
  bool fetch_redirected_ = false;  ///< last step applied a fetch-event redirect
  IssStats stats_;
};

}  // namespace zolcsim::cpu

#endif  // ZOLCSIM_CPU_ISS_HPP
