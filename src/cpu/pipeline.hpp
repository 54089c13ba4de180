// Cycle-accurate model of the modelled embedded RISC core: classic 5-stage
// in-order pipeline (IF/ID/EX/MEM/WB) with full forwarding, a load-use
// interlock, configurable branch resolution stage, and the ZOLC hookup of
// Fig. 1 of the paper:
//   * IF consults the loop accelerator each fetch ("PC decode" task-end
//     detection); a task end redirects the *next* fetch in the same cycle,
//     so hardware-managed loop back-edges cost zero cycles;
//   * index write-backs ride with the triggering instruction and commit when
//     it enters its resolution stage (modelling the dedicated RF write port);
//   * wrong-path fetches that crossed a task-end PC are rolled back from a
//     snapshot when the older taken branch resolves (kRollback policy), or
//     avoided entirely by stalling fetch while control flow is unresolved
//     (kGate policy, costs cycles; used for the ablation study).
//
// Simulation structure (DESIGN.md section 7.4): cycle() updates the latches
// in place, in stage order WB -> MEM -> EX -> ID -> IF, so each stage
// consumes its input latch before the younger stage overwrites it; the
// handful of previous-cycle values a later stage still needs are saved at
// the top of the cycle. Each latch carries a PC and pointers to the word's
// OpRecord and isa::Instruction: the per-word table built when an image is
// attached, or a small ring of slots a fetch outside the image decodes
// into. ID tests hazards against the record's source-register mask; EX
// runs the record through the dispatch switch it shares with the ISS,
// reading only the operands the op uses, each through the bypass network.
// Fetch-time ZOLC events are written in place into a 4-slot ring and the
// latches carry slot indices.
#ifndef ZOLCSIM_CPU_PIPELINE_HPP
#define ZOLCSIM_CPU_PIPELINE_HPP

#include <array>
#include <cstdint>
#include <vector>

#include "cpu/accel.hpp"
#include "cpu/exec.hpp"
#include "cpu/iss.hpp"
#include "cpu/regfile.hpp"
#include "isa/code_image.hpp"
#include "isa/encoding.hpp"
#include "mem/memory.hpp"

namespace zolcsim::cpu {

/// Stage in which conditional branches and jumps resolve. kExecute models
/// the default core (2-cycle taken penalty); kDecode models an early-branch
/// core (1-cycle penalty, extra operand interlocks).
enum class BranchResolveStage : std::uint8_t { kDecode, kExecute };

/// How fetch-time ZOLC events interact with in-flight unresolved control
/// flow (see file comment).
enum class SpeculationPolicy : std::uint8_t { kRollback, kGate };

struct PipelineConfig {
  BranchResolveStage branch_resolve = BranchResolveStage::kExecute;
  SpeculationPolicy speculation = SpeculationPolicy::kRollback;
  bool forwarding = true;  ///< false: stall until write-back (ablation)
};

struct PipelineStats {
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;  ///< retired (reaching WB)
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::uint64_t taken_control = 0;
  std::uint64_t control_flush_slots = 0;  ///< squashed wrong-path slots
  std::uint64_t load_use_stalls = 0;
  std::uint64_t interlock_stalls = 0;  ///< ID-resolution operand interlocks
  std::uint64_t raw_stalls = 0;        ///< no-forwarding hazard stalls
  std::uint64_t gate_stalls = 0;       ///< kGate fetch stalls
  std::uint64_t zolc_fetch_events = 0;
  std::uint64_t zolc_rollbacks = 0;
  std::uint64_t zolc_resolution_events = 0;
  std::uint64_t zolc_init_instructions = 0;  ///< retired zolw*/zolon/zoloff

  friend bool operator==(const PipelineStats&, const PipelineStats&) = default;
};

class Pipeline {
 public:
  explicit Pipeline(mem::Memory& memory, PipelineConfig config = {});
  // The latches point into this object (its off-image ring).
  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;

  /// Attaches the loop controller (non-owning; may be nullptr).
  void set_accelerator(zolc::ZolcController* accel) noexcept {
    accel_ = accel;
  }

  /// Attaches a predecoded code image (non-owning; must outlive the
  /// pipeline) and builds one OpRecord per image word. Fetches inside the
  /// image skip the per-cycle decode; fetches outside it decode from memory
  /// into an off-image ring slot.
  void set_code_image(isa::CodeImage image);

  /// Observer called at write-back for every retired instruction (program
  /// order; wrong-path instructions never reach it).
  void set_retire_hook(RetireHook hook) { retire_hook_ = std::move(hook); }

  void set_pc(std::uint32_t pc) noexcept { pc_ = pc; }
  [[nodiscard]] bool halted() const noexcept { return halted_; }

  [[nodiscard]] RegFile& regs() noexcept { return regs_; }
  [[nodiscard]] const RegFile& regs() const noexcept { return regs_; }
  [[nodiscard]] const PipelineStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const PipelineConfig& config() const noexcept {
    return config_;
  }

  /// Advances one clock cycle. No-op when halted.
  void cycle();

  /// Runs until HALT retires or `max_cycles` elapse. Returns total cycles
  /// consumed by this call. Throws SimError if the limit is hit.
  std::uint64_t run(std::uint64_t max_cycles);

 private:
  /// Fetch-time ZOLC event riding with the triggering instruction.
  struct FetchInfo {
    AccelEvent event;
    AccelSnapshot before;  ///< accelerator state before the event fired
  };

  /// Fetch-event ring size. An event is consumed (committed or rolled
  /// back) in EX at the latest, so at most three are live in one cycle: the
  /// old IF/ID's, the old ID/EX's and this cycle's fetch.
  static constexpr std::uint8_t kFetchRing = 4;

  /// A word fetched outside the image, decoded where the latches can point
  /// at it until it retires.
  struct OffImageWord {
    isa::Instruction instr;
    OpRecord op;
  };

  /// Off-image ring size. A fetch happens only in a cycle whose ID stage
  /// passes its instruction on, and EX, MEM and WB never stall, so an
  /// instruction retires or is squashed within three cycles of the next
  /// fetch: at most four are in flight, this cycle's fetch included.
  static constexpr std::uint8_t kOffImageRing = 4;

  /// The record an empty latch points at: inert (no destination, no
  /// sources, no flags), so stages read an empty latch's record without
  /// testing for it first. A latch is empty iff its op is &kBubble.
  static constexpr OpRecord kBubble{};

  struct IfId {
    const OpRecord* op = &kBubble;
    const isa::Instruction* instr = nullptr;
    std::uint32_t pc = 0;
    std::int8_t fetch_slot = -1;  ///< fetch_ring_ index, -1 = no event
  };

  struct IdEx {
    const OpRecord* op = &kBubble;
    const isa::Instruction* instr = nullptr;
    std::uint32_t pc = 0;
    std::int8_t fetch_slot = -1;
    /// Under ID resolution, a control op's EX/MEM result, computed in ID
    /// from the operands it resolved with.
    std::int32_t id_result = 0;
  };

  struct ExMem {
    const OpRecord* op = &kBubble;
    const isa::Instruction* instr = nullptr;
    std::uint32_t pc = 0;
    std::int32_t alu = 0;  ///< result, or the load/store address
    std::int32_t store_val = 0;
  };

  struct MemWb {
    const OpRecord* op = &kBubble;
    const isa::Instruction* instr = nullptr;
    std::uint32_t pc = 0;
    std::int32_t value = 0;
  };

  struct Latches {
    IfId if_id;
    IdEx id_ex;
    ExMem ex_mem;
    MemWb mem_wb;
  };

  /// dispatch()'s engine: reads operands from the register file through
  /// the EX/MEM bypass and records the result (pipeline.cpp).
  struct Core;

  /// One clock cycle; cycle() and run() both expand it in place.
  void step();

  /// Decodes the word at `pc` from memory into the next off-image slot.
  const OffImageWord& fetch_off_image(std::uint32_t pc);

  mem::Memory& mem_;
  PipelineConfig config_;
  RegFile regs_;
  isa::CodeImage image_;
  std::vector<OpRecord> image_ops_;  ///< parallel to image_
  std::uint32_t image_words_ = 0;    ///< image_ops_.size()
  zolc::ZolcController* accel_ = nullptr;
  RetireHook retire_hook_;
  Latches latches_;
  std::array<FetchInfo, kFetchRing> fetch_ring_;
  std::uint8_t fetch_next_ = 0;  ///< next fetch_ring_ slot to allocate
  std::array<OffImageWord, kOffImageRing> off_image_;
  std::uint8_t off_image_next_ = 0;  ///< next off_image_ slot to allocate
  AccelEvent resolution_;  ///< the current resolution-time event, in place
  std::uint32_t pc_ = 0;
  bool halted_ = false;
  PipelineStats stats_;
};

}  // namespace zolcsim::cpu

#endif  // ZOLCSIM_CPU_PIPELINE_HPP
