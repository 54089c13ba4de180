// Loop-summary fast path for the ISS (DESIGN.md section 7). When execution
// lands inside a ZOLC-managed region, the LoopSummarizer takes over from
// per-instruction stepping: against the controller's exported NestProgram
// (every variant, uZOLC included, exports one) it decodes the straight-line
// region between the current PC and the task's end PC into pre-bound
// micro-ops, executes it in a tight loop, resolves the boundary event
// inline, and follows the redirect into the next region. A self-looping
// task replays in bulk: the first two iterations record and validate the
// store pattern, then the remaining iterations run fused with the index
// recurrence applied in closed form -- no per-iteration event at all. The
// final controller state is written back once. Replay is architecturally
// invisible: micro-ops reuse the exact alu_eval / mem_load / mem_store
// semantics and every disqualifying event bails out to cycle-accurate mode
// at an exact instruction boundary with a typed BailoutReason surfaced as a
// counter.
#ifndef ZOLCSIM_CPU_SUMMARY_HPP
#define ZOLCSIM_CPU_SUMMARY_HPP

#include <array>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "cpu/accel.hpp"
#include "cpu/regfile.hpp"
#include "isa/code_image.hpp"
#include "isa/instruction.hpp"
#include "mem/memory.hpp"

namespace zolcsim::cpu {

/// Why a summary attempt declined to engage, or an engaged replay fell back
/// to cycle-accurate stepping. The first six are qualification failures
/// detected before the offending work executes; the last three are detected
/// mid-replay and bail out at an exact instruction boundary.
enum class BailoutReason : std::uint8_t {
  kShortLoop,           ///< too few remaining back-edges to amortize setup
  kControlFlow,         ///< region contains a branch, jump, or halt
  kNonAffineUpdate,     ///< body writes the loop index, or a store's base
                        ///< register is neither invariant nor self-affine
  kExitRecord,          ///< ZOLCfull candidate-exit records armed for loop
  kAccelMutation,       ///< region contains a ZOLC instruction
  kTrap,                ///< invalid instruction, misaligned data access, or
                        ///< a table-programming fault in the event walk --
                        ///< all re-raised precisely by the baseline
  kSelfModifyingStore,  ///< a store targets summarized code
  kOverlappingStore,    ///< recorded store ranges overlap within an iteration
  kValidationMismatch,  ///< second iteration contradicts the recorded pattern
};

inline constexpr std::size_t kNumBailoutReasons = 9;

/// Stable lower_snake name for JSON emission and test messages.
[[nodiscard]] const char* bailout_reason_name(BailoutReason reason);

/// Fast-path effectiveness counters, reset per Iss::run.
struct FastPathStats {
  std::uint64_t attempts = 0;     ///< times the tier was offered a region
  std::uint64_t engagements = 0;  ///< attempts that replayed >=1 instruction
  /// ZOLC events replayed (closed-form back-edges + chained boundary
  /// events); mirrors the zolc_fetch_events the baseline would count.
  std::uint64_t replayed_backedges = 0;
  std::uint64_t replayed_instructions = 0;
  std::array<std::uint64_t, kNumBailoutReasons> bailouts{};

  [[nodiscard]] std::uint64_t bailout(BailoutReason reason) const noexcept {
    return bailouts[static_cast<std::size_t>(reason)];
  }
  [[nodiscard]] std::uint64_t total_bailouts() const noexcept {
    std::uint64_t total = 0;
    for (std::uint64_t b : bailouts) total += b;
    return total;
  }

  friend bool operator==(const FastPathStats&, const FastPathStats&) = default;
};

class LoopSummarizer {
 public:
  /// One store executed during a recorded iteration: byte address + width.
  struct StoreRecord {
    std::uint32_t addr = 0;
    std::uint8_t size = 0;

    friend bool operator==(const StoreRecord&, const StoreRecord&) = default;
  };

  /// Outcome of try_engage. When `engaged`, the caller must account
  /// `instructions` executed instructions and `fetch_events` ZOLC events,
  /// and resume cycle-accurate stepping at `resume_pc` (always an exact
  /// instruction boundary).
  struct Replay {
    std::uint64_t instructions = 0;
    std::uint64_t fetch_events = 0;
    std::uint32_t resume_pc = 0;
    bool engaged = false;
  };

  /// Offers the fast path a chance to run at `pc`. Engages when `pc` opens
  /// a qualifying straight-line region bounded by the current task's end
  /// PC; then alternates closed-form replay of self-looping tasks with
  /// chained region execution across boundary events, until a region
  /// disqualifies, the controller disarms, or `max_instructions` is
  /// reached. Leaves registers, memory, and controller state exactly as
  /// cycle-accurate stepping would at resume_pc.
  Replay try_engage(zolc::ZolcController& zolc, const isa::CodeImage& image,
                    mem::Memory& mem, RegFile& regs, std::uint32_t pc,
                    std::uint64_t max_instructions);

  /// Validation seam (also exercised directly by unit tests with doctored
  /// records): checks the first recorded iteration for overlapping store
  /// ranges and the second against the statically predicted per-iteration
  /// strides. Returns the bailout to take, or nullopt when the recording is
  /// consistent. `second` may be empty (iteration 2 not yet recorded).
  [[nodiscard]] static std::optional<BailoutReason> check_recorded_iterations(
      const std::vector<StoreRecord>& first,
      const std::vector<StoreRecord>& second,
      const std::vector<std::int64_t>& predicted_strides);

  [[nodiscard]] const FastPathStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = FastPathStats{}; }

  /// Drops decoded regions, cached disqualifications, and raw page
  /// pointers (call when the code image or program memory changes).
  void clear_cache() noexcept {
    cache_.clear();
    cache_lo_ = UINT32_MAX;
    cache_hi_ = 0;
    mru_key_[0] = mru_key_[1] = 0;
    mru_entry_[0] = mru_entry_[1] = nullptr;
    drop_page_cache();
  }

  /// Minimum remaining back-edges required to engage closed-form replay on
  /// a freshly entered self-loop (below it the attempt counts a kShortLoop
  /// bailout). Tests tune it to force engagement or short-loop declines.
  void set_min_backedges(std::uint64_t n) noexcept { min_backedges_ = n; }
  [[nodiscard]] std::uint64_t min_backedges() const noexcept {
    return min_backedges_;
  }

 private:
  /// A pre-bound micro-op: the region instruction with its operand routing
  /// resolved, so replay is a flat switch with no decode or table lookups.
  /// The hottest opcodes (addi/add/mac/max, word load/store) get dedicated
  /// kinds; everything else dispatches through the shared alu_eval.
  struct Uop {
    enum class Kind : std::uint8_t {
      kAlu,     ///< generic register-form op via alu_eval
      kAluImm,  ///< generic immediate-form op via alu_eval
      kAddi,
      kAdd,
      kMac,
      kMax,
      kSll,
      kMul,
      kLoad,
      kStore,
    };
    Kind kind = Kind::kAlu;
    isa::Opcode op = isa::Opcode::kInvalid;
    std::uint8_t dest = 0;  ///< rd (register forms) or rt (imm/load forms)
    std::uint8_t rs = 0;
    std::uint8_t rt = 0;
    std::uint8_t shamt = 0;
    std::uint8_t width = 0;     ///< access bytes for kLoad / kStore
    bool sign_extend = false;   ///< kLoad: sign- vs zero-extend
    std::int32_t imm = 0;
  };

  /// Decoded region plus the static dataflow facts qualification needs.
  struct BodyInfo {
    std::vector<Uop> uops;
    std::vector<std::uint32_t> store_slots;  ///< uop indices of stores
    std::uint32_t reads_mask = 0;   ///< registers any uop reads
    std::uint32_t writes_mask = 0;  ///< registers any uop writes
    /// Net per-iteration delta for registers written only by affine
    /// self-increments (addi r, r, imm); zero for invariant registers.
    std::array<std::int32_t, isa::kNumRegs> affine_delta{};
  };

  struct CacheEntry {
    std::optional<BailoutReason> rejected;  ///< region cannot run as uops
    /// Region runs fine one pass at a time but cannot be replayed in
    /// closed form (a store base is neither invariant nor self-affine).
    std::optional<BailoutReason> bulk_rejected;
    BodyInfo body;  ///< valid iff !rejected
  };

  static CacheEntry analyze_body(std::uint32_t body_start,
                                 std::uint32_t body_end,
                                 const isa::CodeImage& image,
                                 const mem::Memory& mem);

  /// Looks up (or analyzes and caches) the region [start, end].
  CacheEntry& region(std::uint32_t start, std::uint32_t end,
                     const isa::CodeImage& image, const mem::Memory& mem);

  /// The region [start, end] if it is one of the two most recently looked
  /// up, else nullptr (no map probe, no analysis).
  [[nodiscard]] const CacheEntry* recent_region(
      std::uint32_t start, std::uint32_t end) const noexcept {
    const std::uint64_t key = (static_cast<std::uint64_t>(start) << 32) | end;
    for (unsigned way = 0; way < 2; ++way) {
      if (mru_entry_[way] != nullptr && mru_key_[way] == key) {
        return mru_entry_[way];
      }
    }
    return nullptr;
  }

  /// Outcome of run_region: fully completed passes, plus the number of uops
  /// executed into the bailed pass (the uop at `partial` did NOT execute).
  struct RunOutcome {
    std::uint64_t passes = 0;
    std::size_t partial = 0;
  };

  /// Executes up to `passes` back-to-back passes over `body` via micro-ops.
  /// After each of the first `edge_limit` completed passes the fused
  /// back-edge index write is applied: *idx_val += idx_step, written to
  /// `idx_reg` (callers replaying an index-blind body pass edge_limit 0 and
  /// land the final value themselves). `*bail` is set on a mid-pass
  /// bailout. When `record` is non-null, store addresses of every pass are
  /// appended to it. Memory goes through cached raw page pointers with the
  /// access statistics accounted in one batch. Cache-line aligned: the
  /// replay loop's speed otherwise shifts by about 10% with the size of
  /// unrelated code linked before it (measured on the exec-scale8 ZOLCfull
  /// iss-fast cells).
  [[gnu::aligned(64)]] RunOutcome run_region(
      const BodyInfo& body, mem::Memory& mem, RegFile& regs,
      std::uint64_t passes, std::uint64_t edge_limit, std::uint8_t idx_reg,
      std::int32_t idx_step, std::int32_t* idx_val,
      std::vector<StoreRecord>* record, std::optional<BailoutReason>* bail);

  /// Summary execution against the controller's exported NestProgram: runs
  /// regions and resolves every boundary event inline on engagement-local
  /// copies of the controller's dynamic state (no per-event controller
  /// call), then writes the final state back through restore() and credits
  /// the elided event counters. Architecturally exact, including ZolcStats.
  Replay engage_nest(zolc::ZolcController& zolc, const isa::CodeImage& image,
                     mem::Memory& mem, RegFile& regs, std::uint32_t pc,
                     std::uint64_t max_instructions);

  std::uint64_t min_backedges_ = 2;
  FastPathStats stats_;
  /// Keyed (start << 32) | end; cleared on clear_cache().
  std::unordered_map<std::uint64_t, CacheEntry> cache_;
  /// Two most-recently-used cache entries (map nodes are pointer-stable);
  /// way 0 is the most recent.
  std::uint64_t mru_key_[2] = {0, 0};
  CacheEntry* mru_entry_[2] = {nullptr, nullptr};
  /// Cached raw data pages (see mem::Memory::peek_page): four round-robin
  /// load ways (a tiled body streams two input arrays plus an accumulator)
  /// and the last store target. The load ways only hold resident pages, so
  /// a page materializing later is still observed.
  std::uint32_t load_page_no_[4] = {UINT32_MAX, UINT32_MAX, UINT32_MAX,
                                    UINT32_MAX};
  const std::uint8_t* load_page_[4] = {nullptr, nullptr, nullptr, nullptr};
  std::uint32_t load_victim_ = 0;
  std::uint32_t store_page_no_ = UINT32_MAX;
  std::uint8_t* store_page_ = nullptr;
  /// mem::Memory::cow_epoch() observed when the page caches were last
  /// (re)filled. Copy-on-write memories bump their epoch when a baseline
  /// page is privatized or reset_to_baseline() frees private pages; a
  /// mismatch at engagement entry drops the cached page pointers above.
  std::uint64_t mem_epoch_ = 0;

  /// Drops only the raw page-pointer caches (keeps decoded regions, which
  /// depend on the code image, not on data-page identity).
  void drop_page_cache() noexcept {
    for (unsigned w = 0; w < 4; ++w) {
      load_page_no_[w] = UINT32_MAX;
      load_page_[w] = nullptr;
    }
    load_victim_ = 0;
    store_page_no_ = UINT32_MAX;
    store_page_ = nullptr;
  }
  /// Scratch buffers reused across engagements (allocation-free replay).
  std::vector<std::int64_t> scratch_strides_;
  std::vector<StoreRecord> scratch_rec_[2];
  /// Bounds of all cached executable regions: a store landing inside
  /// [cache_lo_, cache_hi_ + 3] bails out (kSelfModifyingStore) before
  /// executing, so cached micro-ops can never go stale.
  std::uint32_t cache_lo_ = UINT32_MAX;
  std::uint32_t cache_hi_ = 0;
};

}  // namespace zolcsim::cpu

#endif  // ZOLCSIM_CPU_SUMMARY_HPP
