// Plain data exchanged between the processor models and the zero-overhead
// loop controller (zolc::ZolcController), mirroring the hardware hookup in
// Fig. 1 of the paper: the PC decoding unit receives task-end redirects
// (AccelEvent), the register file receives index write-backs (RfWrite),
// speculative fetch events are rolled back through AccelSnapshot, and the
// summary tier replays loops from the exported tables (NestProgram).
#ifndef ZOLCSIM_CPU_ACCEL_HPP
#define ZOLCSIM_CPU_ACCEL_HPP

#include <array>
#include <cstdint>
#include <optional>
#include <type_traits>
#include <vector>

#include "common/contracts.hpp"
#include "isa/opcodes.hpp"

namespace zolcsim::zolc {
class ZolcController;  // zolc/controller.hpp
}

namespace zolcsim::cpu {

/// Capacity of the per-loop snapshot state. Matches the largest loop table
/// any ZolcGeometry may declare (zolc::kMaxGeometryLoops).
inline constexpr unsigned kMaxAccelLoops = 32;

/// An index write-back destined for the integer register file through the
/// ZOLC's dedicated write port. No default member initializers: RfWriteList
/// keeps its unused capacity uninitialized.
struct RfWrite {
  std::uint8_t reg;
  std::int32_t value;

  friend bool operator==(const RfWrite&, const RfWrite&) = default;
};

/// Fixed-capacity list of RfWrites, sized by the geometry maximum: a
/// fetch event's done-cascade writes at most one index per loop, and a
/// taken-control event reinitializes at most every loop twice (its exit
/// record's mask, then its entry record's). Trivially copyable and never
/// allocates, so events are filled in place on the simulators' hot paths;
/// entries at index >= size() are uninitialized and never read.
class RfWriteList {
 public:
  static constexpr std::size_t kCapacity = 2 * kMaxAccelLoops;

  RfWriteList() noexcept {}

  void clear() noexcept { n_ = 0; }
  void push_back(const RfWrite& w) {
    ZS_ASSERT(n_ < kCapacity);
    items_[n_++] = w;
  }

  [[nodiscard]] const RfWrite* begin() const noexcept { return items_.data(); }
  [[nodiscard]] const RfWrite* end() const noexcept { return begin() + n_; }
  [[nodiscard]] std::size_t size() const noexcept { return n_; }
  [[nodiscard]] bool empty() const noexcept { return n_ == 0; }
  [[nodiscard]] const RfWrite& operator[](std::size_t i) const noexcept {
    return items_[i];
  }

 private:
  std::uint8_t n_ = 0;
  std::array<RfWrite, kCapacity> items_;
};

/// Result of a fetch-time or resolution-time ZOLC event. The engines keep
/// one per in-flight event and the controller overwrites it in place.
struct AccelEvent {
  AccelEvent() noexcept {}

  /// New fetch target (task switching); nullopt = fall through.
  std::optional<std::uint32_t> redirect;
  /// Index write-backs. The pipeline applies them when the triggering
  /// instruction becomes non-speculative (entering its resolution stage).
  RfWriteList rf_writes;
};

static_assert(std::is_trivially_copyable_v<AccelEvent>,
              "events are filled in place and copied as plain bytes");

/// Architectural controller state that changes in active mode; saved before
/// each speculative fetch-time event and restored on wrong-path flushes.
/// Snapshots sit on the simulators' hot paths (they ride the pipeline
/// latches while a fetch event is in flight), so copies touch only the
/// `loop_count` live entries, not the full worst-case array; entries at
/// index >= loop_count are uninitialized and must never be read.
struct AccelSnapshot {
  std::array<std::int32_t, kMaxAccelLoops> loop_current;
  std::int32_t micro_current = 0;
  std::uint8_t loop_count = 0;  ///< live prefix of loop_current
  std::uint8_t current_task = 0;
  bool active = false;

  AccelSnapshot() noexcept {}
  AccelSnapshot(const AccelSnapshot& other) noexcept { *this = other; }
  AccelSnapshot& operator=(const AccelSnapshot& other) noexcept {
    for (std::uint8_t i = 0; i < other.loop_count; ++i) {
      loop_current[i] = other.loop_current[i];
    }
    micro_current = other.micro_current;
    loop_count = other.loop_count;
    current_task = other.current_task;
    active = other.active;
    return *this;
  }

  friend bool operator==(const AccelSnapshot& a,
                         const AccelSnapshot& b) noexcept {
    if (a.loop_count != b.loop_count || a.micro_current != b.micro_current ||
        a.current_task != b.current_task || a.active != b.active) {
      return false;
    }
    for (std::uint8_t i = 0; i < a.loop_count; ++i) {
      if (a.loop_current[i] != b.loop_current[i]) return false;
    }
    return true;
  }
};

/// Loop-condition relation for NestLoopDesc, matching the controller's
/// comparator semantics: the back-edge is taken while
/// nest_cond_holds(cond, current + step, final).
enum class NestCond : std::uint8_t { kLt, kLe, kGt, kGe };

[[nodiscard]] inline bool nest_cond_holds(NestCond cond, std::int32_t value,
                                          std::int32_t final_value) noexcept {
  switch (cond) {
    case NestCond::kLt: return value < final_value;
    case NestCond::kLe: return value <= final_value;
    case NestCond::kGt: return value > final_value;
    case NestCond::kGe: return value >= final_value;
  }
  return false;
}

/// Back-edges a loop at `cur` will still take before its done event: the
/// largest n >= 0 with nest_cond_holds(cond, cur + k*step, fin) for every k
/// in [1, n]. Conditions are monotone along the step direction, so the
/// count is closed-form. Returns -1 when the recurrence does not terminate
/// (step zero or against the condition direction).
[[nodiscard]] inline std::int64_t nest_remaining_backedges(
    std::int64_t cur, std::int64_t step, std::int64_t fin,
    NestCond cond) noexcept {
  switch (cond) {
    case NestCond::kLt:
      if (step <= 0) return -1;
      return cur >= fin ? 0 : (fin - cur - 1) / step;
    case NestCond::kLe:
      if (step <= 0) return -1;
      return cur > fin ? 0 : (fin - cur) / step;
    case NestCond::kGt:
      if (step >= 0) return -1;
      return cur <= fin ? 0 : (cur - fin - 1) / -step;
    case NestCond::kGe:
      if (step >= 0) return -1;
      return cur < fin ? 0 : (cur - fin) / -step;
  }
  return -1;
}

/// One loop-table entry exported to the summary tier (NestProgram).
struct NestLoopDesc {
  std::uint8_t index_rf = 0;
  NestCond cond = NestCond::kLt;
  bool valid = false;
  /// ZOLCfull: candidate-exit records are armed for this loop; the summary
  /// tier declines bodies it controls.
  bool has_exit_records = false;
  std::int32_t step = 0;
  std::int32_t initial = 0;
  std::int32_t final = 0;
  /// Total iterations per entry from `initial` (back-edges + 1), or 0 when
  /// the recurrence does not terminate.
  std::uint64_t trips = 0;
};

/// One task-table entry exported to the summary tier, with the PC offsets
/// resolved to byte addresses against the activation base.
struct NestTaskDesc {
  std::uint32_t start_pc = 0;
  std::uint32_t end_pc = 0;
  std::uint8_t loop = 0;  ///< controlling loop (index into NestProgram::loops)
  std::uint8_t cont = 0;  ///< continue-successor task
  std::uint8_t done = 0;  ///< done-successor task
  bool is_last = false;
  /// uZOLC: a done event re-arms this task and falls through to end_pc + 4
  /// with the controller still active (an enclosing software loop re-enters
  /// the region with no reprogramming).
  bool rearm = false;
  bool valid = false;
  /// A fetch event at end_pc is statically guaranteed to resolve without a
  /// hardware fault (every task in the done-cascade from here references a
  /// valid loop and the chain cannot exceed the cascade depth limit).
  /// Tasks without it never enter summary execution, so the baseline raises
  /// any table-programming fault precisely.
  bool walk_safe = false;
};

/// The controller's task/loop tables in summary-executable form: a pure
/// function of the programmed tables and activation base, so it stays valid
/// for a whole active period (tables cannot be rewritten while active).
/// Dynamic state (loop currents, current task) comes from AccelSnapshot.
/// uZOLC exports itself as one re-arming task over one loop.
struct NestProgram {
  std::vector<NestTaskDesc> tasks;
  std::vector<NestLoopDesc> loops;
  /// uZOLC: the loop's live index is AccelSnapshot::micro_current, not
  /// loop_current[0].
  bool micro = false;
};

}  // namespace zolcsim::cpu

#endif  // ZOLCSIM_CPU_ACCEL_HPP
