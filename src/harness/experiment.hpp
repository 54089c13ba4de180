// Experiment records: the execution mode of a run (engine + fast path), the
// per-cell result every runner returns (flow::run, the sweep engine), and
// the paper's cycle-reduction metric. Compiling and running a kernel lives
// in src/flow (CompiledUnit::compile + flow::run).
#ifndef ZOLCSIM_HARNESS_EXPERIMENT_HPP
#define ZOLCSIM_HARNESS_EXPERIMENT_HPP

#include <string>
#include <vector>

#include "codegen/lower.hpp"
#include "cpu/pipeline.hpp"
#include "cpu/summary.hpp"
#include "kernels/kernels.hpp"
#include "zolc/controller.hpp"

namespace zolcsim::harness {

/// Which simulator executes a cell.
enum class SimEngine : std::uint8_t {
  kPipeline,  ///< cycle-accurate 5-stage pipeline (the default)
  kIss,       ///< functional ISS (1 instruction per cycle by construction)
};

/// Execution mode of a run: the engine, plus (for the ISS) whether the
/// loop-summary fast path (DESIGN.md section 7) is enabled. The fast path
/// is architecturally invisible, so "iss" and "iss-fast" cells must agree
/// on every reported statistic -- the scenario runner cross-checks this.
struct ExecMode {
  SimEngine engine = SimEngine::kPipeline;
  bool fast_path = false;  ///< ISS only; ignored for the pipeline

  friend bool operator==(const ExecMode&, const ExecMode&) = default;
};

/// "pipeline" | "iss" | "iss-fast" -- the sweep emitters' mode column.
[[nodiscard]] std::string_view mode_name(const ExecMode& mode);

struct ExperimentResult {
  std::string kernel;
  codegen::MachineKind machine = codegen::MachineKind::kXrDefault;
  zolc::ZolcGeometry geometry;    ///< ZOLC geometry the cell ran against
  ExecMode mode;                  ///< engine + fast-path the cell ran under
  cpu::PipelineStats stats;       ///< ISS runs report cycles == instructions
  zolc::ZolcStats zolc_stats;     ///< zeros for non-ZOLC machines
  cpu::FastPathStats fastpath;    ///< all-zero unless mode is iss-fast
  unsigned init_instructions = 0; ///< ZOLC init prologue length
  unsigned hw_loops = 0;
  unsigned sw_loops = 0;
  std::size_t code_words = 0;
  std::vector<std::string> notes;
  /// Host wall time of the simulation itself (not the compile). Feeds the
  /// BENCH_*.json MIPS figures only -- never the deterministic CSV/JSON
  /// report emitters, which must stay byte-identical across hosts.
  std::uint64_t wall_ns = 0;
  /// Warm-start accounting for this cell: how many times the full memory
  /// image was built (program load + Kernel::setup) vs restored by an
  /// O(dirty) copy-on-write baseline reset. BENCH-artifact material only,
  /// like wall_ns -- never part of the deterministic emitters.
  std::uint64_t full_prepares = 0;
  std::uint64_t image_resets = 0;
  /// Multi-tenant / preemption accounting: workloads time-sliced over one
  /// controller, context switches performed, and their modeled cost in
  /// cycles (init-bus words moved; DESIGN.md section 9). The cost is
  /// reported alongside -- never folded into -- stats.cycles, so preempted
  /// runs stay cycle-identical to uninterrupted ones and the tenant CSV
  /// columns surface the overhead as its own figure.
  unsigned tenants = 1;
  std::uint64_t context_switches = 0;
  std::uint64_t context_switch_cycles = 0;
};

/// Percentage cycle reduction of `cycles` vs `baseline` (paper's metric).
[[nodiscard]] double percent_reduction(std::uint64_t baseline,
                                       std::uint64_t cycles);

}  // namespace zolcsim::harness

#endif  // ZOLCSIM_HARNESS_EXPERIMENT_HPP
