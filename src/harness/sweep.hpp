// Batched sweep engine: declaratively describes a kernel x machine x
// pipeline-config x ZOLC-geometry x execution-mode experiment grid and
// executes it on a worker pool. Every benchmark binary is a thin SweepSpec
// over this engine instead of a hand-rolled serial loop.
//
// Determinism: cells are indexed kernel-major (kernel, then machine, then
// config, then geometry, then mode, then tenant count) and each worker
// writes only its claimed
// cell, so the report -- and everything rendered from it -- is
// byte-identical for any thread count. A sweep that leaves the geometry or
// mode axis at its default renders exactly as a pre-axis sweep did (no
// extra CSV column).
#ifndef ZOLCSIM_HARNESS_SWEEP_HPP
#define ZOLCSIM_HARNESS_SWEEP_HPP

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "harness/experiment.hpp"

namespace zolcsim::flow {
class CompileCache;
}

namespace zolcsim::harness {

/// The experiment grid. Empty dimension = the engine's default for it
/// (all registry kernels / all machines / the default pipeline config).
struct SweepSpec {
  std::vector<std::string> kernels;
  std::vector<codegen::MachineKind> machines;
  std::vector<cpu::PipelineConfig> configs;
  /// ZOLC geometry axis; empty = the paper-default geometry only.
  std::vector<zolc::ZolcGeometry> geometries;
  /// Execution-mode axis (pipeline / iss / iss-fast); empty = pipeline only.
  std::vector<ExecMode> modes;
  /// Tenant-count axis: N workloads time-sliced over one controller
  /// (flow::run_tenants). Empty = single-tenant only; counts > 1 require
  /// every mode on the ISS engine (kBadConfig otherwise).
  std::vector<unsigned> tenants;
  kernels::KernelEnv env;
  codegen::MachineKind baseline = codegen::MachineKind::kXrDefault;
  std::uint64_t max_cycles = 200'000'000;
  unsigned threads = 0;     ///< 0 = hardware concurrency
  /// Timing repetitions per cell (RunPlan::timing_reps): wall_ns keeps the
  /// minimum over this many identical runs. Use >1 for suites whose cells
  /// are too short for stable one-shot MIPS.
  std::uint64_t timing_reps = 1;
  /// Warm-start run path (RunPlan::warm_start, default on): cells run on
  /// copy-on-write views of each unit's shared prepared image instead of
  /// rebuilding the memory image per run. Architecturally identical either
  /// way (scenario golden digests pin it); off reproduces the historical
  /// cold path for comparison.
  bool warm_start = true;
  /// Preempt-anywhere execution knobs (RunPlan::preempt_every /
  /// preempt_serialize): every ISS cell is preempted at this instruction
  /// interval with a full context save/clobber/restore. Architecturally
  /// invisible -- the differential tests pin that a preempted sweep renders
  /// byte-identical CSVs -- and requires ISS modes when set.
  std::uint64_t preempt_every = 0;
  bool preempt_serialize = false;
};

/// Machines carrying the given ZOLC variants (the variant axis of a sweep
/// expressed in MachineKind terms).
[[nodiscard]] std::vector<codegen::MachineKind> machines_for_variants(
    const std::vector<zolc::ZolcVariant>& variants);

/// One point of the grid. `kernel/machine/config/geometry/mode` index into
/// the report's resolved dimension vectors.
struct SweepCell {
  std::size_t kernel = 0;
  std::size_t machine = 0;
  std::size_t config = 0;
  std::size_t geometry = 0;
  std::size_t mode = 0;
  std::size_t tenant = 0;
  ExperimentResult result;
};

/// Suite-level aggregate for one (machine, config) column.
struct SweepAggregate {
  double avg_reduction = 0.0;  ///< mean %-reduction vs the baseline machine
  double max_reduction = 0.0;
  std::uint64_t total_cycles = 0;
  std::uint64_t total_instructions = 0;
  std::uint64_t gate_stalls = 0;
  std::uint64_t zolc_fetch_events = 0;
  std::uint64_t continue_events = 0;
  std::uint64_t done_events = 0;
  std::uint64_t table_writes = 0;
};

/// Order-stable sweep output. Cell (k, m, c, g, x, t) lives at index
/// ((((k * machines.size() + m) * configs.size() + c) * geometries.size() +
/// g) * modes.size() + x) * tenants.size() + t.
struct SweepReport {
  std::vector<std::string> kernels;             ///< resolved kernel names
  std::vector<codegen::MachineKind> machines;   ///< resolved machine set
  std::vector<cpu::PipelineConfig> configs;     ///< resolved config grid
  std::vector<zolc::ZolcGeometry> geometries;   ///< resolved geometry axis
  std::vector<ExecMode> modes;                  ///< resolved mode axis
  std::vector<unsigned> tenants;                ///< resolved tenant axis
  codegen::MachineKind baseline = codegen::MachineKind::kXrDefault;
  std::vector<SweepCell> cells;

  /// Compile-cache counters for the sweep: `compile_cache_misses` is the
  /// number of units not already in memory (exactly one per distinct
  /// (kernel, machine, geometry) point that ran), `compile_cache_hits` the
  /// number of cells that reused one. With an attached UnitStore, misses
  /// split into `compile_cache_store_hits` (reloaded from disk) and
  /// `compile_cache_compiles` (actually compiled); without one, compiles ==
  /// misses. Not part of the CSV/JSON emitters.
  std::size_t compile_cache_hits = 0;
  std::size_t compile_cache_misses = 0;
  std::size_t compile_cache_store_hits = 0;
  std::size_t compile_cache_compiles = 0;

  /// Warm-start accounting summed over all cells (see ExperimentResult):
  /// full image builds vs O(dirty) copy-on-write resets. BENCH-artifact
  /// material, not part of the CSV/JSON emitters.
  std::uint64_t full_prepares = 0;
  std::uint64_t image_resets = 0;

  [[nodiscard]] const ExperimentResult& at(std::size_t kernel,
                                           std::size_t machine,
                                           std::size_t config = 0,
                                           std::size_t geometry = 0,
                                           std::size_t mode = 0,
                                           std::size_t tenant = 0) const;
  /// Lookup by names; nullptr when the cell is not in the grid.
  [[nodiscard]] const ExperimentResult* find(std::string_view kernel,
                                             codegen::MachineKind machine,
                                             std::size_t config = 0,
                                             std::size_t geometry = 0,
                                             std::size_t mode = 0,
                                             std::size_t tenant = 0) const;

  [[nodiscard]] std::uint64_t cycles(std::size_t kernel, std::size_t machine,
                                     std::size_t config = 0,
                                     std::size_t geometry = 0,
                                     std::size_t mode = 0,
                                     std::size_t tenant = 0) const;
  /// %-reduction of (kernel, machine, config, geometry, mode, tenant) vs
  /// the baseline machine at the same config, geometry, mode, and tenant
  /// count. 0 when the baseline machine is not part of the sweep.
  [[nodiscard]] double reduction(std::size_t kernel, std::size_t machine,
                                 std::size_t config = 0,
                                 std::size_t geometry = 0,
                                 std::size_t mode = 0,
                                 std::size_t tenant = 0) const;
  [[nodiscard]] SweepAggregate aggregate(std::size_t machine,
                                         std::size_t config = 0,
                                         std::size_t geometry = 0,
                                         std::size_t mode = 0,
                                         std::size_t tenant = 0) const;

  /// True iff the sweep explored a non-default geometry axis; the CSV/JSON
  /// emitters add the geometry column only in that case, so paper-default
  /// sweeps keep their historical schema.
  [[nodiscard]] bool has_geometry_axis() const;

  /// True iff the sweep explored a non-default execution-mode axis; like
  /// the geometry column, the mode column appears only in that case.
  [[nodiscard]] bool has_mode_axis() const;

  /// True iff the sweep explored a non-default tenant axis; the emitters
  /// then add the tenants column plus the context-switch cost columns
  /// (ctx_switches, ctx_switch_cycles), keeping single-tenant sweeps on
  /// their historical schema.
  [[nodiscard]] bool has_tenant_axis() const;

  /// Full grid as CSV (one row per cell) / JSON (meta + cell array).
  [[nodiscard]] std::string to_csv() const;
  [[nodiscard]] std::string to_json() const;
};

/// Short human-readable name for a pipeline config, e.g.
/// "EX-resolve/rollback" (suffix "/nofwd" without forwarding).
[[nodiscard]] std::string config_name(const cpu::PipelineConfig& config);

/// Executes the sweep against a caller-supplied compile cache, so several
/// sweeps (CLI invocations, scenario suites) share one set of warm units.
/// The report's cache counters are the delta this sweep contributed, not the
/// cache's lifetime totals. Any failing cell (lowering, simulation, or
/// output verification) fails the whole sweep with the lowest-index cell's
/// error.
[[nodiscard]] Result<SweepReport> run_sweep(const SweepSpec& spec,
                                            flow::CompileCache& cache);

/// Convenience overload for one-shot sweeps: a private cache per call.
[[nodiscard]] Result<SweepReport> run_sweep(const SweepSpec& spec);

}  // namespace zolcsim::harness

#endif  // ZOLCSIM_HARNESS_SWEEP_HPP
