// The runtime stage: executes a CompiledUnit on the cycle-accurate pipeline
// under a RunPlan and returns the harness's ExperimentResult. run() is the
// cheap, repeatable half of the staged toolchain -- one CompiledUnit can be
// run under any number of pipeline configurations without recompiling.
#ifndef ZOLCSIM_FLOW_RUN_HPP
#define ZOLCSIM_FLOW_RUN_HPP

#include <cstdint>

#include "cpu/pipeline.hpp"
#include "flow/compiled_unit.hpp"
#include "flow/workload.hpp"
#include "harness/experiment.hpp"

namespace zolcsim::flow {

/// Runtime-stage parameters: everything that varies per run of the same
/// compiled unit.
struct RunPlan {
  cpu::PipelineConfig config;
  std::uint64_t max_cycles = 200'000'000;
  /// Execution mode: pipeline (default), ISS, or ISS with the loop-summary
  /// fast path. ISS runs ignore `config` and report cycles == instructions
  /// (the functional model is 1-CPI by construction); `max_cycles` bounds
  /// the instruction count instead.
  harness::ExecMode mode;
  /// Wall-clock repetitions for the fresh-Workload overload: the simulation
  /// runs this many times on identical initial state and wall_ns reports
  /// the minimum. Architectural results and statistics come from a single
  /// run -- they are rep-invariant. Use >1 when a cell is too short for
  /// one-shot timing (MIPS thresholds, bench artifacts); ignored by the
  /// caller-prepared-Workload overload.
  std::uint64_t timing_reps = 1;
  /// Warm-start (the default): the fresh-Workload overload runs on a
  /// copy-on-write view of the unit's cached prepared image, and timing
  /// reps restore it with an O(dirty-pages) reset instead of re-running
  /// Kernel::setup. Architecturally identical to a cold start (the golden
  /// digests of every scenario suite pin this); disable to measure or
  /// exercise the historical build-image-per-run path.
  bool warm_start = true;
  /// ISS-only preemption interval: every `preempt_every` executed
  /// instructions the controller's full context is saved, the controller is
  /// clobbered with reset(), and the context restored (round-tripping
  /// through the JSON codec when `preempt_serialize` is set) before
  /// execution resumes. 0 disables. Architecturally invisible -- the
  /// differential tests pin bit-identical results -- and rejected
  /// (kBadConfig) under the pipeline engine. Doubles as the scheduling
  /// quantum when `tenants` > 1.
  std::uint64_t preempt_every = 0;
  bool preempt_serialize = false;
  /// Workloads time-sliced over one controller (flow::run_tenants); the
  /// fresh-Workload run() overload dispatches there when > 1. ISS only;
  /// timing_reps are not applied to tenant cells.
  unsigned tenants = 1;
};

/// Runs `unit` on a fresh Workload. Failure modes: kSimulation (trap or
/// cycle budget) and kVerifyMismatch (outputs differ from the golden
/// reference; always a bug, never a reportable data point).
[[nodiscard]] Result<harness::ExperimentResult> run(const CompiledUnit& unit,
                                                    const RunPlan& plan = {});

/// Same, against a caller-prepared Workload (consumed: the run mutates its
/// memory, and verify() is called on it afterwards).
[[nodiscard]] Result<harness::ExperimentResult> run(const CompiledUnit& unit,
                                                    Workload& workload,
                                                    const RunPlan& plan = {});

}  // namespace zolcsim::flow

#endif  // ZOLCSIM_FLOW_RUN_HPP
