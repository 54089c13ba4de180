#include "flow/run.hpp"

#include <chrono>
#include <memory>
#include <string>
#include <utility>

#include "common/strings.hpp"
#include "cpu/iss.hpp"
#include "flow/scheduler.hpp"
#include "zolc/controller.hpp"

namespace zolcsim::flow {

namespace {

/// Runs the unit on the functional ISS. The ISS is 1-CPI by construction,
/// so the returned PipelineStats report cycles == instructions; pipeline-
/// specific counters (stalls, flushes) stay zero. With plan.preempt_every
/// set, execution is sliced and the controller's full context is clobbered
/// and restored at every boundary (counters reported through `switches` /
/// `switch_cycles`) -- architecturally invisible by the differential tests.
cpu::PipelineStats run_iss(const CompiledUnit& unit, Workload& workload,
                           const RunPlan& plan,
                           zolc::ZolcController* controller,
                           cpu::FastPathStats& fastpath,
                           std::uint64_t& switches,
                           std::uint64_t& switch_cycles) {
  cpu::Iss iss(workload.memory());
  iss.set_accelerator(controller);
  iss.set_code_image(unit.image());
  iss.set_fast_path(plan.mode.fast_path);
  iss.set_pc(unit.program().base);
  if (plan.preempt_every == 0) {
    iss.run(plan.max_cycles);
  } else {
    std::uint64_t executed = 0;
    while (!iss.halted()) {
      if (executed >= plan.max_cycles) {
        throw cpu::SimError("ISS step limit (" +
                            std::to_string(plan.max_cycles) +
                            ") exceeded at pc " + hex32(iss.pc()));
      }
      executed += iss.run_slice(
          std::min(plan.preempt_every, plan.max_cycles - executed));
      if (iss.halted()) break;
      if (controller != nullptr) {
        switch_cycles += preempt_cycle(*controller, plan.preempt_serialize);
        ++switches;
      }
    }
  }
  fastpath = iss.fastpath_stats();

  const cpu::IssStats& stats = iss.stats();
  cpu::PipelineStats out;
  out.cycles = stats.instructions;
  out.instructions = stats.instructions;
  out.taken_control = stats.taken_control;
  out.zolc_fetch_events = stats.zolc_fetch_events;
  out.zolc_resolution_events = stats.zolc_resolution_events;
  return out;
}

}  // namespace

Result<harness::ExperimentResult> run(const CompiledUnit& unit,
                                      const RunPlan& plan) {
  if (plan.tenants != 1) return run_tenants(unit, plan);
  // One workload serves every repetition: warm starts reset the
  // copy-on-write dirty set between reps, cold starts rebuild the image
  // (the single prepare here is also the only one on the reps == 1 path).
  Workload workload = plan.warm_start ? Workload::prepare_warm(unit)
                                      : Workload::prepare(unit);
  auto result = run(unit, workload, plan);
  if (result.ok() && !plan.warm_start) ++result.value().full_prepares;
  // Extra timing reps: identical runs on restored initial state, keeping
  // the minimum wall time (the least-disturbed measurement of the same
  // work).
  for (std::uint64_t rep = 1; result.ok() && rep < plan.timing_reps; ++rep) {
    workload.reset();
    auto again = run(unit, workload, plan);
    if (!again.ok()) return again;
    if (again.value().wall_ns < result.value().wall_ns) {
      result.value().wall_ns = again.value().wall_ns;
    }
    if (plan.warm_start) {
      ++result.value().image_resets;
    } else {
      ++result.value().full_prepares;
    }
  }
  return result;
}

Result<harness::ExperimentResult> run(const CompiledUnit& unit,
                                      Workload& workload,
                                      const RunPlan& plan) {
  if (plan.tenants != 1) {
    return Error{ErrorCode::kBadConfig,
                 "tenant scheduling requires the fresh-workload run() path"};
  }
  if (plan.preempt_every != 0 &&
      plan.mode.engine != harness::SimEngine::kIss) {
    return Error{ErrorCode::kBadConfig,
                 "preemption requires the ISS engine"};
  }
  const codegen::Program& program = unit.program();

  std::unique_ptr<zolc::ZolcController> controller;
  if (const auto variant = codegen::machine_zolc_variant(unit.machine())) {
    controller =
        std::make_unique<zolc::ZolcController>(*variant, unit.geometry());
  }

  cpu::PipelineStats stats;
  cpu::FastPathStats fastpath;
  std::uint64_t switches = 0;
  std::uint64_t switch_cycles = 0;
  const auto started = std::chrono::steady_clock::now();
  try {
    if (plan.mode.engine == harness::SimEngine::kIss) {
      stats = run_iss(unit, workload, plan, controller.get(), fastpath,
                      switches, switch_cycles);
    } else {
      cpu::Pipeline pipe(workload.memory(), plan.config);
      pipe.set_accelerator(controller.get());
      pipe.set_code_image(unit.image());
      pipe.set_pc(program.base);
      pipe.run(plan.max_cycles);
      stats = pipe.stats();
    }
  } catch (const cpu::SimError& e) {
    return Error{ErrorCode::kSimulation, e.what()}.with_context(
        unit_label(unit.kernel().name(), unit.machine()) +
        ": simulation failed");
  }
  const auto wall = std::chrono::steady_clock::now() - started;

  if (auto verified = workload.verify(); !verified.ok()) {
    return std::move(verified).error();
  }

  harness::ExperimentResult result;
  result.kernel = std::string(unit.kernel().name());
  result.machine = unit.machine();
  result.geometry = unit.geometry();
  result.mode = plan.mode;
  result.stats = stats;
  result.fastpath = fastpath;
  if (controller) result.zolc_stats = controller->zolc_stats();
  result.init_instructions = program.init_instructions;
  result.hw_loops = program.hw_loop_count;
  result.sw_loops = program.sw_loop_count;
  result.code_words = program.size_words();
  result.notes = program.notes;
  result.wall_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(wall).count());
  result.context_switches = switches;
  result.context_switch_cycles = switch_cycles;
  return result;
}

}  // namespace zolcsim::flow
