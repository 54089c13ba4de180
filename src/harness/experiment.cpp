#include "harness/experiment.hpp"

#include <string>

#include "flow/cache.hpp"
#include "flow/run.hpp"

namespace zolcsim::harness {

std::string_view mode_name(const ExecMode& mode) {
  if (mode.engine == SimEngine::kPipeline) return "pipeline";
  return mode.fast_path ? "iss-fast" : "iss";
}

Result<ExperimentResult> run_experiment(const kernels::Kernel& kernel,
                                        codegen::MachineKind machine,
                                        const kernels::KernelEnv& env,
                                        cpu::PipelineConfig config,
                                        std::uint64_t max_cycles,
                                        const zolc::ZolcGeometry& geometry) {
  flow::CompileSpec spec;
  spec.kernel = std::string(kernel.name());
  spec.machine = machine;
  spec.geometry = geometry;
  spec.env = env;
  auto unit = flow::CompiledUnit::compile(kernel, spec);
  if (!unit.ok()) return std::move(unit).error();
  flow::RunPlan plan;
  plan.config = config;
  plan.max_cycles = max_cycles;
  return flow::run(unit.value(), plan);
}

double percent_reduction(std::uint64_t baseline, std::uint64_t cycles) {
  if (baseline == 0) return 0.0;
  return 100.0 * (1.0 - static_cast<double>(cycles) /
                            static_cast<double>(baseline));
}

}  // namespace zolcsim::harness
