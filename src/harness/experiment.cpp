#include "harness/experiment.hpp"

namespace zolcsim::harness {

std::string_view mode_name(const ExecMode& mode) {
  if (mode.engine == SimEngine::kPipeline) return "pipeline";
  return mode.fast_path ? "iss-fast" : "iss";
}

double percent_reduction(std::uint64_t baseline, std::uint64_t cycles) {
  if (baseline == 0) return 0.0;
  return 100.0 * (1.0 - static_cast<double>(cycles) /
                            static_cast<double>(baseline));
}

}  // namespace zolcsim::harness
