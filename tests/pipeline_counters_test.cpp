// Pins every pipeline counter. Each registered kernel (registry and
// extended) runs on every machine under all eight pipeline configurations,
// once with the predecoded image attached and once fetching from memory.
// Every PipelineStats field and the controller's ZolcStats of each run
// must match the checked-in table tests/golden/pipeline_counters.csv,
// including the counters the suite goldens never reach (interlock, RAW and
// gate stalls, rollbacks, resolution events, the no-forwarding configs).
//
// On a mismatch the test names the first differing row and writes the
// table it computed to pipeline_counters.actual.csv in its working
// directory. A deliberate timing-model change regenerates the golden by
// copying that file over it.
#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cpu/pipeline.hpp"
#include "flow/compiled_unit.hpp"
#include "flow/workload.hpp"
#include "kernels/kernels.hpp"
#include "zolc/controller.hpp"

namespace zolcsim::cpu {
namespace {

constexpr const char* kGoldenPath =
    ZOLCSIM_GOLDEN_DIR "/pipeline_counters.csv";

constexpr const char* kHeader =
    "kernel,machine,resolve,speculation,forwarding,"
    "cycles,instructions,loads,stores,taken_control,control_flush_slots,"
    "load_use_stalls,interlock_stalls,raw_stalls,gate_stalls,"
    "zolc_fetch_events,zolc_rollbacks,zolc_resolution_events,"
    "zolc_init_instructions,"
    "continue_events,done_events,cascade_chains,max_cascade_depth,"
    "exit_matches,entry_matches,table_writes";

/// All eight PipelineConfigs: branch resolve x speculation x forwarding.
std::vector<PipelineConfig> all_configs() {
  std::vector<PipelineConfig> out;
  for (const auto resolve :
       {BranchResolveStage::kExecute, BranchResolveStage::kDecode}) {
    for (const auto speculation :
         {SpeculationPolicy::kRollback, SpeculationPolicy::kGate}) {
      for (const bool forwarding : {true, false}) {
        out.push_back(PipelineConfig{resolve, speculation, forwarding});
      }
    }
  }
  return out;
}

/// One CSV row: the run's identity, its PipelineStats and its ZolcStats
/// (all zero on machines without a controller).
std::string counters_row(const std::string& kernel,
                         codegen::MachineKind machine,
                         const PipelineConfig& config,
                         const PipelineStats& s, const zolc::ZolcStats& z) {
  std::ostringstream os;
  os << kernel << ',' << codegen::machine_name(machine) << ','
     << (config.branch_resolve == BranchResolveStage::kDecode ? "ID" : "EX")
     << ','
     << (config.speculation == SpeculationPolicy::kGate ? "gate" : "rollback")
     << ',' << (config.forwarding ? "fwd" : "no-fwd");
  for (const std::uint64_t v :
       {s.cycles, s.instructions, s.loads, s.stores, s.taken_control,
        s.control_flush_slots, s.load_use_stalls, s.interlock_stalls,
        s.raw_stalls, s.gate_stalls, s.zolc_fetch_events, s.zolc_rollbacks,
        s.zolc_resolution_events, s.zolc_init_instructions,
        z.continue_events, z.done_events, z.cascade_chains,
        z.max_cascade_depth, z.exit_matches, z.entry_matches,
        z.table_writes}) {
    os << ',' << v;
  }
  return os.str();
}

/// Runs `unit` on a fresh pipeline and renders its counters row.
std::string run_row(const flow::CompiledUnit& unit, const std::string& kernel,
                    const PipelineConfig& config, bool predecoded) {
  flow::Workload workload = flow::Workload::prepare(unit);
  std::unique_ptr<zolc::ZolcController> controller;
  if (const auto variant = codegen::machine_zolc_variant(unit.machine())) {
    controller =
        std::make_unique<zolc::ZolcController>(*variant, unit.geometry());
  }
  Pipeline pipe(workload.memory(), config);
  pipe.set_accelerator(controller.get());
  if (predecoded) pipe.set_code_image(unit.image());
  pipe.set_pc(unit.program().base);
  pipe.run(50'000'000);
  EXPECT_TRUE(workload.verify().ok()) << kernel;
  return counters_row(kernel, unit.machine(), config, pipe.stats(),
                      controller ? controller->zolc_stats()
                                 : zolc::ZolcStats{});
}

std::vector<std::string> read_lines(std::istream& in) {
  std::vector<std::string> out;
  for (std::string line; std::getline(in, line);) out.push_back(line);
  return out;
}

TEST(PipelineCounters, EveryCounterMatchesThePinnedTable) {
  std::vector<std::string> actual{kHeader};
  for (const auto* registry :
       {&kernels::kernel_registry(), &kernels::extended_kernel_registry()}) {
    for (const auto& kernel : *registry) {
      const std::string name(kernel->name());
      for (const codegen::MachineKind machine : codegen::kAllMachines) {
        flow::CompileSpec spec;
        spec.kernel = name;
        spec.machine = machine;
        const auto unit = flow::CompiledUnit::compile(spec);
        ASSERT_TRUE(unit.ok()) << unit.error().to_string();
        for (const PipelineConfig& config : all_configs()) {
          const std::string predecoded =
              run_row(unit.value(), name, config, true);
          const std::string fetched =
              run_row(unit.value(), name, config, false);
          EXPECT_EQ(predecoded, fetched)
              << "pipeline counters depend on the fetch path";
          actual.push_back(predecoded);
        }
      }
    }
  }
  ASSERT_EQ(actual.size(), 1u + 15u * 5u * 8u);

  std::ifstream golden_file(kGoldenPath);
  ASSERT_TRUE(golden_file.is_open()) << "missing " << kGoldenPath;
  const std::vector<std::string> golden = read_lines(golden_file);
  if (golden == actual) return;

  std::ofstream dump("pipeline_counters.actual.csv");
  for (const std::string& line : actual) dump << line << '\n';
  for (std::size_t i = 0; i < actual.size() && i < golden.size(); ++i) {
    ASSERT_EQ(actual[i], golden[i])
        << "first differing row #" << i << "; columns: " << kHeader;
  }
  FAIL() << "row count " << actual.size() << " != golden " << golden.size();
}

}  // namespace
}  // namespace zolcsim::cpu
