// Retirement-stream co-simulation: the pipeline must retire exactly the
// same instruction sequence, in the same program order, as the ISS golden
// model -- the strongest equivalence check available (final-state equality
// can mask compensating errors). Every registered kernel runs on every
// machine under all eight pipeline configurations (branch resolve stage x
// speculation policy x forwarding), each both with the predecoded image
// attached (as flow::run does) and fetching from memory; the final register
// file and memory image must match the ISS, and the two fetch paths must
// produce identical pipeline statistics. The ISS reference itself runs on
// both fetch paths too, which must agree on the retire stream, registers,
// memory and IssStats.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "cpu/iss.hpp"
#include "cpu/pipeline.hpp"
#include "flow/compiled_unit.hpp"
#include "flow/workload.hpp"
#include "kernels/kernels.hpp"
#include "zolc/controller.hpp"

namespace zolcsim::cpu {
namespace {

using codegen::MachineKind;

struct Retired {
  std::uint32_t pc;
  isa::Opcode op;

  friend bool operator==(const Retired&, const Retired&) = default;
};

/// One run of a compiled unit; the workload owns the final memory image.
struct SimRun {
  flow::Workload workload;
  std::vector<Retired> trace;
  RegFile regs;
  PipelineStats stats;
  IssStats iss_stats;
};

std::unique_ptr<zolc::ZolcController> make_controller(
    const flow::CompiledUnit& unit) {
  if (const auto variant = codegen::machine_zolc_variant(unit.machine())) {
    return std::make_unique<zolc::ZolcController>(*variant, unit.geometry());
  }
  return nullptr;
}

SimRun pipeline_run(const flow::CompiledUnit& unit, PipelineConfig config,
                    bool predecoded) {
  SimRun out{flow::Workload::prepare(unit), {}, {}, {}, {}};
  const auto controller = make_controller(unit);
  Pipeline pipe(out.workload.memory(), config);
  pipe.set_accelerator(controller.get());
  if (predecoded) pipe.set_code_image(unit.image());
  pipe.set_pc(unit.program().base);
  pipe.set_retire_hook([&out](std::uint32_t pc, const isa::Instruction& i) {
    out.trace.push_back(Retired{pc, i.op});
  });
  pipe.run(50'000'000);
  out.regs = pipe.regs();
  out.stats = pipe.stats();
  return out;
}

SimRun iss_run(const flow::CompiledUnit& unit, bool predecoded) {
  SimRun out{flow::Workload::prepare(unit), {}, {}, {}, {}};
  const auto controller = make_controller(unit);
  Iss iss(out.workload.memory());
  iss.set_accelerator(controller.get());
  if (predecoded) iss.set_code_image(unit.image());
  iss.set_pc(unit.program().base);
  iss.set_retire_hook([&out](std::uint32_t pc, const isa::Instruction& i) {
    out.trace.push_back(Retired{pc, i.op});
  });
  iss.run(50'000'000);
  out.regs = iss.regs();
  out.iss_stats = iss.stats();
  return out;
}

void expect_traces_equal(const std::vector<Retired>& a,
                         const std::vector<Retired>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << "first divergence at retirement #" << i
                          << " (pc " << a[i].pc << " vs " << b[i].pc << ")";
  }
}

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

std::string config_label(const PipelineConfig& c) {
  return std::string(c.branch_resolve == BranchResolveStage::kDecode
                         ? "resolve=ID"
                         : "resolve=EX") +
         (c.speculation == SpeculationPolicy::kGate ? " gate" : " rollback") +
         (c.forwarding ? " fwd" : " no-fwd");
}

struct TraceCase {
  std::string kernel;
  MachineKind machine;
};

std::vector<TraceCase> all_cases() {
  std::vector<TraceCase> out;
  for (const auto* registry :
       {&kernels::kernel_registry(), &kernels::extended_kernel_registry()}) {
    for (const auto& kernel : *registry) {
      for (const MachineKind machine : codegen::kAllMachines) {
        out.push_back(TraceCase{std::string(kernel->name()), machine});
      }
    }
  }
  return out;
}

class TraceCoSim : public ::testing::TestWithParam<TraceCase> {};

TEST_P(TraceCoSim, PipelineRetiresExactlyTheIssStream) {
  const auto& [name, machine] = GetParam();
  flow::CompileSpec spec;
  spec.kernel = name;
  spec.machine = machine;
  const auto unit = flow::CompiledUnit::compile(spec);
  ASSERT_TRUE(unit.ok()) << unit.error().to_string();

  const SimRun reference = iss_run(unit.value(), true);
  ASSERT_FALSE(reference.trace.empty());
  ASSERT_TRUE(reference.workload.verify().ok());

  // The ISS fetch path (predecoded image vs memory decode) is invisible.
  {
    SCOPED_TRACE("ISS memory-fetch");
    const SimRun fetched = iss_run(unit.value(), false);
    expect_traces_equal(fetched.trace, reference.trace);
    EXPECT_TRUE(fetched.regs == reference.regs) << "register file diverged";
    EXPECT_TRUE(fetched.workload.memory() == reference.workload.memory())
        << "memory image diverged";
    EXPECT_TRUE(fetched.iss_stats == reference.iss_stats)
        << "ISS statistics depend on the fetch path";
  }

  // The stream is microarchitecture-independent and fetch-path-independent.
  for (const PipelineConfig& config : all_configs()) {
    const SimRun decoded = pipeline_run(unit.value(), config, false);
    const SimRun predecoded = pipeline_run(unit.value(), config, true);
    for (const SimRun* run : {&decoded, &predecoded}) {
      SCOPED_TRACE(config_label(config) +
                   (run == &predecoded ? " predecoded" : " memory-fetch"));
      expect_traces_equal(run->trace, reference.trace);
      EXPECT_TRUE(run->regs == reference.regs) << "register file diverged";
      EXPECT_TRUE(run->workload.memory() == reference.workload.memory())
          << "memory image diverged";
    }
    EXPECT_TRUE(decoded.stats == predecoded.stats)
        << config_label(config) << ": pipeline statistics depend on the "
        << "fetch path";
    EXPECT_EQ(decoded.stats.instructions, reference.trace.size());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, TraceCoSim, ::testing::ValuesIn(all_cases()),
    [](const ::testing::TestParamInfo<TraceCase>& info) {
      return info.param.kernel + "_" +
             std::string(codegen::machine_name(info.param.machine));
    });

TEST(TraceCoSim, WrongPathInstructionsNeverRetire) {
  // A ZOLC program whose body branches constantly (the rollback stress
  // kernel): every retired pc must lie inside the program image, and no
  // instruction after a taken exit's shadow may appear.
  flow::CompileSpec spec;
  spec.kernel = "me_tss";
  spec.machine = MachineKind::kZolcFull;
  const auto unit = flow::CompiledUnit::compile(spec);
  ASSERT_TRUE(unit.ok());
  const auto run = pipeline_run(unit.value(), {}, true);
  const std::uint32_t lo = unit.value().program().base;
  const std::uint32_t hi =
      lo + static_cast<std::uint32_t>(unit.value().program().code.size()) * 4;
  for (const Retired& r : run.trace) {
    ASSERT_GE(r.pc, lo);
    ASSERT_LT(r.pc, hi);
    ASSERT_NE(r.op, isa::Opcode::kInvalid);
  }
}

}  // namespace
}  // namespace zolcsim::cpu
