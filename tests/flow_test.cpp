// Staged-toolchain behaviour: compile-once artifacts, workload prep/verify,
// the compile cache, and the structured error codes each stage reports.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

#include "flow/cache.hpp"
#include "flow/compiled_unit.hpp"
#include "flow/run.hpp"
#include "flow/workload.hpp"
#include "harness/experiment.hpp"
#include "isa/build.hpp"
#include "isa/encoding.hpp"
#include "sim_test_util.hpp"

namespace zolcsim::flow {
namespace {

using codegen::MachineKind;
namespace b = isa::build;

/// Ad-hoc kernel for error-path tests: caller-supplied KIR and verify.
class TestKernel : public kernels::Kernel {
 public:
  TestKernel(std::vector<codegen::KNode> kir,
             std::function<Result<void>(const kernels::KernelEnv&,
                                        const mem::Memory&)>
                 verify = nullptr)
      : kir_(std::move(kir)), verify_(std::move(verify)) {}

  [[nodiscard]] std::string_view name() const override { return "test"; }
  [[nodiscard]] std::string_view description() const override {
    return "flow_test ad-hoc kernel";
  }
  [[nodiscard]] std::vector<codegen::KNode> build(
      const kernels::KernelEnv&) const override {
    return kir_;
  }
  void setup(const kernels::KernelEnv&, mem::Memory&) const override {
    if (setup_count_ != nullptr) ++*setup_count_;
  }
  [[nodiscard]] Result<void> verify(const kernels::KernelEnv& env,
                                    const mem::Memory& memory) const override {
    if (verify_) return verify_(env, memory);
    return {};
  }

  /// Counts every setup() call into `*count` (for prepare-count tests).
  void count_setups(int* count) { setup_count_ = count; }

 private:
  std::vector<codegen::KNode> kir_;
  std::function<Result<void>(const kernels::KernelEnv&, const mem::Memory&)>
      verify_;
  int* setup_count_ = nullptr;
};

CompileSpec spec_for(std::string kernel, MachineKind machine,
                     zolc::ZolcGeometry geometry = {}) {
  CompileSpec spec;
  spec.kernel = std::move(kernel);
  spec.machine = machine;
  spec.geometry = geometry;
  return spec;
}

// ---------------- compile stage ----------------

TEST(CompiledUnit, CarriesAllCompileStageArtifacts) {
  const auto unit =
      CompiledUnit::compile(spec_for("dotprod", MachineKind::kZolcLite));
  ASSERT_TRUE(unit.ok()) << unit.error().to_string();
  const CompiledUnit& u = unit.value();

  EXPECT_EQ(u.spec().kernel, "dotprod");
  EXPECT_EQ(u.machine(), MachineKind::kZolcLite);
  EXPECT_GT(u.program().size_words(), 0u);
  EXPECT_EQ(u.program().machine, MachineKind::kZolcLite);
  // Predecoded image views the unit's own code.
  EXPECT_EQ(u.image().size_words, u.program().code.size());
  EXPECT_EQ(u.image().code, u.program().code.data());
  // Disassembly covers every word.
  const std::string disasm = u.disassembly();
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(disasm.begin(), disasm.end(), '\n')),
            u.program().size_words());
}

TEST(CompiledUnit, ScanMetadataFindsSoftwareCountedLoops) {
  // The software lowering keeps the counted-loop back-edge idiom zolcscan
  // recovers; the ZOLC lowering erases it (loops are hardware-managed).
  const auto sw =
      CompiledUnit::compile(spec_for("dotprod", MachineKind::kXrDefault));
  ASSERT_TRUE(sw.ok());
  EXPECT_FALSE(sw.value().scan().candidates.empty());

  const auto hw =
      CompiledUnit::compile(spec_for("dotprod", MachineKind::kZolcLite));
  ASSERT_TRUE(hw.ok());
  EXPECT_TRUE(hw.value().scan().candidates.empty());
}

TEST(CompiledUnit, UnknownKernelNameReportsCode) {
  const auto unit =
      CompiledUnit::compile(spec_for("no_such_kernel", MachineKind::kUZolc));
  ASSERT_FALSE(unit.ok());
  EXPECT_EQ(unit.error().code, ErrorCode::kUnknownKernel);
}

TEST(CompiledUnit, InvalidGeometryReportsCode) {
  const auto unit = CompiledUnit::compile(
      spec_for("dotprod", MachineKind::kZolcLite, {32, 64, 4, 4}));
  ASSERT_FALSE(unit.ok());
  EXPECT_EQ(unit.error().code, ErrorCode::kBadConfig);
}

TEST(CompiledUnit, ReservedRegisterUseReportsCode) {
  // r24-r27 are the lowering's pool registers; kernels must not touch them.
  codegen::KernelBuilder kb;
  kb.for_count(1, 0, 4, 1, [&] { kb.op(b::addi(24, 24, 1)); });
  const TestKernel kernel(kb.take());
  const auto unit = CompiledUnit::compile(
      kernel, spec_for("test", MachineKind::kXrDefault));
  ASSERT_FALSE(unit.ok());
  EXPECT_EQ(unit.error().code, ErrorCode::kInvalidKernel);
}

TEST(CompiledUnit, CapacityOverrunWithoutFallbackReportsCode) {
  // A ~300-word body cannot fit an 8-bit PC-offset window, and there is no
  // software fallback for table offset widths -- the compile must fail with
  // kCapacity (not a silently aliased program).
  codegen::KernelBuilder kb;
  kb.for_count(1, 0, 4, 1, [&] {
    for (int i = 0; i < 300; ++i) kb.op(b::nop());
  });
  const TestKernel kernel(kb.take());
  const auto unit = CompiledUnit::compile(
      kernel, spec_for("test", MachineKind::kZolcLite, {32, 8, 0, 0, 8}));
  ASSERT_FALSE(unit.ok());
  EXPECT_EQ(unit.error().code, ErrorCode::kCapacity);
  EXPECT_NE(unit.error().to_string().find("PC-offset window"),
            std::string::npos);
}

// ---------------- runtime stage ----------------

TEST(FlowRun, OneUnitRunsManyConfigsMatchingFreshCompiles) {
  const kernels::Kernel* kernel = kernels::find_kernel("fir");
  ASSERT_NE(kernel, nullptr);
  const auto unit =
      CompiledUnit::compile(spec_for("fir", MachineKind::kZolcLite));
  ASSERT_TRUE(unit.ok());

  const cpu::PipelineConfig configs[] = {
      {cpu::BranchResolveStage::kExecute, cpu::SpeculationPolicy::kRollback,
       true},
      {cpu::BranchResolveStage::kDecode, cpu::SpeculationPolicy::kGate, true},
      {cpu::BranchResolveStage::kExecute, cpu::SpeculationPolicy::kRollback,
       false}};
  for (const cpu::PipelineConfig& config : configs) {
    RunPlan plan;
    plan.config = config;
    const auto staged = run(unit.value(), plan);
    ASSERT_TRUE(staged.ok()) << staged.error().to_string();
    const auto fresh =
        test::compile_and_run(*kernel, MachineKind::kZolcLite, plan);
    ASSERT_TRUE(fresh.ok());
    EXPECT_EQ(staged.value().stats.cycles, fresh.value().stats.cycles);
    EXPECT_EQ(staged.value().stats.instructions,
              fresh.value().stats.instructions);
    EXPECT_EQ(staged.value().zolc_stats.continue_events,
              fresh.value().zolc_stats.continue_events);
  }
}

TEST(FlowRun, CycleBudgetReportsSimulationCode) {
  const auto unit =
      CompiledUnit::compile(spec_for("me_fsbm", MachineKind::kXrDefault));
  ASSERT_TRUE(unit.ok());
  RunPlan plan;
  plan.max_cycles = 100;
  const auto result = run(unit.value(), plan);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ErrorCode::kSimulation);
}

TEST(FlowRun, VerificationMismatchReportsCode) {
  // The program stores 1; the verify closure demands 2.
  codegen::KernelBuilder kb;
  kb.li(8, 0x0012'0000);
  kb.for_count(1, 0, 1, 1, [&] {
    kb.op(b::addi(2, 0, 1));
    kb.op(b::sw(2, 0, 8));
  });
  const TestKernel kernel(
      kb.take(), [](const kernels::KernelEnv& env, const mem::Memory& memory) {
        return kernels::detail::check_words(memory, env.out_base, {2}, "out");
      });
  const auto unit = CompiledUnit::compile(
      kernel, spec_for("test", MachineKind::kXrDefault));
  ASSERT_TRUE(unit.ok()) << unit.error().to_string();
  const auto result = run(unit.value());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ErrorCode::kVerifyMismatch);
}

TEST(Workload, PrepareLoadsProgramImageAndIsConsumedPerRun) {
  const auto unit =
      CompiledUnit::compile(spec_for("dotprod", MachineKind::kXrDefault));
  ASSERT_TRUE(unit.ok());
  Workload workload = Workload::prepare(unit.value());
  // The first program word is encoded at env.code_base.
  EXPECT_EQ(workload.memory().read32(unit.value().env().code_base),
            isa::encode(unit.value().program().code.front()));
  // Two independent workloads from one unit give identical runs.
  Workload second = Workload::prepare(unit.value());
  const auto a = run(unit.value(), workload, {});
  const auto s = run(unit.value(), second, {});
  ASSERT_TRUE(a.ok() && s.ok());
  EXPECT_EQ(a.value().stats.cycles, s.value().stats.cycles);
}

// ---------------- warm-start run path ----------------

/// A runnable TestKernel: stores 1 to out_base, verify accepts it.
TestKernel make_store_one_kernel() {
  codegen::KernelBuilder kb;
  kb.li(8, 0x0012'0000);
  kb.for_count(1, 0, 1, 1, [&] {
    kb.op(b::addi(2, 0, 1));
    kb.op(b::sw(2, 0, 8));
  });
  return TestKernel(
      kb.take(), [](const kernels::KernelEnv& env, const mem::Memory& memory) {
        return kernels::detail::check_words(memory, env.out_base, {1}, "out");
      });
}

TEST(CompiledUnit, PreparedImageIsBuiltOnceAndShared) {
  TestKernel kernel = make_store_one_kernel();
  int setups = 0;
  kernel.count_setups(&setups);
  const auto unit = CompiledUnit::compile(
      kernel, spec_for("test", MachineKind::kXrDefault));
  ASSERT_TRUE(unit.ok()) << unit.error().to_string();

  const auto image = unit.value().prepared_image();
  ASSERT_NE(image, nullptr);
  EXPECT_EQ(setups, 1);
  EXPECT_EQ(unit.value().prepared_image().get(), image.get());
  // Copies of the unit share the cached image (ImageSlot is shared).
  const CompiledUnit copy = unit.value();
  EXPECT_EQ(copy.prepared_image().get(), image.get());
  EXPECT_EQ(setups, 1);
  // The image holds the loaded program and starts with clean stats.
  EXPECT_EQ(image->fetch32(unit.value().env().code_base),
            isa::encode(unit.value().program().code.front()));
  EXPECT_EQ(image->stats().writes, 0u);
}

TEST(FlowRun, WarmStartPreparesOnceAcrossTimingReps) {
  TestKernel kernel = make_store_one_kernel();
  int setups = 0;
  kernel.count_setups(&setups);
  const auto unit = CompiledUnit::compile(
      kernel, spec_for("test", MachineKind::kXrDefault));
  ASSERT_TRUE(unit.ok()) << unit.error().to_string();

  RunPlan plan;
  plan.timing_reps = 3;
  plan.warm_start = true;
  const auto warm = run(unit.value(), plan);
  ASSERT_TRUE(warm.ok()) << warm.error().to_string();
  EXPECT_EQ(setups, 1);  // one prepared-image build serves every rep
  EXPECT_EQ(warm.value().image_resets, 2u);
  EXPECT_EQ(warm.value().full_prepares, 0u);

  setups = 0;
  plan.warm_start = false;
  const auto cold = run(unit.value(), plan);
  ASSERT_TRUE(cold.ok()) << cold.error().to_string();
  EXPECT_EQ(setups, 3);  // one full rebuild per rep, none shared
  EXPECT_EQ(cold.value().image_resets, 0u);
  EXPECT_EQ(cold.value().full_prepares, 3u);

  // The run path is architecturally invisible.
  EXPECT_EQ(warm.value().stats.cycles, cold.value().stats.cycles);
  EXPECT_EQ(warm.value().stats.instructions,
            cold.value().stats.instructions);
}

TEST(FlowRun, SingleRepPreparesExactlyOnce) {
  // Regression pin for the historical double-prepare: the fresh-workload
  // run() overload must not build one image just to throw it away.
  TestKernel kernel = make_store_one_kernel();
  int setups = 0;
  kernel.count_setups(&setups);
  const auto unit = CompiledUnit::compile(
      kernel, spec_for("test", MachineKind::kXrDefault));
  ASSERT_TRUE(unit.ok());

  RunPlan cold;
  cold.warm_start = false;
  ASSERT_TRUE(run(unit.value(), cold).ok());
  EXPECT_EQ(setups, 1);

  setups = 0;
  RunPlan warm;
  warm.warm_start = true;
  ASSERT_TRUE(run(unit.value(), warm).ok());
  EXPECT_EQ(setups, 1);
}

TEST(Workload, WarmViewMatchesColdAcrossRegistryKernels) {
  const auto unit =
      CompiledUnit::compile(spec_for("conv2d", MachineKind::kZolcFull));
  ASSERT_TRUE(unit.ok());
  Workload cold = Workload::prepare(unit.value());
  Workload warm = Workload::prepare_warm(unit.value());
  EXPECT_FALSE(cold.warm());
  EXPECT_TRUE(warm.warm());
  EXPECT_TRUE(cold.memory() == warm.memory());

  const auto a = run(unit.value(), cold, {});
  const auto b = run(unit.value(), warm, {});
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a.value().stats.cycles, b.value().stats.cycles);
  EXPECT_EQ(a.value().stats.instructions, b.value().stats.instructions);
  EXPECT_TRUE(cold.memory() == warm.memory());  // same final image

  // reset() restores both to the pristine image.
  cold.reset();
  warm.reset();
  EXPECT_TRUE(cold.memory() == warm.memory());
  EXPECT_EQ(warm.memory().stats().writes, 0u);
}

// ---------------- compile cache ----------------

TEST(CompileCache, HitsAfterFirstCompileAndKeysOnEveryAxis) {
  CompileCache cache;
  const CompileSpec spec = spec_for("dotprod", MachineKind::kZolcLite);
  const auto first = cache.get_or_compile(spec);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 0u);

  const auto again = cache.get_or_compile(spec);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(first.value().get(), again.value().get());  // shared, not copied

  // Any axis change is a different unit: machine, geometry, env.
  auto other_machine =
      cache.get_or_compile(spec_for("dotprod", MachineKind::kZolcFull));
  auto other_geometry = cache.get_or_compile(
      spec_for("dotprod", MachineKind::kZolcLite, {32, 12, 0, 0}));
  CompileSpec other_env = spec;
  other_env.env.scale = 2;
  auto scaled = cache.get_or_compile(other_env);
  ASSERT_TRUE(other_machine.ok() && other_geometry.ok() && scaled.ok());
  EXPECT_EQ(cache.stats().misses, 4u);
  EXPECT_EQ(cache.size(), 4u);
}

TEST(CompileCache, FailedCompilesAreNotCached) {
  CompileCache cache;
  const CompileSpec bad = spec_for("no_such_kernel", MachineKind::kUZolc);
  EXPECT_FALSE(cache.get_or_compile(bad).ok());
  EXPECT_FALSE(cache.get_or_compile(bad).ok());
  EXPECT_EQ(cache.stats().misses, 0u);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.size(), 0u);
}

}  // namespace
}  // namespace zolcsim::flow
