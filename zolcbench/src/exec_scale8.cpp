// exec-scale8: the scaled execution suite. matmul/conv2d/fir on XRdefault
// and ZOLCfull, each on the pipeline, the ISS and the ISS fast path, at
// env.scale 8. Units are compiled and their images prepared in set-up, so
// a pass is execution, verification and one CSV/JSON emit.
#include "bench.hpp"
#include "common/strings.hpp"
#include "flow/cache.hpp"
#include "scenario/scenario.hpp"

namespace zolcbench {

namespace {

namespace zs = zolcsim;

constexpr std::size_t kModes = 3;  // pipeline, iss, iss-fast (suite order)

std::string suite_document(std::uint32_t seed) {
  return R"({"suite": "exec-scale8", "version": 1,
  "description": "scaled execution suite of the benchmark",
  "sweep": {"kernels": ["matmul", "conv2d", "fir"],
            "machines": ["XRdefault", "ZOLCfull"],
            "modes": ["pipeline", "iss", "iss-fast"],
            "env": {"scale": 8, "seed": )" +
         std::to_string(env_seed(seed)) + "}}}";
}

class ExecScale8 final : public Workload {
 public:
  explicit ExecScale8(std::uint32_t seed) : seed_(seed) {}

  void setup(Report& report) override {
    const std::string document = suite_document(seed_);
    auto suite = [&] {
      Scope scope("scenario.parse");
      return zs::scenario::parse_suite(document, "exec-scale8");
    }();
    if (!suite.ok()) {
      report.fail("exec-scale8 suite: " + suite.error().message);
      return;
    }
    spec_ = suite.value().sweep;
    cache_ = std::make_unique<zs::flow::CompileCache>();
    units_.clear();
    // One lookup per cell, as a sweep makes them: the first lookup of a
    // unit compiles, the other modes hit the cache.
    for (const std::string& kernel : spec_.kernels) {
      for (const zs::codegen::MachineKind machine : spec_.machines) {
        for (std::size_t x = 0; x < kModes; ++x) {
          zs::flow::CompileSpec cs{kernel, machine, {}, spec_.env};
          const std::size_t before = cache_->stats().compiles;
          Scope scope("flow.cache");
          auto unit = cache_->get_or_compile(cs);
          if (cache_->stats().compiles != before) scope.rename("flow.compile");
          if (!unit.ok()) {
            report.fail("compile " + kernel + ": " + unit.error().message);
            return;
          }
          units_.push_back(unit.value());
        }
      }
    }
    for (std::size_t i = 0; i < units_.size(); i += kModes) {
      Scope scope("flow.image");
      (void)units_[i]->prepared_image();
    }
    const auto stats = cache_->stats();
    cache_hit_ratio_ = static_cast<double>(stats.hits) /
                       static_cast<double>(stats.hits + stats.misses);
  }

  void pass(Report& report, Tally& tally) override {
    const std::size_t cells =
        spec_.kernels.size() * spec_.machines.size() * kModes;
    if (units_.size() != cells) {
      ++report.attempted;
      report.fail("exec-scale8 set-up incomplete");
      return;
    }
    std::vector<zs::harness::ExperimentResult> results;
    std::uint64_t accesses = 0;
    for (std::size_t i = 0; i < units_.size(); ++i) {
      zs::flow::RunPlan plan;
      plan.mode = spec_.modes[i % kModes];
      tracer().op = ++op_;
      ++report.attempted;
      ++tally.ops;
      auto result = run_cell(*units_[i], plan, tally, report, accesses);
      results.push_back(result ? std::move(*result)
                               : zs::harness::ExperimentResult{});
    }

    for (std::size_t i = 0; i < results.size(); i += kModes) {
      const auto& pipe = results[i];
      const auto& iss = results[i + 1];
      const auto& fast = results[i + 2];
      const std::string cell =
          zs::flow::unit_label(pipe.kernel, pipe.machine);
      report.check(same_statistics(iss, fast), cell + " iss == iss-fast");
      report.check(pipe.stats.instructions == iss.stats.instructions,
                   cell + " pipeline retired == iss instructions");
    }

    const zs::harness::SweepReport sweep = make_sweep_report(spec_, results);
    const std::uint64_t digest = emit_digest(sweep);
    if (digest_ == 0) digest_ = digest;
    report.check(digest == digest_, "CSV digest identical on every pass");

    count(sweep, accesses);
  }

  [[nodiscard]] UnitList probe_units() const override {
    UnitList out;
    for (std::size_t i = 0; i < units_.size(); i += kModes) {
      out.push_back(units_[i]);
    }
    return out;
  }

  [[nodiscard]] double reduction_pct() const override { return reduction_; }

  void layer_metrics(Report& report) const override {
    report.add("flow.cache.hit_ratio", cache_hit_ratio_, "ratio");
    report.metrics.insert(report.metrics.end(), counts_.begin(),
                          counts_.end());
  }

 private:
  void count(const zs::harness::SweepReport& sweep, std::uint64_t accesses) {
    double reduction = 0.0;
    std::size_t pairs = 0;
    std::uint64_t events = 0, writes = 0, stalls = 0, flushes = 0;
    std::uint64_t replayed = 0, fast_instrs = 0, engaged = 0, attempts = 0;
    std::uint64_t bailouts = 0;
    const std::size_t full = 1;  // machine index of ZOLCfull
    for (std::size_t k = 0; k < sweep.kernels.size(); ++k) {
      for (std::size_t x = 0; x < kModes; ++x) {
        reduction += sweep.reduction(k, full, 0, 0, x);
        ++pairs;
      }
    }
    for (const zs::harness::SweepCell& cell : sweep.cells) {
      const auto& r = cell.result;
      events += r.zolc_stats.continue_events + r.zolc_stats.done_events;
      writes += r.zolc_stats.table_writes;
      stalls += r.stats.load_use_stalls + r.stats.interlock_stalls +
                r.stats.raw_stalls + r.stats.gate_stalls;
      flushes += r.stats.control_flush_slots;
      if (r.mode.fast_path && cell.machine == full) {
        replayed += r.fastpath.replayed_instructions;
        fast_instrs += r.stats.instructions;
        engaged += r.fastpath.engagements;
        attempts += r.fastpath.attempts;
        bailouts += r.fastpath.total_bailouts();
      }
    }
    reduction_ = reduction / static_cast<double>(pairs);
    counts_ = {
        {"mem.data_accesses", static_cast<double>(accesses), "count"},
        {"zolc.events", static_cast<double>(events), "count"},
        {"zolc.table_writes", static_cast<double>(writes), "count"},
        {"cpu.pipeline.stall_cycles", static_cast<double>(stalls), "count"},
        {"cpu.pipeline.flush_slots", static_cast<double>(flushes), "count"},
        {"cpu.fastpath.replay_ratio",
         fast_instrs == 0 ? 0.0
                          : static_cast<double>(replayed) /
                                static_cast<double>(fast_instrs),
         "ratio"},
        {"cpu.fastpath.engage_ratio",
         attempts == 0 ? 0.0
                       : static_cast<double>(engaged) /
                             static_cast<double>(attempts),
         "ratio"},
        {"cpu.fastpath.bailouts", static_cast<double>(bailouts), "count"},
    };
  }

  std::uint32_t seed_;
  zs::harness::SweepSpec spec_;
  std::unique_ptr<zs::flow::CompileCache> cache_;
  UnitList units_;
  std::uint64_t digest_ = 0;
  std::uint64_t op_ = 0;
  double cache_hit_ratio_ = 0.0;
  double reduction_ = 0.0;
  std::vector<Metric> counts_;  ///< the last pass's per-layer counts
};

}  // namespace

std::unique_ptr<Workload> make_exec_scale8(std::uint32_t seed) {
  return std::make_unique<ExecScale8>(seed);
}

}  // namespace zolcbench
