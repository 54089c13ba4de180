// paper-cold: every registry kernel on every machine at the paper
// prototype geometry and a wide one, scale 1, on the ISS fast path. Each
// pass starts with nothing in memory: phase A compiles every unit and saves
// it into an empty UnitStore, phase B resolves every unit again through a
// fresh CompileCache over that store (load only). Both phases run, verify
// and emit CSV + JSON for every cell.
#include <fcntl.h>
#include <unistd.h>

#include <filesystem>

#include "bench.hpp"
#include "flow/cache.hpp"
#include "flow/unit_store.hpp"
#include "scenario/scenario.hpp"

namespace zolcbench {

namespace {

namespace zs = zolcsim;

constexpr std::size_t kZolcFull = 4;  // machine index in the suite below

std::string suite_document(std::uint32_t seed) {
  std::string kernels;
  for (const std::string& name : registry_kernels()) {
    kernels += (kernels.empty() ? "\"" : ", \"") + name + "\"";
  }
  return R"({"suite": "paper-cold", "version": 1,
  "description": "cold figure sweep of the benchmark",
  "sweep": {"kernels": [)" +
         kernels + R"(],
            "machines": ["XRdefault", "XRhrdwil", "uZOLC", "ZOLClite",
                         "ZOLCfull"],
            "geometries": [")" +
         zs::zolc::ZolcGeometry{}.label() + R"(", "32t-16l-4x-4e"],
            "modes": ["iss-fast"],
            "env": {"seed": )" +
         std::to_string(env_seed(seed)) + "}}}";
}

class PaperCold final : public Workload {
 public:
  explicit PaperCold(std::uint32_t seed) : seed_(seed) {}

  void setup(Report& report) override {
    const std::string document = suite_document(seed_);
    auto suite = [&] {
      Scope scope("scenario.parse");
      return zs::scenario::parse_suite(document, "paper-cold");
    }();
    if (!suite.ok()) {
      report.fail("paper-cold suite: " + suite.error().message);
      return;
    }
    spec_ = suite.value().sweep;
    specs_.clear();
    for (const std::string& kernel : spec_.kernels) {
      for (const zs::codegen::MachineKind machine : spec_.machines) {
        for (const zs::zolc::ZolcGeometry& geometry : spec_.geometries) {
          specs_.push_back({kernel, machine, geometry, spec_.env});
        }
      }
    }
    // The plain-ISS oracle: the fast path must reproduce every statistic.
    zs::harness::SweepSpec oracle = spec_;
    oracle.modes = {zs::harness::ExecMode{zs::harness::SimEngine::kIss, false}};
    oracle.threads = 1;
    zs::flow::CompileCache cache;
    auto swept = zs::harness::run_sweep(oracle, cache);
    if (!swept.ok()) {
      report.fail("paper-cold oracle sweep: " + swept.error().message);
      return;
    }
    oracle_.clear();
    for (const auto& cell : swept.value().cells) oracle_.push_back(cell.result);
  }

  void pass(Report& report, Tally& tally) override {
    if (oracle_.size() != specs_.size() || specs_.empty()) {
      ++report.attempted;
      report.fail("paper-cold set-up incomplete");
      return;
    }
    store_dir_ = temp_dir() + "/store-" + std::to_string(++passes_);
    std::filesystem::create_directories(store_dir_);
    zs::flow::UnitStore store(store_dir_);
    zs::flow::RunPlan plan;
    plan.mode = spec_.modes.front();
    std::uint64_t accesses = 0;

    // Phase A: compile, save, run.
    std::vector<zs::harness::ExperimentResult> cold;
    units_.clear();
    for (const zs::flow::CompileSpec& cs : specs_) {
      begin_op(report, tally);
      auto compiled = [&] {
        Scope scope("flow.compile");
        return zs::flow::CompiledUnit::compile(cs);
      }();
      if (!compiled.ok()) {
        report.fail("compile " + cs.kernel + ": " + compiled.error().message);
        cold.emplace_back();
        continue;
      }
      auto unit = std::make_shared<const zs::flow::CompiledUnit>(
          std::move(compiled).value());
      {
        Scope scope("flow.store_save");
        report.check(store.save(*unit).ok(), "store save " + cs.kernel);
      }
      cold.push_back(run(*unit, plan, tally, report, accesses));
      units_.push_back(std::move(unit));
    }

    // Phase B: a new cache over the store just written.
    std::vector<zs::harness::ExperimentResult> warm;
    zs::flow::CompileCache cache;
    cache.attach_store(&store);
    for (const zs::flow::CompileSpec& cs : specs_) {
      begin_op(report, tally);
      auto unit = [&] {
        Scope scope("flow.store_load");
        return cache.get_or_compile(cs);
      }();
      if (!unit.ok()) {
        report.fail("load " + cs.kernel + ": " + unit.error().message);
        warm.emplace_back();
        continue;
      }
      warm.push_back(run(*unit.value(), plan, tally, report, accesses));
    }
    const auto cache_stats = cache.stats();
    report.check(cache_stats.compiles == 0, "phase B compiles nothing");

    for (std::size_t i = 0; i < specs_.size(); ++i) {
      const std::string cell =
          zs::flow::unit_label(specs_[i].kernel, specs_[i].machine) + " " +
          specs_[i].geometry.label();
      report.check(same_statistics(cold[i], oracle_[i]),
                   cell + " iss-fast == iss oracle");
      report.check(same_statistics(cold[i], warm[i]),
                   cell + " stored unit == compiled unit");
    }
    const zs::harness::SweepReport cold_report = make_sweep_report(spec_, cold);
    const zs::harness::SweepReport warm_report = make_sweep_report(spec_, warm);
    const std::uint64_t digest = emit_digest(cold_report);
    report.check(emit_digest(warm_report) == digest,
                 "phase A and phase B CSV identical");
    if (digest_ == 0) digest_ = digest;
    report.check(digest == digest_, "CSV digest identical on every pass");

    count(cold_report, accesses, cache_stats);
  }

  void after_pass(Report& report) override {
    (void)report;
    std::error_code ignored;
    std::filesystem::remove_all(store_dir_, ignored);
    // Each pass creates and deletes 150 files. Left to pile up, that
    // metadata slows every later save by up to 2-3x within a few minutes
    // on ext4, so the filesystem is flushed between passes, untimed.
    if (const int fd = ::open(temp_dir().c_str(), O_RDONLY | O_DIRECTORY);
        fd >= 0) {
      ::syncfs(fd);
      ::close(fd);
    }
  }

  [[nodiscard]] UnitList probe_units() const override {
    return units_;
  }

  [[nodiscard]] double reduction_pct() const override { return reduction_; }

  void layer_metrics(Report& report) const override {
    report.metrics.insert(report.metrics.end(), counts_.begin(),
                          counts_.end());
  }

 private:
  void begin_op(Report& report, Tally& tally) {
    tracer().op = ++op_;
    ++report.attempted;
    ++tally.ops;
  }

  zs::harness::ExperimentResult run(const zs::flow::CompiledUnit& unit,
                                    const zs::flow::RunPlan& plan,
                                    Tally& tally, Report& report,
                                    std::uint64_t& accesses) {
    {
      Scope scope("flow.image");
      (void)unit.prepared_image();
    }
    auto result = run_cell(unit, plan, tally, report, accesses);
    return result ? std::move(*result) : zs::harness::ExperimentResult{};
  }

  void count(const zs::harness::SweepReport& sweep, std::uint64_t accesses,
             const zs::flow::CompileCache::Stats& cache) {
    double reduction = 0.0;
    std::size_t pairs = 0;
    for (std::size_t k = 0; k < sweep.kernels.size(); ++k) {
      for (std::size_t g = 0; g < sweep.geometries.size(); ++g) {
        reduction += sweep.reduction(k, kZolcFull, 0, g, 0);
        ++pairs;
      }
    }
    std::uint64_t events = 0, writes = 0;
    std::uint64_t replayed = 0, instrs = 0, engaged = 0, attempts = 0;
    std::uint64_t bailouts = 0;
    for (const zs::harness::SweepCell& cell : sweep.cells) {
      const auto& r = cell.result;
      events += r.zolc_stats.continue_events + r.zolc_stats.done_events;
      writes += r.zolc_stats.table_writes;
      replayed += r.fastpath.replayed_instructions;
      instrs += r.stats.instructions;
      engaged += r.fastpath.engagements;
      attempts += r.fastpath.attempts;
      bailouts += r.fastpath.total_bailouts();
    }
    reduction_ = reduction / static_cast<double>(pairs);
    counts_ = {
        {"mem.data_accesses", static_cast<double>(accesses) / 2.0, "count"},
        {"zolc.events", static_cast<double>(events), "count"},
        {"zolc.table_writes", static_cast<double>(writes), "count"},
        {"cpu.fastpath.replay_ratio",
         static_cast<double>(replayed) / static_cast<double>(instrs), "ratio"},
        {"cpu.fastpath.engage_ratio",
         attempts == 0 ? 0.0
                       : static_cast<double>(engaged) /
                             static_cast<double>(attempts),
         "ratio"},
        {"cpu.fastpath.bailouts", static_cast<double>(bailouts), "count"},
        {"flow.cache.hit_ratio",
         static_cast<double>(cache.hits) /
             static_cast<double>(cache.hits + cache.misses),
         "ratio"},
        {"flow.store.hit_ratio",
         static_cast<double>(cache.store_hits) /
             static_cast<double>(cache.misses),
         "ratio"},
    };
  }

  std::uint32_t seed_;
  zs::harness::SweepSpec spec_;
  std::vector<zs::flow::CompileSpec> specs_;
  std::vector<zs::harness::ExperimentResult> oracle_;
  UnitList units_;
  std::string store_dir_;
  std::uint64_t digest_ = 0;
  std::uint64_t op_ = 0;
  unsigned passes_ = 0;
  double reduction_ = 0.0;
  std::vector<Metric> counts_;  ///< the last pass's per-layer counts
};

}  // namespace

std::unique_ptr<Workload> make_paper_cold(std::uint32_t seed) {
  return std::make_unique<PaperCold>(seed);
}

}  // namespace zolcbench
