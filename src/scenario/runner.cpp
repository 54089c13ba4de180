#include "scenario/runner.hpp"

#include <chrono>
#include <optional>

#include "common/contracts.hpp"
#include "common/json.hpp"
#include "common/strings.hpp"
#include "common/toolchain.hpp"
#include "scenario/parse.hpp"

namespace zolcsim::scenario {

namespace {

/// Simulated MIPS of one cell: simulated instructions over host wall time.
double cell_mips(const harness::ExperimentResult& r) {
  if (r.wall_ns == 0) return 0.0;
  return static_cast<double>(r.stats.instructions) /
         (static_cast<double>(r.wall_ns) * 1e-9) / 1e6;
}

/// Index of the config named `name` (config_name form) in the resolved
/// axis; empty selects index 0. nullopt when the name is not in the sweep.
std::optional<std::size_t> config_index(const harness::SweepReport& report,
                                        const std::string& name) {
  if (name.empty()) return 0;
  for (std::size_t c = 0; c < report.configs.size(); ++c) {
    if (harness::config_name(report.configs[c]) == name) return c;
  }
  return std::nullopt;
}

std::optional<std::size_t> geometry_index(const harness::SweepReport& report,
                                          const std::string& label) {
  if (label.empty()) return 0;
  for (std::size_t g = 0; g < report.geometries.size(); ++g) {
    if (report.geometries[g].label() == label) return g;
  }
  return std::nullopt;
}

std::optional<std::size_t> mode_index(const harness::SweepReport& report,
                                      const std::string& name) {
  if (name.empty()) return 0;
  for (std::size_t x = 0; x < report.modes.size(); ++x) {
    if (harness::mode_name(report.modes[x]) == name) return x;
  }
  return std::nullopt;
}

/// The loop-summary fast path must be architecturally invisible: wherever
/// the sweep ran both "iss" and "iss-fast", the two cells must agree on
/// every deterministic statistic. A difference is always a simulator bug.
Result<void> check_mode_equivalence(const Suite& suite,
                                    const harness::SweepReport& report) {
  std::optional<std::size_t> iss;
  std::optional<std::size_t> fast;
  for (std::size_t x = 0; x < report.modes.size(); ++x) {
    if (report.modes[x].engine != harness::SimEngine::kIss) continue;
    (report.modes[x].fast_path ? fast : iss) = x;
  }
  if (!iss || !fast) return {};
  for (std::size_t k = 0; k < report.kernels.size(); ++k) {
    for (std::size_t m = 0; m < report.machines.size(); ++m) {
      for (std::size_t c = 0; c < report.configs.size(); ++c) {
        for (std::size_t g = 0; g < report.geometries.size(); ++g) {
          for (std::size_t t = 0; t < report.tenants.size(); ++t) {
            const harness::ExperimentResult& a =
                report.at(k, m, c, g, *iss, t);
            const harness::ExperimentResult& b =
                report.at(k, m, c, g, *fast, t);
            const bool equal =
                a.stats.cycles == b.stats.cycles &&
                a.stats.instructions == b.stats.instructions &&
                a.stats.taken_control == b.stats.taken_control &&
                a.stats.zolc_fetch_events == b.stats.zolc_fetch_events &&
                a.zolc_stats == b.zolc_stats;
            if (!equal) {
              return Error{ErrorCode::kVerifyMismatch,
                           report.kernels[k] + " on " +
                               std::string(codegen::machine_name(
                                   report.machines[m])) +
                               ": iss and iss-fast cells disagree (fast path "
                               "is not architecturally invisible)"}
                  .with_context("suite " + suite.name);
            }
          }
        }
      }
    }
  }
  return {};
}

Result<void> check_thresholds(const Suite& suite,
                              const harness::SweepReport& report) {
  for (const Threshold& t : suite.thresholds) {
    const auto machine = parse_machine(t.machine);
    ZS_ASSERT(machine.ok());  // validated by parse_suite
    const auto c = config_index(report, t.config);
    const auto g = geometry_index(report, t.geometry);
    const auto x = mode_index(report, t.mode);
    const harness::ExperimentResult* cell =
        c && g && x ? report.find(t.kernel, machine.value(), *c, *g, *x)
                    : nullptr;
    if (cell == nullptr) {
      return Error{ErrorCode::kBadConfig,
                   "threshold names a cell outside the grid: " + t.kernel +
                       " on " + t.machine}
          .with_context("suite " + suite.name);
    }
    if (t.max_cycles != 0 && cell->stats.cycles > t.max_cycles) {
      return Error{ErrorCode::kThreshold,
                   t.kernel + " on " + t.machine + ": " +
                       std::to_string(cell->stats.cycles) +
                       " cycles exceeds the threshold of " +
                       std::to_string(t.max_cycles)}
          .with_context("suite " + suite.name);
    }
    if (t.min_mips > 0.0 && cell_mips(*cell) < t.min_mips) {
      return Error{ErrorCode::kThreshold,
                   t.kernel + " on " + t.machine + ": " +
                       format_fixed(cell_mips(*cell), 2) +
                       " MIPS below the threshold of " +
                       format_fixed(t.min_mips, 2)}
          .with_context("suite " + suite.name);
    }
  }
  return {};
}

}  // namespace

Result<SuiteOutcome> run_suite(const Suite& suite, flow::CompileCache& cache,
                               const RunOptions& options) {
  SuiteOutcome outcome;
  outcome.suite = suite;

  harness::SweepSpec spec = suite.sweep;
  spec.threads = options.threads;

  // A "both" suite runs the grid cold first; the warm pass below must then
  // render a byte-identical CSV, pinning the copy-on-write run path against
  // the historical cold path on this exact grid. The warm pass is the
  // reported one (its timings reflect the default run path).
  std::optional<std::string> cold_csv;
  if (suite.warm_start == WarmStart::kBoth) {
    harness::SweepSpec cold = spec;
    cold.warm_start = false;
    auto cold_swept = harness::run_sweep(cold, cache);
    if (!cold_swept.ok()) {
      return std::move(cold_swept)
          .error()
          .with_context("suite " + suite.name + " (cold pass)");
    }
    cold_csv = cold_swept.value().to_csv();
    spec.warm_start = true;
  }

  const auto started = std::chrono::steady_clock::now();
  auto swept = harness::run_sweep(spec, cache);
  if (!swept.ok()) {
    return std::move(swept).error().with_context("suite " + suite.name);
  }
  outcome.report = std::move(swept).value();
  outcome.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started)
          .count();

  outcome.csv = outcome.report.to_csv();
  outcome.csv_fnv1a64 = fnv1a64(outcome.csv);
  if (cold_csv) {
    if (*cold_csv != outcome.csv) {
      return Error{ErrorCode::kVerifyMismatch,
                   "warm-start CSV differs from the cold-start CSV (the "
                   "copy-on-write run path is not architecturally "
                   "invisible)"}
          .with_context("suite " + suite.name);
    }
    outcome.warm_cold_checked = true;
  }
  if (suite.expect_csv_fnv1a64) {
    if (*suite.expect_csv_fnv1a64 != outcome.csv_fnv1a64) {
      return Error{ErrorCode::kVerifyMismatch,
                   "CSV digest " + hex64(outcome.csv_fnv1a64) +
                       " differs from the golden " +
                       hex64(*suite.expect_csv_fnv1a64)}
          .with_context("suite " + suite.name);
    }
    outcome.golden_checked = true;
  }

  if (auto equal = check_mode_equivalence(suite, outcome.report);
      !equal.ok()) {
    return std::move(equal).error();
  }

  if (auto checked = check_thresholds(suite, outcome.report); !checked.ok()) {
    return std::move(checked).error();
  }

  std::uint64_t instructions = 0;
  for (const harness::SweepCell& cell : outcome.report.cells) {
    instructions += cell.result.stats.instructions;
  }
  if (outcome.wall_seconds > 0.0) {
    outcome.mips =
        static_cast<double>(instructions) / outcome.wall_seconds / 1e6;
  }
  return outcome;
}

std::string bench_artifact_name(const Suite& suite) {
  return "BENCH_" + suite.name + ".json";
}

std::string bench_artifact_json(const SuiteOutcome& outcome) {
  const harness::SweepReport& report = outcome.report;
  const std::size_t total_compiles =
      report.compile_cache_hits + report.compile_cache_misses;
  const double hit_rate =
      total_compiles == 0
          ? 0.0
          : static_cast<double>(report.compile_cache_hits) /
                static_cast<double>(total_compiles);

  using Layout = json::Writer::Layout;
  json::Writer w;
  w.begin_object(Layout::kLines)
      .member("schema", kBenchSchema)
      .member("suite", outcome.suite.name)
      .member("description", outcome.suite.description)
      .member("git_sha", build_git_sha())
      .member("toolchain", compiler_id())
      .member("baseline", codegen::machine_name(report.baseline))
      .key("wall_seconds")
      .fixed(outcome.wall_seconds, 4)
      .key("mips")
      .fixed(outcome.mips, 2)
      .member("warm_start", warm_start_name(outcome.suite.warm_start));
  w.key("compile_cache")
      .begin_object()
      .member("hits", report.compile_cache_hits)
      .member("misses", report.compile_cache_misses)
      .member("store_hits", report.compile_cache_store_hits)
      .member("compiles", report.compile_cache_compiles)
      .key("hit_rate")
      .fixed(hit_rate, 3)
      .end();
  w.key("prepares")
      .begin_object()
      .member("full", report.full_prepares)
      .member("image_resets", report.image_resets)
      .end();
  w.member("csv_fnv1a64", hex64(outcome.csv_fnv1a64))
      .member("golden", outcome.golden_checked ? "match" : "unchecked")
      .key("points")
      .begin_array(Layout::kLines);
  for (const harness::SweepCell& cell : report.cells) {
    const harness::ExperimentResult& r = cell.result;
    w.begin_object()
        .member("kernel", report.kernels[cell.kernel])
        .member("machine", codegen::machine_name(report.machines[cell.machine]))
        .member("config", harness::config_name(report.configs[cell.config]))
        .member("geometry", report.geometries[cell.geometry].label())
        .member("mode", harness::mode_name(report.modes[cell.mode]));
    if (report.has_tenant_axis()) {
      // Multi-tenant material: the tenant count plus the modeled
      // context-switch cost (reported alongside, never folded into,
      // cycles; DESIGN.md section 9).
      w.member("tenants", report.tenants[cell.tenant])
          .member("ctx_switches", r.context_switches)
          .member("ctx_switch_cycles", r.context_switch_cycles);
    }
    w.member("cycles", r.stats.cycles)
        .member("instructions", r.stats.instructions)
        .key("reduction_pct")
        .fixed(report.reduction(cell.kernel, cell.machine, cell.config,
                                cell.geometry, cell.mode, cell.tenant),
               4)
        .member("wall_ns", r.wall_ns)
        .key("mips")
        .fixed(cell_mips(r), 2);
    if (report.modes[cell.mode].fast_path) {
      // Fast-path effectiveness counters: host-side diagnostics, BENCH-only
      // (never part of the deterministic CSV/JSON sweep reports).
      w.key("fastpath")
          .begin_object()
          .member("attempts", r.fastpath.attempts)
          .member("engagements", r.fastpath.engagements)
          .member("replayed_instructions", r.fastpath.replayed_instructions)
          .member("replayed_backedges", r.fastpath.replayed_backedges)
          .key("bailouts")
          .begin_object();
      for (std::size_t b = 0; b < cpu::kNumBailoutReasons; ++b) {
        if (r.fastpath.bailouts[b] == 0) continue;
        w.key(cpu::bailout_reason_name(static_cast<cpu::BailoutReason>(b)))
            .value(r.fastpath.bailouts[b]);
      }
      w.end().end();
    }
    w.end();
  }
  return w.end().end().take();
}

std::string_view build_git_sha() {
#ifdef ZOLCSIM_GIT_SHA
  return ZOLCSIM_GIT_SHA;
#else
  return "unknown";
#endif
}

}  // namespace zolcsim::scenario
