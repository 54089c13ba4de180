#include "harness/sweep.hpp"

#include <atomic>
#include <thread>

#include "common/csv.hpp"
#include "common/json.hpp"
#include "common/strings.hpp"
#include "flow/cache.hpp"
#include "flow/run.hpp"

namespace zolcsim::harness {

namespace {

/// Default-constructible per-cell outcome so workers can write results into
/// preallocated slots without synchronization. kNotRun marks cells skipped
/// by the early-abort after another cell failed; kCopyGeometryZero marks
/// cells of geometry-independent (non-ZOLC) machines at geometry index > 0,
/// which are filled from the geometry-0 cell after the pool joins instead
/// of re-simulating an identical experiment.
struct CellOutcome {
  enum class State : std::uint8_t { kNotRun, kOk, kError, kCopyGeometryZero };
  State state = State::kNotRun;
  ExperimentResult result;
  Error error;
};

}  // namespace

std::vector<codegen::MachineKind> machines_for_variants(
    const std::vector<zolc::ZolcVariant>& variants) {
  std::vector<codegen::MachineKind> machines;
  for (const zolc::ZolcVariant variant : variants) {
    switch (variant) {
      case zolc::ZolcVariant::kMicro:
        machines.push_back(codegen::MachineKind::kUZolc);
        break;
      case zolc::ZolcVariant::kLite:
        machines.push_back(codegen::MachineKind::kZolcLite);
        break;
      case zolc::ZolcVariant::kFull:
        machines.push_back(codegen::MachineKind::kZolcFull);
        break;
    }
  }
  return machines;
}

std::string config_name(const cpu::PipelineConfig& config) {
  std::string name =
      config.branch_resolve == cpu::BranchResolveStage::kExecute
          ? "EX-resolve"
          : "ID-resolve";
  name += config.speculation == cpu::SpeculationPolicy::kRollback
              ? "/rollback"
              : "/gate";
  if (!config.forwarding) name += "/nofwd";
  return name;
}

const ExperimentResult& SweepReport::at(std::size_t kernel,
                                        std::size_t machine,
                                        std::size_t config,
                                        std::size_t geometry,
                                        std::size_t mode,
                                        std::size_t tenant) const {
  ZS_EXPECTS(kernel < kernels.size() && machine < machines.size() &&
             config < configs.size() && geometry < geometries.size() &&
             mode < modes.size() && tenant < tenants.size());
  return cells[((((kernel * machines.size() + machine) * configs.size() +
                  config) *
                     geometries.size() +
                 geometry) *
                    modes.size() +
                mode) *
                   tenants.size() +
               tenant]
      .result;
}

const ExperimentResult* SweepReport::find(std::string_view kernel,
                                          codegen::MachineKind machine,
                                          std::size_t config,
                                          std::size_t geometry,
                                          std::size_t mode,
                                          std::size_t tenant) const {
  for (std::size_t k = 0; k < kernels.size(); ++k) {
    if (kernels[k] != kernel) continue;
    for (std::size_t m = 0; m < machines.size(); ++m) {
      if (machines[m] != machine) continue;
      if (config >= configs.size() || geometry >= geometries.size() ||
          mode >= modes.size() || tenant >= tenants.size()) {
        return nullptr;
      }
      return &at(k, m, config, geometry, mode, tenant);
    }
  }
  return nullptr;
}

std::uint64_t SweepReport::cycles(std::size_t kernel, std::size_t machine,
                                  std::size_t config, std::size_t geometry,
                                  std::size_t mode, std::size_t tenant) const {
  return at(kernel, machine, config, geometry, mode, tenant).stats.cycles;
}

double SweepReport::reduction(std::size_t kernel, std::size_t machine,
                              std::size_t config, std::size_t geometry,
                              std::size_t mode, std::size_t tenant) const {
  for (std::size_t m = 0; m < machines.size(); ++m) {
    if (machines[m] == baseline) {
      return percent_reduction(
          cycles(kernel, m, config, geometry, mode, tenant),
          cycles(kernel, machine, config, geometry, mode, tenant));
    }
  }
  return 0.0;
}

bool SweepReport::has_geometry_axis() const {
  return geometries.size() > 1 ||
         (geometries.size() == 1 && !(geometries[0] == zolc::ZolcGeometry{}));
}

bool SweepReport::has_mode_axis() const {
  return modes.size() > 1 || (modes.size() == 1 && !(modes[0] == ExecMode{}));
}

bool SweepReport::has_tenant_axis() const {
  return tenants.size() > 1 || (tenants.size() == 1 && tenants[0] != 1);
}

SweepAggregate SweepReport::aggregate(std::size_t machine,
                                      std::size_t config,
                                      std::size_t geometry,
                                      std::size_t mode,
                                      std::size_t tenant) const {
  SweepAggregate agg;
  for (std::size_t k = 0; k < kernels.size(); ++k) {
    const ExperimentResult& r = at(k, machine, config, geometry, mode, tenant);
    const double red = reduction(k, machine, config, geometry, mode, tenant);
    agg.avg_reduction += red;
    agg.max_reduction = std::max(agg.max_reduction, red);
    agg.total_cycles += r.stats.cycles;
    agg.total_instructions += r.stats.instructions;
    agg.gate_stalls += r.stats.gate_stalls;
    agg.zolc_fetch_events += r.stats.zolc_fetch_events;
    agg.continue_events += r.zolc_stats.continue_events;
    agg.done_events += r.zolc_stats.done_events;
    agg.table_writes += r.zolc_stats.table_writes;
  }
  if (!kernels.empty()) {
    agg.avg_reduction /= static_cast<double>(kernels.size());
  }
  return agg;
}

std::string SweepReport::to_csv() const {
  const bool with_geometry = has_geometry_axis();
  const bool with_mode = has_mode_axis();
  const bool with_tenants = has_tenant_axis();
  std::vector<std::string> header = {"kernel", "machine", "config"};
  if (with_geometry) header.push_back("geometry");
  if (with_mode) header.push_back("mode");
  if (with_tenants) header.push_back("tenants");
  for (const char* column :
       {"cycles", "instructions", "reduction_pct", "init_instructions",
        "hw_loops", "sw_loops", "code_words", "continue_events",
        "done_events", "table_writes", "gate_stalls", "load_use_stalls",
        "control_flush_slots"}) {
    header.emplace_back(column);
  }
  if (with_tenants) {
    header.emplace_back("ctx_switches");
    header.emplace_back("ctx_switch_cycles");
  }
  CsvWriter csv(header);
  for (std::size_t k = 0; k < kernels.size(); ++k) {
    for (std::size_t m = 0; m < machines.size(); ++m) {
      for (std::size_t c = 0; c < configs.size(); ++c) {
        for (std::size_t g = 0; g < geometries.size(); ++g) {
        for (std::size_t x = 0; x < modes.size(); ++x) {
        for (std::size_t t = 0; t < tenants.size(); ++t) {
          const ExperimentResult& r = at(k, m, c, g, x, t);
          std::vector<std::string> row = {
              kernels[k], std::string(codegen::machine_name(machines[m])),
              config_name(configs[c])};
          if (with_geometry) row.push_back(geometries[g].label());
          if (with_mode) row.emplace_back(mode_name(modes[x]));
          if (with_tenants) row.push_back(std::to_string(tenants[t]));
          for (const std::string& value :
               {std::to_string(r.stats.cycles),
                std::to_string(r.stats.instructions),
                format_fixed(reduction(k, m, c, g, x, t), 4),
                std::to_string(r.init_instructions),
                std::to_string(r.hw_loops), std::to_string(r.sw_loops),
                std::to_string(r.code_words),
                std::to_string(r.zolc_stats.continue_events),
                std::to_string(r.zolc_stats.done_events),
                std::to_string(r.zolc_stats.table_writes),
                std::to_string(r.stats.gate_stalls),
                std::to_string(r.stats.load_use_stalls),
                std::to_string(r.stats.control_flush_slots)}) {
            row.push_back(value);
          }
          if (with_tenants) {
            row.push_back(std::to_string(r.context_switches));
            row.push_back(std::to_string(r.context_switch_cycles));
          }
          csv.add_row(std::move(row));
        }
        }
        }
      }
    }
  }
  return csv.render();
}

std::string SweepReport::to_json() const {
  const bool with_geometry = has_geometry_axis();
  const bool with_mode = has_mode_axis();
  const bool with_tenants = has_tenant_axis();
  using Layout = json::Writer::Layout;
  json::Writer w;
  w.begin_object(Layout::kLines)
      .member("baseline", codegen::machine_name(baseline))
      .key("cells")
      .begin_array(Layout::kLines);
  for (std::size_t k = 0; k < kernels.size(); ++k) {
    for (std::size_t m = 0; m < machines.size(); ++m) {
      for (std::size_t c = 0; c < configs.size(); ++c) {
        for (std::size_t g = 0; g < geometries.size(); ++g) {
        for (std::size_t x = 0; x < modes.size(); ++x) {
        for (std::size_t t = 0; t < tenants.size(); ++t) {
          const ExperimentResult& r = at(k, m, c, g, x, t);
          w.begin_object()
              .member("kernel", kernels[k])
              .member("machine", codegen::machine_name(machines[m]))
              .member("config", config_name(configs[c]));
          if (with_geometry) w.member("geometry", geometries[g].label());
          if (with_mode) w.member("mode", mode_name(modes[x]));
          if (with_tenants) w.member("tenants", tenants[t]);
          w.member("cycles", r.stats.cycles)
              .member("instructions", r.stats.instructions)
              .key("reduction_pct")
              .fixed(reduction(k, m, c, g, x, t), 4)
              .member("init_instructions", r.init_instructions)
              .member("hw_loops", r.hw_loops)
              .member("sw_loops", r.sw_loops)
              .member("continue_events", r.zolc_stats.continue_events)
              .member("done_events", r.zolc_stats.done_events);
          if (with_tenants) {
            w.member("ctx_switches", r.context_switches)
                .member("ctx_switch_cycles", r.context_switch_cycles);
          }
          w.end();
        }
        }
        }
      }
    }
  }
  return w.end().end().take();
}

Result<SweepReport> run_sweep(const SweepSpec& spec) {
  flow::CompileCache cache;
  return run_sweep(spec, cache);
}

Result<SweepReport> run_sweep(const SweepSpec& spec,
                              flow::CompileCache& cache) {
  SweepReport report;
  report.baseline = spec.baseline;

  if (spec.kernels.empty()) {
    for (const auto& kernel : kernels::kernel_registry()) {
      report.kernels.emplace_back(kernel->name());
    }
  } else {
    report.kernels = spec.kernels;
  }
  for (const std::string& name : report.kernels) {
    if (kernels::find_kernel(name) == nullptr) {
      return Error{ErrorCode::kUnknownKernel,
                   "sweep: unknown kernel '" + name + "'"};
    }
  }

  if (spec.machines.empty()) {
    report.machines.assign(std::begin(codegen::kAllMachines),
                           std::end(codegen::kAllMachines));
  } else {
    report.machines = spec.machines;
  }
  report.configs = spec.configs.empty()
                       ? std::vector<cpu::PipelineConfig>{cpu::PipelineConfig{}}
                       : spec.configs;
  report.geometries =
      spec.geometries.empty()
          ? std::vector<zolc::ZolcGeometry>{zolc::ZolcGeometry{}}
          : spec.geometries;
  report.modes = spec.modes.empty() ? std::vector<ExecMode>{ExecMode{}}
                                    : spec.modes;
  report.tenants = spec.tenants.empty() ? std::vector<unsigned>{1}
                                        : spec.tenants;
  for (const zolc::ZolcGeometry& geometry : report.geometries) {
    if (!geometry.valid()) {
      return Error{ErrorCode::kBadConfig,
                   "sweep: invalid ZOLC geometry " + geometry.label()};
    }
  }
  // Tenant scheduling and preemption are ISS-engine features; reject the
  // combination with any pipeline mode up front rather than per cell.
  const bool all_iss = [&] {
    for (const ExecMode& mode : report.modes) {
      if (mode.engine != SimEngine::kIss) return false;
    }
    return true;
  }();
  for (const unsigned count : report.tenants) {
    if (count == 0) {
      return Error{ErrorCode::kBadConfig, "sweep: tenant count must be >= 1"};
    }
    if (count > 1 && !all_iss) {
      return Error{ErrorCode::kBadConfig,
                   "sweep: tenant counts > 1 require ISS execution modes"};
    }
  }
  if (spec.preempt_every != 0 && !all_iss) {
    return Error{ErrorCode::kBadConfig,
                 "sweep: preemption requires ISS execution modes"};
  }

  const std::size_t n_machines = report.machines.size();
  const std::size_t n_configs = report.configs.size();
  const std::size_t n_geoms = report.geometries.size();
  const std::size_t n_modes = report.modes.size();
  const std::size_t n_tenants = report.tenants.size();
  const std::size_t n_cells = report.kernels.size() * n_machines * n_configs *
                              n_geoms * n_modes * n_tenants;
  std::vector<CellOutcome> outcomes(n_cells);

  // Each worker claims cell indices from a shared counter and writes only
  // its own slot; cell order (and thus the report) is thread-count
  // independent. Any failure stops further claims -- the sweep is already
  // lost, so remaining cells (up to max_cycles each) are not worth running.
  //
  // The pipeline-config axis repeats the same (kernel, machine, geometry)
  // compile, so all workers draw units from the shared CompileCache: each
  // unit is compiled at most once per cache lifetime and every further cell
  // is a cache hit (per-sweep deltas surface in the report).
  const flow::CompileCache::Stats stats_before = cache.stats();
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  const auto worker = [&] {
    for (std::size_t i = next.fetch_add(1);
         i < n_cells && !failed.load(std::memory_order_relaxed);
         i = next.fetch_add(1)) {
      const std::size_t k =
          i / (n_machines * n_configs * n_geoms * n_modes * n_tenants);
      const std::size_t m =
          (i / (n_configs * n_geoms * n_modes * n_tenants)) % n_machines;
      const std::size_t c = (i / (n_geoms * n_modes * n_tenants)) % n_configs;
      const std::size_t g = (i / (n_modes * n_tenants)) % n_geoms;
      const std::size_t x = (i / n_tenants) % n_modes;
      const std::size_t t = i % n_tenants;
      CellOutcome& out = outcomes[i];
      // Machines that ignore the geometry (non-ZOLC, and uZOLC whose single
      // loop is fixed) would repeat the g == 0 simulation exactly at every
      // other geometry point, so fill those cells by copy afterwards.
      const auto cell_variant =
          codegen::machine_zolc_variant(report.machines[m]);
      if (g > 0 && (!cell_variant.has_value() ||
                    *cell_variant == zolc::ZolcVariant::kMicro)) {
        out.state = CellOutcome::State::kCopyGeometryZero;
        continue;
      }
      try {
        flow::CompileSpec unit_spec;
        unit_spec.kernel = report.kernels[k];
        unit_spec.machine = report.machines[m];
        unit_spec.geometry = report.geometries[g];
        unit_spec.env = spec.env;
        auto unit = cache.get_or_compile(unit_spec);
        flow::RunPlan plan;
        plan.config = report.configs[c];
        plan.max_cycles = spec.max_cycles;
        plan.mode = report.modes[x];
        plan.timing_reps = spec.timing_reps;
        plan.warm_start = spec.warm_start;
        plan.preempt_every = spec.preempt_every;
        plan.preempt_serialize = spec.preempt_serialize;
        plan.tenants = report.tenants[t];
        auto result =
            unit.ok() ? flow::run(*unit.value(), plan)
                      : Result<ExperimentResult>(std::move(unit).error());
        if (result.ok()) {
          out.state = CellOutcome::State::kOk;
          out.result = std::move(result).value();
        } else {
          out.state = CellOutcome::State::kError;
          out.error = result.error();
          failed.store(true, std::memory_order_relaxed);
        }
      } catch (const std::exception& e) {
        out.state = CellOutcome::State::kError;
        out.error =
            Error{ErrorCode::kSimulation,
                  "sweep cell " + report.kernels[k] + "/" +
                      std::string(codegen::machine_name(report.machines[m])) +
                      ": " + e.what()};
        failed.store(true, std::memory_order_relaxed);
      }
    }
  };

  unsigned threads = spec.threads != 0 ? spec.threads
                                       : std::thread::hardware_concurrency();
  if (threads == 0) threads = 1;
  threads = static_cast<unsigned>(
      std::min<std::size_t>(threads, n_cells == 0 ? 1 : n_cells));

  if (threads <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }

  if (failed.load()) {
    for (const CellOutcome& out : outcomes) {
      if (out.state == CellOutcome::State::kError) return out.error;
    }
  }
  const flow::CompileCache::Stats cache_stats = cache.stats();
  report.compile_cache_hits = cache_stats.hits - stats_before.hits;
  report.compile_cache_misses = cache_stats.misses - stats_before.misses;
  report.compile_cache_store_hits =
      cache_stats.store_hits - stats_before.store_hits;
  report.compile_cache_compiles =
      cache_stats.compiles - stats_before.compiles;
  report.cells.reserve(n_cells);
  for (std::size_t i = 0; i < n_cells; ++i) {
    if (outcomes[i].state == CellOutcome::State::kCopyGeometryZero) {
      const std::size_t g = (i / (n_modes * n_tenants)) % n_geoms;
      outcomes[i].result = outcomes[i - g * (n_modes * n_tenants)].result;
      outcomes[i].result.geometry = report.geometries[g];
      outcomes[i].state = CellOutcome::State::kOk;
    }
    ZS_ASSERT(outcomes[i].state == CellOutcome::State::kOk);
    SweepCell cell;
    cell.kernel =
        i / (n_machines * n_configs * n_geoms * n_modes * n_tenants);
    cell.machine =
        (i / (n_configs * n_geoms * n_modes * n_tenants)) % n_machines;
    cell.config = (i / (n_geoms * n_modes * n_tenants)) % n_configs;
    cell.geometry = (i / (n_modes * n_tenants)) % n_geoms;
    cell.mode = (i / n_tenants) % n_modes;
    cell.tenant = i % n_tenants;
    cell.result = std::move(outcomes[i].result);
    report.full_prepares += cell.result.full_prepares;
    report.image_resets += cell.result.image_resets;
    report.cells.push_back(std::move(cell));
  }
  return report;
}

}  // namespace zolcsim::harness
