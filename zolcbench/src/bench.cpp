#include "bench.hpp"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>

#include "common/strings.hpp"
#include "cpu/iss.hpp"
#include "cpu/pipeline.hpp"
#include "flow/workload.hpp"
#include "isa/encoding.hpp"
#include "kernels/kernels.hpp"
#include "zolc/controller.hpp"

namespace zolcbench {

namespace zs = zolcsim;

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double tail_level(std::size_t samples) {
  if (samples < 20) return 0.5;
  // The epsilon keeps exact percentiles (n = 1000 gives p99) from rounding
  // down.
  return std::floor(100.0 * (1.0 - 10.0 / static_cast<double>(samples)) +
                    1e-9) /
         100.0;
}

// ---- tracer ----

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

std::int32_t Tracer::open(const char* name) {
  Span span;
  span.name = name;
  span.op = op;
  span.parent = open_;
  span.start_ns = now_ns();
  spans_.push_back(span);
  open_ = static_cast<std::int32_t>(spans_.size() - 1);
  return open_;
}

void Tracer::close(std::int32_t index) {
  Span& span = spans_[static_cast<std::size_t>(index)];
  span.end_ns = now_ns();
  open_ = span.parent;
}

std::map<std::string, std::vector<double>> Tracer::self_ns() const {
  // Children close before their parent, so one pass summing each span's
  // duration into its parent gives the covered time; spans are strictly
  // nested because one thread records them.
  std::vector<std::int64_t> covered(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      covered[static_cast<std::size_t>(span.parent)] +=
          span.end_ns - span.start_ns;
    }
  }
  std::map<std::string, std::vector<double>> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out[span.name].push_back(
        static_cast<double>(span.end_ns - span.start_ns - covered[i]));
  }
  return out;
}

bool Tracer::write_chrome(const std::string& path) const {
  std::ofstream out(path);
  out << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << (i == 0 ? "" : ",\n") << "{\"name\": \"" << span.name
        << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
        << static_cast<double>(span.start_ns) / 1e3
        << ", \"dur\": "
        << static_cast<double>(span.end_ns - span.start_ns) / 1e3
        << ", \"args\": {\"op\": " << span.op
        << ", \"parent\": " << span.parent << "}}";
  }
  out << "\n]}\n";
  out.flush();
  return static_cast<bool>(out);
}

Tracer& tracer() {
  static Tracer instance;
  return instance;
}

// ---- report ----

void Report::fail(std::string message) {
  ++failed;
  if (failures.size() < 8) failures.push_back(std::move(message));
}

bool Report::check(bool ok, std::string_view what) {
  if (!ok) fail("gate failed: " + std::string(what));
  return ok;
}

const std::string& temp_dir() {
  static const std::string dir = [] {
    std::string path =
        ".bench_build/zolcbench-tmp/" + std::to_string(::getpid());
    std::filesystem::create_directories(path);
    return path;
  }();
  return dir;
}

std::vector<std::string> registry_kernels() {
  std::vector<std::string> names;
  for (const auto* registry : {&zs::kernels::kernel_registry(),
                               &zs::kernels::extended_kernel_registry()}) {
    for (const auto& kernel : *registry) names.emplace_back(kernel->name());
  }
  return names;
}

std::uint32_t env_seed(std::uint32_t seed) {
  // splitmix-style scramble so neighbouring seeds give unrelated data.
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return static_cast<std::uint32_t>(z ^ (z >> 31));
}

// ---- primitive probes ----

namespace {

/// Calls `body(i)` for i = 0, 1, ... until at least `min_calls` calls and
/// returns ns per call. `body` returns a value folded into a sink so the
/// calls cannot be optimized away.
template <typename Body>
double ns_per_call(std::size_t min_calls, Body&& body) {
  volatile std::uint64_t sink = 0;
  std::uint64_t acc = 0;
  const auto started = Clock::now();
  for (std::size_t i = 0; i < min_calls; ++i) acc += body(i);
  const double seconds = seconds_between(started, Clock::now());
  sink = acc;
  (void)sink;
  return seconds * 1e9 / static_cast<double>(min_calls);
}

/// A controller programmed by running `unit`'s init prologue on the ISS
/// until the controller activates, then `extra` more instructions.
struct ArmedController {
  std::unique_ptr<zs::zolc::ZolcController> controller;
  zs::zolc::ZolcContext context;
};

std::optional<ArmedController> arm(const zs::flow::CompiledUnit& unit,
                                   std::uint64_t extra) {
  const auto variant = zs::codegen::machine_zolc_variant(unit.machine());
  if (!variant) return std::nullopt;
  ArmedController out;
  out.controller =
      std::make_unique<zs::zolc::ZolcController>(*variant, unit.geometry());
  zs::flow::Workload workload = zs::flow::Workload::prepare_warm(unit);
  zs::cpu::Iss iss(workload.memory());
  iss.set_accelerator(out.controller.get());
  iss.set_code_image(unit.image());
  iss.set_pc(unit.program().base);
  std::uint64_t executed = 0;
  while (!iss.halted() && !out.controller->active() && executed < 1'000'000) {
    executed += iss.run_slice(16);
  }
  if (!out.controller->active()) return std::nullopt;
  if (extra > 0 && !iss.halted()) iss.run_slice(extra);
  out.context = out.controller->save_context();
  return out;
}

}  // namespace

void probe_primitives(const UnitList& units, Report& report) {
  constexpr std::size_t kCalls = 2'000'000;

  // Code words and data addresses drawn from every unit.
  std::vector<std::uint32_t> words;
  for (const auto& unit : units) {
    const auto image = unit->prepared_image();
    const std::uint32_t base = unit->program().base;
    for (std::size_t i = 0; i < unit->program().size_words(); ++i) {
      words.push_back(image->fetch32(base + 4 * static_cast<std::uint32_t>(i)));
    }
  }
  report.add("isa.decode_ns", ns_per_call(kCalls, [&](std::size_t i) {
               return static_cast<std::uint64_t>(
                   zs::isa::decode(words[i % words.size()]).op);
             }),
             "ns");

  {
    const auto image = units.front()->prepared_image();
    const std::uint32_t in_base = units.front()->env().in_base;
    report.add("mem.read32_ns", ns_per_call(kCalls, [&](std::size_t i) {
                 return static_cast<std::uint64_t>(image->read32(
                     in_base + 4 * static_cast<std::uint32_t>(i % 4096)));
               }),
               "ns");
    zs::flow::Workload workload =
        zs::flow::Workload::prepare_warm(*units.front());
    const std::uint32_t out_base = units.front()->env().out_base;
    report.add("mem.write32_ns", ns_per_call(kCalls, [&](std::size_t i) {
                 workload.memory().write32(
                     out_base + 4 * static_cast<std::uint32_t>(i % 4096),
                     static_cast<std::uint32_t>(i));
                 return std::uint64_t{1};
               }),
               "ns");
  }

  // Pipeline::cycle over fresh runs of each unit, cycled round-robin.
  {
    constexpr std::uint64_t kCycles = 1'000'000;
    std::uint64_t done = 0;
    double seconds = 0.0;
    for (std::size_t u = 0; done < kCycles; u = (u + 1) % units.size()) {
      const zs::flow::CompiledUnit& unit = *units[u];
      zs::flow::Workload workload = zs::flow::Workload::prepare_warm(unit);
      std::unique_ptr<zs::zolc::ZolcController> controller;
      if (const auto v = zs::codegen::machine_zolc_variant(unit.machine())) {
        controller =
            std::make_unique<zs::zolc::ZolcController>(*v, unit.geometry());
      }
      zs::cpu::Pipeline pipe(workload.memory());
      pipe.set_accelerator(controller.get());
      pipe.set_code_image(unit.image());
      pipe.set_pc(unit.program().base);
      const std::uint64_t budget =
          std::min<std::uint64_t>(200'000, kCycles - done);
      const auto started = Clock::now();
      std::uint64_t n = 0;
      for (; n < budget && !pipe.halted(); ++n) pipe.cycle();
      seconds += seconds_between(started, Clock::now());
      done += n;
    }
    report.add("cpu.pipeline.cycle_ns",
               seconds * 1e9 / static_cast<double>(done), "ns");
  }

  // Controller primitives and the context codec on armed controllers.
  std::vector<std::pair<ArmedController, const zs::flow::CompiledUnit*>> armed;
  for (const auto& unit : units) {
    if (auto a = arm(*unit, 1009)) {
      armed.emplace_back(std::move(*a), unit.get());
    }
    if (armed.size() >= 16) break;
  }
  if (armed.empty()) {
    report.notes.push_back("no ZOLC unit armed: controller probes report 0");
    for (const char* name : {"zolc.will_trigger_ns", "zolc.on_fetch_ns"}) {
      report.add(name, 0.0, "ns");
    }
    report.add("zolc.context.to_json_us", 0.0, "us");
    report.add("zolc.context.from_json_us", 0.0, "us");
    return;
  }
  {
    std::uint64_t calls = 0;
    double seconds = 0.0;
    volatile std::uint64_t sink = 0;
    for (std::size_t a = 0; calls < kCalls; a = (a + 1) % armed.size()) {
      const zs::zolc::ZolcController& c = *armed[a].first.controller;
      const std::uint32_t base = armed[a].second->program().base;
      const std::size_t n = armed[a].second->program().size_words();
      std::uint64_t hits = 0;
      const auto started = Clock::now();
      for (int rep = 0; rep < 64; ++rep) {
        for (std::size_t i = 0; i < n; ++i) {
          hits += c.will_trigger(base + 4 * static_cast<std::uint32_t>(i));
        }
      }
      seconds += seconds_between(started, Clock::now());
      calls += 64 * n;
      sink = sink + hits;
    }
    report.add("zolc.will_trigger_ns",
               seconds * 1e9 / static_cast<double>(calls), "ns");
  }
  {
    constexpr std::uint64_t kFetches = 1'000'000;
    std::uint64_t calls = 0;
    double seconds = 0.0;
    volatile std::uint64_t sink = 0;
    for (std::size_t a = 0; calls < kFetches; a = (a + 1) % armed.size()) {
      zs::zolc::ZolcController& c = *armed[a].first.controller;
      const std::uint32_t base = armed[a].second->program().base;
      const std::size_t n = armed[a].second->program().size_words();
      if (!c.restore_context(armed[a].first.context).ok()) {
        report.fail("zolc context restore failed in the on_fetch probe");
        break;
      }
      std::uint64_t events = 0;
      const auto started = Clock::now();
      for (std::size_t i = 0; i < n && c.active(); ++i) {
        const std::uint32_t pc = base + 4 * static_cast<std::uint32_t>(i);
        events += c.on_fetch(pc).has_value();
        ++calls;
      }
      seconds += seconds_between(started, Clock::now());
      sink = sink + events;
    }
    report.add("zolc.on_fetch_ns",
               calls == 0 ? 0.0 : seconds * 1e9 / static_cast<double>(calls),
               "ns");
  }
  {
    constexpr int kReps = 200;
    std::vector<std::string> texts;
    const auto started = Clock::now();
    for (int rep = 0; rep < kReps; ++rep) {
      for (const auto& [a, unit] : armed) {
        (void)unit;
        if (rep == 0) {
          texts.push_back(a.context.to_json());
        } else {
          volatile std::size_t size = a.context.to_json().size();
          (void)size;
        }
      }
    }
    const double to_s = seconds_between(started, Clock::now());
    const auto parse_started = Clock::now();
    for (int rep = 0; rep < kReps; ++rep) {
      for (std::size_t i = 0; i < texts.size(); ++i) {
        auto back = zs::zolc::ZolcContext::from_json(texts[i]);
        if (!back.ok() && rep == 0) report.fail("context from_json failed");
      }
    }
    const double from_s = seconds_between(parse_started, Clock::now());
    const double calls = static_cast<double>(kReps * armed.size());
    report.add("zolc.context.to_json_us", to_s * 1e6 / calls, "us");
    report.add("zolc.context.from_json_us", from_s * 1e6 / calls, "us");
  }
}

}  // namespace zolcbench

namespace zolcbench {

std::optional<zs::harness::ExperimentResult> run_cell(
    const zs::flow::CompiledUnit& unit, const zs::flow::RunPlan& plan,
    Tally& tally, Report& report, std::uint64_t& data_accesses) {
  const std::string_view mode = zs::harness::mode_name(plan.mode);
  const char* span = mode == "pipeline" ? "cpu.pipeline"
                     : mode == "iss"    ? "cpu.iss"
                                        : "cpu.iss-fast";
  std::optional<zs::flow::Workload> workload;
  {
    Scope scope("flow.prepare_warm");
    workload.emplace(zs::flow::Workload::prepare_warm(unit));
  }
  const auto started = Clock::now();
  auto result = [&] {
    Scope scope(span);
    return zs::flow::run(unit, *workload, plan);
  }();
  const double seconds = seconds_between(started, Clock::now());
  const std::string label =
      zs::flow::unit_label(unit.kernel().name(), unit.machine()) + " " +
      std::string(mode);
  if (!result.ok()) {
    report.fail(label + ": " + result.error().message);
    return std::nullopt;
  }
  {
    Scope scope("flow.verify");
    if (!report.check(workload->verify().ok(), label + " verify")) {
      return std::nullopt;
    }
  }
  const auto& stats = result.value().stats;
  tally.exec(std::string(mode), stats.instructions, stats.cycles, seconds);
  const auto& mem = workload->memory().stats();
  data_accesses += mem.reads + mem.writes;
  return std::move(result).value();
}

zs::harness::SweepReport make_sweep_report(
    const zs::harness::SweepSpec& spec,
    std::vector<zs::harness::ExperimentResult> results) {
  zs::harness::SweepReport report;
  report.kernels = spec.kernels;
  report.machines = spec.machines;
  report.configs = {zs::cpu::PipelineConfig{}};
  report.geometries = spec.geometries.empty()
                          ? std::vector<zs::zolc::ZolcGeometry>{{}}
                          : spec.geometries;
  report.modes = spec.modes;
  report.tenants = {1};
  report.baseline = spec.baseline;
  std::size_t i = 0;
  for (std::size_t k = 0; k < report.kernels.size(); ++k) {
    for (std::size_t m = 0; m < report.machines.size(); ++m) {
      for (std::size_t g = 0; g < report.geometries.size(); ++g) {
        for (std::size_t x = 0; x < report.modes.size(); ++x) {
          zs::harness::SweepCell cell;
          cell.kernel = k;
          cell.machine = m;
          cell.geometry = g;
          cell.mode = x;
          cell.result = std::move(results[i++]);
          report.cells.push_back(std::move(cell));
        }
      }
    }
  }
  return report;
}

bool same_statistics(const zs::harness::ExperimentResult& a,
                     const zs::harness::ExperimentResult& b) {
  const auto& x = a.stats;
  const auto& y = b.stats;
  return x.cycles == y.cycles && x.instructions == y.instructions &&
         x.loads == y.loads && x.stores == y.stores &&
         x.taken_control == y.taken_control &&
         x.zolc_fetch_events == y.zolc_fetch_events &&
         x.zolc_resolution_events == y.zolc_resolution_events &&
         a.zolc_stats == b.zolc_stats &&
         a.init_instructions == b.init_instructions &&
         a.hw_loops == b.hw_loops && a.sw_loops == b.sw_loops &&
         a.code_words == b.code_words &&
         a.context_switches == b.context_switches &&
         a.context_switch_cycles == b.context_switch_cycles;
}

std::uint64_t emit_digest(const zs::harness::SweepReport& report) {
  Scope scope("harness.emit");
  const std::string csv = report.to_csv();
  const std::string json = report.to_json();
  // An empty JSON rendering yields digest 0, which no CSV digest matches.
  return json.empty() ? 0 : zs::fnv1a64(csv);
}

}  // namespace zolcbench
