// zolcbench: the zolcsim benchmark program.
//
//   zolcbench --workload <exec-scale8|paper-cold|serve-mix> --seed <n>
//             --seconds <s> --trace <0|1>
//   zolcbench --self-check
//
// Times set-up in bursts before and between the passes (setup_s is their
// 90th percentile), runs one warm-up pass, then measured passes until
// --seconds are spent. With --trace 0 it prints every end-to-end metric
// (the timings as 90th percentiles, the rates as 10th); with --trace 1 it
// alternates untraced and traced passes, prints every per-layer metric
// (tracing.overhead_pct compares the two kinds of pass) and writes the
// spans as a Chrome trace. The last stdout line is the result object; any
// failed cell, request or correctness gate makes `correct` false and the
// exit status 1.
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>
#include <string>
#include <thread>

#include "bench.hpp"

#ifndef ZOLCBENCH_BUILD_TYPE
#define ZOLCBENCH_BUILD_TYPE "unknown"
#endif

namespace zolcbench {
namespace {

constexpr std::uint32_t kDefaultSeed = 1;
/// Never used while choosing the workloads; README records its numbers
/// beside the default seed's to show no workload is tuned to one seed.
constexpr std::uint32_t kHeldOutSeed = 7;
/// Set-up is timed in bursts: back-to-back set-ups until kBurstSeconds are
/// spent (at most kMaxBurst). One burst precedes the passes; kSpreadBursts
/// more run between passes, spread over the run on throwaway instances, so
/// setup_s (taken over every set-up) sees the same host conditions as
/// the passes do rather than one moment at the start.
constexpr double kBurstSeconds = 0.02;
constexpr std::size_t kMaxBurst = 25;
constexpr std::size_t kSpreadBursts = 12;
constexpr std::size_t kMinPasses = 3;
/// The end-to-end timings are the 90th percentile of their samples, and
/// the rates the 10th. The host alternates, every few seconds, between
/// periods in which the simulator runs up to 1.7x faster and periods in
/// which it runs at a steady slower pace that nearly every run visits. A
/// median lands wherever a run's mix of the two puts it and moved 23%
/// between two sets of runs; the 90th percentile marks the slower pace
/// and moved 6% (README, "Where the spread comes from").
constexpr double kSlowLevel = 0.9;

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics (untraced run), in BENCHMARK.json order.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},          {"pass_s", "s"},
    {"ops_per_s", "1/s"},      {"mips", "MIPS"},
    {"mips.iss-fast", "MIPS"}, {"peak_rss_mb", "MB"},
    {"reduction_pct", "%"},
};

/// The per-layer metrics (traced run), in BENCHMARK.json order.
constexpr MetricSpec kPerLayer[] = {
    {"cpu.pipeline.ns_per_cycle", "ns"},
    {"cpu.iss.ns_per_instr", "ns"},
    {"cpu.iss-fast.ns_per_instr", "ns"},
    {"isa.decode_ns", "ns"},
    {"mem.read32_ns", "ns"},
    {"mem.write32_ns", "ns"},
    {"cpu.pipeline.cycle_ns", "ns"},
    {"zolc.will_trigger_ns", "ns"},
    {"zolc.on_fetch_ns", "ns"},
    {"cpu.fastpath.replay_ratio", "ratio"},
    {"cpu.fastpath.engage_ratio", "ratio"},
    {"cpu.fastpath.bailouts", "count"},
    {"mem.data_accesses", "count"},
    {"zolc.events", "count"},
    {"zolc.table_writes", "count"},
    {"cpu.pipeline.stall_cycles", "count"},
    {"cpu.pipeline.flush_slots", "count"},
    {"flow.compile_us", "us"},
    {"flow.store_save_us", "us"},
    {"flow.store_load_us", "us"},
    {"flow.image_us", "us"},
    {"flow.prepare_warm_us", "us"},
    {"flow.verify_us", "us"},
    {"flow.cache.hit_ratio", "ratio"},
    {"flow.store.hit_ratio", "ratio"},
    {"harness.emit_us", "us"},
    {"scenario.parse_us", "us"},
    {"server.req_us.run", "us"},
    {"server.req_us.run-preempt", "us"},
    {"server.req_us.compile", "us"},
    {"server.req_us.sweep", "us"},
    {"server.req_us.stats", "us"},
    {"server.req_us.ping", "us"},
    {"server.req_tail_us.run", "us"},
    {"server.req_tail_us.run-preempt", "us"},
    {"server.req_tail_us.compile", "us"},
    {"server.req_tail_us.sweep", "us"},
    {"server.req_tail_us.stats", "us"},
    {"server.req_tail_us.ping", "us"},
    {"server.req_p50_ms", "ms"},
    {"server.req_p99_ms", "ms"},
    {"server.stats_growth", "ratio"},
    {"protocol.parse_request_us", "us"},
    {"protocol.parse_reply_us", "us"},
    {"zolc.context.to_json_us", "us"},
    {"zolc.context.from_json_us", "us"},
    {"zolc.ctx_switches", "count"},
    {"tracing.overhead_pct", "%"},
};

/// Span name -> per-layer metric reported as the median self time in us.
constexpr std::pair<const char*, const char*> kSpanMetrics[] = {
    {"flow.compile", "flow.compile_us"},
    {"flow.store_save", "flow.store_save_us"},
    {"flow.store_load", "flow.store_load_us"},
    {"flow.image", "flow.image_us"},
    {"flow.prepare_warm", "flow.prepare_warm_us"},
    {"flow.verify", "flow.verify_us"},
    {"harness.emit", "harness.emit_us"},
    {"scenario.parse", "scenario.parse_us"},
    {"protocol.parse_request", "protocol.parse_request_us"},
    {"protocol.parse_reply", "protocol.parse_reply_us"},
};

struct Options {
  std::string workload;
  std::uint32_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  bool self_check = false;
};

bool parse_args(int argc, char** argv, Options& options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-check") {
      options.self_check = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        options.workload = value;
      } else if (arg == "--seed") {
        const unsigned long long seed = std::stoull(value);
        if (seed > 0xFFFF'FFFFull) return false;
        options.seed = static_cast<std::uint32_t>(seed);
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value);
        if (!(options.seconds > 0.0) || options.seconds > 600.0) return false;
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") return false;
        options.trace = value == "1";
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return options.self_check || !options.workload.empty();
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint32_t seed) {
  if (name == "exec-scale8") return make_exec_scale8(seed);
  if (name == "paper-cold") return make_paper_cold(seed);
  if (name == "serve-mix") return make_serve_mix(seed);
  return nullptr;
}

bool sanitized_build() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

/// Why this build must not report numbers, or "" when it may.
std::string unfit_build_reason() {
  const std::string type = ZOLCBENCH_BUILD_TYPE;
  if (type != "Release" && type != "RelWithDebInfo") {
    return "build type '" + type + "' is not optimized";
  }
#ifndef NDEBUG
  return "assertions are enabled (NDEBUG unset)";
#endif
#ifdef ZOLCBENCH_LIBRARY_SANITIZED
  return "the library is built with sanitizers";
#endif
  if (sanitized_build()) return "the benchmark is built with sanitizers";
  return "";
}

/// Peak resident set of this process image. VmHWM, unlike getrusage's
/// ru_maxrss, does not carry over the peak of the process that exec'd us.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // the value is in kB
    }
  }
  return 0.0;
}

/// Effective parallelism: how many of nproc equal CPU-bound threads run at
/// full speed at once, as nproc x (one thread's time) / (all threads' time).
double effective_parallelism(unsigned nproc) {
  auto spin = [] {
    std::uint64_t x = 88172645463325252ull;
    for (int i = 0; i < 20'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    return x;
  };
  std::atomic<std::uint64_t> sink{0};
  auto started = Clock::now();
  sink += spin();
  const double one = seconds_between(started, Clock::now());
  std::vector<std::thread> threads;
  started = Clock::now();
  for (unsigned t = 0; t < nproc; ++t) {
    threads.emplace_back([&] { sink += spin(); });
  }
  for (std::thread& t : threads) t.join();
  const double all = seconds_between(started, Clock::now());
  return static_cast<double>(nproc) * one / all;
}

std::string number(double value) {
  if (!std::isfinite(value)) value = 0.0;
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
  }
  return out + "\"";
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// The running sums of a tally that per-pass rates are taken from.
struct Totals {
  std::uint64_t ops = 0;
  double instructions = 0.0;
  double exec_s = 0.0;
  double fast_instructions = 0.0;
  double fast_exec_s = 0.0;
};

Totals totals(const Tally& tally) {
  Totals t;
  t.ops = tally.ops;
  for (const auto& [engine, n] : tally.instructions) {
    t.instructions += static_cast<double>(n);
    if (engine == "iss-fast") t.fast_instructions = static_cast<double>(n);
  }
  for (const auto& [engine, s] : tally.exec_s) {
    t.exec_s += s;
    if (engine == "iss-fast") t.fast_exec_s = s;
  }
  return t;
}

// ---- the run ----

int run(const Options& options) {
  // Measured first: serve-mix keeps its threads on one CPU from set-up on,
  // and threads started later would inherit that.
  const unsigned nproc = static_cast<unsigned>(::sysconf(_SC_NPROCESSORS_ONLN));
  const double parallelism = effective_parallelism(nproc);
  Report report;
  std::unique_ptr<Workload> workload;
  std::vector<double> setup_s;
  tracer().enabled = options.trace;
  auto setup_burst = [&]() -> std::unique_ptr<Workload> {
    std::unique_ptr<Workload> last;
    const auto burst = Clock::now();
    for (std::size_t n = 0;
         n < kMaxBurst && (n == 0 || seconds_between(burst, Clock::now()) <
                                         kBurstSeconds);
         ++n) {
      last = make_workload(options.workload, options.seed);
      const auto started = Clock::now();
      last->setup(report);
      setup_s.push_back(seconds_between(started, Clock::now()));
    }
    return last;
  };
  workload = setup_burst();
  tracer().enabled = false;

  // Warm-up pass: lazy state fills before anything is timed.
  Tally warmup;
  workload->pass(report, warmup);
  workload->after_pass(report);

  Tally plain;
  Tally traced;
  const auto measuring = Clock::now();
  std::size_t bursts = 0;
  for (std::size_t i = 0;; ++i) {
    const bool trace_this = options.trace && i % 2 == 1;
    Tally& tally = trace_this ? traced : plain;
    const Totals before = totals(tally);
    tracer().enabled = trace_this;
    const auto started = Clock::now();
    workload->pass(report, tally);
    const double seconds = seconds_between(started, Clock::now());
    tracer().enabled = false;
    workload->after_pass(report);
    const Totals after = totals(tally);
    tally.pass_s.push_back(seconds);
    tally.ops_per_s.push_back(static_cast<double>(after.ops - before.ops) /
                              seconds);
    tally.mips.push_back(ratio(after.instructions - before.instructions,
                               after.exec_s - before.exec_s) /
                         1e6);
    tally.mips_fast.push_back(
        ratio(after.fast_instructions - before.fast_instructions,
              after.fast_exec_s - before.fast_exec_s) /
        1e6);
    const double elapsed = seconds_between(measuring, Clock::now());
    if (elapsed >= options.seconds * static_cast<double>(bursts + 1) /
                       static_cast<double>(kSpreadBursts + 1)) {
      ++bursts;
      (void)setup_burst();
    }
    const bool enough = plain.pass_s.size() >= kMinPasses &&
                        (!options.trace || traced.pass_s.size() >= kMinPasses);
    if (enough && elapsed >= options.seconds) break;
  }

  std::map<std::string, double> values;
  if (!options.trace) {
    values["setup_s"] = quantile(setup_s, kSlowLevel);
    values["pass_s"] = quantile(plain.pass_s, kSlowLevel);
    values["ops_per_s"] = quantile(plain.ops_per_s, 1.0 - kSlowLevel);
    values["mips"] = quantile(plain.mips, 1.0 - kSlowLevel);
    values["mips.iss-fast"] = quantile(plain.mips_fast, 1.0 - kSlowLevel);
    values["peak_rss_mb"] = peak_rss_mb();
    values["reduction_pct"] = workload->reduction_pct();
    for (const auto& [name, samples] :
         {std::pair{"setup_s", &setup_s}, std::pair{"pass_s", &plain.pass_s}}) {
      const double level = tail_level(samples->size());
      report.notes.push_back(
          std::string(name) + ": median " + number(median(*samples)) +
          " s, p90 " + number(quantile(*samples, kSlowLevel)) + " s, p" +
          std::to_string(std::lround(level * 100.0)) + " " +
          number(quantile(*samples, level)) + " s, " +
          std::to_string(samples->size()) + " samples");
    }
  } else {
    const auto self = tracer().self_ns();
    auto total_ns = [&](const char* span) {
      double total = 0.0;
      if (const auto it = self.find(span); it != self.end()) {
        for (const double ns : it->second) total += ns;
      }
      return total;
    };
    values["cpu.pipeline.ns_per_cycle"] =
        ratio(total_ns("cpu.pipeline"),
              static_cast<double>(traced.cycles["pipeline"]));
    values["cpu.iss.ns_per_instr"] = ratio(
        total_ns("cpu.iss"), static_cast<double>(traced.instructions["iss"]));
    values["cpu.iss-fast.ns_per_instr"] =
        ratio(total_ns("cpu.iss-fast"),
              static_cast<double>(traced.instructions["iss-fast"]));
    for (const auto& [span, metric] : kSpanMetrics) {
      if (const auto it = self.find(span); it != self.end()) {
        values[metric] = median(it->second) / 1e3;
      }
    }
    Report probes;
    probe_primitives(workload->probe_units(), probes);
    workload->layer_metrics(probes);
    for (const Metric& m : probes.metrics) values[m.name] = m.value;
    report.failed += probes.failed;
    for (std::string& f : probes.failures) {
      report.failures.push_back(std::move(f));
    }
    for (std::string& n : probes.notes) report.notes.push_back(std::move(n));
    values["tracing.overhead_pct"] =
        (ratio(median(traced.pass_s), median(plain.pass_s)) - 1.0) * 100.0;

    const std::string path =
        ".bench_build/zolcbench-trace-" + options.workload + ".json";
    if (tracer().write_chrome(path)) {
      report.notes.push_back("trace: " +
                             std::to_string(tracer().spans().size()) +
                             " spans written to " + path);
    } else {
      report.notes.push_back("trace: could not write " + path);
    }
  }

  // Host record.
  std::cout << "host {\"compiler\": " << json_string(__VERSION__)
            << ", \"build_type\": " << json_string(ZOLCBENCH_BUILD_TYPE)
            << ", \"nproc\": " << nproc
            << ", \"effective_parallelism\": "
            << number(parallelism)
            << ", \"workload\": " << json_string(options.workload)
            << ", \"seed\": " << options.seed
            << ", \"default_seed\": " << kDefaultSeed
            << ", \"held_out_seed\": " << kHeldOutSeed
            << ", \"setup_repetitions\": " << setup_s.size()
            << ", \"passes\": " << plain.pass_s.size() + traced.pass_s.size()
            << ", \"traced_passes\": " << traced.pass_s.size()
            << ", \"seconds\": " << number(options.seconds) << "}\n";
  for (const std::string& note : report.notes) {
    std::cout << "note " << note << "\n";
  }
  for (const std::string& failure : report.failures) {
    std::cout << "FAILED " << failure << "\n";
  }

  const MetricSpec* begin =
      options.trace ? std::begin(kPerLayer) : std::begin(kEndToEnd);
  const MetricSpec* end =
      options.trace ? std::end(kPerLayer) : std::end(kEndToEnd);
  std::string metrics;
  for (const MetricSpec* spec = begin; spec != end; ++spec) {
    const double value = values.count(spec->name) ? values[spec->name] : 0.0;
    std::cout << "metric " << spec->name << " = " << number(value) << " "
              << spec->unit << "\n";
    metrics += (metrics.empty() ? "" : ", ") + json_string(spec->name) +
               ": {\"value\": " + number(value) +
               ", \"unit\": " + json_string(spec->unit) + "}";
  }
  const bool correct = report.failed == 0;
  const std::uint64_t attempted =
      std::max<std::uint64_t>(1, report.attempted);
  std::cout << "fail_ratio "
            << number(static_cast<double>(report.failed) /
                      static_cast<double>(attempted))
            << " (" << report.failed << " of " << attempted << ")\n";
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted
            << ", \"failed\": " << report.failed << ", \"metrics\": {"
            << metrics << "}}" << std::endl;
  return correct ? 0 : 1;
}

// ---- self-check ----

int self_check() {
  int failures = 0;
  auto expect = [&](bool ok, const std::string& what) {
    if (!ok) {
      std::cerr << "self-check failed: " << what << "\n";
      ++failures;
    }
  };

  expect(quantile({4, 1, 3, 2}, 0.5) == 2.5, "median interpolates");
  expect(quantile({1, 2, 3, 4, 5}, 0.25) == 2.0, "lower quartile");
  expect(quantile({}, 0.5) == 0.0, "empty quantile is 0");
  expect(tail_level(19) == 0.5 && tail_level(20) == 0.5 &&
             tail_level(33) == 0.69 && tail_level(1000) == 0.99 &&
             tail_level(100000) == 0.99,
         "tail level keeps ten samples beyond it");

  // Self time: a parent of 100 ns with children of 30 and 20 ns keeps 50.
  {
    Tracer t;
    t.enabled = true;
    const auto parent = t.open("parent");
    const auto a = t.open("child");
    t.close(a);
    const auto b = t.open("child");
    t.close(b);
    t.close(parent);
    const auto self = t.self_ns();
    double children = 0.0;
    for (const double ns : self.at("child")) children += ns;
    const auto& span = t.spans()[0];
    expect(self.at("parent").size() == 1 &&
               std::abs(self.at("parent")[0] -
                        (static_cast<double>(span.end_ns - span.start_ns) -
                         children)) < 1e-9,
           "self time excludes covered children");
    expect(t.spans()[1].parent == 0 && t.spans()[2].parent == 0,
           "children record their parent");
  }

  // Metric names are unique and well formed.
  {
    std::set<std::string> names;
    for (const MetricSpec& spec : kEndToEnd) names.insert(spec.name);
    for (const MetricSpec& spec : kPerLayer) names.insert(spec.name);
    expect(names.size() == std::size(kEndToEnd) + std::size(kPerLayer),
           "metric names are unique");
    for (const auto& [span, metric] : kSpanMetrics) {
      (void)span;
      expect(names.count(metric) == 1, std::string("span metric ") + metric);
    }
  }

  // The request stream is a function of the seed and keeps its shares.
  {
    const std::array<std::size_t, kRequestKinds> choices = {150, 90, 150,
                                                            4,   1,  1};
    RequestStream a(kDefaultSeed), b(kDefaultSeed), c(kHeldOutSeed);
    const auto x = a.next_batch(choices);
    const auto y = b.next_batch(choices);
    const auto z = c.next_batch(choices);
    bool same = x.size() == y.size();
    bool differs = false;
    for (std::size_t i = 0; same && i < x.size(); ++i) {
      same = x[i].kind == y[i].kind && x[i].choice == y[i].choice;
      differs |= x[i].kind != z[i].kind || x[i].choice != z[i].choice;
    }
    expect(same, "same seed, same request stream");
    expect(differs, "another seed, another request stream");
    std::array<unsigned, kRequestKinds> counts{};
    for (const auto& pick : x) {
      ++counts[static_cast<std::size_t>(pick.kind)];
      expect(pick.choice < choices[static_cast<std::size_t>(pick.kind)],
             "choice in range");
    }
    expect(counts == RequestStream::batch_shares(), "fixed shares per batch");
  }
  expect(env_seed(kDefaultSeed) != env_seed(kHeldOutSeed),
         "seeds give different kernel data");

  if (failures == 0) std::cout << "self-check ok\n";
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace zolcbench

int main(int argc, char** argv) {
  using namespace zolcbench;
  Options options;
  if (!parse_args(argc, argv, options)) {
    std::cerr << "usage: zolcbench --workload "
                 "<exec-scale8|paper-cold|serve-mix> --seed <n> --seconds <s> "
                 "--trace <0|1> | --self-check\n";
    return 2;
  }
  if (const std::string reason = unfit_build_reason(); !reason.empty()) {
    std::cerr << "zolcbench: refusing to run: " << reason << "\n";
    return 3;
  }
  if (options.self_check) return self_check();
  if (!make_workload(options.workload, options.seed)) {
    std::cerr << "zolcbench: unknown workload '" << options.workload << "'\n";
    return 2;
  }
  int status = 1;
  try {
    status = run(options);
  } catch (const std::exception& e) {
    std::cerr << "zolcbench: " << e.what() << "\n";
  }
  std::error_code ignored;
  std::filesystem::remove_all(temp_dir(), ignored);
  return status;
}
