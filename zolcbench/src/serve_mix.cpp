// serve-mix: an in-process zolcsim-serve-v1 daemon on a Unix socket with
// one client in a closed loop (the next request is sent only after the
// previous reply arrived). A batch has fixed shares of ISS-only run,
// run-preempt (two tenants, preempted every 1009 instructions through the
// JSON context codec), compile, small inline sweep, stats and ping
// requests; the seed orders the batch and picks each request's kernel,
// machine and mode. Every reply is checked against the same work done
// locally in set-up. A pass is one daemon's life of kBatchesPerDaemon
// batches; the daemon is replaced, untimed, after every pass.
#include <sched.h>

#include <filesystem>

#include "bench.hpp"
#include "flow/cache.hpp"
#include "scenario/parse.hpp"
#include "scenario/scenario.hpp"
#include "server/client.hpp"
#include "server/server.hpp"

namespace zolcbench {

namespace zs = zolcsim;

// No recorded daemon traffic exists to take these shares from, so the mix
// is assumed (README, "serve-mix"). They are set by host time rather than
// by count: run and run-preempt take about 40% of a batch each, sweep
// about 13%, compile about 4%, stats about 3% and ping under 1%, so no
// kind dominates the batch by accident.
std::array<unsigned, kRequestKinds> RequestStream::batch_shares() {
  return {40, 4, 40, 4, 4, 8};
}

std::vector<RequestStream::Pick> RequestStream::next_batch(
    const std::array<std::size_t, kRequestKinds>& choices) {
  std::vector<Pick> batch;
  const auto shares = batch_shares();
  for (std::size_t kind = 0; kind < kRequestKinds; ++kind) {
    for (unsigned i = 0; i < shares[kind]; ++i) {
      batch.push_back({static_cast<RequestKind>(kind), 0});
    }
  }
  // Fisher-Yates over a fixed generator, so a seed names one stream on
  // every platform.
  for (std::size_t i = batch.size() - 1; i > 0; --i) {
    std::swap(batch[i], batch[rng_() % (i + 1)]);
  }
  for (Pick& pick : batch) {
    const std::size_t n = choices[static_cast<std::size_t>(pick.kind)];
    pick.choice = n == 0 ? 0 : rng_() % n;
  }
  return batch;
}

const char* request_kind_name(RequestKind kind) {
  static constexpr const char* kNames[kRequestKinds] = {
      "run", "run-preempt", "compile", "sweep", "stats", "ping"};
  return kNames[static_cast<std::size_t>(kind)];
}

namespace {

const char* request_span(RequestKind kind) {
  static constexpr const char* kSpans[kRequestKinds] = {
      "server.req.run",   "server.req.run-preempt", "server.req.compile",
      "server.req.sweep", "server.req.stats",       "server.req.ping"};
  return kSpans[static_cast<std::size_t>(kind)];
}

/// Batches in a pass, served by one daemon that is then replaced. A `stats`
/// reply copies and sorts every latency sample the daemon has kept, so its
/// cost grows with the daemon's history. Replacing the daemon (untimed)
/// after a fixed number of batches gives every pass the same history,
/// whatever the run's length or the host's speed; otherwise a faster
/// daemon would serve more requests, and every later `stats` would cost
/// more. Ten batches (1,000 requests) also even out which kernels the
/// seed picks, which differ in length by two orders of magnitude.
constexpr unsigned kBatchesPerDaemon = 10;
constexpr std::uint64_t kPreemptEvery = 1009;

/// One request the mix can send and what its reply must say.
struct Candidate {
  std::string payload;
  std::string suite;  ///< sweep: the inline suite document
  zs::harness::ExperimentResult expected;  ///< run kinds
  std::size_t code_words = 0;              ///< compile
  std::string csv;                         ///< sweep
};

/// Keeps the calling thread, and every thread it starts from now on (the
/// daemon's), on the CPU it runs on. The client and the daemon's worker
/// hand each request back and forth and never run at once; on one CPU a
/// hand-off is a local context switch. Across CPUs it is a wake-up of an
/// idle virtual CPU, whose cost depends on what else the host runs.
void pin_to_current_cpu() {
  const int cpu = ::sched_getcpu();
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  (void)::sched_setaffinity(0, sizeof set, &set);
}

std::string json_quoted(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  out += s;
  out += '"';
  return out;
}

std::string request_head(std::string_view type) {
  return "{\"schema\": " + json_quoted(zs::server::kServeSchema) +
         ", \"type\": " + json_quoted(type);
}

class ServeMix final : public Workload {
 public:
  explicit ServeMix(std::uint32_t seed) : seed_(seed), stream_(seed) {}

  ~ServeMix() override { stop(); }
  ServeMix(const ServeMix&) = delete;
  ServeMix& operator=(const ServeMix&) = delete;

  void setup(Report& report) override {
    pin_to_current_cpu();
    stop();
    stream_ = RequestStream(seed_);
    const std::uint64_t failed_before = report.failed;
    build_candidates(report);
    if (report.failed != failed_before) return;
    start_daemon(report);
  }

  void pass(Report& report, Tally& tally) override {
    if (!client_) {
      ++report.attempted;
      report.fail("serve-mix set-up incomplete");
      return;
    }
    std::array<std::size_t, kRequestKinds> choices{};
    for (std::size_t kind = 0; kind < kRequestKinds; ++kind) {
      choices[kind] = candidates_[kind].size();
    }
    const bool traced = tracer().enabled;
    if (traced) ++traced_passes_;
    measuring_ = true;
    for (batches_ = 0; batches_ < kBatchesPerDaemon; ++batches_) {
      for (const RequestStream::Pick& pick : stream_.next_batch(choices)) {
        send(pick.kind, pick.choice, report, tally, traced);
        ++tally.ops;
      }
    }
  }

  /// Replaces the daemon, untimed.
  void after_pass(Report& report) override {
    stop();
    start_daemon(report);
  }

  [[nodiscard]] UnitList probe_units() const override { return units_; }

  [[nodiscard]] double reduction_pct() const override { return reduction_; }

  void layer_metrics(Report& report) const override {
    for (std::size_t kind = 0; kind < kRequestKinds; ++kind) {
      const std::vector<double>& us = traced_us_[kind];
      const std::string name =
          request_kind_name(static_cast<RequestKind>(kind));
      report.add("server.req_us." + name, median(us), "us");
      report.add("server.req_tail_us." + name,
                 quantile(us, tail_level(us.size())), "us");
    }
    // Request latency as the client sees it, over the untraced passes.
    report.add("server.req_p50_ms", median(request_ms_), "ms");
    report.add("server.req_p99_ms", quantile(request_ms_, 0.99), "ms");
    // Stats latency growth over one daemon's life: the mean over the
    // daemon's last batch ÷ the mean over its first.
    const std::vector<double>& first = stats_us_.front();
    const std::vector<double>& last = stats_us_.back();
    const double first_mean = mean(first);
    report.add("server.stats_growth",
               first_mean == 0.0 ? 0.0 : mean(last) / first_mean, "ratio");
    // Counts from the traced passes' run replies, per pass.
    for (const auto& [name, total] : traced_counts_) {
      report.add(name,
                 traced_passes_ == 0
                     ? 0.0
                     : total / static_cast<double>(traced_passes_),
                 "count");
    }
  }

 private:
  std::vector<Candidate>& list(RequestKind kind) {
    return candidates_[static_cast<std::size_t>(kind)];
  }

  static double mean(const std::vector<double>& values) {
    double sum = 0.0;
    for (const double v : values) sum += v;
    return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
  }

  /// Starts a daemon on a fresh socket, connects the client and sends every
  /// candidate once, so every unit is compiled and its image prepared before
  /// a batch is timed.
  void start_daemon(Report& report) {
    // One socket per daemon: set-up is repeated on throwaway instances
    // while the measured one keeps serving.
    static unsigned instances = 0;
    socket_ =
        temp_dir() + "/serve-" + std::to_string(++instances) + ".sock";
    std::error_code ignored;
    std::filesystem::remove(socket_, ignored);
    zs::server::ServeOptions options;
    options.socket_path = socket_;
    options.workers = 1;
    options.sweep_threads = 1;
    options.idle_timeout_ms = 3'600'000;
    server_ = std::make_unique<zs::server::Server>(options);
    if (auto started = server_->start(); !started.ok()) {
      report.fail("serve start: " + started.error().message);
      server_.reset();
      return;
    }
    auto client = zs::server::Client::connect(socket_);
    if (!client.ok()) {
      report.fail("client connect: " + client.error().message);
      return;
    }
    client_.emplace(std::move(client).value());
    Tally untimed;
    const bool measuring = measuring_;
    measuring_ = false;
    for (std::size_t kind = 0; kind < kRequestKinds; ++kind) {
      for (std::size_t i = 0; i < candidates_[kind].size(); ++i) {
        send(static_cast<RequestKind>(kind), i, report, untimed, false);
      }
    }
    measuring_ = measuring;
  }

  void stop() {
    client_.reset();
    if (server_) {
      server_->begin_drain();
      server_->wait();
      server_.reset();
    }
  }

  /// Builds every request the mix can send and computes its expected reply
  /// locally: the same units through flow::run, the same suites through
  /// the sweep engine.
  void build_candidates(Report& report) {
    for (auto& list : candidates_) list.clear();
    units_.clear();
    zs::flow::CompileCache cache;
    const std::vector<std::string> kernels = registry_kernels();
    const zs::harness::ExecMode modes[] = {
        {zs::harness::SimEngine::kIss, false},
        {zs::harness::SimEngine::kIss, true}};
    auto wide = zs::scenario::parse_geometry("32t-16l-4x-4e");
    if (!wide.ok()) {
      report.fail("geometry: " + wide.error().message);
      return;
    }
    const zs::zolc::ZolcGeometry geometries[] = {zs::zolc::ZolcGeometry{},
                                                 wide.value()};

    auto resolve = [&](const zs::flow::CompileSpec& spec)
        -> std::shared_ptr<const zs::flow::CompiledUnit> {
      const std::size_t before = cache.stats().compiles;
      Scope scope("flow.cache");
      auto unit = cache.get_or_compile(spec);
      if (cache.stats().compiles != before) scope.rename("flow.compile");
      if (!unit.ok()) {
        report.fail("compile " + spec.kernel + ": " + unit.error().message);
        return nullptr;
      }
      return unit.value();
    };

    for (const std::string& kernel : kernels) {
      for (const zs::codegen::MachineKind machine : zs::codegen::kAllMachines) {
        const std::string unit_members =
            ", \"kernel\": " + json_quoted(kernel) +
            ", \"machine\": " + json_quoted(zs::codegen::machine_name(machine));
        const auto unit = resolve({kernel, machine, {}, {}});
        if (!unit) return;
        units_.push_back(unit);
        {
          Scope scope("flow.image");
          (void)unit->prepared_image();
        }
        const bool zolc =
            zs::codegen::machine_zolc_variant(machine).has_value();
        for (const zs::harness::ExecMode& mode : modes) {
          const std::string mode_member =
              ", \"mode\": " + json_quoted(zs::harness::mode_name(mode));
          zs::flow::RunPlan plan;
          plan.mode = mode;
          expect_run(RequestKind::kRun, *unit, plan,
                     request_head("run") + unit_members + mode_member + "}",
                     report);
          if (!zolc) continue;
          plan.tenants = 2;
          plan.preempt_every = kPreemptEvery;
          plan.preempt_serialize = true;
          expect_run(RequestKind::kRunPreempt, *unit, plan,
                     request_head("run") + unit_members + mode_member +
                         ", \"tenants\": 2, \"preempt_every\": " +
                         std::to_string(kPreemptEvery) +
                         ", \"preempt_serialize\": true}",
                     report);
        }
        for (const zs::zolc::ZolcGeometry& geometry : geometries) {
          const auto compiled = resolve({kernel, machine, geometry, {}});
          if (!compiled) return;
          Candidate c;
          c.payload = request_head("compile") + unit_members +
                      ", \"geometry\": " + json_quoted(geometry.label()) + "}";
          c.code_words = compiled->program().size_words();
          list(RequestKind::kCompile).push_back(std::move(c));
        }
      }
    }
    // reduction_pct: ZOLCfull against XRdefault on the plain ISS, per
    // kernel. Every run reply is checked against these local results.
    std::vector<std::uint64_t> baseline, full;
    for (const Candidate& c : list(RequestKind::kRun)) {
      const zs::harness::ExperimentResult& e = c.expected;
      if (e.mode.fast_path) continue;
      if (e.machine == zs::codegen::MachineKind::kXrDefault) {
        baseline.push_back(e.stats.cycles);
      } else if (e.machine == zs::codegen::MachineKind::kZolcFull) {
        full.push_back(e.stats.cycles);
      }
    }
    double reduction = 0.0;
    for (std::size_t k = 0; k < baseline.size() && k < full.size(); ++k) {
      reduction += zs::harness::percent_reduction(baseline[k], full[k]);
    }
    reduction_ =
        reduction / static_cast<double>(std::max<std::size_t>(1, full.size()));

    // Small inline sweeps: each pair of neighbouring registry kernels on
    // both ends of the machine range, so every seed can send the same
    // sweeps and only the data seed (the benchmark seed's) and the picks
    // differ. Kernels differ in length by two orders of magnitude; seeded
    // kernel pairs made the mean batch cost depend on the seed.
    for (std::size_t d = 0; d < kernels.size(); ++d) {
      const std::size_t first = d;
      const std::size_t second = (d + 1) % kernels.size();
      Candidate c;
      c.suite = R"({"suite": "serve-mix-)" + std::to_string(d) +
                R"(", "version": 1,
  "description": "inline sweep of the benchmark",
  "sweep": {"kernels": [)" +
                json_quoted(kernels[first]) + ", " +
                json_quoted(kernels[second]) +
                R"(], "machines": ["XRdefault", "ZOLCfull"],
  "modes": ["iss-fast"], "env": {"seed": )" +
                std::to_string(env_seed(seed_) + d) + "}}}";
      auto suite = zs::scenario::parse_suite(c.suite, "serve-mix sweep");
      if (!suite.ok()) {
        report.fail("serve-mix sweep suite: " + suite.error().message);
        return;
      }
      zs::harness::SweepSpec spec = suite.value().sweep;
      spec.threads = 1;
      auto swept = zs::harness::run_sweep(spec, cache);
      if (!swept.ok()) {
        report.fail("serve-mix sweep: " + swept.error().message);
        return;
      }
      {
        Scope scope("harness.emit");
        c.csv = swept.value().to_csv();
      }
      auto payload = zs::server::sweep_request(c.suite, false);
      if (!payload.ok()) {
        report.fail("sweep request: " + payload.error().message);
        return;
      }
      c.payload = std::move(payload).value();
      list(RequestKind::kSweep).push_back(std::move(c));
    }
    Candidate stats;
    stats.payload = zs::server::simple_request(zs::server::RequestType::kStats);
    list(RequestKind::kStats).push_back(std::move(stats));
    Candidate ping;
    ping.payload = zs::server::simple_request(zs::server::RequestType::kPing);
    list(RequestKind::kPing).push_back(std::move(ping));
  }

  void expect_run(RequestKind kind, const zs::flow::CompiledUnit& unit,
                  const zs::flow::RunPlan& plan, std::string payload,
                  Report& report) {
    auto result = zs::flow::run(unit, plan);
    if (!result.ok()) {
      report.fail("local run " + std::string(unit.kernel().name()) + ": " +
                  result.error().message);
      return;
    }
    Candidate c;
    c.payload = std::move(payload);
    c.expected = std::move(result).value();
    list(kind).push_back(std::move(c));
  }

  /// Sends one request, times it as the client sees it and checks the
  /// reply. Failures are counted in `report`.
  void send(RequestKind kind, std::size_t choice, Report& report,
            Tally& tally, bool traced) {
    const std::size_t k = static_cast<std::size_t>(kind);
    const Candidate& c = candidates_[k][choice];
    tracer().op = ++op_;
    ++report.attempted;
    const char* name = request_kind_name(kind);
    {
      Scope scope("protocol.parse_request");
      if (!report.check(zs::server::parse_request(c.payload).ok(),
                        std::string(name) + " request parses")) {
        return;
      }
    }
    if (kind == RequestKind::kSweep) {
      Scope scope("scenario.parse");
      if (!report.check(zs::scenario::parse_suite(c.suite, "serve-mix").ok(),
                        "sweep suite parses")) {
        return;
      }
    }
    const auto started = Clock::now();
    auto raw = [&] {
      Scope scope(request_span(kind));
      return client_->call_raw(c.payload);
    }();
    if (!raw.ok()) {
      report.fail(std::string(name) + " call: " + raw.error().message);
      return;
    }
    auto reply = [&] {
      Scope scope("protocol.parse_reply");
      return zs::server::parse_reply(raw.value());
    }();
    const double seconds = seconds_between(started, Clock::now());
    if (measuring_ && !traced) request_ms_.push_back(seconds * 1e3);
    if (traced) traced_us_[k].push_back(seconds * 1e6);
    if (measuring_ && kind == RequestKind::kStats) {
      stats_us_[batches_].push_back(seconds * 1e6);
    }
    if (!reply.ok()) {
      report.fail(std::string(name) + " reply: " + reply.error().message);
      return;
    }
    check_reply(kind, c, reply.value(), seconds, report, tally, traced);
  }

  bool check_reply(RequestKind kind, const Candidate& c,
                   const zs::json::Value& reply, double seconds,
                   Report& report, Tally& tally, bool traced) {
    const std::string what = std::string(request_kind_name(kind)) + " reply";
    auto field = [&](std::string_view key) -> std::uint64_t {
      auto v = zs::server::reply_uint(reply, key);
      return v.ok() ? v.value() : ~std::uint64_t{0};
    };
    switch (kind) {
      case RequestKind::kRun:
      case RequestKind::kRunPreempt: {
        const auto& e = c.expected;
        const bool same =
            field("cycles") == e.stats.cycles &&
            field("instructions") == e.stats.instructions &&
            field("continue_events") == e.zolc_stats.continue_events &&
            field("done_events") == e.zolc_stats.done_events &&
            field("table_writes") == e.zolc_stats.table_writes &&
            field("tenants") == e.tenants &&
            field("ctx_switches") == e.context_switches &&
            field("ctx_switch_cycles") == e.context_switch_cycles;
        if (!report.check(same, what + " equals local flow::run of " +
                                    e.kernel)) {
          return false;
        }
        tally.exec(std::string(zs::harness::mode_name(e.mode)),
                   e.stats.instructions, e.stats.cycles, seconds);
        if (traced) {
          traced_counts_["zolc.ctx_switches"] +=
              static_cast<double>(e.context_switches);
          traced_counts_["zolc.events"] += static_cast<double>(
              e.zolc_stats.continue_events + e.zolc_stats.done_events);
          traced_counts_["zolc.table_writes"] +=
              static_cast<double>(e.zolc_stats.table_writes);
        }
        return true;
      }
      case RequestKind::kCompile:
        return report.check(field("code_words") == c.code_words,
                            what + " code_words");
      case RequestKind::kSweep: {
        auto output = zs::server::reply_string(reply, "output");
        return report.check(output.ok() && output.value() == c.csv,
                            what + " CSV equals the local sweep");
      }
      case RequestKind::kStats:
        return report.check(field("requests") != ~std::uint64_t{0},
                            what + " carries a request count");
      case RequestKind::kPing: {
        auto head = zs::server::reply_string(reply, "reply");
        return report.check(head.ok() && head.value() == "pong", what);
      }
    }
    return false;
  }

  std::uint32_t seed_;
  RequestStream stream_;
  std::array<std::vector<Candidate>, kRequestKinds> candidates_;
  UnitList units_;
  std::string socket_;
  std::unique_ptr<zs::server::Server> server_;
  std::optional<zs::server::Client> client_;
  std::array<std::vector<double>, kRequestKinds> traced_us_;
  /// `stats` latency by the batch's place in its daemon's life.
  std::array<std::vector<double>, kBatchesPerDaemon> stats_us_;
  std::vector<double> request_ms_;
  bool measuring_ = false;  ///< set once passes start (after set-up)
  unsigned batches_ = 0;    ///< the batch being sent in the current pass
  std::map<std::string, double> traced_counts_;
  unsigned traced_passes_ = 0;
  std::uint64_t op_ = 0;
  double reduction_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_serve_mix(std::uint32_t seed) {
  return std::make_unique<ServeMix>(seed);
}

}  // namespace zolcbench
