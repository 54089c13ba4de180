// Shared pieces of the zolcsim benchmark program (zolcbench): the span
// tracer, order statistics, the per-run report and the per-workload
// tallies that the end-to-end metrics are computed from.
//
// Every timing is host time from std::chrono::steady_clock, taken outside
// the library: zolcbench wraps each call into a layer's public functions
// in a span and never changes the library itself.
#ifndef ZOLCBENCH_BENCH_HPP
#define ZOLCBENCH_BENCH_HPP

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "flow/compiled_unit.hpp"
#include "flow/run.hpp"
#include "harness/sweep.hpp"

namespace zolcbench {

using Clock = std::chrono::steady_clock;
using UnitList =
    std::vector<std::shared_ptr<const zolcsim::flow::CompiledUnit>>;

[[nodiscard]] inline double seconds_between(Clock::time_point from,
                                            Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

// ---- order statistics ----

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}
/// The highest whole percentile (as q in [0, 1]) of `samples` values that
/// keeps at least ten samples beyond it; 0.5 when there are fewer than 20.
[[nodiscard]] double tail_level(std::size_t samples);

// ---- tracing ----

/// In-memory span recorder. A span has a name, the cell or request id it
/// belongs to, the span that was open when it started (its parent) and its
/// start/end in ns since the tracer was created. Spans are only recorded
/// while `enabled`; the untraced run pays one branch per wrapped call.
class Tracer {
 public:
  struct Span {
    const char* name = "";
    std::uint64_t op = 0;
    std::int32_t parent = -1;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  bool enabled = false;
  std::uint64_t op = 0;  ///< id of the cell or request being worked on

  [[nodiscard]] std::int32_t open(const char* name);
  void close(std::int32_t index);
  void rename(std::int32_t index, const char* name) {
    spans_[static_cast<std::size_t>(index)].name = name;
  }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

  /// Self time (span minus the children it covers) of every recorded span,
  /// grouped by span name, in ns.
  [[nodiscard]] std::map<std::string, std::vector<double>> self_ns() const;

  /// Writes the spans as Chrome trace-event JSON (one complete event per
  /// span, op id in args). Returns false on an I/O failure.
  [[nodiscard]] bool write_chrome(const std::string& path) const;

 private:
  [[nodiscard]] std::int64_t now_ns() const;

  Clock::time_point origin_ = Clock::now();
  std::int32_t open_ = -1;
  std::vector<Span> spans_;
};

[[nodiscard]] Tracer& tracer();

/// RAII span around one call into a layer.
class Scope {
 public:
  explicit Scope(const char* name)
      : index_(tracer().enabled ? tracer().open(name) : -1) {}
  ~Scope() {
    if (index_ >= 0) tracer().close(index_);
  }
  /// Renames the span once the call shows which layer did the work (a
  /// cache lookup that turned out to compile, say).
  void rename(const char* name) {
    if (index_ >= 0) tracer().rename(index_, name);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  std::int32_t index_;
};

// ---- results ----

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one benchmark run reports: metrics, the attempted/failed operation
/// counts, and human-readable notes printed before the result line.
struct Report {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few failure messages
  std::vector<std::string> notes;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Counts one failed operation or correctness gate.
  void fail(std::string message);
  /// Counts a failed gate when `ok` is false; returns `ok`.
  bool check(bool ok, std::string_view what);
};

/// Per-pass accounting shared by the workloads. zolcbench keeps one tally
/// for untraced passes (the end-to-end metrics) and one for traced passes
/// (the per-layer metrics), so tracing cost never leaks into end-to-end
/// numbers.
struct Tally {
  std::uint64_t ops = 0;  ///< cells or requests completed
  /// Simulated instructions and cycles, and the host seconds spent
  /// executing them, per engine name ("pipeline", "iss", "iss-fast").
  std::map<std::string, std::uint64_t> instructions;
  std::map<std::string, std::uint64_t> cycles;
  std::map<std::string, double> exec_s;

  void exec(const std::string& engine, std::uint64_t instrs,
            std::uint64_t cycles_run, double seconds) {
    instructions[engine] += instrs;
    cycles[engine] += cycles_run;
    exec_s[engine] += seconds;
  }

  /// One sample per pass, appended by the pass loop.
  std::vector<double> pass_s;
  std::vector<double> ops_per_s;
  std::vector<double> mips;       ///< every engine the pass ran
  std::vector<double> mips_fast;  ///< iss-fast only
};

/// One benchmark workload. setup() is run several times (zolcbench reports
/// the 90th percentile as setup_s and keeps the last state); pass() is one
/// unit of measured work, repeated until the run's time is spent.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual void setup(Report& report) = 0;
  virtual void pass(Report& report, Tally& tally) = 0;
  /// Untimed clean-up after each pass.
  virtual void after_pass(Report& report) { (void)report; }
  /// Units whose hot primitives the traced run probes.
  [[nodiscard]] virtual UnitList probe_units() const = 0;
  /// The paper's metric: mean simulated-cycle reduction of ZOLCfull against
  /// XRdefault, in percent.
  [[nodiscard]] virtual double reduction_pct() const = 0;
  /// The per-layer metrics the workload measures itself: counts from the
  /// library's statistics structs, server request latencies and the like.
  virtual void layer_metrics(Report& report) const = 0;
};

[[nodiscard]] std::unique_ptr<Workload> make_exec_scale8(std::uint32_t seed);
[[nodiscard]] std::unique_ptr<Workload> make_paper_cold(std::uint32_t seed);
[[nodiscard]] std::unique_ptr<Workload> make_serve_mix(std::uint32_t seed);

/// Directory for the run's temporary files (unit stores, the server socket),
/// relative to the working directory; created on first use.
[[nodiscard]] const std::string& temp_dir();

/// Batched calls to the hot primitives over inputs taken from `units`:
/// decode, Memory::read32/write32, Pipeline::cycle, the controller's
/// will_trigger/on_fetch and the context codec. Adds one metric each.
void probe_primitives(const UnitList& units, Report& report);

/// Runs one cell the way a sweep does, one layer call per span:
/// Workload::prepare_warm, flow::run (span "cpu.<mode>", which also holds
/// the library's own verify), then Workload::verify as the benchmark's
/// correctness gate. Adds the execution time to `tally` and the cell's
/// data accesses to `data_accesses`. Returns nullopt after counting a
/// failure in `report`.
[[nodiscard]] std::optional<zolcsim::harness::ExperimentResult> run_cell(
    const zolcsim::flow::CompiledUnit& unit,
    const zolcsim::flow::RunPlan& plan, Tally& tally, Report& report,
    std::uint64_t& data_accesses);

/// Lays `results` (in kernel, machine, geometry, mode order) out as the
/// sweep engine's SweepReport, so the harness emitters can render it.
[[nodiscard]] zolcsim::harness::SweepReport make_sweep_report(
    const zolcsim::harness::SweepSpec& spec,
    std::vector<zolcsim::harness::ExperimentResult> results);

/// Every statistic an ISS and a fast-path run must agree on.
[[nodiscard]] bool same_statistics(const zolcsim::harness::ExperimentResult& a,
                                   const zolcsim::harness::ExperimentResult& b);

/// Renders CSV and JSON (span "harness.emit") and returns the CSV digest.
[[nodiscard]] std::uint64_t emit_digest(
    const zolcsim::harness::SweepReport& report);

// ---- the serve-mix request stream ----

enum class RequestKind : std::uint8_t {
  kRun, kRunPreempt, kCompile, kSweep, kStats, kPing
};
inline constexpr std::size_t kRequestKinds = 6;
[[nodiscard]] const char* request_kind_name(RequestKind kind);

/// The seeded request sequence of serve-mix: batches with fixed counts per
/// kind, in a seeded order, each request picking one of the `choices[kind]`
/// candidates of its kind.
class RequestStream {
 public:
  struct Pick {
    RequestKind kind = RequestKind::kPing;
    std::size_t choice = 0;
  };

  explicit RequestStream(std::uint64_t seed) : rng_(seed) {}

  /// Requests of each kind in one batch (one pass).
  [[nodiscard]] static std::array<unsigned, kRequestKinds> batch_shares();

  [[nodiscard]] std::vector<Pick> next_batch(
      const std::array<std::size_t, kRequestKinds>& choices);

 private:
  std::mt19937_64 rng_;
};

/// Every registered kernel: the paper suite, then the extended kernels.
[[nodiscard]] std::vector<std::string> registry_kernels();

/// The kernel environment every workload derives from the run's seed.
[[nodiscard]] std::uint32_t env_seed(std::uint32_t seed);

}  // namespace zolcbench

#endif  // ZOLCBENCH_BENCH_HPP
