// zolcsim -- CLI driver over the staged toolchain (src/flow).
//
//   zolcsim list                       catalog kernels / machines / defaults
//   zolcsim compile <kernel> [...]     compile stage: unit summary, disasm,
//                                      zolcscan report
//   zolcsim run <kernel> [...]         compile + run one experiment
//   zolcsim sweep [...]                grid sweep, CSV/JSON to stdout/file
//   zolcsim bench [...]                run scenario suites, emit BENCH_*.json
//   zolcsim store stat|gc [...]        inspect / clean an on-disk unit store
//   zolcsim serve [...]                long-running daemon on a Unix socket
//   zolcsim client <action> [...]      talk to a serve daemon
//
// Run `zolcsim help` (or any subcommand with bad flags) for the full flag
// list. Exit codes: 0 success, 1 toolchain error, 2 usage error.
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <limits>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "cli.hpp"
#include "common/json.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "flow/cache.hpp"
#include "flow/compiled_unit.hpp"
#include "flow/run.hpp"
#include "flow/unit_store.hpp"
#include "harness/sweep.hpp"
#include "kernels/kernels.hpp"
#include "scenario/runner.hpp"
#include "server/client.hpp"
#include "server/server.hpp"

namespace {

using namespace zolcsim;

constexpr const char* kUsage = R"(zolcsim -- staged ZOLC toolchain driver

usage: zolcsim <command> [flags]

commands:
  list                      kernels (paper + extended), machines, defaults
  compile <kernel>          compile stage only; prints the unit summary
      --machine=NAME        machine configuration   (default ZOLCfull)
      --geometry=LABEL      ZOLC geometry, e.g. 32t-8l-4x-4e[-p14]
      --disasm              print the lowered program disassembly
      --scan                print the zolcscan post-link analysis
      --format=text|json    json: program words + table image + scan
  run <kernel>              compile + execute + verify one experiment
      --machine=NAME --geometry=LABEL
      --config=NAME         pipeline config, e.g. EX-resolve/rollback[/nofwd]
      --mode=NAME           pipeline (cycle-accurate, default), iss, or
                            iss-fast (ISS with the loop-summary fast path)
      --max-cycles=N        cycle budget          (default 200000000)
      --preempt-every=N     ISS only: save/clobber/restore the full ZOLC
                            context every N instructions (differential knob)
      --preempt-serialize   round-trip each saved context through JSON
      --tenants=N           time-slice N copies of the workload over one
                            controller (ISS only; reports switch cost)
  sweep                     kernel x machine x config x geometry x mode grid
      --kernels=a,b,...     default: the 12-kernel paper suite
      --machines=a,b,...    default: all five machines
      --configs=a,b,...     default: EX-resolve/rollback
      --geometries=a,b,...  default: the paper prototype geometry
      --modes=a,b,...       pipeline|iss|iss-fast (default pipeline)
      --tenants=a,b,...     tenant-count axis     (default 1; ISS modes only)
      --preempt-every=N --preempt-serialize
      --baseline=NAME       reduction baseline    (default XRdefault)
      --max-cycles=N --threads=N
      --store-dir=DIR       on-disk unit store: reload compiled units from
                            DIR and write fresh compiles back
      --format=csv|json     default csv
      --out=FILE            default stdout
      --from-file=SUITE     run a scenario suite file instead of grid flags
                            (verifies the suite's golden digest + thresholds)
  bench                     run scenario suites, write BENCH_<suite>.json
      --suite-dir=DIR       directory of *.json suite files
      --out-dir=DIR         artifact directory    (default .)
      --threads=N --store-dir=DIR
      --expect-zero-compiles  fail (exit 1) if any unit was compiled rather
                            than served from memory or the store
  bench --compare OLD NEW   diff two BENCH artifact directories per point
      --tolerance=PCT       allowed MIPS regression (default 10)
  store stat                inventory a unit store directory
  store gc                  drop stale/corrupt artifacts from a store
      --store-dir=DIR       (required for both store subcommands)
  serve                     daemon: zolcsim-serve-v1 over a Unix socket,
                            one warm compile cache shared by every request
      --socket=PATH         socket path (required)
      --store-dir=DIR       attach an on-disk unit store
      --workers=N           connection workers     (default 4)
      --sweep-threads=N     sweep threads per request (default hardware)
      --idle-timeout-ms=N   close silent connections (default 30000)
                            SIGTERM/SIGINT and a client "shutdown" request
                            both drain gracefully: in-flight requests
                            finish and their replies flush before exit
  client <action>           one request against a serve daemon
      --socket=PATH         socket path (required)
      actions: ping | stats | store-stat | shutdown
        compile <kernel>    --machine=NAME --geometry=LABEL
        run <kernel>        ... plus the `run` flags above
        sweep               --from-file=SUITE --format=csv|json --out=FILE
                            --expect-zero-compiles --expect-zero-prepares
                            (output is byte-identical to local
                            `zolcsim sweep --from-file`)
        bench-suite         --from-file=SUITE --out-dir=DIR
exit codes: 0 ok, 1 toolchain error / comparison failure, 2 usage error
)";

/// One compile cache for the whole process: consecutive suites (and a
/// sweep following them) share warm units, which is the point of the
/// caller-supplied-cache run_sweep overload.
flow::CompileCache& process_cache() {
  static flow::CompileCache cache;
  return cache;
}

int usage_error(const std::string& message) {
  std::fprintf(stderr, "%s\n\n%s", message.c_str(), kUsage);
  return 2;
}

int toolchain_error(const Error& error) {
  std::fprintf(stderr, "%s\n", cli::render_error(error).c_str());
  return 1;
}

/// A malformed flag value is a usage error (exit 2), same class as an
/// unknown flag -- toolchain_error (exit 1) is reserved for failures of the
/// flow itself (compile / run / sweep / io). An unknown kernel stays exit 1
/// whether the sweep codec or the compile stage finds it.
int bad_flag_value(const Error& error) {
  std::fprintf(stderr, "%s\n", cli::render_error(error).c_str());
  return error.code == ErrorCode::kUnknownKernel ? 1 : 2;
}

/// Fetches "--name=value", rejecting an explicitly empty value. Returns
/// nullopt when the flag is absent; sets `rc` non-zero on empty values.
std::optional<std::string> nonempty_value(const cli::Args& args,
                                          std::string_view name, int& rc) {
  const auto value = args.value_of(name);
  if (value && value->empty()) {
    rc = usage_error("empty value for --" + std::string(name));
    return std::nullopt;
  }
  return value;
}

/// Fetches "--name=N" as a strictly positive integer (no truncation:
/// anything non-numeric, <= 0, or beyond `max` is a usage error). Returns
/// nullopt when the flag is absent; sets `rc` non-zero on bad values.
std::optional<std::uint64_t> positive_int_flag(
    const cli::Args& args, std::string_view name, int& rc,
    std::uint64_t max = std::numeric_limits<std::int64_t>::max()) {
  const auto value = nonempty_value(args, name, rc);
  if (!value) return std::nullopt;
  const auto n = parse_int(*value);
  if (!n || *n <= 0 || static_cast<std::uint64_t>(*n) > max) {
    rc = usage_error("bad --" + std::string(name) + " value '" + *value +
                     "'");
    return std::nullopt;
  }
  return static_cast<std::uint64_t>(*n);
}

/// Rejects flags outside `values`/`switches` and the request-member
/// `tables`.
int reject_unknown_flags(
    const cli::Args& args, std::vector<std::string_view> values,
    std::vector<std::string_view> switches,
    std::initializer_list<std::span<const cli::MemberFlag>> tables = {}) {
  for (const std::span<const cli::MemberFlag> table : tables) {
    for (const cli::MemberFlag& flag : table) {
      (flag.kind == cli::FlagKind::kSwitch ? switches : values)
          .push_back(flag.name);
    }
  }
  const std::vector<std::string> unknown = args.unknown(values, switches);
  if (unknown.empty()) return 0;
  return usage_error("unknown flag '" + unknown.front() + "'");
}

/// Attaches the on-disk unit store named by --store-dir (if present) to the
/// process cache. The store must outlive the cache, hence the static.
/// Returns 0, or a usage-error exit code for an empty flag value.
int attach_store_flag(const cli::Args& args) {
  int rc = 0;
  const auto dir = nonempty_value(args, "store-dir", rc);
  if (rc != 0) return rc;
  if (dir) {
    static std::optional<flow::UnitStore> store;
    store.emplace(*dir);
    process_cache().attach_store(&*store);
  }
  return 0;
}

/// --format=csv|json (default csv). Returns 0 and sets `json`, or a usage
/// error exit code.
int csv_json_flag(const cli::Args& args, bool& json) {
  int rc = 0;
  const auto format = nonempty_value(args, "format", rc);
  if (rc != 0 || !format) return rc;
  if (*format != "csv" && *format != "json") {
    return usage_error("bad --format value '" + *format + "' (csv or json)");
  }
  json = *format == "json";
  return 0;
}

Result<std::string> read_text_file(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    return Error{ErrorCode::kIo, "cannot read '" + path + "'"};
  }
  std::ostringstream text;
  text << file.rdbuf();
  return text.str();
}

/// Writes `content` to `path`, or to stdout when `path` is absent. Returns
/// 0 or the toolchain-error exit code.
int write_output(const std::optional<std::string>& path,
                 const std::string& content) {
  if (!path) {
    std::fputs(content.c_str(), stdout);
    return 0;
  }
  std::ofstream file(*path, std::ios::binary);
  file << content;
  file.flush();  // surface deferred write errors (e.g. disk full) here
  if (file.good()) return 0;
  return toolchain_error(Error{ErrorCode::kIo, "cannot write '" + *path + "'"});
}

/// Creates the artifact directory `dir`. Returns 0 or an exit code.
int make_artifact_dir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (!ec) return 0;
  return toolchain_error(Error{ErrorCode::kIo,
                               "cannot create artifact directory '" + dir +
                                   "': " + ec.message()});
}

// ---------------------------------------------------------------- list ----

void list_registry(const char* title,
                   const std::vector<std::unique_ptr<kernels::Kernel>>& reg) {
  std::printf("%s:\n", title);
  TextTable table({"kernel", "description"});
  for (const auto& kernel : reg) {
    table.add_row({std::string(kernel->name()),
                   std::string(kernel->description())});
  }
  std::printf("%s\n", table.render().c_str());
}

int cmd_list() {
  list_registry("paper suite", kernels::kernel_registry());
  list_registry("extended (geometry exploration)",
                kernels::extended_kernel_registry());
  std::printf("machines:");
  for (const codegen::MachineKind machine : codegen::kAllMachines) {
    std::printf(" %s", std::string(codegen::machine_name(machine)).c_str());
  }
  std::printf("\ndefault geometry: %s\n",
              zolc::ZolcGeometry{}.label().c_str());
  return 0;
}

// ----------------------------------------------------- compile helpers ----

void print_unit_summary(const flow::CompiledUnit& unit) {
  const codegen::Program& program = unit.program();
  std::printf("unit: %s (%s) geometry %s\n", unit.spec().kernel.c_str(),
              std::string(codegen::machine_name(unit.machine())).c_str(),
              unit.geometry().label().c_str());
  std::printf(
      "  code words        %zu\n  init instructions %u\n"
      "  hw loops          %u\n  sw loops          %u\n",
      program.size_words(), program.init_instructions, program.hw_loop_count,
      program.sw_loop_count);
  for (const std::string& note : program.notes) {
    std::printf("  note: %s\n", note.c_str());
  }
}

void print_scan_report(const flow::CompiledUnit& unit) {
  const cfg::ScanReport& scan = unit.scan();
  std::printf("zolcscan: %zu accelerable counted loop(s)\n",
              scan.candidates.size());
  for (const cfg::MicroPlan& plan : scan.candidates) {
    std::printf("  depth %u: pc [%s, %s] index r%u, %d..%d step %d\n",
                plan.depth, hex32(plan.start_pc).c_str(),
                hex32(plan.end_pc).c_str(), plan.index_reg, plan.initial,
                plan.final, plan.step);
  }
  for (const Error& reason : scan.rejected) {
    std::printf("  rejected[%s]: %s\n",
                std::string(error_code_name(reason.code)).c_str(),
                reason.to_string().c_str());
  }
}

int cmd_compile(const cli::Args& args) {
  if (const int rc = reject_unknown_flags(args, {"format"}, {"disasm", "scan"},
                                          {cli::kUnitFlags})) {
    return rc;
  }
  if (args.positional.size() != 1) {
    return usage_error("expected exactly one kernel name");
  }
  flow::CompileSpec spec;
  flow::RunPlan plan;  // compile takes no plan flags; stays default
  if (auto parsed = cli::unit_from_flags(args.positional.front(), args,
                                         cli::kUnitFlags, spec, plan);
      !parsed.ok()) {
    return bad_flag_value(parsed.error());
  }
  int rc = 0;
  bool json_format = false;
  if (const auto format = nonempty_value(args, "format", rc)) {
    if (*format != "text" && *format != "json") {
      return usage_error("bad --format value '" + *format +
                         "' (text or json)");
    }
    json_format = *format == "json";
  }
  if (rc != 0) return rc;
  auto unit = flow::CompiledUnit::compile(spec);
  if (!unit.ok()) return toolchain_error(unit.error());
  if (json_format) {
    // The JSON artifact subsumes --disasm/--scan: words, tables, and the
    // full scan report are always present.
    std::fputs(unit.value().to_json().c_str(), stdout);
    return 0;
  }
  print_unit_summary(unit.value());
  if (args.has("disasm")) {
    std::printf("\n%s", unit.value().disassembly().c_str());
  }
  if (args.has("scan")) {
    std::printf("\n");
    print_scan_report(unit.value());
  }
  return 0;
}

// ----------------------------------------------------------------- run ----

int cmd_run(const cli::Args& args) {
  if (const int rc = reject_unknown_flags(args, {}, {}, {cli::kRunFlags})) {
    return rc;
  }
  if (args.positional.size() != 1) {
    return usage_error("expected exactly one kernel name");
  }
  flow::CompileSpec spec;
  flow::RunPlan plan;
  if (auto parsed = cli::unit_from_flags(args.positional.front(), args,
                                         cli::kRunFlags, spec, plan);
      !parsed.ok()) {
    return bad_flag_value(parsed.error());
  }

  auto unit = flow::CompiledUnit::compile(spec);
  if (!unit.ok()) return toolchain_error(unit.error());
  auto result = flow::run(unit.value(), plan);
  if (!result.ok()) return toolchain_error(result.error());

  const harness::ExperimentResult& r = result.value();
  print_unit_summary(unit.value());
  std::printf(
      "run: config %s mode %s\n  cycles            %llu\n"
      "  instructions      %llu\n  continue events   %llu\n"
      "  done events       %llu\n  table writes      %llu\n"
      "  verification      ok\n",
      harness::config_name(plan.config).c_str(),
      std::string(harness::mode_name(plan.mode)).c_str(),
      static_cast<unsigned long long>(r.stats.cycles),
      static_cast<unsigned long long>(r.stats.instructions),
      static_cast<unsigned long long>(r.zolc_stats.continue_events),
      static_cast<unsigned long long>(r.zolc_stats.done_events),
      static_cast<unsigned long long>(r.zolc_stats.table_writes));
  if (plan.mode.fast_path) {
    std::printf(
        "  fast path         %llu/%llu engagements, %llu replayed instrs, "
        "%llu bailouts\n",
        static_cast<unsigned long long>(r.fastpath.engagements),
        static_cast<unsigned long long>(r.fastpath.attempts),
        static_cast<unsigned long long>(r.fastpath.replayed_instructions),
        static_cast<unsigned long long>(r.fastpath.total_bailouts()));
  }
  if (plan.tenants != 1 || plan.preempt_every != 0) {
    std::printf(
        "  tenants           %u\n  ctx switches      %llu\n"
        "  ctx switch cost   %llu cycle(s)\n",
        r.tenants, static_cast<unsigned long long>(r.context_switches),
        static_cast<unsigned long long>(r.context_switch_cycles));
  }
  return 0;
}

// --------------------------------------------------------------- sweep ----

/// Renders a sweep report to --out/stdout per --format. Shared by the grid
/// and --from-file paths of `sweep`.
int emit_sweep_report(const harness::SweepReport& report, bool json,
                      const std::optional<std::string>& out_path) {
  if (const int rc =
          write_output(out_path, json ? report.to_json() : report.to_csv())) {
    return rc;
  }
  if (out_path) {
    std::fprintf(stderr,
                 "wrote %zu cells to %s (%zu compiles, %zu store hits, "
                 "%zu cache hits)\n",
                 report.cells.size(), out_path->c_str(),
                 report.compile_cache_compiles,
                 report.compile_cache_store_hits, report.compile_cache_hits);
  }
  return 0;
}

int cmd_sweep(const cli::Args& args) {
  const std::vector<std::string_view> run_flags = {
      "threads", "format", "out", "from-file", "store-dir"};
  if (const int rc = reject_unknown_flags(
          args, run_flags, {}, {cli::kGridFlags, cli::kSweepPlanFlags})) {
    return rc;
  }
  if (!args.positional.empty()) {
    return usage_error("sweep takes no positional arguments");
  }
  if (const int rc = attach_store_flag(args)) return rc;
  int rc = 0;
  const auto suite_path = nonempty_value(args, "from-file", rc);
  unsigned threads = 0;
  if (const auto n = positive_int_flag(args, "threads", rc, 4096)) {
    threads = static_cast<unsigned>(*n);
  }
  bool json = false;
  if (const int format_rc = csv_json_flag(args, json)) return format_rc;
  const auto out_path = nonempty_value(args, "out", rc);
  if (rc != 0) return rc;

  if (suite_path) {
    // Suite mode: the file is the grid; only execution/output flags apply.
    const std::vector<std::string> grid = args.unknown(run_flags, {});
    if (!grid.empty()) {
      return usage_error(grid.front() +
                         " conflicts with --from-file (the suite file "
                         "defines the grid)");
    }
    auto suite = scenario::load_suite_file(*suite_path);
    if (!suite.ok()) return toolchain_error(suite.error());
    scenario::RunOptions options;
    options.threads = threads;
    auto outcome =
        scenario::run_suite(suite.value(), process_cache(), options);
    if (!outcome.ok()) return toolchain_error(outcome.error());
    return emit_sweep_report(outcome.value().report, json, out_path);
  }

  auto spec = cli::sweep_from_flags(args);
  if (!spec.ok()) return bad_flag_value(spec.error());
  spec.value().threads = threads;
  const auto swept = harness::run_sweep(spec.value(), process_cache());
  if (!swept.ok()) return toolchain_error(swept.error());
  return emit_sweep_report(swept.value(), json, out_path);
}

// --------------------------------------------------------------- bench ----

// ----------------------------------------------------- bench --compare ----

/// One data point of a BENCH artifact, keyed for cross-artifact matching.
struct BenchPoint {
  std::string key;  ///< "kernel|machine|config|geometry|mode|tenants"
  std::uint64_t cycles = 0;
  double mips = 0.0;
};

/// Loads the points of one BENCH_*.json artifact (the current schema only).
/// A point without "tenants" is single-tenant: the field is gated on the
/// suite sweeping the tenant axis.
Result<std::vector<BenchPoint>> load_bench_points(const std::string& path) {
  auto text = read_text_file(path);
  if (!text.ok()) return std::move(text).error();
  auto document = json::parse(text.value());
  if (!document.ok()) {
    return std::move(document).error().with_context("artifact " + path);
  }
  const json::Value& root = document.value();
  const json::Value* schema = root.find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->as_string() != scenario::kBenchSchema) {
    return Error{ErrorCode::kParse, "'" + path + "' is not a " +
                                        std::string(scenario::kBenchSchema) +
                                        " artifact"};
  }
  const json::Value* points = root.find("points");
  if (points == nullptr || !points->is_array()) {
    return Error{ErrorCode::kParse, "'" + path + "' has no points array"};
  }
  std::vector<BenchPoint> out;
  for (const json::Value& point : points->items()) {
    BenchPoint p;
    for (const char* part :
         {"kernel", "machine", "config", "geometry", "mode"}) {
      const json::Value* v = point.find(part);
      if (v == nullptr || !v->is_string()) {
        return Error{ErrorCode::kParse, "'" + path +
                                            "' point lacks a string '" +
                                            part + "'"};
      }
      if (!p.key.empty()) p.key += '|';
      p.key += v->as_string();
    }
    p.key += '|';
    if (const json::Value* tenants = point.find("tenants")) {
      const auto count = tenants->as_uint();
      if (!count) {
        return Error{ErrorCode::kParse,
                     "'" + path + "' point has a non-integer 'tenants'"};
      }
      p.key += std::to_string(*count);
    } else {
      p.key += '1';
    }
    const json::Value* cycles = point.find("cycles");
    const auto n = cycles ? cycles->as_uint() : std::nullopt;
    if (!n) {
      return Error{ErrorCode::kParse,
                   "'" + path + "' point lacks an integer 'cycles'"};
    }
    p.cycles = *n;
    if (const json::Value* mips = point.find("mips");
        mips != nullptr && mips->is_number()) {
      p.mips = mips->as_number();
    }
    out.push_back(std::move(p));
  }
  return out;
}

/// Lists the BENCH_*.json artifacts directly under `dir`, sorted by name.
Result<std::vector<std::string>> list_bench_artifacts(const std::string& dir) {
  auto files = scenario::list_suite_files(dir);  // *.json, sorted
  if (!files.ok()) return std::move(files).error();
  std::vector<std::string> artifacts;
  for (std::string& path : files.value()) {
    const std::string name = std::filesystem::path(path).filename().string();
    if (name.rfind("BENCH_", 0) == 0) artifacts.push_back(std::move(path));
  }
  return artifacts;
}

/// `bench --compare OLD NEW`: matches artifacts by file name and points by
/// (kernel, machine, config, geometry, mode). Cycle counts must be exactly
/// equal (they are deterministic); MIPS may regress up to `tolerance`
/// percent (they are host measurements). Exit 1 on any violation.
int cmd_bench_compare(const cli::Args& args) {
  if (const int rc =
          reject_unknown_flags(args, {"tolerance"}, {"compare"})) {
    return rc;
  }
  if (args.positional.size() != 2) {
    return usage_error("bench --compare takes exactly two directories");
  }
  int rc = 0;
  double tolerance = 10.0;
  if (const auto pct = positive_int_flag(args, "tolerance", rc, 1000)) {
    tolerance = static_cast<double>(*pct);
  }
  if (rc != 0) return rc;

  const auto old_files = list_bench_artifacts(args.positional[0]);
  if (!old_files.ok()) return toolchain_error(old_files.error());
  const auto new_files = list_bench_artifacts(args.positional[1]);
  if (!new_files.ok()) return toolchain_error(new_files.error());
  if (old_files.value().empty() || new_files.value().empty()) {
    return toolchain_error(
        Error{ErrorCode::kIo, "no BENCH_*.json artifacts to compare"});
  }

  int violations = 0;
  std::size_t matched_points = 0;
  for (const std::string& new_path : new_files.value()) {
    const std::string name =
        std::filesystem::path(new_path).filename().string();
    const std::string* old_path = nullptr;
    for (const std::string& candidate : old_files.value()) {
      if (std::filesystem::path(candidate).filename().string() == name) {
        old_path = &candidate;
        break;
      }
    }
    if (old_path == nullptr) {
      std::printf("%-28s only in %s (skipped)\n", name.c_str(),
                  args.positional[1].c_str());
      continue;
    }
    auto old_points = load_bench_points(*old_path);
    if (!old_points.ok()) return toolchain_error(old_points.error());
    auto new_points = load_bench_points(new_path);
    if (!new_points.ok()) return toolchain_error(new_points.error());

    for (const BenchPoint& np : new_points.value()) {
      const BenchPoint* op = nullptr;
      for (const BenchPoint& candidate : old_points.value()) {
        if (candidate.key == np.key) {
          op = &candidate;
          break;
        }
      }
      if (op == nullptr) continue;  // new grid point; nothing to diff
      ++matched_points;
      const double mips_delta_pct =
          op->mips > 0.0 ? 100.0 * (np.mips - op->mips) / op->mips : 0.0;
      const bool cycles_differ = np.cycles != op->cycles;
      const bool mips_regressed = mips_delta_pct < -tolerance;
      if (cycles_differ) {
        std::printf("FAIL %-52s cycles %llu -> %llu\n", np.key.c_str(),
                    static_cast<unsigned long long>(op->cycles),
                    static_cast<unsigned long long>(np.cycles));
        ++violations;
      } else if (mips_regressed) {
        std::printf("FAIL %-52s mips %.2f -> %.2f (%.1f%%)\n", np.key.c_str(),
                    op->mips, np.mips, mips_delta_pct);
        ++violations;
      } else {
        std::printf("ok   %-52s cycles %llu  mips %.2f -> %.2f (%+.1f%%)\n",
                    np.key.c_str(),
                    static_cast<unsigned long long>(np.cycles), op->mips,
                    np.mips, mips_delta_pct);
      }
    }
  }
  std::printf("%zu matched points, %d violation(s), tolerance %.0f%%\n",
              matched_points, violations, tolerance);
  if (matched_points == 0) {
    return toolchain_error(Error{
        ErrorCode::kBadConfig, "the artifact sets share no data points"});
  }
  return violations == 0 ? 0 : 1;
}

int cmd_bench(const cli::Args& args) {
  if (args.has("compare")) return cmd_bench_compare(args);
  if (const int rc = reject_unknown_flags(
          args, {"suite-dir", "out-dir", "threads", "store-dir"},
          {"expect-zero-compiles"})) {
    return rc;
  }
  if (!args.positional.empty()) {
    return usage_error("bench takes no positional arguments");
  }
  if (const int rc = attach_store_flag(args)) return rc;
  int rc = 0;
  const auto suite_dir = nonempty_value(args, "suite-dir", rc);
  if (rc != 0) return rc;
  if (!suite_dir) return usage_error("bench requires --suite-dir=DIR");
  std::string out_dir = ".";
  if (const auto dir = nonempty_value(args, "out-dir", rc)) out_dir = *dir;
  scenario::RunOptions options;
  if (const auto threads = positive_int_flag(args, "threads", rc, 4096)) {
    options.threads = static_cast<unsigned>(*threads);
  }
  if (rc != 0) return rc;

  const auto files = scenario::list_suite_files(*suite_dir);
  if (!files.ok()) return toolchain_error(files.error());
  if (files.value().empty()) {
    return toolchain_error(Error{
        ErrorCode::kIo, "no *.json suite files in '" + *suite_dir + "'"});
  }

  if (const int dir_rc = make_artifact_dir(out_dir)) return dir_rc;

  for (const std::string& path : files.value()) {
    auto suite = scenario::load_suite_file(path);
    if (!suite.ok()) return toolchain_error(suite.error());
    auto outcome =
        scenario::run_suite(suite.value(), process_cache(), options);
    if (!outcome.ok()) return toolchain_error(outcome.error());
    const scenario::SuiteOutcome& done = outcome.value();

    const std::string artifact = out_dir + "/" +
                                 scenario::bench_artifact_name(done.suite);
    if (const int write_rc =
            write_output(artifact, scenario::bench_artifact_json(done))) {
      return write_rc;
    }
    std::printf("suite %-20s %4zu cells  golden %-9s %7.2fs  %8.2f MIPS\n",
                done.suite.name.c_str(), done.report.cells.size(),
                done.golden_checked ? "match" : "unchecked",
                done.wall_seconds, done.mips);
  }
  const flow::CompileCache::Stats cache = process_cache().stats();
  std::printf(
      "compile cache: %zu compiles, %zu store hits, %zu memory hits "
      "across %zu suites\n",
      cache.compiles, cache.store_hits, cache.hits, files.value().size());
  if (args.has("expect-zero-compiles") && cache.compiles > 0) {
    return toolchain_error(
        Error{ErrorCode::kVerifyMismatch,
              std::to_string(cache.compiles) +
                  " unit(s) compiled despite --expect-zero-compiles (the "
                  "unit store should have served them)"});
  }
  return 0;
}

// --------------------------------------------------------------- store ----

/// `store stat` / `store gc`: offline inventory and maintenance of an
/// on-disk unit store directory.
int cmd_store(const cli::Args& args) {
  if (const int rc = reject_unknown_flags(args, {"store-dir"}, {})) return rc;
  if (args.positional.size() != 1 ||
      (args.positional.front() != "stat" && args.positional.front() != "gc")) {
    return usage_error("store takes exactly one action: stat or gc");
  }
  int rc = 0;
  const auto dir = nonempty_value(args, "store-dir", rc);
  if (rc != 0) return rc;
  if (!dir) return usage_error("store requires --store-dir=DIR");

  flow::UnitStore store(*dir);
  if (args.positional.front() == "gc") {
    auto outcome = store.gc();
    if (!outcome.ok()) return toolchain_error(outcome.error());
    std::printf("store gc: removed %zu artifact(s) (%llu bytes), kept %zu\n",
                outcome.value().removed,
                static_cast<unsigned long long>(outcome.value().bytes_freed),
                outcome.value().kept);
    return 0;
  }

  auto inventory = store.inventory();
  if (!inventory.ok()) return toolchain_error(inventory.error());
  const flow::UnitStore::Inventory& tally = inventory.value();
  std::printf("store %s: %zu artifact(s), %llu bytes\n", dir->c_str(),
              tally.current + tally.stale + tally.corrupt,
              static_cast<unsigned long long>(tally.bytes));
  std::printf("  current %zu, stale %zu, corrupt %zu\n", tally.current,
              tally.stale, tally.corrupt);
  std::printf("  toolchain tag: %s\n",
              flow::UnitStore::toolchain_tag().c_str());
  return 0;
}

// --------------------------------------------------------------- serve ----

/// SIGTERM/SIGINT both request a graceful drain; the serve loop polls this
/// flag (a handler cannot touch the server's mutexes directly).
volatile std::sig_atomic_t g_serve_terminate = 0;

void on_serve_terminate(int) { g_serve_terminate = 1; }

int cmd_serve(const cli::Args& args) {
  if (const int rc = reject_unknown_flags(
          args,
          {"socket", "store-dir", "workers", "sweep-threads",
           "idle-timeout-ms"},
          {})) {
    return rc;
  }
  if (!args.positional.empty()) {
    return usage_error("serve takes no positional arguments");
  }
  int rc = 0;
  server::ServeOptions options;
  const auto socket = nonempty_value(args, "socket", rc);
  if (rc != 0) return rc;
  if (!socket) return usage_error("serve requires --socket=PATH");
  options.socket_path = *socket;
  if (const auto dir = nonempty_value(args, "store-dir", rc)) {
    options.store_dir = *dir;
  }
  if (const auto workers = positive_int_flag(args, "workers", rc, 256)) {
    options.workers = static_cast<unsigned>(*workers);
  }
  if (const auto threads =
          positive_int_flag(args, "sweep-threads", rc, 4096)) {
    options.sweep_threads = static_cast<unsigned>(*threads);
  }
  if (const auto idle =
          positive_int_flag(args, "idle-timeout-ms", rc, 3'600'000)) {
    options.idle_timeout_ms = static_cast<unsigned>(*idle);
  }
  if (rc != 0) return rc;

  server::Server daemon(std::move(options));
  if (auto started = daemon.start(); !started.ok()) {
    return toolchain_error(started.error());
  }
  std::signal(SIGTERM, on_serve_terminate);
  std::signal(SIGINT, on_serve_terminate);
  std::fprintf(stderr, "serving %s on %s (%u workers%s%s)\n",
               std::string(server::kServeSchema).c_str(),
               daemon.options().socket_path.c_str(),
               daemon.options().workers,
               daemon.options().store_dir.empty() ? "" : ", store ",
               daemon.options().store_dir.c_str());

  // Runs until a client "shutdown" request drains the daemon or a signal
  // asks us to. Either way in-flight requests finish first.
  while (!daemon.draining()) {
    if (g_serve_terminate != 0) {
      daemon.begin_drain();
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  daemon.wait();
  const server::ServerStats stats = daemon.stats();
  std::fprintf(stderr,
               "drained: %llu request(s), %llu connection(s), "
               "%llu error repl%s\n",
               static_cast<unsigned long long>(stats.requests),
               static_cast<unsigned long long>(stats.connections),
               static_cast<unsigned long long>(stats.errors),
               stats.errors == 1 ? "y" : "ies");
  return 0;
}

// -------------------------------------------------------------- client ----

/// Digs `object.member` out of a reply ("cache.compiles"); nullopt when the
/// reply lacks it.
std::optional<std::uint64_t> nested_reply_uint(const json::Value& reply,
                                               std::string_view object,
                                               std::string_view member) {
  const json::Value* group = reply.find(object);
  if (group == nullptr || !group->is_object()) return std::nullopt;
  const json::Value* value = group->find(member);
  if (value == nullptr) return std::nullopt;
  return value->as_uint();
}

/// The sweep action: prints/writes the rendered report carried by the
/// reply (byte-identical to the local `sweep --from-file` rendering) and
/// enforces the --expect-zero-* warm-serving assertions.
int client_sweep_reply(const cli::Args& args, const json::Value& reply) {
  auto output = server::reply_string(reply, "output");
  if (!output.ok()) return toolchain_error(output.error());
  int rc = 0;
  const auto out_path = nonempty_value(args, "out", rc);
  if (rc != 0) return rc;
  if (const int write_rc = write_output(out_path, output.value())) {
    return write_rc;
  }
  const auto compiles = nested_reply_uint(reply, "cache", "compiles");
  const auto prepares = nested_reply_uint(reply, "prepares", "full");
  if (args.has("expect-zero-compiles") && compiles.value_or(1) != 0) {
    return toolchain_error(Error{
        ErrorCode::kVerifyMismatch,
        std::to_string(compiles.value_or(0)) +
            " unit(s) compiled despite --expect-zero-compiles (the "
            "daemon's warm cache should have served them)"});
  }
  if (args.has("expect-zero-prepares") && prepares.value_or(1) != 0) {
    return toolchain_error(Error{
        ErrorCode::kVerifyMismatch,
        std::to_string(prepares.value_or(0)) +
            " full table prepare(s) despite --expect-zero-prepares (the "
            "daemon's prepared images should have been reused)"});
  }
  return 0;
}

/// The bench-suite action: writes the BENCH_<suite>.json artifact carried
/// by the reply into --out-dir.
int client_bench_reply(const cli::Args& args, const json::Value& reply) {
  auto name = server::reply_string(reply, "artifact_name");
  if (!name.ok()) return toolchain_error(name.error());
  auto artifact = server::reply_string(reply, "artifact");
  if (!artifact.ok()) return toolchain_error(artifact.error());
  int rc = 0;
  std::string out_dir = ".";
  if (const auto dir = nonempty_value(args, "out-dir", rc)) out_dir = *dir;
  if (rc != 0) return rc;
  if (const int dir_rc = make_artifact_dir(out_dir)) return dir_rc;
  const std::string path = out_dir + "/" + name.value();
  if (const int write_rc = write_output(path, artifact.value())) {
    return write_rc;
  }
  std::fprintf(stderr, "wrote %s\n", path.c_str());
  return 0;
}

int cmd_client(const cli::Args& args) {
  if (args.positional.empty()) {
    return usage_error(
        "client requires an action (ping, compile, run, sweep, "
        "bench-suite, store-stat, stats, shutdown)");
  }
  const std::string& action = args.positional.front();
  if (const int rc = reject_unknown_flags(
          args, {"socket", "from-file", "format", "out", "out-dir"},
          {"expect-zero-compiles", "expect-zero-prepares"}, {cli::kRunFlags})) {
    return rc;
  }
  int rc = 0;
  const auto socket = nonempty_value(args, "socket", rc);
  if (rc != 0) return rc;
  if (!socket) return usage_error("client requires --socket=PATH");

  std::string payload;
  if (action == "ping") {
    payload = server::simple_request(server::RequestType::kPing);
  } else if (action == "stats") {
    payload = server::simple_request(server::RequestType::kStats);
  } else if (action == "store-stat") {
    payload = server::simple_request(server::RequestType::kStoreStat);
  } else if (action == "shutdown") {
    payload = server::simple_request(server::RequestType::kShutdown);
  } else if (action == "compile" || action == "run") {
    // The same member object the local verbs parse; the daemon validates it.
    if (args.positional.size() != 2) {
      return usage_error("client " + action +
                         " takes exactly one kernel name");
    }
    auto members = cli::unit_members(
        args.positional[1], args,
        action == "run" ? std::span<const cli::MemberFlag>(cli::kRunFlags)
                        : cli::kUnitFlags);
    if (!members.ok()) return bad_flag_value(members.error());
    payload = server::make_request(action == "run"
                                       ? server::RequestType::kRun
                                       : server::RequestType::kCompile,
                                   members.value());
  } else if (action == "sweep" || action == "bench-suite") {
    const auto suite_path = nonempty_value(args, "from-file", rc);
    if (rc != 0) return rc;
    if (!suite_path) {
      return usage_error("client " + action + " requires --from-file=SUITE");
    }
    auto text = read_text_file(*suite_path);
    if (!text.ok()) return toolchain_error(text.error());
    if (action == "sweep") {
      bool json = false;
      if (const int format_rc = csv_json_flag(args, json)) return format_rc;
      auto request = server::sweep_request(text.value(), json);
      if (!request.ok()) return toolchain_error(request.error());
      payload = std::move(request).value();
    } else {
      auto request = server::bench_suite_request(text.value());
      if (!request.ok()) return toolchain_error(request.error());
      payload = std::move(request).value();
    }
  } else {
    return usage_error("unknown client action '" + action + "'");
  }

  auto client = server::Client::connect(*socket);
  if (!client.ok()) return toolchain_error(client.error());
  auto raw = client.value().call_raw(payload);
  if (!raw.ok()) return toolchain_error(raw.error());
  auto reply = server::parse_reply(raw.value());
  if (!reply.ok()) return toolchain_error(reply.error());

  if (action == "sweep") return client_sweep_reply(args, reply.value());
  if (action == "bench-suite") return client_bench_reply(args, reply.value());
  std::printf("%s\n", raw.value().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage_error("missing command");
  const std::string command = argv[1];
  const cli::Args args = cli::Args::parse(argc, argv, 2);
  if (command == "list") return cmd_list();
  if (command == "compile") return cmd_compile(args);
  if (command == "run") return cmd_run(args);
  if (command == "sweep") return cmd_sweep(args);
  if (command == "bench") return cmd_bench(args);
  if (command == "store") return cmd_store(args);
  if (command == "serve") return cmd_serve(args);
  if (command == "client") return cmd_client(args);
  if (command == "help" || command == "--help" || command == "-h") {
    std::fputs(kUsage, stdout);
    return 0;
  }
  return usage_error("unknown command '" + command + "'");
}
