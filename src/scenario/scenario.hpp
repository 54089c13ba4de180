// Declarative scenario suites: the JSON format that replaced the hand-coded
// benchmark mains. A suite file names a sweep grid (kernels x machines x
// pipeline configs x ZOLC geometries x execution modes, plus the kernel
// env), an optional
// golden digest of the rendered CSV, and optional per-cell performance
// thresholds. The parser returns a Result<Suite>; the runner (runner.hpp)
// lowers a Suite onto harness::SweepSpec / run_sweep and emits the
// versioned BENCH_<suite>.json perf artifact. DESIGN.md sec. 6 is the
// normative schema spec.
#ifndef ZOLCSIM_SCENARIO_SCENARIO_HPP
#define ZOLCSIM_SCENARIO_SCENARIO_HPP

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.hpp"
#include "harness/sweep.hpp"
#include "scenario/parse.hpp"

namespace zolcsim::scenario {

/// Current suite-file schema version ("version" field). Parsers accept only
/// this value so a future incompatible change fails loudly.
inline constexpr unsigned kSuiteSchemaVersion = 1;

/// One per-cell performance expectation. `kernel` and `machine` name the
/// cell; `config` / `geometry` select along the remaining axes when the
/// suite sweeps them (empty = the first/only point). Zero-valued limits are
/// unchecked.
struct Threshold {
  std::string kernel;
  std::string machine;
  std::string config;            ///< config_name() form; "" = first config
  std::string geometry;          ///< ZolcGeometry::label(); "" = first point
  std::string mode;              ///< mode_name() form; "" = first mode
  std::uint64_t max_cycles = 0;  ///< fail when cell cycles exceed this
  double min_mips = 0.0;         ///< fail when simulated MIPS falls below
};

/// A parsed scenario suite: grid + expectations.
struct Suite {
  std::string name;         ///< "suite" field; names the BENCH artifact
  std::string description;
  harness::SweepSpec sweep;  ///< lowered grid (threads left at the default)
  /// Run-path axis; kWarm/kCold also set sweep.warm_start directly.
  WarmStart warm_start = WarmStart::kWarm;
  /// Expected fnv1a64 of the rendered paper-default CSV (the golden).
  std::optional<std::uint64_t> expect_csv_fnv1a64;
  std::vector<Threshold> thresholds;
};

/// Parses one suite document. `origin` labels errors (file name or "<buf>").
/// Errors: kParse (malformed JSON or schema shape), kBadConfig (bad axis
/// values, bad version), kUnknownKernel.
[[nodiscard]] Result<Suite> parse_suite(std::string_view text,
                                        std::string_view origin = "<buffer>");

/// Reads and parses a suite file. Additional error: kIo.
[[nodiscard]] Result<Suite> load_suite_file(const std::string& path);

/// Lists the *.json suite files directly under `dir`, sorted by file name
/// for deterministic bench ordering. Error: kIo when `dir` is not readable.
[[nodiscard]] Result<std::vector<std::string>> list_suite_files(
    const std::string& dir);

}  // namespace zolcsim::scenario

#endif  // ZOLCSIM_SCENARIO_SCENARIO_HPP
