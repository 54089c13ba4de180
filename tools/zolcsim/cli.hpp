// Argument handling for the zolcsim CLI driver. The request-shaped verbs
// never parse a member themselves: `compile`, `run`, `sweep` and `client`
// lower their flags into the JSON member object the serve protocol and the
// suite files use (one table per verb: kebab-case -> snake_case, integers
// -> numbers, switches -> true, --no-X -> "X": false) and hand it to the
// shared codec in scenario/parse.hpp.
#ifndef ZOLCSIM_TOOLS_ZOLCSIM_CLI_HPP
#define ZOLCSIM_TOOLS_ZOLCSIM_CLI_HPP

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.hpp"
#include "common/result.hpp"
#include "flow/compiled_unit.hpp"
#include "flow/run.hpp"
#include "harness/sweep.hpp"

namespace zolcsim::cli {

/// Flag helpers over argv (skipping argv[0] and the subcommand).
struct Args {
  std::vector<std::string> positional;
  std::vector<std::string> flags;  ///< "--..." tokens, in order

  [[nodiscard]] static Args parse(int argc, char** argv, int skip);

  /// Value of "--name=value"; nullopt when the flag is absent. An explicit
  /// empty value ("--name=") returns an empty string so callers can reject
  /// it instead of silently falling back to a default.
  [[nodiscard]] std::optional<std::string> value_of(
      std::string_view name) const;
  [[nodiscard]] bool has(std::string_view name) const;
  /// Flags that are neither in `known_values` (as --k=v) nor in
  /// `known_switches` (as bare --k); non-empty means a usage error.
  [[nodiscard]] std::vector<std::string> unknown(
      const std::vector<std::string_view>& known_values,
      const std::vector<std::string_view>& known_switches) const;
};

/// How one flag lowers into a request member.
enum class FlagKind : std::uint8_t {
  kString,   ///< --name=v   -> "name": "v"
  kInt,      ///< --name=N   -> "name": N (non-integers stay strings, so the
             ///<               codec rejects them with its own error)
  kStrings,  ///< --name=a,b -> "name": ["a", "b"]
  kInts,     ///< --name=1,2 -> "name": [1, 2]
  kSwitch,   ///< --name     -> "name": true; --no-name -> "name": false
};

struct MemberFlag {
  std::string_view name;  ///< flag spelling, kebab-case
  FlagKind kind;
};

/// `compile` / `client compile`: the unit members.
inline constexpr MemberFlag kUnitFlags[] = {
    {"machine", FlagKind::kString},
    {"geometry", FlagKind::kString},
};

/// `run` / `client run`: the unit members plus the run-plan members.
inline constexpr MemberFlag kRunFlags[] = {
    {"machine", FlagKind::kString},
    {"geometry", FlagKind::kString},
    {"config", FlagKind::kString},
    {"mode", FlagKind::kString},
    {"max-cycles", FlagKind::kInt},
    {"tenants", FlagKind::kInt},
    {"preempt-every", FlagKind::kInt},
    {"preempt-serialize", FlagKind::kSwitch},
    {"no-predecode", FlagKind::kSwitch},
};

/// `sweep`: the grid flags, lowered into a suite "sweep" object.
inline constexpr MemberFlag kGridFlags[] = {
    {"kernels", FlagKind::kStrings},
    {"machines", FlagKind::kStrings},
    {"configs", FlagKind::kStrings},
    {"geometries", FlagKind::kStrings},
    {"modes", FlagKind::kStrings},
    {"tenants", FlagKind::kInts},
    {"baseline", FlagKind::kString},
    {"max-cycles", FlagKind::kInt},
};

/// `sweep`: run-plan members applied to every cell (suites have none).
inline constexpr MemberFlag kSweepPlanFlags[] = {
    {"preempt-every", FlagKind::kInt},
    {"preempt-serialize", FlagKind::kSwitch},
};

/// The compile/run request members: "kernel" plus the lowered `table`
/// flags -- the object `zolcsim client` sends, minus schema and type.
[[nodiscard]] Result<json::Value> unit_members(
    std::string_view kernel, const Args& args,
    std::span<const MemberFlag> table);

/// Parses a compile/run request locally: unit_members() through the shared
/// codec into `spec` and `plan` (absent plan flags keep its defaults).
[[nodiscard]] Result<void> unit_from_flags(std::string_view kernel,
                                           const Args& args,
                                           std::span<const MemberFlag> table,
                                           flow::CompileSpec& spec,
                                           flow::RunPlan& plan);

/// The `sweep` grid: kGridFlags through the suite's "sweep" parser, then
/// kSweepPlanFlags through the run-plan codec onto every cell.
[[nodiscard]] Result<harness::SweepSpec> sweep_from_flags(const Args& args);

/// Splits "a,b,c" (empty input -> empty vector).
[[nodiscard]] std::vector<std::string> split_list(std::string_view s);

/// Renders an Error for the terminal: "error[code]: trail".
[[nodiscard]] std::string render_error(const Error& error);

}  // namespace zolcsim::cli

#endif  // ZOLCSIM_TOOLS_ZOLCSIM_CLI_HPP
