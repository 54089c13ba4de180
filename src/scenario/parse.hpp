// The one request codec. Every surface that names a unit, a run plan, or a
// sweep grid -- the zolcsim CLI verbs (flags lowered to a member object),
// `zolcsim client`, the serve daemon's requests, and scenario-suite files --
// parses it here, so they accept exactly the same vocabulary and fail with
// the same ErrorCode.
//
// Two layers: the axis grammars (machine / ZOLC geometry / pipeline config /
// execution mode), whose spellings match the names the sweep emitters print
// (machine_name, ZolcGeometry::label, config_name, mode_name) so report
// output and declarative input round-trip; and the strict JSON member
// readers built on them. Axis errors are kBadConfig; member-shape errors
// (wrong JSON type, unknown member) are kParse. Every member-reader error
// carries `where` ("serve request", "suite <file>", ...) as its context.
#ifndef ZOLCSIM_SCENARIO_PARSE_HPP
#define ZOLCSIM_SCENARIO_PARSE_HPP

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "codegen/program.hpp"
#include "common/json.hpp"
#include "common/result.hpp"
#include "cpu/pipeline.hpp"
#include "flow/compiled_unit.hpp"
#include "flow/run.hpp"
#include "harness/experiment.hpp"
#include "harness/sweep.hpp"
#include "zolc/config.hpp"

namespace zolcsim::scenario {

// ------------------------------------------------------- axis grammars ----

/// "XRdefault" | "XRhrdwil" | "uZOLC" | "ZOLClite" | "ZOLCfull"
/// (case-insensitive).
[[nodiscard]] Result<codegen::MachineKind> parse_machine(std::string_view s);

/// "Nt-Nl-Nx-Ne[-pB]" -- the ZolcGeometry::label() form, e.g. "32t-8l-4x-4e"
/// or "64t-12l-4x-4e-p14".
[[nodiscard]] Result<zolc::ZolcGeometry> parse_geometry(std::string_view s);

/// "EX-resolve|ID-resolve" "/rollback|/gate" ["/nofwd"] -- the
/// harness::config_name() form.
[[nodiscard]] Result<cpu::PipelineConfig> parse_config(std::string_view s);

/// "pipeline" | "iss" | "iss-fast" -- the harness::mode_name() form.
[[nodiscard]] Result<harness::ExecMode> parse_mode(std::string_view s);

// ------------------------------------------------------ member readers ----

/// kParse / kBadConfig error carrying `where` as its context.
[[nodiscard]] Error shape_error(std::string msg, std::string_view where);
[[nodiscard]] Error config_error(std::string msg, std::string_view where);

/// Strict schema: every member of `object` must be in `allowed`; otherwise
/// kParse "unknown <what> member '<key>'".
[[nodiscard]] Result<void> reject_unknown_members(
    const json::Value& object, std::initializer_list<std::string_view> allowed,
    std::string_view what, std::string_view where);

/// Member as a string; nullopt when absent.
[[nodiscard]] Result<std::optional<std::string>> string_member(
    const json::Value& object, std::string_view key, std::string_view where);

/// Member as a non-negative integer; `fallback` when absent.
[[nodiscard]] Result<std::uint64_t> uint_member(const json::Value& object,
                                                std::string_view key,
                                                std::uint64_t fallback,
                                                std::string_view where);

// ----------------------------------------------------- request members ----

/// The unit members: `kernel` (required, non-empty), `machine` (default
/// ZOLCfull), `geometry` (default: the paper prototype). Does not reject
/// unknown members -- the enclosing object's schema does.
[[nodiscard]] Result<void> parse_unit_members(const json::Value& object,
                                              flow::CompileSpec& spec,
                                              std::string_view where);

/// The run-plan members: `config`, `mode`, `max_cycles`, `tenants` (1..64),
/// `preempt_every`, `preempt_serialize`, `predecode`. Absent members keep
/// the RunPlan defaults.
[[nodiscard]] Result<void> parse_plan_members(const json::Value& object,
                                              flow::RunPlan& plan,
                                              std::string_view where);

/// Run-path selection of a suite's "warm_start" sweep member. `kBoth`
/// runs the grid twice -- once cold, once warm -- and fails the suite with
/// kVerifyMismatch unless the two rendered CSVs are byte-identical; the
/// warm run's report becomes the suite outcome.
enum class WarmStart { kWarm, kCold, kBoth };

/// Canonical spelling ("warm" / "cold" / "both").
[[nodiscard]] std::string_view warm_start_name(WarmStart mode);

/// A suite's "sweep" object (DESIGN.md sec. 6.1): the grid axes, baseline,
/// max_cycles, env, timing_reps and warm_start, lowered onto `spec`
/// (members absent from the object keep `spec`'s values). Returns the
/// warm_start selection; kWarm/kCold also set spec.warm_start.
[[nodiscard]] Result<WarmStart> parse_sweep(const json::Value& sweep,
                                            harness::SweepSpec& spec,
                                            std::string_view where);

}  // namespace zolcsim::scenario

#endif  // ZOLCSIM_SCENARIO_PARSE_HPP
