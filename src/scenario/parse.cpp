#include "scenario/parse.hpp"

#include <string>
#include <utility>
#include <vector>

#include "common/strings.hpp"
#include "kernels/kernels.hpp"

namespace zolcsim::scenario {

namespace {

Error bad_config(std::string msg) {
  return Error{ErrorCode::kBadConfig, std::move(msg)};
}

/// "'<key>' must be <what>".
std::string member_error(std::string_view key, std::string_view what) {
  std::string msg = "'";
  msg += key;
  msg += "' must be ";
  msg += what;
  return msg;
}

/// Parses the "<number><suffix>" geometry segments ("32t", "8l", ...).
Result<unsigned> geometry_field(std::string_view seg, char suffix) {
  if (seg.empty() || seg.back() != suffix) {
    return bad_config(std::string("expected a '") + suffix +
                      "' geometry segment, got '" + std::string(seg) + "'");
  }
  const auto n = parse_int(seg.substr(0, seg.size() - 1));
  if (!n || *n < 0 || *n > 0xFFFF) {  // every table count fits well below
    return bad_config("bad geometry segment '" + std::string(seg) + "'");
  }
  return static_cast<unsigned>(*n);
}

}  // namespace

Result<codegen::MachineKind> parse_machine(std::string_view s) {
  const std::string lower = to_lower(s);
  for (const codegen::MachineKind machine : codegen::kAllMachines) {
    if (lower == to_lower(codegen::machine_name(machine))) {
      return machine;
    }
  }
  std::string known;
  for (const codegen::MachineKind machine : codegen::kAllMachines) {
    if (!known.empty()) known += ", ";
    known += codegen::machine_name(machine);
  }
  return bad_config("unknown machine '" + std::string(s) + "' (known: " +
                    known + ")");
}

Result<zolc::ZolcGeometry> parse_geometry(std::string_view s) {
  const std::vector<std::string_view> segs = split(s, '-');
  if (segs.size() != 4 && segs.size() != 5) {
    return bad_config("geometry must look like 32t-8l-4x-4e[-p14], got '" +
                      std::string(s) + "'");
  }
  zolc::ZolcGeometry g;
  const char suffixes[4] = {'t', 'l', 'x', 'e'};
  unsigned* fields[4] = {&g.max_tasks, &g.max_loops, &g.max_exits_per_loop,
                         &g.max_entries_per_loop};
  for (int i = 0; i < 4; ++i) {
    auto field = geometry_field(segs[static_cast<std::size_t>(i)],
                                suffixes[i]);
    if (!field.ok()) return std::move(field).error();
    *fields[i] = field.value();
  }
  if (segs.size() == 5) {
    const std::string_view seg = segs[4];
    if (seg.size() < 2 || seg.front() != 'p') {
      return bad_config("bad geometry PC-width segment '" + std::string(seg) +
                        "' (expected e.g. p14)");
    }
    const auto bits = parse_int(seg.substr(1));
    if (!bits || *bits <= 0 || *bits > 64) {
      return bad_config("bad geometry PC-width segment '" + std::string(seg) +
                        "'");
    }
    g.pc_ofs_bits = static_cast<unsigned>(*bits);
  }
  if (!g.valid()) {
    return bad_config("invalid ZOLC geometry " + g.label());
  }
  return g;
}

Result<cpu::PipelineConfig> parse_config(std::string_view s) {
  cpu::PipelineConfig config;
  bool saw_resolve = false;
  bool saw_policy = false;
  for (const std::string_view part : split(s, '/')) {
    const std::string lower = to_lower(part);
    if (lower == "ex-resolve" || lower == "id-resolve") {
      if (saw_resolve) {
        return bad_config("conflicting resolve-stage tokens in '" +
                          std::string(s) + "'");
      }
      config.branch_resolve = lower == "ex-resolve"
                                  ? cpu::BranchResolveStage::kExecute
                                  : cpu::BranchResolveStage::kDecode;
      saw_resolve = true;
    } else if (lower == "rollback" || lower == "gate") {
      if (saw_policy) {
        return bad_config("conflicting speculation-policy tokens in '" +
                          std::string(s) + "'");
      }
      config.speculation = lower == "rollback"
                               ? cpu::SpeculationPolicy::kRollback
                               : cpu::SpeculationPolicy::kGate;
      saw_policy = true;
    } else if (lower == "nofwd") {
      config.forwarding = false;
    } else {
      return bad_config("unknown pipeline-config token '" +
                        std::string(part) +
                        "' (expected EX-resolve|ID-resolve, rollback|gate, "
                        "nofwd)");
    }
  }
  if (!saw_resolve || !saw_policy) {
    return bad_config("pipeline config needs a resolve stage and a "
                      "speculation policy, e.g. EX-resolve/rollback");
  }
  return config;
}

Result<harness::ExecMode> parse_mode(std::string_view s) {
  const std::string lower = to_lower(s);
  harness::ExecMode mode;
  if (lower == "pipeline") return mode;
  mode.engine = harness::SimEngine::kIss;
  if (lower == "iss") return mode;
  mode.fast_path = true;
  if (lower == "iss-fast") return mode;
  return bad_config("unknown execution mode '" + std::string(s) +
                    "' (known: pipeline, iss, iss-fast)");
}

// ------------------------------------------------------ member readers ----

Error shape_error(std::string msg, std::string_view where) {
  return Error{ErrorCode::kParse, std::move(msg)}.with_context(
      std::string(where));
}

Error config_error(std::string msg, std::string_view where) {
  return bad_config(std::move(msg)).with_context(std::string(where));
}

Result<void> reject_unknown_members(
    const json::Value& object, std::initializer_list<std::string_view> allowed,
    std::string_view what, std::string_view where) {
  for (const json::Value::Member& member : object.members()) {
    bool known = false;
    for (const std::string_view name : allowed) known |= member.first == name;
    if (!known) {
      return shape_error("unknown " + std::string(what) + " member '" +
                             member.first + "'",
                         where);
    }
  }
  return {};
}

Result<std::optional<std::string>> string_member(const json::Value& object,
                                                 std::string_view key,
                                                 std::string_view where) {
  const json::Value* member = object.find(key);
  if (member == nullptr) return std::optional<std::string>{};
  if (!member->is_string()) {
    return shape_error(member_error(key, "a string"), where);
  }
  return std::optional<std::string>{member->as_string()};
}

Result<std::uint64_t> uint_member(const json::Value& object,
                                  std::string_view key,
                                  std::uint64_t fallback,
                                  std::string_view where) {
  const json::Value* member = object.find(key);
  if (member == nullptr) return fallback;
  const auto n = member->as_uint();
  if (!n) {
    return shape_error(member_error(key, "a non-negative integer"), where);
  }
  return *n;
}

namespace {

/// Member as a strictly positive integer into `out`; absent keeps `out`.
Result<void> positive_member(const json::Value& object, std::string_view key,
                             std::uint64_t& out, std::string_view where) {
  const json::Value* member = object.find(key);
  if (member == nullptr) return {};
  const auto n = member->as_uint();
  if (!n || *n == 0) {
    return shape_error(member_error(key, "a positive integer"), where);
  }
  out = *n;
  return {};
}

/// Member as a boolean into `out`; absent keeps `out`.
Result<void> bool_member(const json::Value& object, std::string_view key,
                         bool& out, std::string_view where) {
  const json::Value* member = object.find(key);
  if (member == nullptr) return {};
  if (!member->is_bool()) {
    return shape_error(member_error(key, "a boolean"), where);
  }
  out = member->as_bool();
  return {};
}

/// Member as an array of strings; empty when absent.
Result<std::vector<std::string>> string_list(const json::Value& object,
                                             std::string_view key,
                                             std::string_view where) {
  std::vector<std::string> out;
  const json::Value* member = object.find(key);
  if (member == nullptr) return out;
  const auto shape = [&] {
    return shape_error(member_error(key, "an array of strings"), where);
  };
  if (!member->is_array()) return shape();
  for (const json::Value& item : member->items()) {
    if (!item.is_string()) return shape();
    out.push_back(item.as_string());
  }
  return out;
}

/// Parses the optional string member `key` with an axis grammar into `out`.
template <typename T>
Result<void> axis_member(const json::Value& object, std::string_view key,
                         Result<T> (*parse)(std::string_view), T& out,
                         std::string_view where) {
  auto text = string_member(object, key, where);
  if (!text.ok()) return std::move(text).error();
  if (!text.value()) return {};
  auto parsed = parse(*text.value());
  if (!parsed.ok()) {
    return std::move(parsed).error().with_context(std::string(where));
  }
  out = std::move(parsed).value();
  return {};
}

/// Parses the string-list member `key` with an axis grammar into `out`.
template <typename T>
Result<void> axis_list(const json::Value& object, std::string_view key,
                       Result<T> (*parse)(std::string_view),
                       std::vector<T>& out, std::string_view where) {
  auto names = string_list(object, key, where);
  if (!names.ok()) return std::move(names).error();
  for (const std::string& name : names.value()) {
    auto parsed = parse(name);
    if (!parsed.ok()) {
      return std::move(parsed).error().with_context(std::string(where));
    }
    out.push_back(std::move(parsed).value());
  }
  return {};
}

}  // namespace

// ----------------------------------------------------- request members ----

Result<void> parse_unit_members(const json::Value& object,
                                flow::CompileSpec& spec,
                                std::string_view where) {
  auto kernel = string_member(object, "kernel", where);
  if (!kernel.ok()) return std::move(kernel).error();
  if (!kernel.value() || kernel.value()->empty()) {
    return shape_error("a 'kernel' member is required", where);
  }
  spec.kernel = *kernel.value();
  spec.machine = codegen::MachineKind::kZolcFull;
  Result<void> r =
      axis_member(object, "machine", parse_machine, spec.machine, where);
  if (r.ok()) {
    r = axis_member(object, "geometry", parse_geometry, spec.geometry, where);
  }
  return r;
}

Result<void> parse_plan_members(const json::Value& object,
                                flow::RunPlan& plan, std::string_view where) {
  std::uint64_t tenants = plan.tenants;
  Result<void> r =
      axis_member(object, "config", parse_config, plan.config, where);
  if (r.ok()) r = axis_member(object, "mode", parse_mode, plan.mode, where);
  if (r.ok()) r = positive_member(object, "max_cycles", plan.max_cycles, where);
  if (r.ok()) r = positive_member(object, "tenants", tenants, where);
  if (r.ok() && tenants > 64) {
    r = config_error("'tenants' must be in [1, 64]", where);
  }
  if (r.ok()) {
    r = positive_member(object, "preempt_every", plan.preempt_every, where);
  }
  if (r.ok()) {
    r = bool_member(object, "preempt_serialize", plan.preempt_serialize,
                    where);
  }
  plan.tenants = static_cast<unsigned>(tenants);
  return r;
}

std::string_view warm_start_name(WarmStart mode) {
  switch (mode) {
    case WarmStart::kWarm:
      return "warm";
    case WarmStart::kCold:
      return "cold";
    case WarmStart::kBoth:
      return "both";
  }
  return "warm";
}

Result<WarmStart> parse_sweep(const json::Value& sweep,
                              harness::SweepSpec& spec,
                              std::string_view where) {
  if (auto strict = reject_unknown_members(
          sweep,
          {"kernels", "machines", "configs", "geometries", "modes", "tenants",
           "baseline", "max_cycles", "env", "timing_reps", "warm_start"},
          "sweep", where);
      !strict.ok()) {
    return std::move(strict).error();
  }

  auto kernels = string_list(sweep, "kernels", where);
  if (!kernels.ok()) return std::move(kernels).error();
  spec.kernels = std::move(kernels).value();
  for (const std::string& name : spec.kernels) {
    if (kernels::find_kernel(name) == nullptr) {
      return Error{ErrorCode::kUnknownKernel, "unknown kernel '" + name + "'"}
          .with_context(std::string(where));
    }
  }
  Result<void> r =
      axis_list(sweep, "machines", parse_machine, spec.machines, where);
  if (r.ok()) {
    r = axis_list(sweep, "configs", parse_config, spec.configs, where);
  }
  if (r.ok()) {
    r = axis_list(sweep, "geometries", parse_geometry, spec.geometries, where);
  }
  if (r.ok()) r = axis_list(sweep, "modes", parse_mode, spec.modes, where);
  if (r.ok()) {
    r = axis_member(sweep, "baseline", parse_machine, spec.baseline, where);
  }
  if (r.ok()) r = positive_member(sweep, "max_cycles", spec.max_cycles, where);
  if (!r.ok()) return std::move(r).error();

  if (const json::Value* tenants = sweep.find("tenants")) {
    if (!tenants->is_array()) {
      return shape_error("'tenants' must be an array of positive integers",
                         where);
    }
    for (const json::Value& item : tenants->items()) {
      const auto count = item.as_uint();
      if (!count || *count == 0 || *count > 64) {
        return config_error("'tenants' entries must be integers in [1, 64]",
                            where);
      }
      spec.tenants.push_back(static_cast<unsigned>(*count));
    }
  }

  auto timing_reps = uint_member(sweep, "timing_reps", spec.timing_reps, where);
  if (!timing_reps.ok()) return std::move(timing_reps).error();
  if (timing_reps.value() == 0 || timing_reps.value() > 1000) {
    return config_error("'timing_reps' must be in [1, 1000]", where);
  }
  spec.timing_reps = timing_reps.value();

  WarmStart warm_start = WarmStart::kWarm;
  auto warm = string_member(sweep, "warm_start", where);
  if (!warm.ok()) return std::move(warm).error();
  if (warm.value()) {
    const std::string& mode = *warm.value();
    if (mode == "cold") {
      warm_start = WarmStart::kCold;
    } else if (mode == "both") {
      warm_start = WarmStart::kBoth;
    } else if (mode != "warm") {
      return config_error(
          "bad 'warm_start' value '" + mode + "' (want warm, cold, or both)",
          where);
    }
    // kBoth leaves spec.warm_start at its default; the runner overrides it
    // per pass.
    if (warm_start != WarmStart::kBoth) {
      spec.warm_start = warm_start == WarmStart::kWarm;
    }
  }

  if (const json::Value* env = sweep.find("env")) {
    if (!env->is_object()) {
      return shape_error("'env' must be an object", where);
    }
    if (auto strict = reject_unknown_members(*env, {"scale", "seed"}, "env",
                                             where);
        !strict.ok()) {
      return std::move(strict).error();
    }
    auto scale = uint_member(*env, "scale", spec.env.scale, where);
    if (!scale.ok()) return std::move(scale).error();
    if (scale.value() == 0 || scale.value() > 0xFFFF) {
      return config_error("env 'scale' out of range", where);
    }
    spec.env.scale = static_cast<unsigned>(scale.value());
    auto seed = uint_member(*env, "seed", spec.env.seed, where);
    if (!seed.ok()) return std::move(seed).error();
    if (seed.value() > 0xFFFF'FFFFull) {
      return config_error("env 'seed' must fit 32 bits", where);
    }
    spec.env.seed = static_cast<std::uint32_t>(seed.value());
  }
  return warm_start;
}

}  // namespace zolcsim::scenario
