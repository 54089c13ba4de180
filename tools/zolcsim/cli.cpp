#include "cli.hpp"

#include <utility>

#include "common/strings.hpp"
#include "scenario/parse.hpp"

namespace zolcsim::cli {

Args Args::parse(int argc, char** argv, int skip) {
  Args args;
  for (int i = skip; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (starts_with(arg, "--")) {
      args.flags.emplace_back(arg);
    } else {
      args.positional.emplace_back(arg);
    }
  }
  return args;
}

std::optional<std::string> Args::value_of(std::string_view name) const {
  const std::string prefix = "--" + std::string(name) + "=";
  for (const std::string& flag : flags) {
    if (starts_with(flag, prefix)) return flag.substr(prefix.size());
  }
  return std::nullopt;
}

bool Args::has(std::string_view name) const {
  const std::string bare = "--" + std::string(name);
  for (const std::string& flag : flags) {
    if (flag == bare) return true;
  }
  return false;
}

std::vector<std::string> Args::unknown(
    const std::vector<std::string_view>& known_values,
    const std::vector<std::string_view>& known_switches) const {
  std::vector<std::string> out;
  for (const std::string& flag : flags) {
    bool known = false;
    for (const std::string_view name : known_values) {
      if (starts_with(flag, "--" + std::string(name) + "=")) {
        known = true;
        break;
      }
    }
    for (const std::string_view name : known_switches) {
      if (flag == "--" + std::string(name)) {
        known = true;
        break;
      }
    }
    if (!known) out.push_back(flag);
  }
  return out;
}

namespace {

/// Context frame of codec errors on flag input.
constexpr std::string_view kFlagsWhere = "flags";

/// One flag value: a JSON number when `integer` and it parses as one,
/// otherwise a string (the codec then reports a wrong-typed member).
json::Value scalar(const std::string& text, bool integer) {
  if (const auto n = integer ? parse_int(text) : std::nullopt) {
    return json::Value::make_number(static_cast<double>(*n));
  }
  return json::Value::make_string(text);
}

/// "max-cycles" -> "max_cycles".
std::string member_name(std::string_view flag) {
  std::string out(flag);
  for (char& c : out) {
    if (c == '-') c = '_';
  }
  return out;
}

/// Lowers the flags of `table` present in `args` into one member object:
/// `members` first, then the flags in table order. An explicitly empty value
/// ("--name=") is a kParse error, never a silent default.
Result<json::Value> lower_flags(const Args& args,
                                std::span<const MemberFlag> table,
                                std::vector<json::Value::Member> members = {}) {
  for (const MemberFlag& flag : table) {
    if (flag.kind == FlagKind::kSwitch) {
      if (!args.has(flag.name)) continue;
      const bool negated = starts_with(flag.name, "no-");
      members.emplace_back(member_name(negated ? flag.name.substr(3)
                                               : flag.name),
                           json::Value::make_bool(!negated));
      continue;
    }
    const auto value = args.value_of(flag.name);
    if (!value) continue;
    if (value->empty()) {
      return Error{ErrorCode::kParse,
                   "empty value for --" + std::string(flag.name)}
          .with_context(std::string(kFlagsWhere));
    }
    json::Value member;
    if (flag.kind == FlagKind::kStrings || flag.kind == FlagKind::kInts) {
      std::vector<json::Value> items;
      for (const std::string& item : split_list(*value)) {
        items.push_back(scalar(item, flag.kind == FlagKind::kInts));
      }
      member = json::Value::make_array(std::move(items));
    } else {
      member = scalar(*value, flag.kind == FlagKind::kInt);
    }
    members.emplace_back(member_name(flag.name), std::move(member));
  }
  return json::Value::make_object(std::move(members));
}

}  // namespace

Result<json::Value> unit_members(std::string_view kernel, const Args& args,
                                 std::span<const MemberFlag> table) {
  return lower_flags(
      args, table, {{"kernel", json::Value::make_string(std::string(kernel))}});
}

Result<void> unit_from_flags(std::string_view kernel, const Args& args,
                             std::span<const MemberFlag> table,
                             flow::CompileSpec& spec, flow::RunPlan& plan) {
  auto members = unit_members(kernel, args, table);
  if (!members.ok()) return std::move(members).error();
  auto unit = scenario::parse_unit_members(members.value(), spec, kFlagsWhere);
  if (!unit.ok()) return unit;
  return scenario::parse_plan_members(members.value(), plan, kFlagsWhere);
}

Result<harness::SweepSpec> sweep_from_flags(const Args& args) {
  auto grid = lower_flags(args, kGridFlags);
  if (!grid.ok()) return std::move(grid).error();
  harness::SweepSpec spec;
  if (auto parsed = scenario::parse_sweep(grid.value(), spec, kFlagsWhere);
      !parsed.ok()) {
    return std::move(parsed).error();
  }
  auto plan_members = lower_flags(args, kSweepPlanFlags);
  if (!plan_members.ok()) return std::move(plan_members).error();
  flow::RunPlan plan;
  if (auto parsed = scenario::parse_plan_members(plan_members.value(), plan,
                                                 kFlagsWhere);
      !parsed.ok()) {
    return std::move(parsed).error();
  }
  spec.preempt_every = plan.preempt_every;
  spec.preempt_serialize = plan.preempt_serialize;
  return spec;
}

std::vector<std::string> split_list(std::string_view s) {
  std::vector<std::string> out;
  if (s.empty()) return out;
  for (const std::string_view item : split(s, ',')) {
    out.emplace_back(item);
  }
  return out;
}

std::string render_error(const Error& error) {
  return "error[" + std::string(error_code_name(error.code)) + "]: " +
         error.to_string();
}

}  // namespace zolcsim::cli
