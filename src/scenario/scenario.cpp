#include "scenario/scenario.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>
#include <utility>

#include "common/json.hpp"
#include "common/strings.hpp"
#include "scenario/parse.hpp"

namespace zolcsim::scenario {

namespace {

Result<void> parse_expect(const json::Value& expect, Suite& suite,
                          std::string_view where) {
  if (auto strict = reject_unknown_members(
          expect, {"csv_fnv1a64", "thresholds"}, "expect", where);
      !strict.ok()) {
    return strict;
  }
  auto hash = string_member(expect, "csv_fnv1a64", where);
  if (!hash.ok()) return std::move(hash).error();
  if (hash.value()) {
    const auto digest = parse_hex64(*hash.value());
    if (!digest) {
      return config_error("bad 'csv_fnv1a64' digest '" + *hash.value() + "'",
                          where);
    }
    suite.expect_csv_fnv1a64 = *digest;
  }
  const json::Value* thresholds = expect.find("thresholds");
  if (thresholds == nullptr) return {};
  if (!thresholds->is_array()) {
    return shape_error("'thresholds' must be an array", where);
  }
  for (const json::Value& entry : thresholds->items()) {
    if (!entry.is_object()) {
      return shape_error("each threshold must be an object", where);
    }
    if (auto strict = reject_unknown_members(
            entry,
            {"kernel", "machine", "config", "geometry", "mode", "max_cycles",
             "min_mips"},
            "threshold", where);
        !strict.ok()) {
      return strict;
    }
    Threshold t;
    const std::pair<std::string_view, std::string*> fields[] = {
        {"kernel", &t.kernel},
        {"machine", &t.machine},
        {"config", &t.config},
        {"geometry", &t.geometry},
        {"mode", &t.mode}};
    for (const auto& [key, field] : fields) {
      auto value = string_member(entry, key, where);
      if (!value.ok()) return std::move(value).error();
      if (value.value()) *field = std::move(*value.value());
    }
    if (t.kernel.empty() || t.machine.empty()) {
      return shape_error("threshold needs a 'kernel' and a 'machine'", where);
    }
    if (auto machine = parse_machine(t.machine); !machine.ok()) {
      return std::move(machine).error().with_context(std::string(where));
    }
    if (!t.mode.empty()) {
      if (auto mode = parse_mode(t.mode); !mode.ok()) {
        return std::move(mode).error().with_context(std::string(where));
      }
    }
    auto max_cycles = uint_member(entry, "max_cycles", 0, where);
    if (!max_cycles.ok()) return std::move(max_cycles).error();
    t.max_cycles = max_cycles.value();
    if (const json::Value* mips = entry.find("min_mips")) {
      if (!mips->is_number() || mips->as_number() < 0) {
        return shape_error(
            "threshold 'min_mips' must be a non-negative number", where);
      }
      t.min_mips = mips->as_number();
    }
    if (t.max_cycles == 0 && t.min_mips == 0.0) {
      return config_error("threshold on '" + t.kernel +
                              "' checks nothing (set max_cycles or min_mips)",
                          where);
    }
    suite.thresholds.push_back(std::move(t));
  }
  return {};
}

}  // namespace

Result<Suite> parse_suite(std::string_view text, std::string_view origin) {
  const std::string where = "suite " + std::string(origin);
  auto document = json::parse(text);
  if (!document.ok()) return std::move(document).error().with_context(where);
  const json::Value& root = document.value();
  if (!root.is_object()) {
    return shape_error("suite document must be a JSON object", where);
  }
  if (auto strict = reject_unknown_members(
          root, {"suite", "version", "description", "sweep", "expect"},
          "top-level", where);
      !strict.ok()) {
    return std::move(strict).error();
  }

  Suite suite;
  auto name = string_member(root, "suite", where);
  if (!name.ok()) return std::move(name).error();
  if (!name.value() || name.value()->empty()) {
    return shape_error("missing or empty 'suite' name", where);
  }
  suite.name = std::move(*name.value());
  for (const char c : suite.name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    c == '_' || c == '-';
    if (!ok) {
      return config_error("suite name '" + suite.name +
                              "' must be [a-z0-9_-] (it names the "
                              "BENCH_<suite>.json artifact)",
                          where);
    }
  }

  auto version = uint_member(root, "version", 0, where);
  if (!version.ok()) return std::move(version).error();
  if (version.value() != kSuiteSchemaVersion) {
    return config_error("unsupported suite schema version " +
                            std::to_string(version.value()) + " (expected " +
                            std::to_string(kSuiteSchemaVersion) + ")",
                        where);
  }

  auto description = string_member(root, "description", where);
  if (!description.ok()) return std::move(description).error();
  suite.description = description.value().value_or("");

  const json::Value* sweep = root.find("sweep");
  if (sweep == nullptr || !sweep->is_object()) {
    return shape_error("missing 'sweep' object", where);
  }
  auto warm_start = parse_sweep(*sweep, suite.sweep, where);
  if (!warm_start.ok()) return std::move(warm_start).error();
  suite.warm_start = warm_start.value();

  if (const json::Value* expect = root.find("expect")) {
    if (!expect->is_object()) {
      return shape_error("'expect' must be an object", where);
    }
    if (auto parsed = parse_expect(*expect, suite, where); !parsed.ok()) {
      return std::move(parsed).error();
    }
  }
  return suite;
}

Result<Suite> load_suite_file(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    return Error{ErrorCode::kIo, "cannot read suite file '" + path + "'"};
  }
  std::ostringstream text;
  text << file.rdbuf();
  return parse_suite(text.str(), path);
}

Result<std::vector<std::string>> list_suite_files(const std::string& dir) {
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec);
  if (ec) {
    return Error{ErrorCode::kIo,
                 "cannot list suite directory '" + dir + "': " + ec.message()};
  }
  std::vector<std::string> files;
  for (const auto& entry : it) {
    if (entry.is_regular_file() && entry.path().extension() == ".json") {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

}  // namespace zolcsim::scenario
