#include "flow/unit_store.hpp"

#include <unistd.h>

#include <exception>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <utility>

#include "common/json.hpp"
#include "common/strings.hpp"
#include "common/toolchain.hpp"
#include "isa/encoding.hpp"

namespace zolcsim::flow {

namespace {

namespace fs = std::filesystem;

[[nodiscard]] Error io_error(const std::string& what, const fs::path& path) {
  return Error{ErrorCode::kIo, what + ": " + path.string()};
}

[[nodiscard]] Error corrupt(std::string what) {
  return Error{ErrorCode::kStoreCorrupt, std::move(what)};
}

[[nodiscard]] std::optional<codegen::MachineKind> parse_machine_kind(
    std::string_view name) {
  for (const codegen::MachineKind kind : codegen::kAllMachines) {
    if (codegen::machine_name(kind) == name) return kind;
  }
  return std::nullopt;
}

/// Number member as a signed integral (json::Value::as_uint rejects
/// negatives, which MicroPlan bounds and steps can be).
[[nodiscard]] std::optional<std::int64_t> as_int(const json::Value& v) {
  if (!v.is_number()) return std::nullopt;
  const double d = v.as_number();
  const auto i = static_cast<std::int64_t>(d);
  if (static_cast<double>(i) != d) return std::nullopt;
  return i;
}

/// String member holding a hex32 ("0x%08X") value.
[[nodiscard]] std::optional<std::uint32_t> as_hex32(const json::Value* v) {
  if (v == nullptr || !v->is_string()) return std::nullopt;
  const auto parsed = parse_int(v->as_string());
  if (!parsed || *parsed < 0 || *parsed > 0xFFFF'FFFFll) return std::nullopt;
  return static_cast<std::uint32_t>(*parsed);
}

[[nodiscard]] std::optional<std::uint64_t> as_u64(const json::Value* v) {
  return v == nullptr ? std::nullopt : v->as_uint();
}

/// Rebuilds the CompileSpec from the envelope's "spec" object.
[[nodiscard]] std::optional<CompileSpec> parse_spec(const json::Value& spec) {
  const json::Value* kernel = spec.find("kernel");
  const json::Value* machine = spec.find("machine");
  const json::Value* geometry = spec.find("geometry");
  const json::Value* env = spec.find("env");
  if (kernel == nullptr || !kernel->is_string() || machine == nullptr ||
      !machine->is_string() || geometry == nullptr || env == nullptr) {
    return std::nullopt;
  }
  CompileSpec out;
  out.kernel = kernel->as_string();
  const auto kind = parse_machine_kind(machine->as_string());
  if (!kind) return std::nullopt;
  out.machine = *kind;

  const auto tasks = as_u64(geometry->find("tasks"));
  const auto loops = as_u64(geometry->find("loops"));
  const auto exits = as_u64(geometry->find("exits"));
  const auto entries = as_u64(geometry->find("entries"));
  const auto pc_bits = as_u64(geometry->find("pc_ofs_bits"));
  if (!tasks || !loops || !exits || !entries || !pc_bits) return std::nullopt;
  out.geometry.max_tasks = static_cast<unsigned>(*tasks);
  out.geometry.max_loops = static_cast<unsigned>(*loops);
  out.geometry.max_exits_per_loop = static_cast<unsigned>(*exits);
  out.geometry.max_entries_per_loop = static_cast<unsigned>(*entries);
  out.geometry.pc_ofs_bits = static_cast<unsigned>(*pc_bits);

  const auto code_base = as_hex32(env->find("code_base"));
  const auto in_base = as_hex32(env->find("in_base"));
  const auto in2_base = as_hex32(env->find("in2_base"));
  const auto out_base = as_hex32(env->find("out_base"));
  const auto aux_base = as_hex32(env->find("aux_base"));
  const auto scale = as_u64(env->find("scale"));
  const auto seed = as_hex32(env->find("seed"));
  if (!code_base || !in_base || !in2_base || !out_base || !aux_base ||
      !scale || !seed) {
    return std::nullopt;
  }
  out.env.code_base = *code_base;
  out.env.in_base = *in_base;
  out.env.in2_base = *in2_base;
  out.env.out_base = *out_base;
  out.env.aux_base = *aux_base;
  out.env.scale = static_cast<unsigned>(*scale);
  out.env.seed = *seed;
  return out;
}

/// Rebuilds the Program and ScanReport from the payload ("unit") object,
/// the inverse of CompiledUnit::to_json(). Returns nullopt on any shape
/// violation; numeric garbage that survives shape checks is caught by the
/// caller's payload-digest comparison.
struct ReloadedParts {
  codegen::Program program;
  cfg::ScanReport scan;
};

[[nodiscard]] std::optional<ReloadedParts> parse_unit_payload(
    const json::Value& unit, codegen::MachineKind machine) {
  const json::Value* program = unit.find("program");
  const json::Value* scan = unit.find("scan");
  if (program == nullptr || scan == nullptr) return std::nullopt;

  ReloadedParts out;
  out.program.machine = machine;
  const auto base = as_hex32(program->find("base"));
  const auto init = as_u64(program->find("init_instructions"));
  const auto hw = as_u64(program->find("hw_loops"));
  const auto sw = as_u64(program->find("sw_loops"));
  const json::Value* notes = program->find("notes");
  const json::Value* words = program->find("words");
  if (!base || !init || !hw || !sw || notes == nullptr ||
      !notes->is_array() || words == nullptr || !words->is_array()) {
    return std::nullopt;
  }
  out.program.base = *base;
  out.program.init_instructions = static_cast<unsigned>(*init);
  out.program.hw_loop_count = static_cast<unsigned>(*hw);
  out.program.sw_loop_count = static_cast<unsigned>(*sw);
  for (const json::Value& note : notes->items()) {
    if (!note.is_string()) return std::nullopt;
    out.program.notes.push_back(note.as_string());
  }
  out.program.code.reserve(words->items().size());
  for (const json::Value& word : words->items()) {
    if (!word.is_string()) return std::nullopt;
    const auto parsed = parse_int(word.as_string());
    if (!parsed || *parsed < 0 || *parsed > 0xFFFF'FFFFll) return std::nullopt;
    out.program.code.push_back(
        isa::decode(static_cast<std::uint32_t>(*parsed)));
  }

  const json::Value* candidates = scan->find("candidates");
  const json::Value* rejected = scan->find("rejected");
  if (candidates == nullptr || !candidates->is_array() || rejected == nullptr ||
      !rejected->is_array()) {
    return std::nullopt;
  }
  for (const json::Value& c : candidates->items()) {
    cfg::MicroPlan plan;
    const auto depth = as_u64(c.find("depth"));
    const auto start_pc = as_hex32(c.find("start_pc"));
    const auto end_pc = as_hex32(c.find("end_pc"));
    const auto index_reg = as_u64(c.find("index_reg"));
    const json::Value* initial = c.find("initial");
    const json::Value* final_v = c.find("final");
    const json::Value* step = c.find("step");
    const auto cond = as_u64(c.find("cond"));
    const auto update_index = as_u64(c.find("update_index"));
    const auto branch_index = as_u64(c.find("branch_index"));
    if (!depth || !start_pc || !end_pc || !index_reg || initial == nullptr ||
        final_v == nullptr || step == nullptr || !cond || *cond > 3 ||
        !update_index || !branch_index) {
      return std::nullopt;
    }
    const auto initial_i = as_int(*initial);
    const auto final_i = as_int(*final_v);
    const auto step_i = as_int(*step);
    if (!initial_i || !final_i || !step_i) return std::nullopt;
    plan.depth = static_cast<unsigned>(*depth);
    plan.start_pc = *start_pc;
    plan.end_pc = *end_pc;
    plan.index_reg = static_cast<std::uint8_t>(*index_reg);
    plan.initial = static_cast<std::int32_t>(*initial_i);
    plan.final = static_cast<std::int32_t>(*final_i);
    plan.step = static_cast<std::int32_t>(*step_i);
    plan.cond = static_cast<zolc::LoopCond>(*cond);
    plan.update_index = static_cast<unsigned>(*update_index);
    plan.branch_index = static_cast<unsigned>(*branch_index);
    out.scan.candidates.push_back(plan);
  }
  for (const json::Value& r : rejected->items()) {
    const json::Value* code = r.find("code");
    const json::Value* message = r.find("message");
    if (code == nullptr || !code->is_string() || message == nullptr ||
        !message->is_string()) {
      return std::nullopt;
    }
    out.scan.rejected.emplace_back(parse_error_code(code->as_string()),
                                   message->as_string());
  }
  return out;
}

}  // namespace

std::string UnitStore::toolchain_tag() {
  return std::string(kFormat) + "|" + compiler_id();
}

std::uint64_t UnitStore::key_of(const CompileSpec& spec) {
  return fnv1a64(spec.key() + "\n" + toolchain_tag());
}

std::string UnitStore::path_for(const CompileSpec& spec) const {
  return dir_ + "/unit-" + hex64(key_of(spec)) + ".json";
}

Result<CompiledUnit> UnitStore::validate_artifact(
    const json::Value& root,
    const std::function<std::optional<std::string>(const CompileSpec&)>&
        key_mismatch) {
  const json::Value* format = root.find("format");
  const json::Value* tag = root.find("tag");
  const json::Value* spec_v = root.find("spec");
  const json::Value* digest = root.find("payload_fnv1a64");
  const json::Value* unit_v = root.find("unit");
  if (format == nullptr || !format->is_string() || tag == nullptr ||
      !tag->is_string() || spec_v == nullptr || digest == nullptr ||
      !digest->is_string() || unit_v == nullptr) {
    return corrupt("envelope members missing or mistyped");
  }
  if (format->as_string() != kFormat) {
    return corrupt("unknown format '" + format->as_string() + "'");
  }
  if (tag->as_string() != toolchain_tag()) {
    return Error{ErrorCode::kStoreStale,
                 "artifact tag '" + tag->as_string() +
                     "' does not match this build's '" +
                     toolchain_tag() + "'"};
  }
  const auto spec = parse_spec(*spec_v);
  if (!spec) return corrupt("malformed spec");
  if (auto mismatch = key_mismatch(*spec)) {
    return corrupt(std::move(*mismatch));
  }
  const auto stored_digest = parse_hex64(digest->as_string());
  if (!stored_digest) return corrupt("malformed payload digest");

  const kernels::Kernel* kernel = kernels::find_kernel(spec->kernel);
  if (kernel == nullptr) {
    return Error{ErrorCode::kUnknownKernel,
                 "kernel '" + spec->kernel +
                     "' is not registered in this build"};
  }

  // Reconstruct, then prove fidelity end-to-end: re-emitting through the
  // canonical codec must reproduce the exact bytes that were hashed at
  // save time. decode/encode of hostile words can trip contract checks;
  // that is corruption too, not a crash.
  try {
    auto parts = parse_unit_payload(*unit_v, spec->machine);
    if (!parts) return corrupt("malformed unit payload");
    CompiledUnit unit(*kernel, *spec, std::move(parts->program),
                      std::move(parts->scan));
    if (fnv1a64(unit.to_json()) != *stored_digest) {
      return corrupt("payload digest mismatch");
    }
    return unit;
  } catch (const std::exception& e) {
    return corrupt(std::string("payload rejected: ") + e.what());
  }
}

Result<std::shared_ptr<const CompiledUnit>> UnitStore::load(
    const CompileSpec& spec) {
  const fs::path path = path_for(spec);
  const auto frame = [&] { return "unit artifact " + path.string(); };
  const auto reject = [&](Error error) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.rejects;
    }
    return std::move(error).with_context(frame());
  };

  std::error_code ec;
  if (!fs::exists(path, ec) || ec) {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.misses;
    return std::shared_ptr<const CompiledUnit>{};
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) return io_error("cannot read", path).with_context(frame());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();

  auto parsed = json::parse(text);
  if (!parsed.ok()) {
    return reject(corrupt("not valid JSON: " +
                          std::move(parsed).error().message));
  }
  auto unit = validate_artifact(
      parsed.value(),
      [&spec](const CompileSpec& stored) -> std::optional<std::string> {
        if (stored.key() == spec.key()) return std::nullopt;
        return "spec key mismatch (hash collision or tampering): "
               "artifact holds '" +
               stored.key() + "'";
      });
  if (!unit.ok()) return reject(std::move(unit).error());
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.hits;
  }
  return std::make_shared<const CompiledUnit>(std::move(unit).value());
}

Result<void> UnitStore::save(const CompiledUnit& unit) {
  const fs::path path = path_for(unit.spec());
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) return io_error("cannot create store directory", dir_);

  const std::string payload = unit.to_json();
  const CompileSpec& spec = unit.spec();
  const zolc::ZolcGeometry& g = spec.geometry;
  const kernels::KernelEnv& env = spec.env;
  using Layout = json::Writer::Layout;
  json::Writer w;
  w.begin_object(Layout::kLines)
      .member("format", kFormat)
      .member("tag", toolchain_tag())
      .key("spec")
      .begin_object(Layout::kLines)
      .member("kernel", spec.kernel)
      .member("machine", codegen::machine_name(spec.machine));
  // The envelope's numeric geometry object (label strings are display-only).
  w.key("geometry")
      .begin_object()
      .member("tasks", g.max_tasks)
      .member("loops", g.max_loops)
      .member("exits", g.max_exits_per_loop)
      .member("entries", g.max_entries_per_loop)
      .member("pc_ofs_bits", g.pc_ofs_bits)
      .end();
  w.key("env")
      .begin_object()
      .member("code_base", hex32(env.code_base))
      .member("in_base", hex32(env.in_base))
      .member("in2_base", hex32(env.in2_base))
      .member("out_base", hex32(env.out_base))
      .member("aux_base", hex32(env.aux_base))
      .member("scale", env.scale)
      .member("seed", hex32(env.seed))
      .end();
  w.end().member("payload_fnv1a64", hex64(fnv1a64(payload)));
  const std::string out = w.key("unit").raw(payload).end().take();

  // Atomic publish: a concurrent load() sees the old artifact or the new
  // one, never a torn write. The temp name is per-process so two processes
  // saving the same unit cannot interleave into one torn temp file.
  const fs::path tmp =
      path.string() + ".tmp." + std::to_string(::getpid());
  {
    std::ofstream file(tmp, std::ios::binary | std::ios::trunc);
    if (!file) return io_error("cannot write", tmp);
    file << out;
    if (!file.flush()) return io_error("write failed", tmp);
  }
  fs::rename(tmp, path, ec);
  if (ec) {
    fs::remove(tmp, ec);
    return io_error("cannot publish", path);
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.saves;
  return {};
}

UnitStore::Stats UnitStore::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

UnitStore::ArtifactInfo::State UnitStore::classify_artifact(
    const json::Value& root, const std::string& filename) {
  using State = ArtifactInfo::State;
  const auto unit = validate_artifact(
      root,
      [&filename](const CompileSpec& stored) -> std::optional<std::string> {
        if (filename == "unit-" + hex64(key_of(stored)) + ".json") {
          return std::nullopt;
        }
        return "artifact filed under a key it does not own";
      });
  if (unit.ok()) return State::kCurrent;
  switch (unit.error().code) {
    case ErrorCode::kStoreStale:
    case ErrorCode::kUnknownKernel:  // unusable by this build, not damaged
      return State::kStale;
    default:
      return State::kCorrupt;
  }
}

Result<std::vector<UnitStore::ArtifactInfo>> UnitStore::scan_artifacts()
    const {
  std::vector<ArtifactInfo> out;
  std::error_code ec;
  if (!fs::exists(dir_, ec) || ec) return out;
  fs::directory_iterator it(dir_, ec);
  if (ec) return io_error("cannot scan store directory", dir_);
  for (const fs::directory_entry& entry : it) {
    const std::string name = entry.path().filename().string();
    if (!starts_with(name, "unit-") || !name.ends_with(".json")) continue;
    ArtifactInfo info;
    info.file = name;
    info.bytes = entry.file_size(ec);
    if (ec) info.bytes = 0;

    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    auto parsed = json::parse(buffer.str());
    if (in && parsed.ok()) {
      info.state = classify_artifact(parsed.value(), name);
    }
    out.push_back(std::move(info));
  }
  return out;
}

Result<UnitStore::Inventory> UnitStore::inventory() const {
  auto scanned = scan_artifacts();
  if (!scanned.ok()) return std::move(scanned).error();
  Inventory tally;
  for (const ArtifactInfo& info : scanned.value()) {
    switch (info.state) {
      case ArtifactInfo::State::kCurrent: ++tally.current; break;
      case ArtifactInfo::State::kStale: ++tally.stale; break;
      case ArtifactInfo::State::kCorrupt: ++tally.corrupt; break;
    }
    tally.bytes += info.bytes;
  }
  return tally;
}

Result<UnitStore::GcOutcome> UnitStore::gc() {
  auto scanned = scan_artifacts();
  if (!scanned.ok()) return std::move(scanned).error();
  GcOutcome outcome;
  for (const ArtifactInfo& info : scanned.value()) {
    if (info.state == ArtifactInfo::State::kCurrent) {
      ++outcome.kept;
      continue;
    }
    std::error_code ec;
    fs::remove(fs::path(dir_) / info.file, ec);
    if (ec) return io_error("cannot remove", fs::path(dir_) / info.file);
    ++outcome.removed;
    outcome.bytes_freed += info.bytes;
  }
  return outcome;
}

}  // namespace zolcsim::flow
