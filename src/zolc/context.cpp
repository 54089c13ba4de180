#include "zolc/context.hpp"

#include <limits>

#include "common/bitutil.hpp"
#include "common/json.hpp"
#include "common/strings.hpp"

namespace zolcsim::zolc {

namespace {

// ---- payload emission ----
//
// The payload object is the canonical byte form of a context: key() and the
// serialized artifact's integrity digest are both FNV-1a 64 over this exact
// string, and from_json() re-emits the parsed payload to verify the digest,
// so any accepted document round-trips byte-identically.

std::string payload_json(const ZolcContext& ctx) {
  json::Writer w(json::Writer::Style::kCompact);
  w.begin_object().member("variant", variant_name(ctx.variant));
  w.key("geometry")
      .begin_object()
      .member("max_tasks", ctx.geometry.max_tasks)
      .member("max_loops", ctx.geometry.max_loops)
      .member("max_exits_per_loop", ctx.geometry.max_exits_per_loop)
      .member("max_entries_per_loop", ctx.geometry.max_entries_per_loop)
      .member("pc_ofs_bits", ctx.geometry.pc_ofs_bits)
      .end();
  w.member("base", ctx.base)
      .member("current_task", ctx.current_task)
      .member("active", ctx.active);
  w.key("micro")
      .begin_object()
      .member("initial", ctx.micro.initial)
      .member("final", ctx.micro.final)
      .member("step", ctx.micro.step)
      .member("current", ctx.micro.current)
      .member("start_pc", ctx.micro.start_pc)
      .member("end_pc", ctx.micro.end_pc)
      .member("index_rf", ctx.micro.index_rf)
      .member("cond", static_cast<std::uint8_t>(ctx.micro.cond))
      .end();
  w.key("tasks").begin_array();
  for (const TaskEntry& t : ctx.tasks) {
    w.begin_object()
        .member("end_pc_ofs", t.end_pc_ofs)
        .member("loop_id", t.loop_id)
        .member("next_task_cont", t.next_task_cont)
        .member("next_task_done", t.next_task_done)
        .member("is_last", t.is_last)
        .member("valid", t.valid)
        .end();
  }
  w.end().key("task_start").begin_array();
  for (const std::uint16_t start : ctx.task_start) w.value(start);
  w.end().key("loops").begin_array();
  for (const LoopEntry& l : ctx.loops) {
    w.begin_object()
        .member("initial", l.initial)
        .member("final", l.final)
        .member("step", l.step)
        .member("index_rf", l.index_rf)
        .member("cond", static_cast<std::uint8_t>(l.cond))
        .member("valid", l.valid)
        .member("current", l.current)
        .end();
  }
  w.end().key("exits").begin_array();
  for (const ExitRecord& r : ctx.exits) {
    w.begin_object()
        .member("branch_pc_ofs", r.branch_pc_ofs)
        .member("next_task", r.next_task)
        .member("reinit_mask", r.reinit_mask)
        .member("valid", r.valid)
        .member("deactivate", r.deactivate)
        .end();
  }
  w.end().key("entries").begin_array();
  for (const EntryRecord& r : ctx.entries) {
    w.begin_object()
        .member("entry_pc_ofs", r.entry_pc_ofs)
        .member("next_task", r.next_task)
        .member("reinit_mask", r.reinit_mask)
        .member("valid", r.valid)
        .end();
  }
  w.end()
      .key("stats")
      .begin_object()
      .member("continue_events", ctx.stats.continue_events)
      .member("done_events", ctx.stats.done_events)
      .member("cascade_chains", ctx.stats.cascade_chains)
      .member("max_cascade_depth", ctx.stats.max_cascade_depth)
      .member("exit_matches", ctx.stats.exit_matches)
      .member("entry_matches", ctx.stats.entry_matches)
      .member("table_writes", ctx.stats.table_writes)
      .end();
  return w.end().take();
}

// ---- parse helpers ----

Error corrupt(const std::string& what) {
  return Error{ErrorCode::kStoreCorrupt, "context: " + what};
}

Error bad(const std::string& what) {
  return Error{ErrorCode::kBadContext, "context: " + what};
}

/// Member as an unsigned integer <= `max`; nullopt on absence or range.
std::optional<std::uint64_t> get_uint(const json::Value& obj,
                                      std::string_view name,
                                      std::uint64_t max) {
  const json::Value* v = obj.find(name);
  if (v == nullptr) return std::nullopt;
  const auto n = v->as_uint();
  if (!n || *n > max) return std::nullopt;
  return n;
}

/// Member as a signed integer in [min, max]; nullopt otherwise.
std::optional<std::int64_t> get_int(const json::Value& obj,
                                    std::string_view name, std::int64_t min,
                                    std::int64_t max) {
  const json::Value* v = obj.find(name);
  if (v == nullptr || !v->is_number()) return std::nullopt;
  const double d = v->as_number();
  const auto i = static_cast<std::int64_t>(d);
  if (static_cast<double>(i) != d || i < min || i > max) return std::nullopt;
  return i;
}

std::optional<bool> get_bool(const json::Value& obj, std::string_view name) {
  const json::Value* v = obj.find(name);
  if (v == nullptr || !v->is_bool()) return std::nullopt;
  return v->as_bool();
}

constexpr std::int64_t kI16Min = std::numeric_limits<std::int16_t>::min();
constexpr std::int64_t kI16Max = std::numeric_limits<std::int16_t>::max();
constexpr std::int64_t kI32Min = std::numeric_limits<std::int32_t>::min();
constexpr std::int64_t kI32Max = std::numeric_limits<std::int32_t>::max();
constexpr std::uint64_t kU64Max = std::numeric_limits<std::uint64_t>::max();

}  // namespace

std::uint64_t ZolcContext::key() const { return fnv1a64(payload_json(*this)); }

std::string ZolcContext::to_json() const {
  const std::string payload = payload_json(*this);
  return json::Writer()
      .begin_object(json::Writer::Layout::kLines)
      .member("format", kFormat)
      .member("payload_fnv1a64", hex64(fnv1a64(payload)))
      .key("payload")
      .raw(payload)
      .end()
      .take();
}

Result<ZolcContext> ZolcContext::from_json(std::string_view text) {
  auto parsed = json::parse(text);
  if (!parsed.ok()) {
    return std::move(parsed).error().with_context("context artifact");
  }
  const json::Value& doc = parsed.value();
  if (!doc.is_object()) return corrupt("document is not an object");

  const json::Value* format = doc.find("format");
  if (format == nullptr || !format->is_string()) {
    return corrupt("missing format tag");
  }
  if (format->as_string() != kFormat) {
    return Error{ErrorCode::kStoreStale,
                 "context: format '" + format->as_string() + "' (expected '" +
                     std::string(kFormat) + "')"};
  }
  const json::Value* digest = doc.find("payload_fnv1a64");
  if (digest == nullptr || !digest->is_string()) {
    return corrupt("missing payload digest");
  }
  const auto want = parse_hex64(digest->as_string());
  if (!want) return corrupt("malformed payload digest");
  const json::Value* payload = doc.find("payload");
  if (payload == nullptr || !payload->is_object()) {
    return corrupt("missing payload object");
  }

  ZolcContext ctx;
  const json::Value* variant = payload->find("variant");
  if (variant == nullptr || !variant->is_string()) {
    return corrupt("missing variant");
  }
  bool known_variant = false;
  for (const ZolcVariant v :
       {ZolcVariant::kMicro, ZolcVariant::kLite, ZolcVariant::kFull}) {
    if (variant->as_string() == variant_name(v)) {
      ctx.variant = v;
      known_variant = true;
      break;
    }
  }
  if (!known_variant) {
    return bad("unknown variant '" + variant->as_string() + "'");
  }

  const json::Value* geometry = payload->find("geometry");
  if (geometry == nullptr || !geometry->is_object()) {
    return corrupt("missing geometry");
  }
  {
    const auto tasks = get_uint(*geometry, "max_tasks", 256);
    const auto loops = get_uint(*geometry, "max_loops", kMaxGeometryLoops);
    const auto exits = get_uint(*geometry, "max_exits_per_loop", 8);
    const auto entries = get_uint(*geometry, "max_entries_per_loop", 8);
    const auto pc_bits = get_uint(*geometry, "pc_ofs_bits", 16);
    if (!tasks || !loops || !exits || !entries || !pc_bits) {
      return corrupt("malformed geometry");
    }
    ctx.geometry = ZolcGeometry{
        static_cast<unsigned>(*tasks), static_cast<unsigned>(*loops),
        static_cast<unsigned>(*exits), static_cast<unsigned>(*entries),
        static_cast<unsigned>(*pc_bits)};
  }
  if (!ctx.geometry.valid() ||
      !(ctx.geometry == ctx.geometry.for_variant(ctx.variant))) {
    return bad("geometry " + ctx.geometry.label() + " does not fit variant " +
               std::string(variant_name(ctx.variant)));
  }

  const auto base = get_uint(*payload, "base", 0xffffffffull);
  const auto current_task = get_uint(*payload, "current_task", 0xff);
  const auto active = get_bool(*payload, "active");
  if (!base || !current_task || !active) return corrupt("malformed header");
  ctx.base = static_cast<std::uint32_t>(*base);
  ctx.current_task = static_cast<std::uint8_t>(*current_task);
  ctx.active = *active;
  if (ctx.current_task != 0 && ctx.current_task >= ctx.geometry.max_tasks) {
    return bad("current_task " + std::to_string(ctx.current_task) +
               " out of range for geometry " + ctx.geometry.label());
  }

  const json::Value* micro = payload->find("micro");
  if (micro == nullptr || !micro->is_object()) return corrupt("missing micro");
  {
    const auto initial = get_int(*micro, "initial", kI32Min, kI32Max);
    const auto final_v = get_int(*micro, "final", kI32Min, kI32Max);
    const auto step = get_int(*micro, "step", kI32Min, kI32Max);
    const auto current = get_int(*micro, "current", kI32Min, kI32Max);
    const auto start_pc = get_uint(*micro, "start_pc", 0xffffffffull);
    const auto end_pc = get_uint(*micro, "end_pc", 0xffffffffull);
    const auto index_rf = get_uint(*micro, "index_rf", 31);
    const auto cond = get_uint(*micro, "cond", 3);
    if (!initial || !final_v || !step || !current || !start_pc || !end_pc ||
        !index_rf || !cond) {
      return corrupt("malformed micro state");
    }
    ctx.micro.initial = static_cast<std::int32_t>(*initial);
    ctx.micro.final = static_cast<std::int32_t>(*final_v);
    ctx.micro.step = static_cast<std::int32_t>(*step);
    ctx.micro.current = static_cast<std::int32_t>(*current);
    ctx.micro.start_pc = static_cast<std::uint32_t>(*start_pc);
    ctx.micro.end_pc = static_cast<std::uint32_t>(*end_pc);
    ctx.micro.index_rf = static_cast<std::uint8_t>(*index_rf);
    ctx.micro.cond = static_cast<LoopCond>(*cond);
  }

  const json::Value* tasks = payload->find("tasks");
  const json::Value* task_start = payload->find("task_start");
  const json::Value* loops = payload->find("loops");
  const json::Value* exits = payload->find("exits");
  const json::Value* entries = payload->find("entries");
  for (const json::Value* table : {tasks, task_start, loops, exits, entries}) {
    if (table == nullptr || !table->is_array()) {
      return corrupt("missing table array");
    }
  }
  if (tasks->items().size() != ctx.geometry.max_tasks ||
      task_start->items().size() != ctx.geometry.max_tasks ||
      loops->items().size() != ctx.geometry.max_loops ||
      exits->items().size() != ctx.geometry.exit_record_count() ||
      entries->items().size() != ctx.geometry.entry_record_count()) {
    return bad("table sizes do not match geometry " + ctx.geometry.label());
  }

  const std::uint64_t pc_ofs_max = mask32(ctx.geometry.pc_ofs_bits);
  const std::uint64_t mask_max = mask32(ctx.geometry.max_loops);
  for (const json::Value& item : tasks->items()) {
    if (!item.is_object()) return corrupt("malformed task entry");
    const auto end_pc_ofs = get_uint(item, "end_pc_ofs", pc_ofs_max);
    const auto loop_id = get_uint(item, "loop_id", ctx.geometry.max_loops - 1);
    const auto cont = get_uint(item, "next_task_cont", 0xff);
    const auto done = get_uint(item, "next_task_done", 0xff);
    const auto is_last = get_bool(item, "is_last");
    const auto valid = get_bool(item, "valid");
    if (!end_pc_ofs || !loop_id || !cont || !done || !is_last || !valid) {
      return corrupt("malformed task entry");
    }
    TaskEntry t;
    t.end_pc_ofs = static_cast<std::uint16_t>(*end_pc_ofs);
    t.loop_id = static_cast<std::uint8_t>(*loop_id);
    t.next_task_cont = static_cast<std::uint8_t>(*cont);
    t.next_task_done = static_cast<std::uint8_t>(*done);
    t.is_last = *is_last;
    t.valid = *valid;
    ctx.tasks.push_back(t);
  }
  for (const json::Value& item : task_start->items()) {
    const auto ofs = item.as_uint();
    if (!ofs || *ofs > pc_ofs_max) return corrupt("malformed task start");
    ctx.task_start.push_back(static_cast<std::uint16_t>(*ofs));
  }
  for (const json::Value& item : loops->items()) {
    if (!item.is_object()) return corrupt("malformed loop entry");
    const auto initial = get_int(item, "initial", kI16Min, kI16Max);
    const auto final_v = get_int(item, "final", kI16Min, kI16Max);
    const auto step = get_int(item, "step", -128, 127);
    const auto index_rf = get_uint(item, "index_rf", 31);
    const auto cond = get_uint(item, "cond", 3);
    const auto valid = get_bool(item, "valid");
    const auto current = get_int(item, "current", kI32Min, kI32Max);
    if (!initial || !final_v || !step || !index_rf || !cond || !valid ||
        !current) {
      return corrupt("malformed loop entry");
    }
    LoopEntry l;
    l.initial = static_cast<std::int16_t>(*initial);
    l.final = static_cast<std::int16_t>(*final_v);
    l.step = static_cast<std::int8_t>(*step);
    l.index_rf = static_cast<std::uint8_t>(*index_rf);
    l.cond = static_cast<LoopCond>(*cond);
    l.valid = *valid;
    l.current = static_cast<std::int32_t>(*current);
    ctx.loops.push_back(l);
  }
  for (const json::Value& item : exits->items()) {
    if (!item.is_object()) return corrupt("malformed exit record");
    const auto branch = get_uint(item, "branch_pc_ofs", pc_ofs_max);
    const auto next_task = get_uint(item, "next_task", 0xff);
    const auto reinit = get_uint(item, "reinit_mask", mask_max);
    const auto valid = get_bool(item, "valid");
    const auto deactivate = get_bool(item, "deactivate");
    if (!branch || !next_task || !reinit || !valid || !deactivate) {
      return corrupt("malformed exit record");
    }
    ExitRecord r;
    r.branch_pc_ofs = static_cast<std::uint16_t>(*branch);
    r.next_task = static_cast<std::uint8_t>(*next_task);
    r.reinit_mask = static_cast<std::uint32_t>(*reinit);
    r.valid = *valid;
    r.deactivate = *deactivate;
    ctx.exits.push_back(r);
  }
  for (const json::Value& item : entries->items()) {
    if (!item.is_object()) return corrupt("malformed entry record");
    const auto entry_pc = get_uint(item, "entry_pc_ofs", pc_ofs_max);
    const auto next_task = get_uint(item, "next_task", 0xff);
    const auto reinit = get_uint(item, "reinit_mask", mask_max);
    const auto valid = get_bool(item, "valid");
    if (!entry_pc || !next_task || !reinit || !valid) {
      return corrupt("malformed entry record");
    }
    EntryRecord r;
    r.entry_pc_ofs = static_cast<std::uint16_t>(*entry_pc);
    r.next_task = static_cast<std::uint8_t>(*next_task);
    r.reinit_mask = static_cast<std::uint32_t>(*reinit);
    r.valid = *valid;
    ctx.entries.push_back(r);
  }

  const json::Value* stats = payload->find("stats");
  if (stats == nullptr || !stats->is_object()) return corrupt("missing stats");
  {
    const auto continues = get_uint(*stats, "continue_events", kU64Max);
    const auto dones = get_uint(*stats, "done_events", kU64Max);
    const auto cascades = get_uint(*stats, "cascade_chains", kU64Max);
    const auto depth = get_uint(*stats, "max_cascade_depth", kU64Max);
    const auto exit_m = get_uint(*stats, "exit_matches", kU64Max);
    const auto entry_m = get_uint(*stats, "entry_matches", kU64Max);
    const auto writes = get_uint(*stats, "table_writes", kU64Max);
    if (!continues || !dones || !cascades || !depth || !exit_m || !entry_m ||
        !writes) {
      return corrupt("malformed stats");
    }
    ctx.stats.continue_events = *continues;
    ctx.stats.done_events = *dones;
    ctx.stats.cascade_chains = *cascades;
    ctx.stats.max_cascade_depth = *depth;
    ctx.stats.exit_matches = *exit_m;
    ctx.stats.entry_matches = *entry_m;
    ctx.stats.table_writes = *writes;
  }

  // Integrity: the canonical re-emission of what we parsed must hash to the
  // declared digest; anything else is a tampered or truncated artifact.
  if (fnv1a64(payload_json(ctx)) != *want) {
    return corrupt("payload digest mismatch");
  }
  return ctx;
}

ContextSwitchCost context_switch_cost(const ZolcContext& ctx) {
  ContextSwitchCost cost;
  if (ctx.variant == ZolcVariant::kMicro) {
    // Save: the live index register + one status word. Restore: the seven
    // meaningful uZOLC registers + the status word.
    cost.save_words = 2;
    cost.restore_words = 8;
    return cost;
  }
  std::uint64_t valid_loops = 0;
  for (const LoopEntry& l : ctx.loops) valid_loops += l.valid ? 1 : 0;
  std::uint64_t valid_tasks = 0;
  for (const TaskEntry& t : ctx.tasks) valid_tasks += t.valid ? 1 : 0;
  std::uint64_t valid_records = 0;
  for (const ExitRecord& r : ctx.exits) valid_records += r.valid ? 1 : 0;
  for (const EntryRecord& r : ctx.entries) valid_records += r.valid ? 1 : 0;

  // Save moves only live state: one word per valid loop's index copy plus
  // one position/status word (current task, active flag).
  cost.save_words = valid_loops + 1;
  // Restore replays the init sequence -- two words per valid task (entry +
  // start), two per valid loop, record_words() per valid exit/entry record
  // (the paper's init-overhead accounting) -- then the live loop indices,
  // the activation base, and the position/status word.
  cost.restore_words = 2 * valid_tasks + 2 * valid_loops +
                       ctx.geometry.record_words() * valid_records +
                       valid_loops + 2;
  return cost;
}

}  // namespace zolcsim::zolc
