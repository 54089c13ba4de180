// ZolcContext tests: randomized JSON round-trips across the same geometry
// set as the table-codec tests (including the wide geometry whose exit
// records spill into a hi word), the error taxonomy of the codec
// (kStoreStale / kStoreCorrupt / kBadContext), the typed restore surfaces on
// the controller, and the modeled context-switch cost.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/bitutil.hpp"
#include "common/strings.hpp"
#include "cpu/exec.hpp"
#include "zolc/context.hpp"
#include "zolc/controller.hpp"

namespace zolcsim::zolc {
namespace {

/// Deterministic generator (xorshift32) for the randomized round-trips.
class Rng {
 public:
  explicit Rng(std::uint32_t seed) : state_(seed) {}
  std::uint32_t next() {
    state_ ^= state_ << 13;
    state_ ^= state_ >> 17;
    state_ ^= state_ << 5;
    return state_;
  }
  /// Uniform value representable in `bits` bits.
  std::uint32_t field(unsigned bits) { return next() & mask32(bits); }

 private:
  std::uint32_t state_;
};

const std::vector<ZolcGeometry>& test_geometries() {
  static const std::vector<ZolcGeometry> geoms = {
      ZolcGeometry{},                  // paper ZOLCfull
      ZolcGeometry{32, 8, 0, 0},       // paper ZOLClite table shape
      ZolcGeometry{32, 16, 4, 4},      // deeper: 2-word exit records
      ZolcGeometry{16, 32, 2, 2},      // widest loop table
      ZolcGeometry{64, 4, 1, 1},       // task-heavy
      ZolcGeometry{64, 8, 2, 2, 14},   // narrowed pc offsets
  };
  return geoms;
}

/// A randomized context whose every field is inside the codec's validated
/// ranges for `g` (anything wider would be rejected as corrupt, which the
/// error tests cover separately).
ZolcContext random_context(ZolcVariant variant, const ZolcGeometry& g,
                           Rng& rng) {
  ZolcContext ctx;
  ctx.variant = variant;
  ctx.geometry = g.for_variant(variant);
  const ZolcGeometry& geom = ctx.geometry;
  for (unsigned i = 0; i < geom.max_tasks; ++i) {
    TaskEntry t;
    t.end_pc_ofs = static_cast<std::uint16_t>(rng.field(geom.pc_ofs_bits));
    t.loop_id = static_cast<std::uint8_t>(rng.next() % geom.max_loops);
    t.next_task_cont = static_cast<std::uint8_t>(rng.field(8));
    t.next_task_done = static_cast<std::uint8_t>(rng.field(8));
    t.is_last = rng.field(1) != 0;
    t.valid = rng.field(1) != 0;
    ctx.tasks.push_back(t);
    ctx.task_start.push_back(
        static_cast<std::uint16_t>(rng.field(geom.pc_ofs_bits)));
  }
  for (unsigned i = 0; i < geom.max_loops; ++i) {
    LoopEntry l;
    l.initial = static_cast<std::int16_t>(rng.field(16));
    l.final = static_cast<std::int16_t>(rng.field(16));
    l.step = static_cast<std::int8_t>(rng.field(8));
    l.index_rf = static_cast<std::uint8_t>(rng.field(5));
    l.cond = static_cast<LoopCond>(rng.field(2));
    l.valid = rng.field(1) != 0;
    l.current = static_cast<std::int32_t>(rng.next());
    ctx.loops.push_back(l);
  }
  for (unsigned i = 0; i < geom.exit_record_count(); ++i) {
    ExitRecord r;
    r.branch_pc_ofs = static_cast<std::uint16_t>(rng.field(geom.pc_ofs_bits));
    r.next_task = static_cast<std::uint8_t>(rng.field(8));
    r.reinit_mask = rng.field(geom.max_loops);
    r.valid = rng.field(1) != 0;
    r.deactivate = rng.field(1) != 0;
    ctx.exits.push_back(r);
  }
  for (unsigned i = 0; i < geom.entry_record_count(); ++i) {
    EntryRecord r;
    r.entry_pc_ofs = static_cast<std::uint16_t>(rng.field(geom.pc_ofs_bits));
    r.next_task = static_cast<std::uint8_t>(rng.field(8));
    r.reinit_mask = rng.field(geom.max_loops);
    r.valid = rng.field(1) != 0;
    ctx.entries.push_back(r);
  }
  ctx.micro.initial = static_cast<std::int32_t>(rng.next());
  ctx.micro.final = static_cast<std::int32_t>(rng.next());
  ctx.micro.step = static_cast<std::int32_t>(rng.next());
  ctx.micro.current = static_cast<std::int32_t>(rng.next());
  ctx.micro.start_pc = rng.next();
  ctx.micro.end_pc = rng.next();
  ctx.micro.index_rf = static_cast<std::uint8_t>(rng.field(5));
  ctx.micro.cond = static_cast<LoopCond>(rng.field(2));
  ctx.base = rng.next();
  ctx.current_task =
      geom.max_tasks == 0
          ? 0
          : static_cast<std::uint8_t>(rng.next() % geom.max_tasks);
  ctx.active = rng.field(1) != 0;
  ctx.stats.continue_events = rng.next();
  ctx.stats.done_events = rng.next();
  ctx.stats.cascade_chains = rng.next();
  ctx.stats.max_cascade_depth = rng.field(6);
  ctx.stats.exit_matches = rng.next();
  ctx.stats.entry_matches = rng.next();
  ctx.stats.table_writes = rng.next();
  return ctx;
}

// ---------------- randomized round-trips ----------------

TEST(ContextRoundTrip, JsonByteIdenticalAcrossGeometries) {
  for (const ZolcGeometry& g : test_geometries()) {
    ASSERT_TRUE(g.valid()) << g.label();
    Rng rng(0xC7E51101u + g.max_loops * 31 + g.max_tasks);
    for (int i = 0; i < 50; ++i) {
      const ZolcContext ctx = random_context(ZolcVariant::kFull, g, rng);
      const std::string json = ctx.to_json();
      auto back = ZolcContext::from_json(json);
      ASSERT_TRUE(back.ok()) << g.label() << ": "
                             << back.error().to_string();
      EXPECT_EQ(back.value(), ctx) << g.label();
      // Byte-identical re-serialization is the integrity contract: key()
      // and the artifact digest hash the canonical payload.
      EXPECT_EQ(back.value().to_json(), json) << g.label();
      EXPECT_EQ(back.value().key(), ctx.key()) << g.label();
    }
  }
}

TEST(ContextRoundTrip, SpilledHiWordRecordsSurvive) {
  // 16 loops: exit records are wider than one init word (record_words 2) and
  // reinit masks use all 16 bits; the codec must carry them undamaged.
  const ZolcGeometry g{32, 16, 4, 4};
  ASSERT_EQ(g.record_words(), 2u);
  Rng rng(0x5B11DD02u);
  ZolcContext ctx = random_context(ZolcVariant::kFull, g, rng);
  ctx.exits[7].reinit_mask = 0xFFFF;  // all 16 loops
  ctx.exits[7].valid = true;
  auto back = ZolcContext::from_json(ctx.to_json());
  ASSERT_TRUE(back.ok()) << back.error().to_string();
  EXPECT_EQ(back.value().exits[7].reinit_mask, 0xFFFFu);
  EXPECT_EQ(back.value(), ctx);
}

TEST(ContextRoundTrip, MicroAndLiteVariants) {
  Rng rng(0xAB5EED03u);
  for (const ZolcVariant variant : {ZolcVariant::kMicro, ZolcVariant::kLite}) {
    const ZolcContext ctx =
        random_context(variant, ZolcGeometry{}.for_variant(variant), rng);
    auto back = ZolcContext::from_json(ctx.to_json());
    ASSERT_TRUE(back.ok()) << back.error().to_string();
    EXPECT_EQ(back.value(), ctx);
    EXPECT_EQ(back.value().to_json(), ctx.to_json());
  }
}

// ---------------- codec error taxonomy ----------------

TEST(ContextErrors, ForeignFormatTagIsStale) {
  Rng rng(0x0BADF00Du);
  std::string json =
      random_context(ZolcVariant::kFull, ZolcGeometry{}, rng).to_json();
  const std::string tag(ZolcContext::kFormat);
  json.replace(json.find(tag), tag.size(), "zolcsim-context-v0");
  auto parsed = ZolcContext::from_json(json);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.error().code, ErrorCode::kStoreStale);
}

TEST(ContextErrors, TamperedPayloadIsCorrupt) {
  Rng rng(0x7A3B3304u);
  ZolcContext ctx = random_context(ZolcVariant::kFull, ZolcGeometry{}, rng);
  ctx.base = 1000;
  std::string json = ctx.to_json();
  // Flip the base field after the digest was computed: still shape-valid,
  // but the canonical re-emission no longer hashes to the declared digest.
  const std::string needle = "\"base\":1000";
  const auto pos = json.find(needle);
  ASSERT_NE(pos, std::string::npos);
  json.replace(pos, needle.size(), "\"base\":1001");
  auto parsed = ZolcContext::from_json(json);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.error().code, ErrorCode::kStoreCorrupt);
}

TEST(ContextErrors, MalformedJsonIsParseError) {
  auto parsed = ZolcContext::from_json("{\"format\": ");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.error().code, ErrorCode::kParse);
}

TEST(ContextErrors, TableSizeMismatchIsBadContext) {
  Rng rng(0x512E0005u);
  ZolcContext ctx = random_context(ZolcVariant::kFull, ZolcGeometry{}, rng);
  ctx.tasks.pop_back();  // one task short of the declared geometry
  auto parsed = ZolcContext::from_json(ctx.to_json());
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.error().code, ErrorCode::kBadContext);
}

TEST(ContextErrors, GeometryVariantMismatchIsBadContext) {
  Rng rng(0x6E06E006u);
  ZolcContext ctx = random_context(ZolcVariant::kFull, ZolcGeometry{}, rng);
  // A lite context must carry a lite-restricted geometry; declaring the
  // full table shape under the lite variant is inconsistent.
  ctx.variant = ZolcVariant::kLite;
  auto parsed = ZolcContext::from_json(ctx.to_json());
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.error().code, ErrorCode::kBadContext);
}

// ---------------- controller restore surfaces ----------------

/// Programs loop `id` of a lite/full controller via the init-write bus.
void write_loop(ZolcController& c, unsigned id, std::int16_t initial,
                std::int16_t final, std::int8_t step, std::uint8_t index_rf) {
  LoopEntry e;
  e.initial = initial;
  e.final = final;
  e.step = step;
  e.index_rf = index_rf;
  e.cond = LoopCond::kLe;
  e.valid = true;
  c.init_write(isa::Opcode::kZolwLp0, static_cast<std::uint8_t>(id),
               e.pack_word0());
  c.init_write(isa::Opcode::kZolwLp1, static_cast<std::uint8_t>(id),
               e.pack_word1());
}

void write_task(ZolcController& c, unsigned id, std::uint16_t start_ofs,
                std::uint16_t end_ofs, std::uint8_t loop_id) {
  TaskEntry e;
  e.end_pc_ofs = end_ofs;
  e.loop_id = loop_id;
  e.next_task_cont = static_cast<std::uint8_t>(id);
  e.next_task_done = static_cast<std::uint8_t>(id);
  e.is_last = true;
  e.valid = true;
  c.init_write(isa::Opcode::kZolwTe, static_cast<std::uint8_t>(id), e.pack());
  c.init_write(isa::Opcode::kZolwTs, static_cast<std::uint8_t>(id),
               start_ofs);
}

TEST(ControllerContext, SaveRestoreRoundTripsLiveState) {
  ZolcController controller(ZolcVariant::kFull);
  write_loop(controller, 0, 0, 9, 1, 3);
  write_task(controller, 0, 2, 10, 0);
  controller.activate(0, 0x1000);
  const ZolcContext saved = controller.save_context();
  EXPECT_TRUE(saved.active);
  EXPECT_EQ(saved.base, 0x1000u);

  // Clobber everything, then restore: the controller must be back exactly.
  controller.reset();
  EXPECT_FALSE(controller.active());
  ASSERT_TRUE(controller.restore_context(saved).ok());
  EXPECT_EQ(controller.save_context(), saved);
  EXPECT_TRUE(controller.active());
  EXPECT_EQ(controller.zolc_stats(), saved.stats);
}

TEST(ControllerContext, RestoreRejectsWrongGeometryAndVariant) {
  ZolcController controller(ZolcVariant::kFull);
  ZolcController wide(ZolcVariant::kFull, ZolcGeometry{32, 16, 4, 4});
  const ZolcContext foreign = wide.save_context();
  auto restored = controller.restore_context(foreign);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.error().code, ErrorCode::kBadContext);

  ZolcController lite(ZolcVariant::kLite);
  auto cross = lite.restore_context(controller.save_context());
  ASSERT_FALSE(cross.ok());
  EXPECT_EQ(cross.error().code, ErrorCode::kBadContext);

  // The rejected restore must leave the target untouched.
  EXPECT_EQ(controller.save_context(), ZolcController(ZolcVariant::kFull)
                                           .save_context());
}

TEST(ControllerContext, TryRestoreRejectsBadSnapshotLoopCount) {
  ZolcController controller(ZolcVariant::kFull);  // 8-loop geometry
  cpu::AccelSnapshot snapshot = controller.snapshot();
  ASSERT_EQ(snapshot.loop_count, 8u);
  snapshot.loop_count = 3;  // saved from a different geometry
  auto restored = controller.try_restore(snapshot);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.error().code, ErrorCode::kBadContext);
  // restore() turns the same mismatch into a SimError.
  EXPECT_THROW(controller.restore(snapshot), cpu::SimError);
  // A matching snapshot restores cleanly.
  EXPECT_TRUE(controller.try_restore(controller.snapshot()).ok());
}

// ---------------- modeled switch cost ----------------

TEST(ContextCost, MicroCostIsFixed) {
  ZolcController controller(ZolcVariant::kMicro);
  const ContextSwitchCost cost =
      context_switch_cost(controller.save_context());
  EXPECT_EQ(cost.save_words, 2u);
  EXPECT_EQ(cost.restore_words, 8u);
  EXPECT_EQ(cost.total_cycles(), 10u);
}

TEST(ContextCost, RestoreCostTracksProgrammedState) {
  ZolcController controller(ZolcVariant::kFull);
  const ContextSwitchCost empty =
      context_switch_cost(controller.save_context());
  // Nothing programmed: no loop indices to save, only the base and the
  // position/status word to restore.
  EXPECT_EQ(empty.save_words, 1u);
  EXPECT_EQ(empty.restore_words, 2u);

  write_loop(controller, 0, 0, 9, 1, 3);
  write_loop(controller, 1, 0, 4, 1, 4);
  const ContextSwitchCost programmed =
      context_switch_cost(controller.save_context());
  // Two valid loops: save carries their index copies; restore replays their
  // init words plus the live state.
  EXPECT_EQ(programmed.save_words, 3u);
  EXPECT_EQ(programmed.restore_words, 2u * 2 + 2 + 2);
  EXPECT_GT(programmed.restore_words, programmed.save_words);
}

}  // namespace
}  // namespace zolcsim::zolc
