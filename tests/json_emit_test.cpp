// Byte pins for every JSON emitter (context envelope, compiled unit, store
// artifact, sweep report, BENCH artifact, error and non-timing daemon
// replies): these bytes are the wire and on-disk contract, and digests are
// taken over some of them. Long documents are pinned by FNV-1a 64 plus an
// excerpt, short ones exactly; build-dependent text (toolchain tag, git
// sha, compiler) is replaced by a placeholder first. The JsonWriter cases
// pin the writer's own rules.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>

#include "common/json.hpp"
#include "common/strings.hpp"
#include "common/toolchain.hpp"
#include "flow/compiled_unit.hpp"
#include "flow/unit_store.hpp"
#include "harness/sweep.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"
#include "server/client.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"
#include "zolc/context.hpp"

namespace zolcsim {
namespace {

namespace fs = std::filesystem;

std::string replace_all(std::string text, std::string_view from,
                        std::string_view to) {
  for (std::size_t at = text.find(from); at != std::string::npos;
       at = text.find(from, at + to.size())) {
    text.replace(at, from.size(), to);
  }
  return text;
}

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// A small but complete context: every table kind populated, negative
/// loop fields, both booleans in both states.
zolc::ZolcContext fixed_context() {
  zolc::ZolcContext ctx;
  ctx.geometry = zolc::ZolcGeometry{4, 2, 1, 1, 12};
  ctx.tasks = {{3, 0, 0, 1, false, true},
               {13, 1, 1, 2, false, true},
               {23, 0, 2, 3, false, false},
               {33, 1, 3, 4, true, true}};
  ctx.task_start = {0, 10, 20, 30};
  ctx.loops = {{0, 64, 1, 8, zolc::LoopCond::kLt, true, 17},
               {-8, 8, -2, 9, zolc::LoopCond::kGt, true, -4}};
  ctx.exits = {{5, 3, 1, true, false}, {6, 2, 2, false, true}};
  ctx.entries = {{20, 0, 3, false}, {21, 1, 3, true}};
  ctx.micro = {-1, 100, 3, 41, 0x1000, 0x1040, 5, zolc::LoopCond::kGe};
  ctx.base = 0x400;
  ctx.current_task = 2;
  ctx.active = true;
  ctx.stats = {7, 3, 1, 2, 4, 5, 6};
  return ctx;
}

TEST(JsonEmit, ContextEnvelopeBytes) {
  const zolc::ZolcContext ctx = fixed_context();
  const std::string payload =
      R"({"variant":"ZOLCfull","geometry":{"max_tasks":4,"max_loops":2,)"
      R"("max_exits_per_loop":1,"max_entries_per_loop":1,"pc_ofs_bits":12},)"
      R"("base":1024,"current_task":2,"active":true,"micro":{"initial":-1,)"
      R"("final":100,"step":3,"current":41,"start_pc":4096,"end_pc":4160,)"
      R"("index_rf":5,"cond":3},"tasks":[{"end_pc_ofs":3,"loop_id":0,)"
      R"("next_task_cont":0,"next_task_done":1,"is_last":false,"valid":true},)"
      R"({"end_pc_ofs":13,"loop_id":1,"next_task_cont":1,"next_task_done":2,)"
      R"("is_last":false,"valid":true},{"end_pc_ofs":23,"loop_id":0,)"
      R"("next_task_cont":2,"next_task_done":3,"is_last":false,"valid":false},)"
      R"({"end_pc_ofs":33,"loop_id":1,"next_task_cont":3,"next_task_done":4,)"
      R"("is_last":true,"valid":true}],"task_start":[0,10,20,30],)"
      R"("loops":[{"initial":0,"final":64,"step":1,"index_rf":8,"cond":0,)"
      R"("valid":true,"current":17},{"initial":-8,"final":8,"step":-2,)"
      R"("index_rf":9,"cond":2,"valid":true,"current":-4}],)"
      R"("exits":[{"branch_pc_ofs":5,"next_task":3,"reinit_mask":1,)"
      R"("valid":true,"deactivate":false},{"branch_pc_ofs":6,"next_task":2,)"
      R"("reinit_mask":2,"valid":false,"deactivate":true}],)"
      R"("entries":[{"entry_pc_ofs":20,"next_task":0,"reinit_mask":3,)"
      R"("valid":false},{"entry_pc_ofs":21,"next_task":1,"reinit_mask":3,)"
      R"("valid":true}],"stats":{"continue_events":7,"done_events":3,)"
      R"("cascade_chains":1,"max_cascade_depth":2,"exit_matches":4,)"
      R"("entry_matches":5,"table_writes":6}})";
  EXPECT_EQ(ctx.key(), fnv1a64(payload));
  EXPECT_EQ(ctx.to_json(), "{\n  \"format\": \"zolcsim-context-v1\",\n"
                           "  \"payload_fnv1a64\": \"" +
                               hex64(fnv1a64(payload)) +
                               "\",\n  \"payload\": " + payload + "\n}\n");
}

flow::CompiledUnit fir_unit() {
  flow::CompileSpec spec;
  spec.kernel = "fir";
  spec.machine = codegen::MachineKind::kZolcFull;
  auto unit = flow::CompiledUnit::compile(spec);
  EXPECT_TRUE(unit.ok());
  return std::move(unit).value();
}

TEST(JsonEmit, CompiledUnitBytes) {
  const flow::CompiledUnit unit = fir_unit();
  ASSERT_EQ(unit.program().size_words(), 56u);
  const std::string text = unit.to_json();
  // The 8-per-line words array keeps its historical trailing ", ".
  EXPECT_NE(text.find("    \"words\": [\n      \"0x"), std::string::npos);
  EXPECT_NE(text.find("\", \n      \"0x"), std::string::npos);
  EXPECT_TRUE(text.ends_with("    \"rejected\": []\n  }\n}\n"));
  EXPECT_EQ(hex64(fnv1a64(text)), "157caa4bcc5f2d46");
}

TEST(JsonEmit, UnitStoreArtifactBytes) {
  const fs::path dir = fs::path(testing::TempDir()) / "json_emit_store";
  fs::remove_all(dir);
  flow::UnitStore store(dir.string());
  const flow::CompiledUnit unit = fir_unit();
  ASSERT_TRUE(store.save(unit).ok());
  const fs::path file =
      dir / ("unit-" + hex64(flow::UnitStore::key_of(unit.spec())) + ".json");
  const std::string text = replace_all(
      slurp(file), flow::UnitStore::toolchain_tag(), "<tag>");
  EXPECT_NE(text.find(R"("geometry": {"tasks": 32, "loops": 8, "exits": 4, )"
                      R"("entries": 4, "pc_ofs_bits": 16},)"),
            std::string::npos);
  EXPECT_NE(text.find("  \"unit\": {\n  \"kernel\": \"fir\",\n"),
            std::string::npos);
  // The unit document is embedded verbatim, minus its final newline.
  EXPECT_TRUE(text.ends_with("    \"rejected\": []\n  }\n}\n}\n"));
  EXPECT_EQ(hex64(fnv1a64(text)), "0ad3639c3dfe31be");
  fs::remove_all(dir);
}

TEST(JsonEmit, SweepReportBytes) {
  harness::SweepSpec spec;
  spec.kernels = {"dotprod"};
  spec.machines = {codegen::MachineKind::kZolcFull,
                   codegen::MachineKind::kXrDefault};
  spec.geometries = {zolc::ZolcGeometry{}, zolc::ZolcGeometry{16, 4, 2, 2}};
  spec.modes = {harness::ExecMode{harness::SimEngine::kIss, false},
                harness::ExecMode{harness::SimEngine::kIss, true}};
  spec.tenants = {1, 2};
  auto report = harness::run_sweep(spec);
  ASSERT_TRUE(report.ok()) << report.error().to_string();
  const std::string text = report.value().to_json();
  EXPECT_TRUE(text.starts_with(
      "{\n  \"baseline\": \"XRdefault\",\n  \"cells\": [\n    {\"kernel\": "
      R"("dotprod", "machine": "ZOLCfull", "config": "EX-resolve/rollback", )"
      R"("geometry": "32t-8l-4x-4e", "mode": "iss", "tenants": 1, )"
      R"("cycles": 348, "instructions": 348, "reduction_pct": 23.6842, )"
      R"("init_instructions": 22, "hw_loops": 1, "sw_loops": 0, )"
      R"("continue_events": 63, "done_events": 1, "ctx_switches": 0, )"
      R"("ctx_switch_cycles": 0},)" "\n"));
  EXPECT_TRUE(text.ends_with("}\n  ]\n}\n"));
  EXPECT_EQ(hex64(fnv1a64(text)), "22fa69f093da0f7a");
}

TEST(JsonEmit, BenchArtifactBytesApartFromHost) {
  auto suite = scenario::parse_suite(R"({
    "suite": "emit_pin",
    "version": 1,
    "description": "tab\there \"quoted\"",
    "sweep": {"kernels": ["dotprod"], "machines": ["ZOLCfull"],
              "modes": ["iss", "iss-fast"]}
  })",
                                     "emit test");
  ASSERT_TRUE(suite.ok()) << suite.error().to_string();
  flow::CompileCache cache;
  auto outcome = scenario::run_suite(suite.value(), cache);
  ASSERT_TRUE(outcome.ok()) << outcome.error().to_string();
  scenario::SuiteOutcome done = std::move(outcome).value();
  done.wall_seconds = 1.23456;
  done.mips = 98.765;
  for (std::size_t i = 0; i < done.report.cells.size(); ++i) {
    done.report.cells[i].result.wall_ns = 1'000'000 * (i + 1);
  }
  std::string text = scenario::bench_artifact_json(done);
  text = replace_all(std::move(text), scenario::build_git_sha(), "<sha>");
  text = replace_all(std::move(text), compiler_id(), "<cc>");
  EXPECT_NE(text.find(R"("wall_seconds": 1.2346,)" "\n"
                      R"(  "mips": 98.77,)"),
            std::string::npos);
  EXPECT_NE(text.find(R"("wall_ns": 2000000, "mips": 0.17, "fastpath": )"
                      R"({"attempts": 1, "engagements": 1, )"
                      R"("replayed_instructions": 315, )"
                      R"("replayed_backedges": 63, "bailouts": {}}})"),
            std::string::npos);
  EXPECT_EQ(hex64(fnv1a64(text)), "d91a888335bdc60c");
}

TEST(JsonEmit, ErrorReplyBytes) {
  Error error{ErrorCode::kBadConfig, "bad \"x\"\\y\n\ttab \x01 end"};
  error = std::move(error).with_context("inner\r").with_context("outer");
  EXPECT_EQ(server::error_reply(error),
            R"({"schema": "zolcsim-serve-v1", "reply": "error", )"
            R"("code": "bad-config", "message": "bad \"x\"\\y\n\ttab \u0001 end", )"
            R"("context": ["outer", "inner\r"]})");
  EXPECT_EQ(server::error_reply(Error{ErrorCode::kParse, "m"}),
            R"({"schema": "zolcsim-serve-v1", "reply": "error", )"
            R"("code": "parse", "message": "m", "context": []})");
}

// ---- the writer itself ----

TEST(JsonWriter, EmptyContainersAndEscaping) {
  using Layout = json::Writer::Layout;
  json::Writer w;
  w.begin_object(Layout::kLines).key("a").begin_array().end();
  w.key("b").begin_object(Layout::kLines).end();
  w.key("c").begin_array().wrap(3).end();
  w.key("\x01\x1f\x7f\b\f/").value("\xc3\xa9");  // UTF-8 passes through
  EXPECT_EQ(w.end().take(),
            "{\n  \"a\": [],\n  \"b\": {},\n  \"c\": [],\n"
            "  \"\\u0001\\u001f\x7f\\u0008\\u000c/\": \"\xc3\xa9\"\n}\n");
  EXPECT_EQ(json::Writer().begin_array().end().take(), "[]");
}

TEST(JsonWriter, NumberText) {
  json::Writer w(json::Writer::Style::kCompact);
  w.begin_array()
      .value(std::uint64_t{18446744073709551615u})
      .value(std::int64_t{-9223372036854775807 - 1})
      .value(std::uint8_t{200})
      .value(std::int8_t{-5})
      .value(2.0)
      .value(-0.1)
      .value(1e21)
      .fixed(2.0 / 3.0, 4)
      .fixed(1.5, 0)
      .fixed(0.0005, 3)
      .fixed(12.0, 2)
      .null()
      .value(false);
  EXPECT_EQ(w.end().take(),
            "[18446744073709551615,-9223372036854775808,200,-5,2,-0.1,1e+21,"
            "0.6667,2,0.001,12.00,null,false]");
}

TEST(JsonWriter, NestedLineContainersIndentByDepth) {
  using Layout = json::Writer::Layout;
  json::Writer w;
  w.begin_object(Layout::kLines).member("n", 1).key("outer");
  w.begin_array(Layout::kLines);
  w.begin_object(Layout::kLines).key("inner").begin_array(Layout::kLines);
  w.value(1).begin_object().member("x", 2).member("y", "z").end();
  w.end().end();
  w.begin_array().value(3).value(4).end();
  w.end();
  w.key("words").begin_array().wrap(2);
  for (int i = 0; i < 5; ++i) w.value(i);
  w.end().key("raw").raw("{\"pre\":1}\n\n");
  EXPECT_EQ(w.end().take(), R"({
  "n": 1,
  "outer": [
    {
      "inner": [
        1,
        {"x": 2, "y": "z"}
      ]
    },
    [3, 4]
  ],
  "words": [
    0, 1, )" "\n"
                                R"(    2, 3, )" "\n"
                                R"(    4
  ],
  "raw": {"pre":1}
}
)");
}

TEST(JsonEmit, DaemonNonTimingReplies) {
  server::ServeOptions options;
  options.socket_path = testing::TempDir() + "zolcsim_emit_" +
                        std::to_string(::getpid()) + ".sock";
  options.workers = 1;
  server::Server daemon(options);  // the destructor drains and joins
  ASSERT_TRUE(daemon.start().ok());
  const auto call = [&](const std::string& request) {
    auto client = server::Client::connect(options.socket_path);
    if (!client.ok()) return client.error().to_string();
    auto reply = client.value().call_raw(request);
    return reply.ok() ? reply.value() : reply.error().to_string();
  };
  const auto unit_request = [](server::RequestType type, const char* kernel) {
    return server::make_request(
        type, json::Value::make_object(
                  {{"kernel", json::Value::make_string(kernel)},
                   {"machine", json::Value::make_string("ZOLCfull")}}));
  };
  using server::RequestType;
  EXPECT_EQ(call(server::simple_request(RequestType::kPing)),
            R"({"schema": "zolcsim-serve-v1", "reply": "pong"})");
  EXPECT_EQ(
      call(unit_request(RequestType::kCompile, "fir")),
      R"({"schema": "zolcsim-serve-v1", "reply": "compile", "kernel": "fir", )"
      R"("machine": "ZOLCfull", "geometry": "32t-8l-4x-4e", "code_words": 56, )"
      R"("init_instructions": 41, "hw_loops": 2, "sw_loops": 0, )"
      R"("scan_candidates": 0, "key": "fir|ZOLCfull|32t-8l-4x-4e|0x00001000,)"
      R"(0x00100000,0x00110000,0x00120000,0x00130000,1,0xC0FFEE01"})");
  EXPECT_EQ(
      call(unit_request(RequestType::kRun, "fir")),
      R"({"schema": "zolcsim-serve-v1", "reply": "run", "kernel": "fir", )"
      R"("machine": "ZOLCfull", "geometry": "32t-8l-4x-4e", )"
      R"("config": "EX-resolve/rollback", "mode": "pipeline", "cycles": 3313, )"
      R"("instructions": 2797, "continue_events": 511, "done_events": 33, )"
      R"("table_writes": 12, "tenants": 1, "ctx_switches": 0, )"
      R"("ctx_switch_cycles": 0, "full_prepares": 0})");
  EXPECT_EQ(call(server::simple_request(RequestType::kStoreStat)),
            R"({"schema": "zolcsim-serve-v1", "reply": "store-stat", )"
            R"("attached": false})");
  EXPECT_EQ(call(unit_request(RequestType::kRun, "no_such_kernel")),
            R"({"schema": "zolcsim-serve-v1", "reply": "error", )"
            R"("code": "unknown-kernel", )"
            R"("message": "unknown kernel 'no_such_kernel'", "context": []})");
  EXPECT_EQ(call(server::simple_request(RequestType::kShutdown)),
            R"({"schema": "zolcsim-serve-v1", "reply": "shutdown", )"
            R"("draining": true})");
}

}  // namespace
}  // namespace zolcsim
