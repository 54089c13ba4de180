// zolcsim CLI argument parsing: the string forms of the machine / geometry /
// pipeline-config axes must round-trip with the names the sweep emitters
// print, and bad input must fail with kBadConfig (never crash). The request
// flags of `compile` / `run` / `sweep` must parse to exactly what the serve
// daemon and the suite parser produce for the equivalent JSON -- one codec,
// one outcome, including the ErrorCode of a bad value.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cli.hpp"
#include "harness/sweep.hpp"
#include "scenario/parse.hpp"
#include "scenario/scenario.hpp"
#include "server/client.hpp"
#include "server/protocol.hpp"

namespace zolcsim::cli {
namespace {

using codegen::MachineKind;

TEST(CliParse, MachineNamesRoundTrip) {
  for (const MachineKind machine : codegen::kAllMachines) {
    const auto parsed =
        scenario::parse_machine(std::string(codegen::machine_name(machine)));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), machine);
  }
  EXPECT_TRUE(scenario::parse_machine("zolcfull").ok());  // case-insensitive
  const auto bad = scenario::parse_machine("Pentium");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().code, ErrorCode::kBadConfig);
}

TEST(CliParse, GeometryLabelsRoundTrip) {
  for (const zolc::ZolcGeometry geometry :
       {zolc::ZolcGeometry{}, zolc::ZolcGeometry{32, 12, 0, 0},
        zolc::ZolcGeometry{64, 16, 4, 4, 14}}) {
    const auto parsed = scenario::parse_geometry(geometry.label());
    ASSERT_TRUE(parsed.ok()) << geometry.label();
    EXPECT_EQ(parsed.value(), geometry);
  }
  for (const char* bad : {"", "32t", "32t-8l-4x-4e-q14", "at-8l-4x-4e",
                          "32t-64l-4x-4e" /* invalid geometry */}) {
    const auto parsed = scenario::parse_geometry(bad);
    ASSERT_FALSE(parsed.ok()) << bad;
    EXPECT_EQ(parsed.error().code, ErrorCode::kBadConfig);
  }
}

TEST(CliParse, ConfigNamesRoundTrip) {
  for (const cpu::PipelineConfig config :
       {cpu::PipelineConfig{cpu::BranchResolveStage::kExecute,
                            cpu::SpeculationPolicy::kRollback, true},
        cpu::PipelineConfig{cpu::BranchResolveStage::kDecode,
                            cpu::SpeculationPolicy::kGate, true},
        cpu::PipelineConfig{cpu::BranchResolveStage::kExecute,
                            cpu::SpeculationPolicy::kRollback, false}}) {
    const auto parsed = scenario::parse_config(harness::config_name(config));
    ASSERT_TRUE(parsed.ok()) << harness::config_name(config);
    EXPECT_EQ(parsed.value().branch_resolve, config.branch_resolve);
    EXPECT_EQ(parsed.value().speculation, config.speculation);
    EXPECT_EQ(parsed.value().forwarding, config.forwarding);
  }
  EXPECT_FALSE(scenario::parse_config("EX-resolve").ok());  // missing policy
  EXPECT_FALSE(scenario::parse_config("warp-speed/rollback").ok());
  EXPECT_EQ(scenario::parse_config("").error().code, ErrorCode::kBadConfig);
  // Contradictory tokens are rejected, not silently last-wins.
  EXPECT_FALSE(scenario::parse_config("ID-resolve/EX-resolve/gate").ok());
  EXPECT_FALSE(scenario::parse_config("EX-resolve/rollback/gate").ok());
}

TEST(CliParse, ArgsSplitFlagsAndPositionals) {
  const char* argv[] = {"zolcsim", "run",          "fir",
                        "--machine=ZOLClite",      "--no-predecode",
                        "--max-cycles=1000",       "--kernels="};
  const Args args = Args::parse(7, const_cast<char**>(argv), 2);
  ASSERT_EQ(args.positional.size(), 1u);
  EXPECT_EQ(args.positional.front(), "fir");
  EXPECT_EQ(args.value_of("machine"), "ZOLClite");
  EXPECT_EQ(args.value_of("max-cycles"), "1000");
  // Absent flag vs explicitly empty value are distinguishable, so the
  // driver can reject "--kernels=" instead of sweeping the full suite.
  EXPECT_FALSE(args.value_of("absent").has_value());
  ASSERT_TRUE(args.value_of("kernels").has_value());
  EXPECT_TRUE(args.value_of("kernels")->empty());
  EXPECT_TRUE(args.has("no-predecode"));
  EXPECT_FALSE(args.has("machine"));  // value flag, not a switch
  EXPECT_TRUE(args.unknown({"machine", "max-cycles", "kernels"},
                           {"no-predecode"})
                  .empty());
  EXPECT_EQ(args.unknown({"machine", "kernels"}, {"no-predecode"}).size(),
            1u);
}

TEST(CliParse, SplitListAndErrorRendering) {
  EXPECT_TRUE(split_list("").empty());
  const auto items = split_list("a,b,c");
  ASSERT_EQ(items.size(), 3u);
  EXPECT_EQ(items[2], "c");
  const Error error =
      Error{ErrorCode::kCapacity, "exit records"}.with_context("me_tss");
  EXPECT_EQ(render_error(error), "error[capacity]: me_tss: exit records");
}

// ------------------------------------------------- one request codec ----

/// argv for `zolcsim <verb> <positional> <flags...>`, parsed like main().
Args make_args(const std::vector<std::string>& tokens) {
  std::vector<char*> argv;
  for (const std::string& token : tokens) {
    argv.push_back(const_cast<char*>(token.c_str()));
  }
  return Args::parse(static_cast<int>(argv.size()), argv.data(), 2);
}

void expect_same_config(const cpu::PipelineConfig& a,
                        const cpu::PipelineConfig& b) {
  EXPECT_EQ(a.branch_resolve, b.branch_resolve);
  EXPECT_EQ(a.speculation, b.speculation);
  EXPECT_EQ(a.forwarding, b.forwarding);
}

void expect_same_plan(const flow::RunPlan& a, const flow::RunPlan& b) {
  expect_same_config(a.config, b.config);
  EXPECT_EQ(a.max_cycles, b.max_cycles);
  EXPECT_EQ(a.predecode, b.predecode);
  EXPECT_EQ(a.mode, b.mode);
  EXPECT_EQ(a.timing_reps, b.timing_reps);
  EXPECT_EQ(a.warm_start, b.warm_start);
  EXPECT_EQ(a.preempt_every, b.preempt_every);
  EXPECT_EQ(a.preempt_serialize, b.preempt_serialize);
  EXPECT_EQ(a.tenants, b.tenants);
}

void expect_same_sweep(const harness::SweepSpec& a,
                       const harness::SweepSpec& b) {
  EXPECT_EQ(a.kernels, b.kernels);
  EXPECT_EQ(a.machines, b.machines);
  ASSERT_EQ(a.configs.size(), b.configs.size());
  for (std::size_t i = 0; i < a.configs.size(); ++i) {
    expect_same_config(a.configs[i], b.configs[i]);
  }
  EXPECT_EQ(a.geometries, b.geometries);
  EXPECT_EQ(a.modes, b.modes);
  EXPECT_EQ(a.tenants, b.tenants);
  EXPECT_EQ(a.env.scale, b.env.scale);
  EXPECT_EQ(a.env.seed, b.env.seed);
  EXPECT_EQ(a.baseline, b.baseline);
  EXPECT_EQ(a.max_cycles, b.max_cycles);
  EXPECT_EQ(a.threads, b.threads);
  EXPECT_EQ(a.predecode, b.predecode);
  EXPECT_EQ(a.timing_reps, b.timing_reps);
  EXPECT_EQ(a.warm_start, b.warm_start);
  EXPECT_EQ(a.preempt_every, b.preempt_every);
  EXPECT_EQ(a.preempt_serialize, b.preempt_serialize);
}

struct FlagCase {
  std::vector<std::string> flags;
  bool ok;
  ErrorCode code = ErrorCode::kUnknown;  ///< expected when !ok
};

/// Parses `kernel` + `flags` locally and through server::parse_request on
/// the payload `zolcsim client` would send; both must agree exactly.
void expect_local_matches_daemon(server::RequestType type,
                                 std::span<const MemberFlag> table,
                                 const FlagCase& c) {
  const std::string verb(server::request_type_name(type));
  std::vector<std::string> tokens = {"zolcsim", verb, "fir"};
  tokens.insert(tokens.end(), c.flags.begin(), c.flags.end());
  const Args args = make_args(tokens);
  std::string label = verb;
  for (const std::string& flag : c.flags) label += " " + flag;
  SCOPED_TRACE(label);

  flow::CompileSpec spec;
  flow::RunPlan plan;
  const auto local = unit_from_flags("fir", args, table, spec, plan);
  ASSERT_EQ(local.ok(), c.ok);
  if (!c.ok) {
    EXPECT_EQ(local.error().code, c.code);
  }

  const auto members = unit_members("fir", args, table);
  if (!members.ok()) {  // flag lowering failed: neither path got further
    ASSERT_FALSE(c.ok);
    EXPECT_EQ(members.error().code, c.code);
    return;
  }
  const auto remote =
      server::parse_request(server::make_request(type, members.value()));
  ASSERT_EQ(remote.ok(), c.ok);
  if (!c.ok) {
    EXPECT_EQ(remote.error().code, c.code);
    return;
  }
  EXPECT_EQ(remote.value().spec.kernel, spec.kernel);
  EXPECT_EQ(remote.value().spec.machine, spec.machine);
  EXPECT_EQ(remote.value().spec.geometry, spec.geometry);
  expect_same_plan(remote.value().plan, plan);
}

TEST(CliRequest, RunFlagsParseLikeTheDaemon) {
  const FlagCase cases[] = {
      {{}, true},
      {{"--mode=iss"}, true},
      {{"--machine=ZOLClite", "--geometry=64t-16l-4x-4e-p14",
        "--config=ID-resolve/gate", "--mode=iss-fast", "--max-cycles=5000",
        "--tenants=3", "--preempt-every=97", "--preempt-serialize",
        "--no-predecode"},
       true},
      {{"--machine=PDP11"}, false, ErrorCode::kBadConfig},
      {{"--geometry=32 tasks"}, false, ErrorCode::kBadConfig},
      {{"--config=warp/rollback"}, false, ErrorCode::kBadConfig},
      {{"--mode=turbo"}, false, ErrorCode::kBadConfig},
      {{"--tenants=65"}, false, ErrorCode::kBadConfig},
      {{"--tenants=0"}, false, ErrorCode::kParse},
      {{"--max-cycles=0"}, false, ErrorCode::kParse},
      {{"--max-cycles=-5"}, false, ErrorCode::kParse},
      {{"--max-cycles=lots"}, false, ErrorCode::kParse},
      {{"--preempt-every=1.5"}, false, ErrorCode::kParse},
      {{"--machine="}, false, ErrorCode::kParse},
  };
  for (const FlagCase& c : cases) {
    expect_local_matches_daemon(server::RequestType::kRun, kRunFlags, c);
  }
}

TEST(CliRequest, CompileFlagsParseLikeTheDaemon) {
  const FlagCase cases[] = {
      {{}, true},
      {{"--machine=uzolc", "--geometry=32t-12l-0x-0e"}, true},
      {{"--machine=Pentium"}, false, ErrorCode::kBadConfig},
      {{"--geometry=32t-64l-4x-4e"}, false, ErrorCode::kBadConfig},
      {{"--geometry="}, false, ErrorCode::kParse},
  };
  for (const FlagCase& c : cases) {
    expect_local_matches_daemon(server::RequestType::kCompile, kUnitFlags, c);
  }
}

TEST(CliRequest, LoweredFlagsAreTheWireMembers) {
  const Args args = make_args({"zolcsim", "client", "run", "fir",
                               "--no-predecode", "--max-cycles=100",
                               "--machine=ZOLClite", "--preempt-serialize"});
  const auto members = unit_members("fir", args, kRunFlags);
  ASSERT_TRUE(members.ok());
  // Table order, not argv order: the payload is deterministic.
  EXPECT_EQ(server::make_request(server::RequestType::kRun, members.value()),
            R"({"schema":"zolcsim-serve-v1","type":"run","kernel":"fir",)"
            R"("machine":"ZOLClite","max_cycles":100,)"
            R"("preempt_serialize":true,"predecode":false})");
}

TEST(CliRequest, GridFlagsParseLikeTheSuiteParser) {
  struct GridCase {
    std::vector<std::string> flags;
    const char* sweep;  ///< the equivalent suite "sweep" object
    bool ok;
    ErrorCode code = ErrorCode::kUnknown;
  };
  const GridCase cases[] = {
      {{}, "{}", true},
      {{"--kernels=dotprod,fir", "--machines=XRdefault,ZOLClite",
        "--configs=EX-resolve/rollback,ID-resolve/gate/nofwd",
        "--geometries=32t-8l-4x-4e,64t-16l-4x-4e-p14", "--modes=iss,iss-fast",
        "--tenants=1,2", "--baseline=ZOLClite", "--max-cycles=100000"},
       R"({"kernels": ["dotprod", "fir"],
           "machines": ["XRdefault", "ZOLClite"],
           "configs": ["EX-resolve/rollback", "ID-resolve/gate/nofwd"],
           "geometries": ["32t-8l-4x-4e", "64t-16l-4x-4e-p14"],
           "modes": ["iss", "iss-fast"], "tenants": [1, 2],
           "baseline": "ZOLClite", "max_cycles": 100000})",
       true},
      {{"--kernels=no_such_kernel"}, R"({"kernels": ["no_such_kernel"]})",
       false, ErrorCode::kUnknownKernel},
      {{"--machines=PDP11"}, R"({"machines": ["PDP11"]})", false,
       ErrorCode::kBadConfig},
      {{"--modes=iss,warp"}, R"({"modes": ["iss", "warp"]})", false,
       ErrorCode::kBadConfig},
      {{"--tenants=0"}, R"({"tenants": [0]})", false, ErrorCode::kBadConfig},
      {{"--max-cycles=0"}, R"({"max_cycles": 0})", false, ErrorCode::kParse},
  };
  for (const GridCase& c : cases) {
    std::vector<std::string> tokens = {"zolcsim", "sweep"};
    tokens.insert(tokens.end(), c.flags.begin(), c.flags.end());
    SCOPED_TRACE(c.sweep);
    const auto local = sweep_from_flags(make_args(tokens));
    const auto suite = scenario::parse_suite(
        std::string(R"({"suite": "s", "version": 1, "sweep": )") + c.sweep +
        "}");
    ASSERT_EQ(local.ok(), c.ok);
    ASSERT_EQ(suite.ok(), c.ok);
    if (!c.ok) {
      EXPECT_EQ(local.error().code, c.code);
      EXPECT_EQ(suite.error().code, c.code);
      continue;
    }
    expect_same_sweep(local.value(), suite.value().sweep);
  }
}

TEST(CliRequest, SweepPreemptFlagsGoThroughThePlanCodec) {
  const auto spec = sweep_from_flags(make_args(
      {"zolcsim", "sweep", "--preempt-every=500", "--preempt-serialize"}));
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec.value().preempt_every, 500u);
  EXPECT_TRUE(spec.value().preempt_serialize);

  const auto bad =
      sweep_from_flags(make_args({"zolcsim", "sweep", "--preempt-every=0"}));
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().code, ErrorCode::kParse);
  const auto empty =
      sweep_from_flags(make_args({"zolcsim", "sweep", "--kernels="}));
  ASSERT_FALSE(empty.ok());
  EXPECT_EQ(empty.error().code, ErrorCode::kParse);
}

}  // namespace
}  // namespace zolcsim::cli
