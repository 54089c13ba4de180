// End-to-end serve daemon behaviour over a real Unix-domain socket: warm
// second requests (zero compiles, zero full prepares), byte-identity
// between the server's sweep rendering and the local run_suite path for
// every checked-in scenario suite, two concurrent clients compiling each
// unit exactly once (the cache's singleflight guarantee), the stats
// endpoint, idle timeouts, warm restarts off an on-disk store, typed
// store-stat failures, and graceful drain.
#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "flow/cache.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"
#include "server/client.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"

namespace zolcsim::server {
namespace {

namespace fs = std::filesystem;

/// A two-unit grid: big enough to exercise the cache, small enough that
/// the multi-request tests stay fast.
constexpr std::string_view kTinySuite = R"({
  "suite": "serve_tiny",
  "version": 1,
  "description": "two-kernel smoke grid for the serve tests",
  "sweep": {"kernels": ["dotprod", "vecmax"], "machines": ["ZOLCfull"]}
})";

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::uint64_t nested_uint(const json::Value& reply, std::string_view group,
                          std::string_view member) {
  const json::Value* object = reply.find(group);
  if (object == nullptr || !object->is_object()) return ~std::uint64_t{0};
  const json::Value* value = object->find(member);
  const auto n = value ? value->as_uint() : std::nullopt;
  return n.value_or(~std::uint64_t{0});
}

class ServerTest : public testing::Test {
 protected:
  void start(ServeOptions options = {}) {
    socket_path_ = std::string(testing::TempDir()) + "zolcsim_serve_" +
                   std::to_string(::getpid()) + ".sock";
    options.socket_path = socket_path_;
    if (options.workers == 4) options.workers = 2;
    options.sweep_threads = 2;
    daemon_.emplace(std::move(options));
    auto started = daemon_->start();
    ASSERT_TRUE(started.ok()) << started.error().to_string();
  }

  void TearDown() override {
    if (daemon_) {
      daemon_->begin_drain();
      daemon_->wait();
    }
  }

  Client connect_ok() {
    auto client = Client::connect(socket_path_);
    EXPECT_TRUE(client.ok());
    return std::move(client).value();
  }

  /// One sweep request; returns the parsed reply document.
  json::Value sweep_ok(Client& client, std::string_view suite_document,
                       bool json_format = false) {
    auto request = sweep_request(suite_document, json_format);
    EXPECT_TRUE(request.ok());
    auto reply = client.call(request.value(), 120'000);
    EXPECT_TRUE(reply.ok()) << (reply.ok() ? ""
                                           : reply.error().to_string());
    return reply.ok() ? std::move(reply).value() : json::Value{};
  }

  std::string socket_path_;
  std::optional<Server> daemon_;
};

TEST_F(ServerTest, SecondIdenticalSweepIsFullyWarm) {
  start();
  Client client = connect_ok();
  const json::Value first = sweep_ok(client, kTinySuite);
  EXPECT_GT(nested_uint(first, "cache", "compiles"), 0u);

  // The acceptance bar of the warm-serving story: an identical second
  // request reports zero compiles and zero full table prepares.
  const json::Value second = sweep_ok(client, kTinySuite);
  EXPECT_EQ(nested_uint(second, "cache", "compiles"), 0u);
  EXPECT_EQ(nested_uint(second, "cache", "misses"), 0u);
  EXPECT_EQ(nested_uint(second, "prepares", "full"), 0u);
  EXPECT_GT(nested_uint(second, "cache", "hits"), 0u);
}

TEST_F(ServerTest, SweepOutputMatchesLocalRunByteForByte) {
  start();
  Client client = connect_ok();
  // One warm local cache across the directory, mirroring the daemon's own
  // warm state: rendered output must not depend on cache temperature.
  flow::CompileCache local_cache;
  scenario::RunOptions local_options;
  local_options.threads = 2;

  auto files = scenario::list_suite_files(ZOLCSIM_SCENARIO_DIR);
  ASSERT_TRUE(files.ok()) << files.error().to_string();
  ASSERT_FALSE(files.value().empty());
  for (const std::string& path : files.value()) {
    SCOPED_TRACE(path);
    const std::string document = slurp(path);

    auto suite = scenario::parse_suite(document, path);
    ASSERT_TRUE(suite.ok()) << suite.error().to_string();
    auto local =
        scenario::run_suite(suite.value(), local_cache, local_options);
    ASSERT_TRUE(local.ok()) << local.error().to_string();

    const json::Value csv_reply = sweep_ok(client, document);
    auto csv = reply_string(csv_reply, "output");
    ASSERT_TRUE(csv.ok());
    EXPECT_EQ(csv.value(), local.value().csv);

    const json::Value json_reply = sweep_ok(client, document, true);
    auto rendered = reply_string(json_reply, "output");
    ASSERT_TRUE(rendered.ok());
    EXPECT_EQ(rendered.value(), local.value().report.to_json());
  }
}

TEST_F(ServerTest, ConcurrentIdenticalSweepsCompileEachUnitOnce) {
  start();
  // How many distinct units does the tiny suite need? Ask a fresh local
  // cache.
  flow::CompileCache local_cache;
  auto suite = scenario::parse_suite(kTinySuite, "tiny");
  ASSERT_TRUE(suite.ok());
  auto local = scenario::run_suite(suite.value(), local_cache, {});
  ASSERT_TRUE(local.ok()) << local.error().to_string();
  const std::size_t distinct_units = local_cache.stats().compiles;
  ASSERT_GT(distinct_units, 0u);

  // Two clients race the same sweep against the cold daemon. The striped
  // cache's singleflight must hold: every unit compiles exactly once
  // process-wide, and both replies carry identical bytes (which also match
  // the local rendering).
  std::vector<std::string> outputs(2);
  std::vector<std::thread> clients;
  for (std::string& slot : outputs) {
    clients.emplace_back([this, &slot] {
      auto client = Client::connect(socket_path_);
      ASSERT_TRUE(client.ok());
      auto request = sweep_request(kTinySuite, false);
      ASSERT_TRUE(request.ok());
      auto reply = client.value().call(request.value(), 120'000);
      ASSERT_TRUE(reply.ok()) << reply.error().to_string();
      auto output = reply_string(reply.value(), "output");
      ASSERT_TRUE(output.ok());
      slot = output.value();
    });
  }
  for (std::thread& thread : clients) thread.join();

  EXPECT_FALSE(outputs[0].empty());
  EXPECT_EQ(outputs[0], outputs[1]);
  EXPECT_EQ(outputs[0], local.value().csv);

  Client client = connect_ok();
  auto stats = client.call(simple_request(RequestType::kStats));
  ASSERT_TRUE(stats.ok()) << stats.error().to_string();
  // The lifetime compile count, not the per-request deltas (those overlap
  // under concurrency): exactly one compile per distinct unit.
  EXPECT_EQ(nested_uint(stats.value(), "cache", "compiles"), distinct_units);
}

TEST_F(ServerTest, WarmRestartServesEntirelyFromTheStore) {
  const fs::path store_dir =
      fs::path(testing::TempDir()) / "zolcsim_serve_store";
  fs::remove_all(store_dir);
  {
    ServeOptions options;
    options.store_dir = store_dir.string();
    start(std::move(options));
    Client client = connect_ok();
    (void)sweep_ok(client, kTinySuite);
    daemon_->begin_drain();
    daemon_->wait();
    daemon_.reset();
  }
  // A fresh daemon over the same store: every unit comes off disk, nothing
  // recompiles, and the warm path never runs a full table prepare.
  ServeOptions options;
  options.store_dir = store_dir.string();
  start(std::move(options));
  Client client = connect_ok();
  const json::Value reply = sweep_ok(client, kTinySuite);
  EXPECT_EQ(nested_uint(reply, "cache", "compiles"), 0u);
  EXPECT_GT(nested_uint(reply, "cache", "store_hits"), 0u);
  EXPECT_EQ(nested_uint(reply, "prepares", "full"), 0u);
}

TEST_F(ServerTest, StoreStatScanFailureIsATypedError) {
  const fs::path store_dir =
      fs::path(testing::TempDir()) / "zolcsim_serve_store_stat";
  fs::remove_all(store_dir);
  fs::create_directories(store_dir);
  ServeOptions options;
  options.store_dir = store_dir.string();
  start(std::move(options));
  Client client = connect_ok();
  auto healthy = client.call(simple_request(RequestType::kStoreStat));
  ASSERT_TRUE(healthy.ok()) << healthy.error().to_string();
  const auto current = reply_uint(healthy.value(), "current");
  ASSERT_TRUE(current.ok());
  EXPECT_EQ(current.value(), 0u);

  // The directory becomes a regular file under the running daemon: the
  // scan fails, and the reply says so instead of reporting an empty store.
  fs::remove_all(store_dir);
  std::ofstream(store_dir) << "not a directory";
  auto broken = client.call(simple_request(RequestType::kStoreStat));
  ASSERT_FALSE(broken.ok());
  EXPECT_EQ(broken.error().code, ErrorCode::kIo);
  EXPECT_TRUE(client.call(simple_request(RequestType::kPing)).ok());
  fs::remove(store_dir);
}

TEST_F(ServerTest, StatsEndpointCountsRequestsAndLatency) {
  start();
  Client client = connect_ok();
  ASSERT_TRUE(client.call(simple_request(RequestType::kPing)).ok());
  ASSERT_TRUE(client.call(simple_request(RequestType::kPing)).ok());
  (void)sweep_ok(client, kTinySuite);

  auto stats = client.call(simple_request(RequestType::kStats));
  ASSERT_TRUE(stats.ok()) << stats.error().to_string();
  const json::Value& v = stats.value();
  EXPECT_EQ(nested_uint(v, "by_type", "ping"), 2u);
  EXPECT_EQ(nested_uint(v, "by_type", "sweep"), 1u);
  auto requests = reply_uint(v, "requests");
  ASSERT_TRUE(requests.ok());
  EXPECT_EQ(requests.value(), 3u);  // the stats request itself isn't in yet
  EXPECT_EQ(nested_uint(v, "wall_ms", "samples"), 3u);
  EXPECT_EQ(nested_uint(v, "mips", "samples"), 1u);
}

TEST_F(ServerTest, IdleConnectionsAreClosedButTheDaemonSurvives) {
  ServeOptions options;
  options.idle_timeout_ms = 150;
  start(std::move(options));
  Client idle = connect_ok();
  std::this_thread::sleep_for(std::chrono::milliseconds(600));
  // The daemon dropped the silent connection; the call fails on transport,
  // not with an error reply.
  auto reply = idle.call(simple_request(RequestType::kPing), 2'000);
  EXPECT_FALSE(reply.ok());
  EXPECT_EQ(reply.error().code, ErrorCode::kIo);
  // ...but fresh connections are served as ever.
  Client fresh = connect_ok();
  EXPECT_TRUE(fresh.call(simple_request(RequestType::kPing)).ok());
}

TEST_F(ServerTest, ShutdownRequestDrainsAndReleasesTheSocket) {
  start();
  Client client = connect_ok();
  auto reply = client.call(simple_request(RequestType::kShutdown));
  ASSERT_TRUE(reply.ok()) << reply.error().to_string();
  auto kind = reply_string(reply.value(), "reply");
  ASSERT_TRUE(kind.ok());
  EXPECT_EQ(kind.value(), "shutdown");

  daemon_->wait();  // the drain the reply promised must complete
  EXPECT_TRUE(daemon_->draining());
  // The listener is closed and the socket file removed: connecting fails.
  auto refused = Client::connect(socket_path_);
  EXPECT_FALSE(refused.ok());
  EXPECT_FALSE(fs::exists(socket_path_));
}

}  // namespace
}  // namespace zolcsim::server
