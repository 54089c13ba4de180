// The serve daemon: a long-running front over the warm flow state
// (flow::WarmState = process-wide CompileCache + optional on-disk
// UnitStore), accepting zolcsim-serve-v1 frames over a Unix-domain socket.
//
// Concurrency model: one accept thread hands connections to a fixed worker
// pool; each worker owns one connection at a time and serves frames off it
// until the peer closes, the idle timeout fires, or the daemon drains.
// Every request resolves units through the shared cache, so two clients
// racing on the same sweep still compile each unit exactly once (the
// striped cache's singleflight guarantee), and every request after the
// first runs against warm units and prepared images -- the per-request
// reply counters (compiles / store hits / full prepares) make that
// measurable from the client side.
//
// Drain semantics (normative; DESIGN.md section 10): a "shutdown" request
// or begin_drain() stops the accept loop, lets every in-flight request
// finish and its reply flush, then closes idle connections and exits the
// workers. New connection attempts after drain begins are refused by the
// closed listener. SIGTERM handling lives in the CLI, which forwards it to
// begin_drain().
#ifndef ZOLCSIM_SERVER_SERVER_HPP
#define ZOLCSIM_SERVER_SERVER_HPP

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/result.hpp"
#include "flow/warm_state.hpp"
#include "server/protocol.hpp"

namespace zolcsim::server {

struct ServeOptions {
  std::string socket_path;       ///< Unix-domain socket to bind (required)
  std::string store_dir;         ///< on-disk unit store; empty = memory only
  unsigned workers = 4;          ///< connection-serving worker threads
  unsigned sweep_threads = 0;    ///< sweep workers per request; 0 = hardware
  unsigned idle_timeout_ms = 30'000;  ///< close silent connections after this
};

/// Aggregate counters, snapshotted under the stats lock. Latency/MIPS
/// percentiles are rendered by the "stats" reply from the same samples.
struct ServerStats {
  std::uint64_t connections = 0;  ///< connections accepted
  std::uint64_t requests = 0;     ///< well-formed requests dispatched
  std::uint64_t errors = 0;       ///< typed error replies sent
  std::array<std::uint64_t, kNumRequestTypes> by_type{};
  std::uint64_t full_prepares = 0;  ///< summed over sweep/bench replies
  std::uint64_t image_resets = 0;
};

class Server {
 public:
  explicit Server(ServeOptions options);
  ~Server();  // begins drain and joins all threads

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the socket (replacing any stale file at the path), starts the
  /// accept loop and the worker pool. Errors: kBadConfig (empty/overlong
  /// path, zero workers), kIo (socket/bind/listen failure).
  [[nodiscard]] Result<void> start();

  /// Initiates graceful drain: stop accepting, finish in-flight requests,
  /// close connections, exit workers. Idempotent; safe from any thread.
  void begin_drain();

  /// True once drain has been initiated (by begin_drain or a shutdown
  /// request). The CLI polls this to know the daemon is going down.
  [[nodiscard]] bool draining() const noexcept {
    return draining_.load(std::memory_order_acquire);
  }

  /// Joins the accept loop and every worker. Returns immediately if start()
  /// was never called. Call after begin_drain() (or let a client's
  /// "shutdown" trigger it) -- waiting without a drain blocks forever.
  void wait();

  [[nodiscard]] const ServeOptions& options() const noexcept {
    return options_;
  }
  [[nodiscard]] flow::WarmState& warm() noexcept { return warm_; }
  [[nodiscard]] ServerStats stats() const;

 private:
  enum class ReadStatus : std::uint8_t {
    kFrame,  ///< a complete payload was read
    kClose,  ///< clean close / idle timeout / drain -- just close
  };

  void accept_loop();
  void worker_loop();
  void serve_connection(int fd);
  /// Reads one frame payload; sends the typed error reply itself for
  /// framing violations (oversized length, truncated frame).
  ReadStatus read_frame(int fd, std::string& payload);

  /// Dispatches one parsed request to its handler; the string is the reply
  /// payload. `drain_after_reply` is set by the shutdown handler.
  [[nodiscard]] Result<std::string> handle(const Request& request,
                                           bool& drain_after_reply);
  [[nodiscard]] Result<std::string> handle_compile(const Request& request);
  [[nodiscard]] Result<std::string> handle_run(const Request& request);
  [[nodiscard]] Result<std::string> handle_suite(const Request& request);
  [[nodiscard]] Result<std::string> handle_store_stat();
  [[nodiscard]] std::string handle_stats();

  void record_request(RequestType type, double wall_ms, double mips);

  ServeOptions options_;
  flow::WarmState warm_;

  int listen_fd_ = -1;
  std::atomic<bool> started_{false};
  std::atomic<bool> draining_{false};
  std::thread accept_thread_;
  std::vector<std::thread> workers_;

  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<int> pending_connections_;

  mutable std::mutex stats_mutex_;
  ServerStats stats_;
  std::vector<double> wall_ms_samples_;
  std::vector<double> mips_samples_;
};

}  // namespace zolcsim::server

#endif  // ZOLCSIM_SERVER_SERVER_HPP
