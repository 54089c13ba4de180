// Client side of zolcsim-serve-v1: connect to a serve daemon's Unix-domain
// socket, exchange one framed request/reply at a time, and decode error
// replies back into the Error{code, message, context} the server carried --
// a remote failure is indistinguishable from a local one at the call site.
// Used by the `zolcsim client` verbs and the server tests.
#ifndef ZOLCSIM_SERVER_CLIENT_HPP
#define ZOLCSIM_SERVER_CLIENT_HPP

#include <string>
#include <string_view>

#include "common/json.hpp"
#include "common/result.hpp"
#include "server/protocol.hpp"

namespace zolcsim::server {

class Client {
 public:
  /// Connects to the daemon at `socket_path`. Error: kIo (no daemon,
  /// refused, path too long).
  [[nodiscard]] static Result<Client> connect(const std::string& socket_path);

  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  ~Client();

  /// Sends one request payload and blocks for the reply (up to
  /// `timeout_ms`). Error replies come back as their carried Error; kIo
  /// covers transport failures and timeouts.
  [[nodiscard]] Result<json::Value> call(std::string_view request_payload,
                                         int timeout_ms = 120'000);

  /// Raw variant: the reply payload text, error replies included verbatim.
  [[nodiscard]] Result<std::string> call_raw(std::string_view request_payload,
                                             int timeout_ms = 120'000);

  /// Sends raw bytes with no framing -- protocol-robustness tests use this
  /// to speak malformed frames at the daemon.
  [[nodiscard]] Result<void> send_bytes(std::string_view bytes);

  /// Half-closes the write side (the peer sees EOF mid-frame).
  void shutdown_write();

  /// Reads one reply frame without sending anything first.
  [[nodiscard]] Result<std::string> read_reply(int timeout_ms = 120'000);

 private:
  explicit Client(int fd) : fd_(fd) {}

  int fd_ = -1;
};

/// Request builders (the client half of the schema). Every request is
/// "schema", "type", then the members of the object `members`.
[[nodiscard]] std::string make_request(RequestType type,
                                       const json::Value& members);
[[nodiscard]] std::string simple_request(RequestType type);

/// Embeds a suite document (a JSON object, e.g. the text of a
/// scenarios/*.json file) into a sweep / bench-suite request. The document
/// is parsed first so malformed input fails client-side with the same
/// kParse errors the suite loader gives. For sweep requests `json_format`
/// selects the reply rendering.
[[nodiscard]] Result<std::string> sweep_request(std::string_view suite_document,
                                                bool json_format);
[[nodiscard]] Result<std::string> bench_suite_request(
    std::string_view suite_document);

}  // namespace zolcsim::server

#endif  // ZOLCSIM_SERVER_CLIENT_HPP
