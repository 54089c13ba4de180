#include "server/client.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>
#include <vector>

namespace zolcsim::server {

namespace {

Error io_error(std::string what) {
  return Error{ErrorCode::kIo, std::move(what) + ": " + std::strerror(errno)};
}

}  // namespace

Result<Client> Client::connect(const std::string& socket_path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.empty() || socket_path.size() >= sizeof(addr.sun_path)) {
    return Error{ErrorCode::kIo,
                 "bad socket path '" + socket_path + "'"};
  }
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return io_error("socket");
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    const Error error = io_error("connect '" + socket_path + "'");
    ::close(fd);
    return error;
  }
  return Client(fd);
}

Client::Client(Client&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

Result<void> Client::send_bytes(std::string_view bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return io_error("send");
    }
    sent += static_cast<std::size_t>(n);
  }
  return {};
}

void Client::shutdown_write() { ::shutdown(fd_, SHUT_WR); }

Result<std::string> Client::read_reply(int timeout_ms) {
  unsigned char header[kFrameHeaderBytes];
  std::size_t have = 0;
  std::size_t want = kFrameHeaderBytes;
  unsigned char* dest = header;
  bool reading_header = true;
  std::string payload;

  while (have < want) {
    pollfd pfd{fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, timeout_ms);
    if (ready == 0) {
      return Error{ErrorCode::kIo, "timed out waiting for a reply"};
    }
    if (ready < 0) {
      if (errno == EINTR) continue;
      return io_error("poll");
    }
    const ssize_t n = ::recv(fd_, dest + have, want - have, 0);
    if (n == 0) {
      return Error{ErrorCode::kIo,
                   "connection closed before a complete reply"};
    }
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      return io_error("recv");
    }
    have += static_cast<std::size_t>(n);
    if (reading_header && have == kFrameHeaderBytes) {
      const std::uint32_t length = decode_frame_length(header);
      if (length > kMaxFrameBytes) {
        return Error{ErrorCode::kParse,
                     "reply frame length " + std::to_string(length) +
                         " exceeds the cap"};
      }
      payload.assign(length, '\0');
      dest = reinterpret_cast<unsigned char*>(payload.data());
      have = 0;
      want = length;
      reading_header = false;
      if (length == 0) break;
    }
  }
  return payload;
}

Result<std::string> Client::call_raw(std::string_view request_payload,
                                     int timeout_ms) {
  if (auto sent = send_bytes(encode_frame(request_payload)); !sent.ok()) {
    return std::move(sent).error();
  }
  return read_reply(timeout_ms);
}

Result<json::Value> Client::call(std::string_view request_payload,
                                 int timeout_ms) {
  auto payload = call_raw(request_payload, timeout_ms);
  if (!payload.ok()) return std::move(payload).error();
  return parse_reply(payload.value());
}

std::string make_request(RequestType type, const json::Value& members) {
  std::vector<json::Value::Member> request = {
      {"schema", json::Value::make_string(std::string(kServeSchema))},
      {"type",
       json::Value::make_string(std::string(request_type_name(type)))}};
  request.insert(request.end(), members.members().begin(),
                 members.members().end());
  return json::serialize(json::Value::make_object(std::move(request)));
}

std::string simple_request(RequestType type) {
  return make_request(type, json::Value::make_object({}));
}

namespace {

Result<std::string> suite_carrying_request(
    std::string_view suite_document, RequestType type,
    std::vector<json::Value::Member> members) {
  auto parsed = json::parse(suite_document);
  if (!parsed.ok()) {
    return std::move(parsed).error().with_context("suite document");
  }
  if (!parsed.value().is_object()) {
    return Error{ErrorCode::kParse, "suite document must be a JSON object"}
        .with_context("suite document");
  }
  members.emplace_back("suite", std::move(parsed).value());
  return make_request(type, json::Value::make_object(std::move(members)));
}

}  // namespace

Result<std::string> sweep_request(std::string_view suite_document,
                                  bool json_format) {
  return suite_carrying_request(
      suite_document, RequestType::kSweep,
      {{"format", json::Value::make_string(json_format ? "json" : "csv")}});
}

Result<std::string> bench_suite_request(std::string_view suite_document) {
  return suite_carrying_request(suite_document, RequestType::kBenchSuite, {});
}

}  // namespace zolcsim::server
