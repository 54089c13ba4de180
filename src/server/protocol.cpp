#include "server/protocol.hpp"

#include <utility>

#include "common/contracts.hpp"
#include "scenario/parse.hpp"

namespace zolcsim::server {

using scenario::config_error;
using scenario::shape_error;

namespace {

/// Context frame of every request-parse error.
constexpr std::string_view kWhere = "serve request";

}  // namespace

std::string_view request_type_name(RequestType type) {
  switch (type) {
    case RequestType::kPing: return "ping";
    case RequestType::kCompile: return "compile";
    case RequestType::kRun: return "run";
    case RequestType::kSweep: return "sweep";
    case RequestType::kBenchSuite: return "bench-suite";
    case RequestType::kStoreStat: return "store-stat";
    case RequestType::kStats: return "stats";
    case RequestType::kShutdown: return "shutdown";
  }
  return "?";
}

Result<Request> parse_request(std::string_view payload) {
  auto document = json::parse(payload);
  if (!document.ok()) {
    return std::move(document).error().with_context(std::string(kWhere));
  }
  const json::Value& root = document.value();
  if (!root.is_object()) {
    return shape_error("request must be a JSON object", kWhere);
  }
  const json::Value* schema = root.find("schema");
  if (schema == nullptr || !schema->is_string()) {
    return shape_error("a string 'schema' member is required", kWhere);
  }
  if (schema->as_string() != kServeSchema) {
    return shape_error("unsupported schema '" + schema->as_string() +
                           "' (this daemon speaks " +
                           std::string(kServeSchema) + ")",
                       kWhere);
  }
  const json::Value* type_v = root.find("type");
  if (type_v == nullptr || !type_v->is_string()) {
    return shape_error("a string 'type' member is required", kWhere);
  }
  const std::string& name = type_v->as_string();

  Request request;
  bool known_type = false;
  for (std::size_t i = 0; i < kNumRequestTypes; ++i) {
    const auto type = static_cast<RequestType>(i);
    if (request_type_name(type) == name) {
      request.type = type;
      known_type = true;
      break;
    }
  }
  if (!known_type) {
    return config_error("unknown request type '" + name + "'", kWhere);
  }

  using scenario::reject_unknown_members;
  Result<void> parsed;
  switch (request.type) {
    case RequestType::kPing:
    case RequestType::kStoreStat:
    case RequestType::kStats:
    case RequestType::kShutdown:
      parsed = reject_unknown_members(root, {"schema", "type"}, "request",
                                      kWhere);
      break;
    case RequestType::kCompile:
      parsed = reject_unknown_members(
          root, {"schema", "type", "kernel", "machine", "geometry"}, "request",
          kWhere);
      break;
    case RequestType::kRun:
      parsed = reject_unknown_members(
          root,
          {"schema", "type", "kernel", "machine", "geometry", "config", "mode",
           "max_cycles", "tenants", "preempt_every", "preempt_serialize"},
          "request", kWhere);
      break;
    case RequestType::kSweep:
      parsed = reject_unknown_members(
          root, {"schema", "type", "suite", "format"}, "request", kWhere);
      break;
    case RequestType::kBenchSuite:
      parsed = reject_unknown_members(root, {"schema", "type", "suite"},
                                      "request", kWhere);
      break;
  }
  const bool unit = request.type == RequestType::kCompile ||
                    request.type == RequestType::kRun;
  if (parsed.ok() && unit) {
    parsed = scenario::parse_unit_members(root, request.spec, kWhere);
  }
  if (parsed.ok() && request.type == RequestType::kRun) {
    parsed = scenario::parse_plan_members(root, request.plan, kWhere);
  }
  if (!parsed.ok()) return std::move(parsed).error();

  if (request.type == RequestType::kSweep ||
      request.type == RequestType::kBenchSuite) {
    const json::Value* suite = root.find("suite");
    if (suite == nullptr || !suite->is_object()) {
      return shape_error("a 'suite' object member is required", kWhere);
    }
    request.suite_text = json::serialize(*suite);
    auto format = scenario::string_member(root, "format", kWhere);
    if (!format.ok()) return std::move(format).error();
    if (format.value()) {
      if (*format.value() != "csv" && *format.value() != "json") {
        return config_error(
            "bad 'format' value '" + *format.value() + "' (csv or json)",
            kWhere);
      }
      request.json_format = *format.value() == "json";
    }
  }
  return request;
}

std::string encode_frame(std::string_view payload) {
  ZS_EXPECTS(payload.size() <= kMaxFrameBytes);
  const auto length = static_cast<std::uint32_t>(payload.size());
  std::string frame;
  frame.reserve(kFrameHeaderBytes + payload.size());
  frame.push_back(static_cast<char>((length >> 24) & 0xFF));
  frame.push_back(static_cast<char>((length >> 16) & 0xFF));
  frame.push_back(static_cast<char>((length >> 8) & 0xFF));
  frame.push_back(static_cast<char>(length & 0xFF));
  frame.append(payload);
  return frame;
}

std::uint32_t decode_frame_length(const unsigned char* header) {
  return (static_cast<std::uint32_t>(header[0]) << 24) |
         (static_cast<std::uint32_t>(header[1]) << 16) |
         (static_cast<std::uint32_t>(header[2]) << 8) |
         static_cast<std::uint32_t>(header[3]);
}

json::Writer begin_reply(std::string_view reply) {
  json::Writer w;
  w.begin_object().member("schema", kServeSchema).member("reply", reply);
  return w;
}

std::string error_reply(const Error& error) {
  json::Writer w = begin_reply("error");
  w.member("code", error_code_name(error.code))
      .member("message", error.message)
      .key("context")
      .begin_array();
  for (const std::string& frame : error.context) w.value(frame);
  return w.end().end().take();
}

Result<json::Value> parse_reply(std::string_view payload) {
  auto document = json::parse(payload);
  if (!document.ok()) {
    return std::move(document).error().with_context("serve reply");
  }
  const json::Value& root = document.value();
  const json::Value* reply = root.find("reply");
  if (reply == nullptr || !reply->is_string()) {
    return Error{ErrorCode::kParse,
                 "reply lacks a string 'reply' member"}
        .with_context("serve reply");
  }
  if (reply->as_string() == "error") {
    // Reconstitute the server-side Error so callers branch on the code
    // exactly as they would on a local failure.
    Error error;
    error.code = ErrorCode::kUnknown;
    if (const json::Value* code = root.find("code");
        code != nullptr && code->is_string()) {
      error.code = parse_error_code(code->as_string());
    }
    if (const json::Value* message = root.find("message");
        message != nullptr && message->is_string()) {
      error.message = message->as_string();
    }
    if (const json::Value* context = root.find("context");
        context != nullptr && context->is_array()) {
      for (const json::Value& frame : context->items()) {
        if (frame.is_string()) error.context.push_back(frame.as_string());
      }
    }
    return error;
  }
  return std::move(document).value();
}

Result<std::string> reply_string(const json::Value& reply,
                                 std::string_view key) {
  const json::Value* member = reply.find(key);
  if (member == nullptr || !member->is_string()) {
    std::string msg = "reply lacks a string '";
    msg += key;
    msg += "' member";
    return Error{ErrorCode::kParse, std::move(msg)}.with_context(
        "serve reply");
  }
  return member->as_string();
}

Result<std::uint64_t> reply_uint(const json::Value& reply,
                                 std::string_view key) {
  const json::Value* member = reply.find(key);
  const auto n = member ? member->as_uint() : std::nullopt;
  if (!n) {
    std::string msg = "reply lacks an integer '";
    msg += key;
    msg += "' member";
    return Error{ErrorCode::kParse, std::move(msg)}.with_context(
        "serve reply");
  }
  return *n;
}

}  // namespace zolcsim::server
