#include "common/json.hpp"

#include <cctype>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <system_error>

#include "common/contracts.hpp"

namespace zolcsim::json {

bool Value::as_bool() const {
  ZS_EXPECTS(is_bool());
  return bool_;
}

double Value::as_number() const {
  ZS_EXPECTS(is_number());
  return number_;
}

const std::string& Value::as_string() const {
  ZS_EXPECTS(is_string());
  return string_;
}

const std::vector<Value>& Value::items() const {
  ZS_EXPECTS(is_array());
  return items_;
}

const std::vector<Value::Member>& Value::members() const {
  ZS_EXPECTS(is_object());
  return members_;
}

std::optional<std::uint64_t> Value::as_uint() const {
  if (!is_number() || number_ < 0) return std::nullopt;
  constexpr double kExactMax = 9007199254740992.0;  // 2^53
  if (number_ > kExactMax) return std::nullopt;
  const auto n = static_cast<std::uint64_t>(number_);
  if (static_cast<double>(n) != number_) return std::nullopt;  // fractional
  return n;
}

const Value* Value::find(std::string_view key) const {
  if (!is_object()) return nullptr;
  for (const Member& member : members_) {
    if (member.first == key) return &member.second;
  }
  return nullptr;
}

Value Value::make_bool(bool b) {
  Value v;
  v.kind_ = Kind::kBool;
  v.bool_ = b;
  return v;
}

Value Value::make_number(double n) {
  Value v;
  v.kind_ = Kind::kNumber;
  v.number_ = n;
  return v;
}

Value Value::make_string(std::string s) {
  Value v;
  v.kind_ = Kind::kString;
  v.string_ = std::move(s);
  return v;
}

Value Value::make_array(std::vector<Value> items) {
  Value v;
  v.kind_ = Kind::kArray;
  v.items_ = std::move(items);
  return v;
}

Value Value::make_object(std::vector<Member> members) {
  Value v;
  v.kind_ = Kind::kObject;
  v.members_ = std::move(members);
  return v;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<Value> parse_document() {
    auto value = parse_value();
    if (!value.ok()) return value;
    skip_whitespace();
    if (pos_ != text_.size()) {
      return fail("trailing characters after the JSON document");
    }
    return value;
  }

 private:
  Error fail(std::string message) const {
    return Error{ErrorCode::kParse, std::move(message), line_};
  }

  void skip_whitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '\n') ++line_;
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  [[nodiscard]] bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  [[nodiscard]] bool consume_word(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  Result<Value> parse_value() {
    if (++depth_ > kMaxDepth) return fail("nesting too deep");
    auto value = parse_value_inner();
    --depth_;
    return value;
  }

  Result<Value> parse_value_inner() {
    skip_whitespace();
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') {
      auto s = parse_string();
      if (!s.ok()) return std::move(s).error();
      return Value::make_string(std::move(s).value());
    }
    if (consume_word("true")) return Value::make_bool(true);
    if (consume_word("false")) return Value::make_bool(false);
    if (consume_word("null")) return Value::make_null();
    if (c == '-' || (c >= '0' && c <= '9')) return parse_number();
    return fail(std::string("unexpected character '") + c + "'");
  }

  Result<Value> parse_number() {
    const std::size_t start = pos_;
    if (consume('-')) {
    }
    if (!std::isdigit(static_cast<unsigned char>(peek()))) {
      return fail("malformed number");
    }
    while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    if (consume('.')) {
      if (!std::isdigit(static_cast<unsigned char>(peek()))) {
        return fail("malformed number: digit expected after '.'");
      }
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      if (!std::isdigit(static_cast<unsigned char>(peek()))) {
        return fail("malformed number: digit expected in exponent");
      }
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    const std::string token(text_.substr(start, pos_ - start));
    return Value::make_number(std::strtod(token.c_str(), nullptr));
  }

  Result<std::string> parse_string() {
    if (!consume('"')) return fail("expected '\"'");
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\n') return fail("unterminated string");
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) return fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return fail("bad hex digit in \\u escape");
            }
          }
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else {  // pass through as literal escape text; we never emit these
            out += "\\u" + std::string(text_.substr(pos_ - 4, 4));
          }
          break;
        }
        default:
          return fail(std::string("unknown escape '\\") + esc + "'");
      }
    }
    return fail("unterminated string");
  }

  Result<Value> parse_array() {
    ZS_ASSERT(consume('['));
    std::vector<Value> items;
    skip_whitespace();
    if (consume(']')) return Value::make_array(std::move(items));
    while (true) {
      auto item = parse_value();
      if (!item.ok()) return item;
      items.push_back(std::move(item).value());
      skip_whitespace();
      if (consume(']')) return Value::make_array(std::move(items));
      if (!consume(',')) return fail("expected ',' or ']' in array");
    }
  }

  Result<Value> parse_object() {
    ZS_ASSERT(consume('{'));
    std::vector<Value::Member> members;
    skip_whitespace();
    if (consume('}')) return Value::make_object(std::move(members));
    while (true) {
      skip_whitespace();
      auto key = parse_string();
      if (!key.ok()) return std::move(key).error();
      skip_whitespace();
      if (!consume(':')) return fail("expected ':' after object key");
      auto value = parse_value();
      if (!value.ok()) return value;
      members.emplace_back(std::move(key).value(), std::move(value).value());
      skip_whitespace();
      if (consume('}')) return Value::make_object(std::move(members));
      if (!consume(',')) return fail("expected ',' or '}' in object");
    }
  }

  [[nodiscard]] char peek() const {
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  static constexpr int kMaxDepth = 64;

  std::string_view text_;
  std::size_t pos_ = 0;
  int line_ = 1;
  int depth_ = 0;
};

}  // namespace

Result<Value> parse(std::string_view text) {
  return Parser(text).parse_document();
}

// ---- Writer ----

Writer& Writer::begin(char open, bool object, Layout layout) {
  before_value();
  if (stack_.empty()) root_lines_ = layout == Layout::kLines;
  stack_.push_back(Frame{layout, object});
  put(open);
  return *this;
}

Writer& Writer::wrap(std::size_t per_line) {
  ZS_EXPECTS(!stack_.empty() && per_line > 0);
  Frame& frame = stack_.back();
  ZS_EXPECTS(frame.layout == Layout::kInline && frame.count == 0);
  frame.per_line = per_line;
  return *this;
}

Writer& Writer::end() {
  ZS_EXPECTS(!stack_.empty() && !key_pending_);
  const Frame frame = stack_.back();
  stack_.pop_back();
  if (frame.count != 0 &&
      (frame.layout == Layout::kLines || frame.per_line != 0)) {
    newline_indent(stack_.size());
  }
  put(frame.object ? '}' : ']');
  return *this;
}

Writer& Writer::value(double n) {
  // Integral doubles within the 53-bit exact window print as integers (the
  // form every count in the repo's documents uses); everything else takes
  // the shortest round-trip form from to_chars.
  constexpr double kExactMax = 9007199254740992.0;  // 2^53
  if (n >= -kExactMax && n <= kExactMax &&
      n == static_cast<double>(static_cast<std::int64_t>(n))) {
    return value(static_cast<std::int64_t>(n));
  }
  before_value();
  char* at = room(64);
  const auto [end, ec] = std::to_chars(at, at + 64, n);
  ZS_ASSERT(ec == std::errc());
  used_ = static_cast<std::size_t>(end - buf_.get());
  return *this;
}

Writer& Writer::null() {
  before_value();
  put("null");
  return *this;
}

Writer& Writer::fixed(double n, int digits) {
  before_value();
  char* at = room(64);
  const int length = std::snprintf(at, 64, "%.*f", digits, n);
  ZS_ASSERT(length > 0 && length < 64);
  used_ += static_cast<std::size_t>(length);
  return *this;
}

Writer& Writer::raw(std::string_view document) {
  while (!document.empty() && document.back() == '\n') {
    document.remove_suffix(1);
  }
  before_value();
  put(document);
  return *this;
}

std::string Writer::take() {
  ZS_EXPECTS(stack_.empty() && !key_pending_ && used_ != 0);
  if (root_lines_) put('\n');
  return std::string(buf_.get(), used_);
}

void Writer::before_unkeyed_value() {
  if (stack_.empty()) {
    ZS_EXPECTS(used_ == 0);  // one root value per document
    return;
  }
  ZS_EXPECTS(!stack_.back().object);  // object members go through key()
  next_element();
}

void Writer::next_element_on_lines() {
  Frame& frame = stack_.back();
  const bool lines = frame.layout == Layout::kLines;
  if (frame.count != 0) {
    put(',');
    if (!lines && style_ == Style::kSpaced) put(' ');
  }
  if (lines || frame.count % frame.per_line == 0) {
    newline_indent(stack_.size());
  }
  ++frame.count;
}

void Writer::grow(std::size_t n) {
  cap_ = 2 * cap_ + n + 256;
  std::unique_ptr<char[]> grown(new char[cap_]);
  if (used_ != 0) std::memcpy(grown.get(), buf_.get(), used_);
  buf_ = std::move(grown);
}

void Writer::newline_indent(std::size_t depth) {
  char* at = room(1 + 2 * depth);
  at[0] = '\n';
  std::memset(at + 1, ' ', 2 * depth);
  used_ += 1 + 2 * depth;
}

void Writer::quoted(std::string_view s) {
  put('"');
  std::size_t run = 0;  // start of the pending run that needs no escaping
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    put(s.substr(run, i - run));
    run = i + 1;
    switch (c) {
      case '"': put("\\\""); break;
      case '\\': put("\\\\"); break;
      case '\n': put("\\n"); break;
      case '\r': put("\\r"); break;
      case '\t': put("\\t"); break;
      default: {
        constexpr char kHex[] = "0123456789abcdef";
        put("\\u00");
        put(kHex[c >> 4]);
        put(kHex[c & 0xF]);
        break;
      }
    }
  }
  put(s.substr(run));
  put('"');
}

namespace {

void write_value(Writer& writer, const Value& value) {
  switch (value.kind()) {
    case Value::Kind::kNull:
      writer.null();
      break;
    case Value::Kind::kBool:
      writer.value(value.as_bool());
      break;
    case Value::Kind::kNumber:
      writer.value(value.as_number());
      break;
    case Value::Kind::kString:
      writer.value(value.as_string());
      break;
    case Value::Kind::kArray:
      writer.begin_array();
      for (const Value& item : value.items()) write_value(writer, item);
      writer.end();
      break;
    case Value::Kind::kObject:
      writer.begin_object();
      for (const Value::Member& member : value.members()) {
        writer.key(member.first);
        write_value(writer, member.second);
      }
      writer.end();
      break;
  }
}

}  // namespace

std::string serialize(const Value& value) {
  Writer writer(Writer::Style::kCompact);
  write_value(writer, value);
  return writer.take();
}

}  // namespace zolcsim::json
