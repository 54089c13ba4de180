// Minimal JSON reader for the declarative layers (scenario suites, BENCH
// artifact round-trips), and the one Writer every emitter renders through.
// The reader takes the full RFC 8259 value grammar minus the exotica the
// repo never emits: numbers are parsed as double (every count we carry fits
// a 53-bit mantissa exactly) and \uXXXX escapes outside ASCII are passed
// through verbatim. Parse failures are Result errors (ErrorCode::kParse)
// carrying the 1-based line of the offending token, matching the assembler's
// error shape.
#ifndef ZOLCSIM_COMMON_JSON_HPP
#define ZOLCSIM_COMMON_JSON_HPP

#include <charconv>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.hpp"

namespace zolcsim::json {

/// A parsed JSON value. Object member order is preserved (emitters are
/// deterministic, so round-trip tests can compare member sequences).
class Value {
 public:
  enum class Kind : std::uint8_t {
    kNull, kBool, kNumber, kString, kArray, kObject
  };
  using Member = std::pair<std::string, Value>;

  Value() = default;

  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] bool is_null() const noexcept { return kind_ == Kind::kNull; }
  [[nodiscard]] bool is_bool() const noexcept { return kind_ == Kind::kBool; }
  [[nodiscard]] bool is_number() const noexcept {
    return kind_ == Kind::kNumber;
  }
  [[nodiscard]] bool is_string() const noexcept {
    return kind_ == Kind::kString;
  }
  [[nodiscard]] bool is_array() const noexcept { return kind_ == Kind::kArray; }
  [[nodiscard]] bool is_object() const noexcept {
    return kind_ == Kind::kObject;
  }

  /// Typed accessors. Precondition: the matching kind.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const std::vector<Value>& items() const;
  [[nodiscard]] const std::vector<Member>& members() const;

  /// Number as an unsigned integer; nullopt when not a number, negative,
  /// non-integral, or beyond 2^53 (where double stops being exact).
  [[nodiscard]] std::optional<std::uint64_t> as_uint() const;

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const Value* find(std::string_view key) const;

  static Value make_null() { return Value(); }
  static Value make_bool(bool b);
  static Value make_number(double n);
  static Value make_string(std::string s);
  static Value make_array(std::vector<Value> items);
  static Value make_object(std::vector<Member> members);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Value> items_;
  std::vector<Member> members_;
};

/// Parses one JSON document (trailing non-whitespace is an error).
[[nodiscard]] Result<Value> parse(std::string_view text);

/// Streams one JSON document into a string. Every JSON text the repo emits
/// goes through a Writer, which alone decides quoting, escaping, separators,
/// number text and layout:
///  - Style: kSpaced separates with ", " and ": ", kCompact with ',' and ':'.
///  - Layout (per container): kInline keeps the container on the current
///    line; kLines puts each element on its own line, indented two spaces
///    per nesting level, with the closer on its own line. Empty containers
///    always print as [] / {}. A document whose root is a kLines container
///    ends with a newline, the shape of a file on disk.
///  - wrap(n) on an open inline container starts a new line before every
///    n-th element (the separator before the break keeps its space) and
///    puts the closer on its own line.
///  - Numbers: integers print exactly; value(double) prints integral values
///    as integers and anything else in the shortest form that parses back
///    to the same double; fixed() prints a fixed number of decimals.
///  - raw() embeds an already-rendered document verbatim (minus trailing
///    newlines), for envelopes whose digest covers the standalone bytes.
/// Misuse (a value where a key is due, unbalanced end()) is a contract
/// violation, not a Result.
class Writer {
 public:
  enum class Style : std::uint8_t { kSpaced, kCompact };
  enum class Layout : std::uint8_t { kInline, kLines };

  explicit Writer(Style style = Style::kSpaced) : style_(style) {}

  Writer& begin_object(Layout layout = Layout::kInline) {
    return begin('{', /*object=*/true, layout);
  }
  Writer& begin_array(Layout layout = Layout::kInline) {
    return begin('[', /*object=*/false, layout);
  }
  Writer& wrap(std::size_t per_line);
  /// Closes the innermost open container.
  Writer& end();

  /// Object member name; the next call supplies its value.
  Writer& key(std::string_view name) {
    begin_key();
    quoted(name);
    return end_key();
  }

  /// A member name fixed at compile time. The constructor proves it needs
  /// no escaping, so member() copies it without scanning it (names built at
  /// run time go through key()).
  struct Name {
    consteval Name(const char* s) : text(s) {
      for (const char c : text) {
        if (static_cast<unsigned char>(c) < 0x20 || c == '"' || c == '\\') {
          throw "a member name literal must not need escaping";
        }
      }
    }
    std::string_view text;
  };

  Writer& value(std::string_view s) {
    before_value();
    quoted(s);
    return *this;
  }
  Writer& value(const char* s) { return value(std::string_view(s)); }
  Writer& value(bool b) {
    before_value();
    put(b ? "true" : "false");
    return *this;
  }
  Writer& value(double n);
  template <std::integral T>
    requires(!std::same_as<T, bool>)
  Writer& value(T n) {
    before_value();
    char* at = room(24);
    used_ = static_cast<std::size_t>(std::to_chars(at, at + 24, n).ptr -
                                     buf_.get());
    return *this;
  }
  Writer& null();
  Writer& fixed(double n, int digits);
  Writer& raw(std::string_view document);

  /// key(name).value(v), the common case.
  template <typename T>
  Writer& member(Name name, const T& v) {
    begin_key();
    char* at = room(name.text.size() + 4);
    *at++ = '"';
    std::memcpy(at, name.text.data(), name.text.size());
    at += name.text.size();
    *at++ = '"';
    *at++ = ':';
    if (style_ == Style::kSpaced) *at++ = ' ';
    used_ = static_cast<std::size_t>(at - buf_.get());
    key_pending_ = true;
    return value(v);
  }

  /// The finished document. Precondition: every container is closed.
  [[nodiscard]] std::string take();

 private:
  struct Frame {
    Layout layout;
    bool object;
    std::size_t per_line = 0;  ///< wrap(); 0 = no wrapping
    std::size_t count = 0;     ///< elements (members) written so far
  };

  Writer& begin(char open, bool object, Layout layout);
  void begin_key() {
    ZS_EXPECTS(!stack_.empty() && stack_.back().object && !key_pending_);
    next_element();
  }
  Writer& end_key() {
    put(':');
    if (style_ == Style::kSpaced) put(' ');
    key_pending_ = true;
    return *this;
  }
  /// Separator and line break owed before a value, unless it follows key().
  void before_value() {
    if (key_pending_) {
      key_pending_ = false;
    } else {
      before_unkeyed_value();
    }
  }
  /// before_value() for an array element or the root value.
  void before_unkeyed_value();
  /// Separator and line break owed before the next element of the innermost
  /// container.
  void next_element() {
    Frame& frame = stack_.back();
    if (frame.layout == Layout::kLines || frame.per_line != 0) {
      next_element_on_lines();
    } else if (frame.count++ != 0) {
      put(',');
      if (style_ == Style::kSpaced) put(' ');
    }
  }
  void next_element_on_lines();
  void newline_indent(std::size_t depth);
  /// `s` as a JSON string literal.
  void quoted(std::string_view s);
  /// Write position with at least `n` bytes of room.
  char* room(std::size_t n) {
    if (used_ + n > cap_) grow(n);
    return buf_.get() + used_;
  }
  void grow(std::size_t n);
  void put(char c) {
    *room(1) = c;
    ++used_;
  }
  void put(std::string_view s) {
    std::memcpy(room(s.size()), s.data(), s.size());
    used_ += s.size();
  }

  Style style_;
  bool key_pending_ = false;
  bool root_lines_ = false;
  std::vector<Frame> stack_;
  /// The document so far: `used_` bytes written of `cap_` allocated (a
  /// plain buffer, so appends skip std::string's capacity and terminator
  /// bookkeeping).
  std::unique_ptr<char[]> buf_;
  std::size_t cap_ = 0;
  std::size_t used_ = 0;
};

/// Renders `value` back to compact JSON text (no whitespace). Deterministic:
/// member order is preserved and numbers use Writer::value(double), so
/// parse(serialize(v)) reproduces v exactly. Used wherever a parsed
/// sub-document must be handed to another parser (the serve protocol's
/// inline suite objects, request building).
[[nodiscard]] std::string serialize(const Value& value);

}  // namespace zolcsim::json

#endif  // ZOLCSIM_COMMON_JSON_HPP
