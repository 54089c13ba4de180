#include "common/strings.hpp"

#include <cctype>
#include <cstdio>

namespace zolcsim {

namespace {
constexpr bool is_space(char c) noexcept {
  return c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == '\f' ||
         c == '\v';
}
}  // namespace

std::string_view trim(std::string_view s) noexcept {
  std::size_t begin = 0;
  std::size_t end = s.size();
  while (begin < end && is_space(s[begin])) ++begin;
  while (end > begin && is_space(s[end - 1])) --end;
  return s.substr(begin, end - begin);
}

std::vector<std::string_view> split(std::string_view s, char sep) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.push_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::vector<std::string_view> split_whitespace(std::string_view s) {
  std::vector<std::string_view> out;
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && is_space(s[i])) ++i;
    const std::size_t start = i;
    while (i < s.size() && !is_space(s[i])) ++i;
    if (i > start) out.push_back(s.substr(start, i - start));
  }
  return out;
}

std::string to_lower(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

bool starts_with(std::string_view s, std::string_view prefix) noexcept {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::optional<std::int64_t> parse_int(std::string_view s) noexcept {
  s = trim(s);
  if (s.empty()) return std::nullopt;
  bool negative = false;
  if (s[0] == '-' || s[0] == '+') {
    negative = s[0] == '-';
    s.remove_prefix(1);
    if (s.empty()) return std::nullopt;
  }
  int base = 10;
  if (s.size() > 2 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X')) {
    base = 16;
    s.remove_prefix(2);
  } else if (s.size() > 2 && s[0] == '0' && (s[1] == 'b' || s[1] == 'B')) {
    base = 2;
    s.remove_prefix(2);
  }
  std::uint64_t acc = 0;
  for (char c : s) {
    int digit = -1;
    if (c >= '0' && c <= '9') digit = c - '0';
    else if (c >= 'a' && c <= 'f') digit = c - 'a' + 10;
    else if (c >= 'A' && c <= 'F') digit = c - 'A' + 10;
    if (digit < 0 || digit >= base) return std::nullopt;
    const std::uint64_t next = acc * static_cast<std::uint64_t>(base) +
                               static_cast<std::uint64_t>(digit);
    if (next < acc) return std::nullopt;  // overflow
    acc = next;
  }
  // The magnitude may reach 2^63 only for INT64_MIN ("-9223372036854775808").
  const std::uint64_t limit =
      static_cast<std::uint64_t>(INT64_MAX) + (negative ? 1 : 0);
  if (acc > limit) return std::nullopt;
  // Negate in unsigned arithmetic: -2^63 has no positive int64 counterpart.
  return static_cast<std::int64_t>(negative ? 0 - acc : acc);
}

std::string hex32(std::uint32_t value) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "0x%08X", value);
  return buf;
}

std::string hex64(std::uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

std::optional<std::uint64_t> parse_hex64(std::string_view s) noexcept {
  if (s.size() != 16) return std::nullopt;
  std::uint64_t acc = 0;
  for (const char c : s) {
    int digit = -1;
    if (c >= '0' && c <= '9') digit = c - '0';
    else if (c >= 'a' && c <= 'f') digit = c - 'a' + 10;
    else if (c >= 'A' && c <= 'F') digit = c - 'A' + 10;
    if (digit < 0) return std::nullopt;
    acc = (acc << 4) | static_cast<std::uint64_t>(digit);
  }
  return acc;
}

std::string format_fixed(double value, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", digits, value);
  return buf;
}

}  // namespace zolcsim
