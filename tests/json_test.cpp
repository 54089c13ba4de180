// Tests for the minimal JSON reader (common/json): value grammar, typed
// accessors and parse failures with line numbers. The Writer (escaping,
// number text, layouts) is pinned in json_emit_test.
#include "common/json.hpp"

#include <cstdint>
#include <string>

#include <gtest/gtest.h>

namespace zolcsim::json {
namespace {

TEST(JsonParse, ScalarsAndNesting) {
  const auto doc = parse(R"({
    "name": "zolc",
    "count": 32,
    "ratio": -0.5,
    "on": true,
    "off": false,
    "nothing": null,
    "list": [1, 2, 3],
    "inner": {"k": "v"}
  })");
  ASSERT_TRUE(doc.ok()) << doc.error().to_string();
  const Value& root = doc.value();
  ASSERT_TRUE(root.is_object());
  EXPECT_EQ(root.find("name")->as_string(), "zolc");
  EXPECT_EQ(root.find("count")->as_uint(), 32u);
  EXPECT_DOUBLE_EQ(root.find("ratio")->as_number(), -0.5);
  EXPECT_TRUE(root.find("on")->as_bool());
  EXPECT_FALSE(root.find("off")->as_bool());
  EXPECT_TRUE(root.find("nothing")->is_null());
  ASSERT_TRUE(root.find("list")->is_array());
  EXPECT_EQ(root.find("list")->items().size(), 3u);
  EXPECT_EQ(root.find("inner")->find("k")->as_string(), "v");
  EXPECT_EQ(root.find("missing"), nullptr);
}

TEST(JsonParse, MemberOrderIsPreserved) {
  const auto doc = parse(R"({"z": 1, "a": 2, "m": 3})");
  ASSERT_TRUE(doc.ok());
  const auto& members = doc.value().members();
  ASSERT_EQ(members.size(), 3u);
  EXPECT_EQ(members[0].first, "z");
  EXPECT_EQ(members[1].first, "a");
  EXPECT_EQ(members[2].first, "m");
}

TEST(JsonParse, StringEscapes) {
  // A spelled without a backslash in source so the C++ lexer cannot
  // touch it; the JSON parser must decode ASCII escapes and pass non-ASCII
  // ones through verbatim (the repo never emits them).
  const std::string unicode = std::string("[\"") + "\\u0041" + "\", \"" +
                              "\\u20AC" + "\"]";
  const auto doc = parse(std::string(R"(["a\"b", "tab\there"])"));
  ASSERT_TRUE(doc.ok()) << doc.error().to_string();
  const auto& items = doc.value().items();
  EXPECT_EQ(items[0].as_string(), "a\"b");
  EXPECT_EQ(items[1].as_string(), "tab\there");
  const auto uni = parse(unicode);
  ASSERT_TRUE(uni.ok()) << uni.error().to_string();
  EXPECT_EQ(uni.value().items()[0].as_string(), "A");
  EXPECT_EQ(uni.value().items()[1].as_string(), "\\u20AC");
}

TEST(JsonParse, MalformedInputsAreKParse) {
  for (const char* bad : {"", "{", "[1,]", "{\"a\" 1}", "tru", "\"open",
                          "{\"a\": 1,}", "- 1", "[1] trailing"}) {
    const auto doc = parse(bad);
    ASSERT_FALSE(doc.ok()) << "accepted: " << bad;
    EXPECT_EQ(doc.error().code, ErrorCode::kParse) << bad;
  }
}

TEST(JsonParse, ErrorCarriesLineNumber) {
  const auto doc = parse("{\n  \"a\": 1,\n  \"b\": ?\n}");
  ASSERT_FALSE(doc.ok());
  EXPECT_EQ(doc.error().line, 3);
}

TEST(JsonParse, DepthCapRejectsRunawayNesting) {
  std::string deep;
  for (int i = 0; i < 100; ++i) deep += '[';
  const auto doc = parse(deep);
  ASSERT_FALSE(doc.ok());
  EXPECT_EQ(doc.error().code, ErrorCode::kParse);
}

TEST(JsonValue, AsUintRejectsNonRepresentable) {
  EXPECT_EQ(parse("-3").value().as_uint(), std::nullopt);
  EXPECT_EQ(parse("1.5").value().as_uint(), std::nullopt);
  EXPECT_EQ(parse("1e300").value().as_uint(), std::nullopt);
  EXPECT_EQ(parse("9007199254740992").value().as_uint(),
            std::uint64_t{9007199254740992});  // 2^53: last exact double
}

}  // namespace
}  // namespace zolcsim::json
