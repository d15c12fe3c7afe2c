// NDJSON round-trip: whatever event_to_json emits, parse_flat_json_object
// must read back verbatim -- the writer and `campaign top` share this
// contract.
#include "obs/ndjson.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

namespace propane::obs {
namespace {

const Value* find(const std::vector<Field>& fields, std::string_view key) {
  for (const Field& field : fields) {
    if (field.key == key) return &field.value;
  }
  return nullptr;
}

std::vector<Field> round_trip(const Event& event) {
  const auto fields = parse_flat_json_object(event_to_json(event));
  EXPECT_TRUE(fields.has_value()) << event_to_json(event);
  return fields.value_or(std::vector<Field>{});
}

TEST(Escaping, ControlCharactersAndQuotesRoundTrip) {
  const std::string nasty =
      "quote\" backslash\\ newline\n tab\t cr\r bell\x01 utf8 \xc3\xa9";
  Event event;
  event.name = nasty;
  event.fields = {{"msg", Value(nasty)}};
  const std::vector<Field> fields = round_trip(event);
  const Value* name = find(fields, "event");
  const Value* msg = find(fields, "msg");
  ASSERT_NE(name, nullptr);
  ASSERT_NE(msg, nullptr);
  EXPECT_EQ(name->as_string(), nasty);
  EXPECT_EQ(msg->as_string(), nasty);
}

TEST(Escaping, JsonEscapeProducesStandardSequences) {
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb"), "a\\nb");
  EXPECT_EQ(json_escape("\x01"), "\\u0001");
  EXPECT_EQ(json_escape("plain"), "plain");
}

TEST(Numbers, ExtremesRoundTripExactly) {
  Event event;
  event.name = "n";
  event.fields = {
      {"i64min", Value(std::numeric_limits<std::int64_t>::min())},
      {"u64max", Value(std::numeric_limits<std::uint64_t>::max())},
      {"frac", Value(0.1)},
      {"huge", Value(-1.5e300)},
      {"flag", Value(true)},
      {"nothing", Value()},
  };
  const std::vector<Field> fields = round_trip(event);
  EXPECT_EQ(find(fields, "i64min")->as_int(),
            std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(find(fields, "u64max")->as_uint(),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_DOUBLE_EQ(find(fields, "frac")->as_double(), 0.1);
  EXPECT_DOUBLE_EQ(find(fields, "huge")->as_double(), -1.5e300);
  EXPECT_TRUE(find(fields, "flag")->as_bool());
  EXPECT_EQ(find(fields, "nothing")->kind(), Value::Kind::kNull);
}

TEST(Numbers, NonFiniteDoublesSerialiseAsNull) {
  Event event;
  event.name = "n";
  event.fields = {{"inf", Value(std::numeric_limits<double>::infinity())}};
  const std::vector<Field> fields = round_trip(event);
  EXPECT_EQ(find(fields, "inf")->kind(), Value::Kind::kNull);
}

TEST(Numbers, AsUintSaturatesHostileDoubles) {
  // A persisted line may carry any double; reading it as a count must
  // clamp, never hit the undefined out-of-range cast.
  const auto line = parse_flat_json_object(
      "{\"event\":\"x\",\"t_us\":1e300,\"neg\":-1e300,"
      "\"two64\":18446744073709551616.0,\"below\":18446744073709549568.0,"
      "\"frac\":2.75}");
  ASSERT_TRUE(line.has_value());
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  EXPECT_EQ(find(*line, "t_us")->as_uint(), kMax);
  EXPECT_EQ(find(*line, "neg")->as_uint(), 0u);
  EXPECT_EQ(find(*line, "two64")->as_uint(), kMax);
  // The largest double below 2^64 still converts exactly.
  EXPECT_EQ(find(*line, "below")->as_uint(), 18446744073709549568ULL);
  EXPECT_EQ(find(*line, "frac")->as_uint(), 2u);
  EXPECT_EQ(Value(std::numeric_limits<double>::quiet_NaN()).as_uint(), 0u);
  EXPECT_EQ(Value(std::numeric_limits<double>::infinity()).as_uint(), kMax);
  EXPECT_EQ(Value(std::int64_t{-5}).as_uint(), 0u);
}

TEST(Parser, RejectsMalformedLines) {
  EXPECT_FALSE(parse_flat_json_object("").has_value());
  EXPECT_FALSE(parse_flat_json_object("{").has_value());
  EXPECT_FALSE(parse_flat_json_object("{\"a\":1").has_value());
  EXPECT_FALSE(parse_flat_json_object("{\"a\":1}x").has_value());
  EXPECT_FALSE(parse_flat_json_object("{\"a\":{\"nested\":1}}").has_value());
  EXPECT_FALSE(parse_flat_json_object("{\"a\":[1,2]}").has_value());
  EXPECT_FALSE(parse_flat_json_object("{\"a\":\"unterminated}").has_value());
  // The torn-tail shape `top` tolerates: a prefix cut mid-number.
  EXPECT_FALSE(parse_flat_json_object("{\"event\":\"x\",\"t_us\":12")
                   .has_value());
}

TEST(Parser, AcceptsWhitespaceAndUnicodeEscapes) {
  const auto fields =
      parse_flat_json_object("{ \"event\" : \"x\" , \"s\" : \"\\u00e9\" }");
  ASSERT_TRUE(fields.has_value());
  EXPECT_EQ(find(*fields, "s")->as_string(), "\xc3\xa9");
}

TEST(Sink, WritesOneParseableLinePerEvent) {
  std::ostringstream out;
  NdjsonSink sink(out);
  sink.emit(make_event("first", {{"n", Value(1)}}));
  sink.emit(make_event("second", {{"n", Value(2)}}));
  sink.flush();
  EXPECT_EQ(sink.event_count(), 2u);
  EXPECT_EQ(sink.bytes_written(), out.str().size());

  std::istringstream in(out.str());
  std::string line;
  std::vector<std::string> names;
  while (std::getline(in, line)) {
    const auto fields = parse_flat_json_object(line);
    ASSERT_TRUE(fields.has_value()) << line;
    names.push_back(find(*fields, "event")->as_string());
  }
  EXPECT_EQ(names, (std::vector<std::string>{"first", "second"}));
}

TEST(Sink, AppendModeConcatenatesSessions) {
  const std::filesystem::path path =
      std::filesystem::path(testing::TempDir()) / "ndjson_append_test.ndjson";
  std::filesystem::remove(path);
  {
    NdjsonSink sink(path);
    sink.emit(make_event("one"));
  }
  {
    NdjsonSink sink(path);  // append is the default
    sink.emit(make_event("two"));
  }
  std::ifstream in(path);
  std::size_t lines = 0;
  for (std::string line; std::getline(in, line);) {
    EXPECT_TRUE(parse_flat_json_object(line).has_value()) << line;
    ++lines;
  }
  EXPECT_EQ(lines, 2u);
  std::filesystem::remove(path);
}

TEST(Sink, AppendModeHealsMissingTrailingNewline) {
  // Crash residue: a killed writer leaves a line with no trailing newline.
  const std::filesystem::path path =
      std::filesystem::path(testing::TempDir()) / "ndjson_torn_test.ndjson";
  std::filesystem::remove(path);
  {
    std::ofstream out(path, std::ios::binary);
    out << R"({"event":"torn","t_us":1)";  // truncated mid-object
  }
  {
    NdjsonSink sink(path);
    sink.emit(make_event("after_crash"));
  }
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_FALSE(parse_flat_json_object(lines[0]).has_value());
  const auto fields = parse_flat_json_object(lines[1]);
  ASSERT_TRUE(fields.has_value()) << lines[1];
  EXPECT_EQ(find(*fields, "event")->as_string(), "after_crash");
  std::filesystem::remove(path);
}

TEST(Event, TimestampsAreMonotonic) {
  const Event a = make_event("a");
  const Event b = make_event("b");
  EXPECT_LE(a.t_us, b.t_us);
}

}  // namespace
}  // namespace propane::obs
