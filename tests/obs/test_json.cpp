// Tests for the ordered JSON document (src/obs/json.hpp): insertion-order
// objects, deterministic number formatting, escaping, the null handling
// the exporters rely on, and the reader's rules, pinned case by case and
// by a seeded mutation fuzz over real artifacts.
#include "obs/json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "obs/live_stream.hpp"
#include "obs/metrics.hpp"
#include "obs/run_report.hpp"
#include "obs/trace.hpp"
#include "stats/rng.hpp"

namespace {

using gsight::obs::Json;
using gsight::obs::json_escape;
using gsight::obs::json_number;

TEST(Json, ScalarKindsSerialise) {
  EXPECT_EQ(Json().dump_string(0), "null");
  EXPECT_EQ(Json(true).dump_string(0), "true");
  EXPECT_EQ(Json(false).dump_string(0), "false");
  EXPECT_EQ(Json(42).dump_string(0), "42");
  EXPECT_EQ(Json("hi").dump_string(0), "\"hi\"");
}

TEST(Json, ObjectKeepsInsertionOrder) {
  Json j = Json::object();
  j.set("zeta", 1);
  j.set("alpha", 2);
  j.set("mid", 3);
  EXPECT_EQ(j.dump_string(0), R"({"zeta":1,"alpha":2,"mid":3})");
}

TEST(Json, SetOverwritesInPlaceWithoutReordering) {
  Json j = Json::object();
  j.set("a", 1);
  j.set("b", 2);
  j.set("a", 9);
  EXPECT_EQ(j.dump_string(0), R"({"a":9,"b":2})");
  EXPECT_EQ(j.size(), 2u);
}

TEST(Json, NullPromotesToContainerOnFirstUse) {
  Json arr;  // null
  arr.push_back(1);
  arr.push_back("x");
  EXPECT_TRUE(arr.is_array());
  EXPECT_EQ(arr.dump_string(0), R"([1,"x"])");

  Json obj;  // null
  obj.set("k", true);
  EXPECT_TRUE(obj.is_object());
  EXPECT_EQ(obj.dump_string(0), R"({"k":true})");
}

TEST(Json, FindReturnsMemberOrNull) {
  Json j = Json::object();
  j.set("present", 7);
  ASSERT_NE(j.find("present"), nullptr);
  EXPECT_EQ(j.find("present")->number(), 7.0);
  EXPECT_EQ(j.find("absent"), nullptr);
  EXPECT_EQ(Json(3.0).find("anything"), nullptr);
}

TEST(Json, NonFiniteNumbersBecomeNull) {
  Json j = Json::array();
  j.push_back(std::numeric_limits<double>::quiet_NaN());
  j.push_back(std::numeric_limits<double>::infinity());
  j.push_back(-std::numeric_limits<double>::infinity());
  EXPECT_EQ(j.dump_string(0), "[null,null,null]");
}

TEST(Json, NumberFormattingIsDeterministicAndRoundTrips) {
  // Equal doubles must serialise identically (byte-stable exports), and
  // the representation must round-trip exactly.
  const double values[] = {0.0,    -0.0,   1.0,        1.0 / 3.0,
                           1e-300, 2.5e17, 1234.56789, -7.25};
  for (const double v : values) {
    const std::string a = json_number(v);
    const std::string b = json_number(v);
    EXPECT_EQ(a, b);
    EXPECT_EQ(std::stod(a), v) << a;
  }
  // Integral doubles print without an exponent or fraction.
  EXPECT_EQ(json_number(3.0), "3");
  EXPECT_EQ(json_number(-12.0), "-12");
}

TEST(Json, EscapingControlCharactersAndQuotes) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("line\nbreak"), "line\\nbreak");
  EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");
}

TEST(Json, PrettyPrintNestsWithIndent) {
  Json j = Json::object();
  j.set("list", Json::array());
  Json inner = Json::object();
  inner.set("x", 1);
  j.set("obj", inner);
  const std::string pretty = j.dump_string(2);
  EXPECT_NE(pretty.find("{\n"), std::string::npos);
  EXPECT_NE(pretty.find("  \"list\""), std::string::npos);
  // Compact form has no whitespace at all.
  const std::string compact = j.dump_string(0);
  EXPECT_EQ(compact.find(' '), std::string::npos);
  EXPECT_EQ(compact.find('\n'), std::string::npos);
}

TEST(Json, DumpToStreamMatchesDumpString) {
  Json j = Json::object();
  j.set("a", Json::array());
  std::ostringstream os;
  j.dump(os, 2);
  EXPECT_EQ(os.str(), j.dump_string(2));
}

TEST(JsonParse, RejectsHostileInputAtItsOffset) {
  std::string object_bomb;
  for (int i = 0; i < 300000; ++i) object_bomb += R"({"a":)";
  const struct {
    std::string text;
    std::size_t offset;
  } cases[] = {
      {std::string(300000, '['), Json::kMaxDepth},  // the 65th '['
      {object_bomb, 5 * Json::kMaxDepth},
      {"+1", 0},
      {"01", 1},
      {".5", 0},
      {"1.", 2},
      {"1e999", 0},
      {R"({"k":1,"k":2})", 7},
      {"\"a\tb\"", 2},
      {R"("\u0141")", 1},
  };
  for (const auto& c : cases) {
    std::string error;
    EXPECT_FALSE(Json::parse(c.text, &error).has_value())
        << c.text.substr(0, 16);
    EXPECT_EQ(error.rfind("offset " + std::to_string(c.offset) + ": ", 0), 0u)
        << c.text.substr(0, 16) << " -> " << error;
  }
}

TEST(JsonParse, AcceptsAsciiEscapesEdgeNumbersAndMaxDepth) {
  const auto a = Json::parse(R"("\u0041")");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->string(), "A");
  const auto neg_zero = Json::parse("-0");
  ASSERT_TRUE(neg_zero.has_value());
  EXPECT_EQ(neg_zero->number(), 0.0);
  EXPECT_TRUE(std::signbit(neg_zero->number()));
  const auto tiny = Json::parse("1e-400");  // underflows to zero: finite
  ASSERT_TRUE(tiny.has_value());
  EXPECT_EQ(tiny->number(), 0.0);
  const auto deep = Json::parse(std::string(Json::kMaxDepth, '[') +
                                std::string(Json::kMaxDepth, ']'));
  ASSERT_TRUE(deep.has_value());
}

// Seed documents for the fuzz: a run report with every section and each
// line of a live stream carrying every record type, with escapes and raw
// UTF-8 in the strings.
std::vector<std::string> fuzz_seeds() {
  gsight::obs::MetricsRegistry registry;
  registry.counter("requests", {{"app", "social"}}).inc(3);
  registry.gauge("depth").set(-2.5);
  registry.histogram("latency").observe(0.125);

  gsight::obs::RunReport report("fuzz");
  report.set_wall_time_s(1.25);
  report.add_result("p99", 1.0 / 3.0, "ms");
  report.add_result("tab\there \"quoted\" \x01", -7);
  Json series = Json::object();
  series.set("curve", Json::array());
  series.set("nested", Json::object());
  report.add_series("cdf", std::move(series));
  report.set_meta("note", "\xc5\x81ukasz");  // raw UTF-8
  report.attach_metrics(registry);
  std::vector<std::string> seeds{report.to_json().dump_string(2)};

  std::ostringstream os;
  gsight::obs::LiveStreamSink sink(os);
  sink.hello("fuzz", {{"seed", "7"}});
  sink.metric_deltas(0.5, registry);
  gsight::obs::Tracer tracer(&sink);
  tracer.complete(1.0, 0.25, "poll", "serve", 1, 2, {{"replica", "0"}});
  tracer.async_begin(1.5, "request", "req", 42);
  sink.mark(2.0, "fleet.drain", {{"replica", "1"}});
  std::istringstream lines(os.str());
  for (std::string line; std::getline(lines, line);) seeds.push_back(line);
  return seeds;
}

// One random edit: replace, insert or delete bytes, truncate, or
// duplicate a span. Inserted bytes favour the reader's syntax.
void mutate(std::string& text, gsight::stats::Rng& rng) {
  constexpr std::string_view kSyntax =
      "{}[]\",:\\/u0123456789abcdefABCDEF+-.eE \t\ntruefalsn\x01\x7f\xc5";
  const auto pick = [&](std::size_t n) {
    return n == 0 ? std::size_t{0}
                  : static_cast<std::size_t>(rng.uniform_index(n));
  };
  const auto byte = [&] {
    return rng.uniform_index(4) == 0 ? static_cast<char>(rng.uniform_index(256))
                                     : kSyntax[pick(kSyntax.size())];
  };
  // Draws are sequenced before each edit: argument evaluation order is
  // unspecified, and the case stream must not depend on the compiler.
  const std::size_t at = pick(text.size() + 1);
  switch (rng.uniform_index(5)) {
    case 0:
      if (at < text.size()) text[at] = byte();
      break;
    case 1:
      text.insert(at, 1, byte());
      break;
    case 2:
      text.erase(at, 1 + pick(8));
      break;
    case 3:
      text.resize(at);
      break;
    default: {
      const std::size_t from = pick(text.size());
      text.insert(at, text.substr(from, 1 + pick(32)));
      break;
    }
  }
}

TEST(JsonFuzz, MutantsParseOrFailCleanlyAndRoundTrip) {
  const auto seeds = fuzz_seeds();
  for (const auto& seed : seeds) {
    const auto doc = Json::parse(seed);
    ASSERT_TRUE(doc.has_value()) << seed;
    // The reader and the writer share no code: each seed must come back
    // byte for byte in the layout it was written in.
    EXPECT_EQ(doc->dump_string(seed.find('\n') == std::string::npos ? 0 : 2),
              seed);
  }

  gsight::stats::Rng rng(20261017);
  constexpr int kCases = 20000;
  int parsed = 0;
  for (int i = 0; i < kCases; ++i) {
    std::string text = seeds[rng.uniform_index(seeds.size())];
    for (auto edits = 1 + rng.uniform_index(3); edits > 0; --edits) {
      mutate(text, rng);
    }
    std::string error;
    std::optional<Json> doc;
    ASSERT_NO_THROW(doc = Json::parse(text, &error)) << text;
    if (!doc) {
      ASSERT_FALSE(error.empty()) << text;
      continue;
    }
    ++parsed;
    const std::string once = doc->dump_string(0);
    const auto again = Json::parse(once);
    ASSERT_TRUE(again.has_value()) << once;
    ASSERT_EQ(again->dump_string(0), once);
  }
  // Both outcomes must occur, or the mutations are too weak or too strong
  // to test anything.
  EXPECT_GT(parsed, 0);
  EXPECT_LT(parsed, kCases);
}

}  // namespace
