// bench_schema_check — validates BENCH_*.json run reports against the
// gsight-bench-report/v1 schema (src/obs/run_report.hpp). It links only
// gsight_obs and reads every document through obs::Json::parse, the repo's
// one JSON reader; the structural rules below are its own, so a writer bug
// still shows up as an invalid report.
//
// Usage:
//   bench_schema_check <report.json>...   validate each file; exit 1 on
//                                         the first failure
//   bench_schema_check --live <file>...   validate gsight-live/v1 NDJSON
//                                         streams (serve-bench --live)
//   bench_schema_check --self-test        run the built-in cases
//
// Every document (each line of a stream) must first parse under
// obs::Json::parse's rules: RFC 8259 grammar, finite numbers, no duplicate
// keys, nesting at most Json::kMaxDepth; a failure names the byte offset.
//
// Report schema requirements enforced:
//   * top level is an object
//   * "schema" == "gsight-bench-report/v1"
//   * "bench" is a non-empty string
//   * "wall_time_s" is a finite number >= 0
//   * "results" is an array of objects, each with a non-empty string
//     "name", a finite number "value", and (optionally) a string "unit"
//   * "series" / "meta" / "metrics", when present, are object/object/array
//
// Live-stream (gsight-live/v1, src/obs/live_stream.hpp) requirements:
//   * every line is one JSON object with a string "type" and an integer
//     "seq" equal to its 0-based line index (strictly sequential)
//   * line 0 is a "hello" record with "schema" == "gsight-live/v1"
//   * "metric" records carry kind in {counter,gauge,histogram}, a
//     non-empty "name", and finite "ts_s"/"value"/"delta"
//   * "span" records carry a non-empty "name", a non-empty "ph", and a
//     finite "ts_s"; "mark" records a non-empty "name" and finite "ts_s"
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>

#include "obs/json.hpp"
#include "obs/live_stream.hpp"
#include "obs/run_report.hpp"

namespace {

using gsight::obs::Json;

// ---------------------------------------------------------------------------
// Schema validation
// ---------------------------------------------------------------------------

struct Failure {
  std::string what;
};

void check(bool ok, const std::string& what) {
  if (!ok) throw Failure{what};
}

bool is(const Json* v, Json::Kind kind) {
  return v != nullptr && v->kind() == kind;
}

/// The document in `text`, or a Failure naming the offset of the first
/// syntax error; `where` prefixes the message ("line N: " in a stream).
Json parse_document(std::string_view text, const std::string& where) {
  std::string error;
  std::optional<Json> doc = Json::parse(text, &error);
  check(doc.has_value(), where + "json parse error at " + error);
  return std::move(*doc);
}

void validate_report(const Json& doc) {
  check(doc.is_object(), "top level is not an object");

  const Json* schema = doc.find("schema");
  check(is(schema, Json::Kind::kString), "missing string field 'schema'");
  check(schema->string() == gsight::obs::kBenchReportSchema,
        "unknown schema '" + schema->string() + "'");

  const Json* bench = doc.find("bench");
  check(is(bench, Json::Kind::kString) && !bench->string().empty(),
        "missing non-empty string field 'bench'");

  const Json* wall = doc.find("wall_time_s");
  check(is(wall, Json::Kind::kNumber), "missing numeric field 'wall_time_s'");
  check(std::isfinite(wall->number()) && wall->number() >= 0.0,
        "'wall_time_s' must be finite and >= 0");

  const Json* results = doc.find("results");
  check(is(results, Json::Kind::kArray), "missing array field 'results'");
  for (std::size_t i = 0; i < results->items().size(); ++i) {
    const Json& row = results->items()[i];
    const std::string at = "results[" + std::to_string(i) + "]";
    check(row.is_object(), at + " is not an object");
    const Json* name = row.find("name");
    check(is(name, Json::Kind::kString) && !name->string().empty(),
          at + " missing non-empty string 'name'");
    const Json* value = row.find("value");
    check(is(value, Json::Kind::kNumber), at + " missing numeric 'value'");
    check(std::isfinite(value->number()), at + " 'value' is not finite");
    if (const Json* unit = row.find("unit")) {
      check(is(unit, Json::Kind::kString), at + " 'unit' is not a string");
    }
  }

  if (const Json* series = doc.find("series")) {
    check(series->is_object(), "'series' is not an object");
  }
  if (const Json* meta = doc.find("meta")) {
    check(meta->is_object(), "'meta' is not an object");
  }
  if (const Json* metrics = doc.find("metrics")) {
    check(metrics->is_array(), "'metrics' is not an array");
  }
}

bool validate_text(std::string_view text, std::string* error) {
  try {
    validate_report(parse_document(text, ""));
    return true;
  } catch (const Failure& f) {
    *error = f.what;
    return false;
  }
}

// ---------------------------------------------------------------------------
// gsight-live/v1 NDJSON streams
// ---------------------------------------------------------------------------

void check_finite_number(const Json& record, const char* field,
                         const std::string& at) {
  const Json* v = record.find(field);
  check(is(v, Json::Kind::kNumber), at + " missing numeric '" + field + "'");
  check(std::isfinite(v->number()),
        at + " '" + std::string(field) + "' is not finite");
}

void check_nonempty_string(const Json& record, const char* field,
                           const std::string& at) {
  const Json* v = record.find(field);
  check(is(v, Json::Kind::kString) && !v->string().empty(),
        at + " missing non-empty string '" + field + "'");
}

void validate_live_record(const Json& record, std::size_t index) {
  const std::string at = "line " + std::to_string(index);
  check(record.is_object(), at + " is not an object");

  const Json* type = record.find("type");
  check(is(type, Json::Kind::kString), at + " missing string field 'type'");

  // seq is assigned under the sink's lock: strictly sequential from 0, so
  // it must equal the line index — any gap means records were dropped.
  const Json* seq = record.find("seq");
  check(is(seq, Json::Kind::kNumber), at + " missing numeric field 'seq'");
  check(seq->number() == static_cast<double>(index),
        at + " 'seq' is " + std::to_string(seq->number()) +
            ", expected the line index");

  if (index == 0) {
    check(type->string() == "hello", "line 0 must be a 'hello' record");
    const Json* schema = record.find("schema");
    check(is(schema, Json::Kind::kString),
          "hello record missing string field 'schema'");
    check(schema->string() == gsight::obs::kLiveSchema,
          "unknown live schema '" + schema->string() + "'");
    check_nonempty_string(record, "source", at);
    return;
  }
  check(type->string() != "hello", at + " duplicate 'hello' record");

  if (type->string() == "metric") {
    const Json* kind = record.find("kind");
    check(is(kind, Json::Kind::kString) &&
              (kind->string() == "counter" || kind->string() == "gauge" ||
               kind->string() == "histogram"),
          at + " metric 'kind' must be counter/gauge/histogram");
    check_nonempty_string(record, "name", at);
    check_finite_number(record, "ts_s", at);
    check_finite_number(record, "value", at);
    check_finite_number(record, "delta", at);
  } else if (type->string() == "span") {
    check_nonempty_string(record, "name", at);
    check_nonempty_string(record, "ph", at);
    check_finite_number(record, "ts_s", at);
  } else if (type->string() == "mark") {
    check_nonempty_string(record, "name", at);
    check_finite_number(record, "ts_s", at);
  } else {
    throw Failure{at + " unknown record type '" + type->string() + "'"};
  }
}

bool validate_live_text(std::string_view text, std::string* error) {
  try {
    std::size_t index = 0;
    std::size_t start = 0;
    while (start < text.size()) {
      std::size_t end = text.find('\n', start);
      if (end == std::string_view::npos) end = text.size();
      const std::string_view line = text.substr(start, end - start);
      start = end + 1;
      if (line.empty()) continue;
      const std::string at = "line " + std::to_string(index) + ": ";
      validate_live_record(parse_document(line, at), index);
      ++index;
    }
    check(index > 0, "empty stream (no records)");
    return true;
  } catch (const Failure& f) {
    *error = f.what;
    return false;
  }
}

int validate_file(const char* path, bool live) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "bench_schema_check: cannot open %s\n", path);
    return 1;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  std::string error;
  const bool ok = live ? validate_live_text(ss.str(), &error)
                       : validate_text(ss.str(), &error);
  if (!ok) {
    std::fprintf(stderr, "bench_schema_check: %s: %s\n", path, error.c_str());
    return 1;
  }
  std::printf("bench_schema_check: %s: OK\n", path);
  return 0;
}

int self_test() {
  struct Case {
    const char* name;
    std::string text;
    bool ok;
  };
  // Nesting far past Json::kMaxDepth must fail cleanly, not overflow the
  // stack.
  std::string object_bomb;
  for (int i = 0; i < 300000; ++i) object_bomb += R"({"a":)";
  const Case cases[] = {
      {"minimal valid",
       R"({"schema":"gsight-bench-report/v1","bench":"x","wall_time_s":0,)"
       R"("results":[]})",
       true},
      {"full valid",
       R"({"schema":"gsight-bench-report/v1","bench":"fig14","wall_time_s":1.5,)"
       R"("results":[{"name":"a","value":1.0,"unit":"ms"},{"name":"b","value":-2}],)"
       R"("series":{"curve":[1,2,3]},"metrics":[{"name":"m"}],"meta":{"k":"v"}})",
       true},
      {"wrong schema tag",
       R"({"schema":"other/v9","bench":"x","wall_time_s":0,"results":[]})",
       false},
      {"missing bench",
       R"({"schema":"gsight-bench-report/v1","wall_time_s":0,"results":[]})",
       false},
      {"negative wall time",
       R"({"schema":"gsight-bench-report/v1","bench":"x","wall_time_s":-1,)"
       R"("results":[]})",
       false},
      {"result without value",
       R"({"schema":"gsight-bench-report/v1","bench":"x","wall_time_s":0,)"
       R"("results":[{"name":"a"}]})",
       false},
      {"null result value",
       R"({"schema":"gsight-bench-report/v1","bench":"x","wall_time_s":0,)"
       R"("results":[{"name":"a","value":null}]})",
       false},
      {"results not an array",
       R"({"schema":"gsight-bench-report/v1","bench":"x","wall_time_s":0,)"
       R"("results":{}})",
       false},
      {"string escapes in names",
       R"({"schema":"gsight-bench-report/v1","bench":"q\"\\u0041","wall_time_s":0,)"
       R"("results":[{"name":"tab\tname","value":3e-5}]})",
       true},
      {"truncated document",
       R"({"schema":"gsight-bench-report/v1","bench":"x")", false},
      {"not json at all", "hello", false},
      {"nesting bomb", std::string(300000, '['), false},
      {"plus-signed number",
       R"({"schema":"gsight-bench-report/v1","bench":"x","wall_time_s":+1,)"
       R"("results":[]})",
       false},
      {"duplicate key",
       R"({"schema":"gsight-bench-report/v1","bench":"x","bench":"y",)"
       R"("wall_time_s":0,"results":[]})",
       false},
  };
  const Case live_cases[] = {
      {"live minimal valid",
       R"({"schema":"gsight-live/v1","type":"hello","seq":0,"source":"t"})"
       "\n",
       true},
      {"live full valid",
       R"({"schema":"gsight-live/v1","type":"hello","seq":0,"source":"t",)"
       R"("meta":{"k":"v"}})"
       "\n"
       R"({"type":"metric","seq":1,"ts_s":0.5,"kind":"counter",)"
       R"("name":"fleet.submitted","labels":"","value":3,"delta":3})"
       "\n"
       R"({"type":"span","seq":2,"ts_s":0.6,"ph":"X","name":"poll",)"
       R"("cat":"serve","dur_s":0.01})"
       "\n"
       R"({"type":"mark","seq":3,"ts_s":0.7,"name":"fleet.drain",)"
       R"("args":{"replica":"1"}})"
       "\n",
       true},
      {"live empty stream", "", false},
      {"live missing hello",
       R"({"type":"mark","seq":0,"ts_s":0,"name":"x"})"
       "\n",
       false},
      {"live wrong schema",
       R"({"schema":"gsight-live/v9","type":"hello","seq":0,"source":"t"})"
       "\n",
       false},
      {"live seq gap",
       R"({"schema":"gsight-live/v1","type":"hello","seq":0,"source":"t"})"
       "\n"
       R"({"type":"mark","seq":2,"ts_s":0,"name":"x"})"
       "\n",
       false},
      {"live duplicate hello",
       R"({"schema":"gsight-live/v1","type":"hello","seq":0,"source":"t"})"
       "\n"
       R"({"schema":"gsight-live/v1","type":"hello","seq":1,"source":"t"})"
       "\n",
       false},
      {"live bad metric kind",
       R"({"schema":"gsight-live/v1","type":"hello","seq":0,"source":"t"})"
       "\n"
       R"({"type":"metric","seq":1,"ts_s":0,"kind":"meter","name":"m",)"
       R"("value":1,"delta":1})"
       "\n",
       false},
      {"live metric missing delta",
       R"({"schema":"gsight-live/v1","type":"hello","seq":0,"source":"t"})"
       "\n"
       R"({"type":"metric","seq":1,"ts_s":0,"kind":"gauge","name":"m",)"
       R"("value":1})"
       "\n",
       false},
      {"live non-finite ts",
       R"({"schema":"gsight-live/v1","type":"hello","seq":0,"source":"t"})"
       "\n"
       R"({"type":"mark","seq":1,"ts_s":null,"name":"x"})"
       "\n",
       false},
      {"live span without ph",
       R"({"schema":"gsight-live/v1","type":"hello","seq":0,"source":"t"})"
       "\n"
       R"({"type":"span","seq":1,"ts_s":0,"name":"x"})"
       "\n",
       false},
      {"live unknown type",
       R"({"schema":"gsight-live/v1","type":"hello","seq":0,"source":"t"})"
       "\n"
       R"({"type":"blob","seq":1,"ts_s":0,"name":"x"})"
       "\n",
       false},
      {"live nesting bomb",
       R"({"schema":"gsight-live/v1","type":"hello","seq":0,"source":"t"})"
       "\n" + object_bomb + "\n",
       false},
      {"live plus-signed seq",
       R"({"schema":"gsight-live/v1","type":"hello","seq":0,"source":"t"})"
       "\n"
       R"({"type":"mark","seq":+1,"ts_s":0,"name":"x"})"
       "\n",
       false},
      {"live duplicate key",
       R"({"schema":"gsight-live/v1","type":"hello","type":"mark","seq":0,)"
       R"("source":"t"})"
       "\n",
       false},
  };
  int failures = 0;
  for (const auto& c : cases) {
    std::string error;
    const bool ok = validate_text(c.text, &error);
    if (ok != c.ok) {
      std::fprintf(stderr, "self-test FAIL: %s (expected %s, got %s%s%s)\n",
                   c.name, c.ok ? "valid" : "invalid",
                   ok ? "valid" : "invalid", ok ? "" : ": ",
                   ok ? "" : error.c_str());
      ++failures;
    }
  }
  for (const auto& c : live_cases) {
    std::string error;
    const bool ok = validate_live_text(c.text, &error);
    if (ok != c.ok) {
      std::fprintf(stderr, "self-test FAIL: %s (expected %s, got %s%s%s)\n",
                   c.name, c.ok ? "valid" : "invalid",
                   ok ? "valid" : "invalid", ok ? "" : ": ",
                   ok ? "" : error.c_str());
      ++failures;
    }
  }
  if (failures == 0) {
    std::printf(
        "bench_schema_check self-test: all %zu cases passed\n",
        sizeof(cases) / sizeof(cases[0]) +
            sizeof(live_cases) / sizeof(live_cases[0]));
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: bench_schema_check <report.json>... | "
                 "--live <stream.ndjson>... | --self-test\n");
    return 2;
  }
  if (std::strcmp(argv[1], "--self-test") == 0) return self_test();
  bool live = false;
  int rc = 0;
  int files = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--live") == 0) {
      live = true;
      continue;
    }
    rc |= validate_file(argv[i], live);
    ++files;
  }
  if (files == 0) {
    std::fprintf(stderr, "bench_schema_check: no input files\n");
    return 2;
  }
  return rc;
}
