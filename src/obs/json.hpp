// Minimal ordered JSON document used by the observability layer (metrics
// export, run reports, live streams). Object keys keep insertion order so
// exports are byte-stable across identical runs — the determinism harness
// compares them as strings. `parse` is the repo's one JSON reader: `gsight
// tail`, tools/bench_schema_check and the tests read artifacts back through
// it. The simulator itself only writes; the reader shares no code with
// `dump`, so round-trip tests pit the two against each other.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace gsight::obs {

class Json {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() : kind_(Kind::kNull) {}
  Json(bool b) : kind_(Kind::kBool), bool_(b) {}           // NOLINT
  Json(double v) : kind_(Kind::kNumber), number_(v) {}     // NOLINT
  Json(int v) : Json(static_cast<double>(v)) {}            // NOLINT
  Json(unsigned v) : Json(static_cast<double>(v)) {}       // NOLINT
  Json(std::int64_t v) : Json(static_cast<double>(v)) {}   // NOLINT
  // Covers std::size_t on LP64 — do not add a separate size_t overload.
  Json(std::uint64_t v) : Json(static_cast<double>(v)) {}  // NOLINT
  Json(std::string s) : kind_(Kind::kString), string_(std::move(s)) {}  // NOLINT
  Json(const char* s) : Json(std::string(s)) {}            // NOLINT

  static Json array() {
    Json j;
    j.kind_ = Kind::kArray;
    return j;
  }
  static Json object() {
    Json j;
    j.kind_ = Kind::kObject;
    return j;
  }

  /// Deepest container nesting `parse` accepts. The repo's artifacts nest
  /// a few levels; the bound keeps hostile input from overflowing the
  /// stack, since reading and destroying a tree both recurse.
  static constexpr int kMaxDepth = 64;

  /// Parse one JSON document (RFC 8259; whitespace around it allowed).
  /// Stricter than the RFC where the writer never goes: numbers must be
  /// finite doubles, a duplicate object key is an error, a \u escape above
  /// 0x7F is refused (the writer emits non-ASCII as raw UTF-8) and nesting
  /// is limited to kMaxDepth. On malformed input returns std::nullopt and,
  /// when `error` is non-null, sets it to "offset N: <reason>". Never
  /// throws on bad input.
  static std::optional<Json> parse(std::string_view text,
                                   std::string* error = nullptr);

  Kind kind() const { return kind_; }
  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_array() const { return kind_ == Kind::kArray; }

  /// Array append. Converts a null value into an array first.
  Json& push_back(Json v);
  /// Object insert-or-overwrite, preserving first-insertion order.
  /// Converts a null value into an object first.
  Json& set(const std::string& key, Json v);
  /// Lookup; nullptr when absent or not an object.
  const Json* find(const std::string& key) const;

  std::size_t size() const;
  const std::vector<Json>& items() const { return items_; }
  const std::vector<std::pair<std::string, Json>>& members() const {
    return members_;
  }
  double number() const { return number_; }
  const std::string& string() const { return string_; }
  bool boolean() const { return bool_; }

  /// Serialise. `indent` > 0 pretty-prints with that many spaces per
  /// level; 0 emits compact single-line JSON. Number formatting uses
  /// shortest-roundtrip semantics via %.17g, so equal doubles always
  /// serialise identically (byte-stable exports). Non-finite numbers are
  /// emitted as null, as JSON requires.
  void dump(std::ostream& os, int indent = 2) const;
  std::string dump_string(int indent = 2) const;

 private:
  struct Reader;  // json.cpp: the recursive-descent parser behind parse()

  void dump_impl(std::ostream& os, int indent, int depth) const;

  Kind kind_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Json> items_;                             // kArray
  std::vector<std::pair<std::string, Json>> members_;   // kObject
};

/// Escape a string for embedding in a JSON document (no surrounding
/// quotes). Control characters become \u00XX sequences.
std::string json_escape(const std::string& s);

/// Format a double exactly as Json::dump does (shared with the streaming
/// trace exporter so all emitters agree byte-for-byte).
std::string json_number(double v);

}  // namespace gsight::obs
