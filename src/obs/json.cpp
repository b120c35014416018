#include "obs/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ostream>
#include <sstream>
#include <system_error>
#include <unordered_set>

namespace gsight::obs {

Json& Json::push_back(Json v) {
  if (kind_ == Kind::kNull) kind_ = Kind::kArray;
  items_.push_back(std::move(v));
  return items_.back();
}

Json& Json::set(const std::string& key, Json v) {
  if (kind_ == Kind::kNull) kind_ = Kind::kObject;
  for (auto& [k, existing] : members_) {
    if (k == key) {
      existing = std::move(v);
      return existing;
    }
  }
  members_.emplace_back(key, std::move(v));
  return members_.back().second;
}

const Json* Json::find(const std::string& key) const {
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::size_t Json::size() const {
  switch (kind_) {
    case Kind::kArray:
      return items_.size();
    case Kind::kObject:
      return members_.size();
    default:
      return 0;
  }
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  // Integers up to 2^53 print without an exponent or decimal point; other
  // values round-trip through %.17g.
  if (v == std::floor(v) && std::fabs(v) < 9.007199254740992e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.0f", v);
    return buf;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void Json::dump_impl(std::ostream& os, int indent, int depth) const {
  const std::string pad =
      indent > 0 ? std::string(static_cast<std::size_t>(indent * (depth + 1)),
                               ' ')
                 : std::string();
  const std::string closing_pad =
      indent > 0 ? std::string(static_cast<std::size_t>(indent * depth), ' ')
                 : std::string();
  const char* nl = indent > 0 ? "\n" : "";
  const char* colon = indent > 0 ? ": " : ":";
  switch (kind_) {
    case Kind::kNull:
      os << "null";
      break;
    case Kind::kBool:
      os << (bool_ ? "true" : "false");
      break;
    case Kind::kNumber:
      os << json_number(number_);
      break;
    case Kind::kString:
      os << '"' << json_escape(string_) << '"';
      break;
    case Kind::kArray: {
      if (items_.empty()) {
        os << "[]";
        break;
      }
      os << '[' << nl;
      for (std::size_t i = 0; i < items_.size(); ++i) {
        os << pad;
        items_[i].dump_impl(os, indent, depth + 1);
        if (i + 1 < items_.size()) os << ',';
        os << nl;
      }
      os << closing_pad << ']';
      break;
    }
    case Kind::kObject: {
      if (members_.empty()) {
        os << "{}";
        break;
      }
      os << '{' << nl;
      for (std::size_t i = 0; i < members_.size(); ++i) {
        os << pad << '"' << json_escape(members_[i].first) << '"' << colon;
        members_[i].second.dump_impl(os, indent, depth + 1);
        if (i + 1 < members_.size()) os << ',';
        os << nl;
      }
      os << closing_pad << '}';
      break;
    }
  }
}

void Json::dump(std::ostream& os, int indent) const {
  dump_impl(os, indent, 0);
}

std::string Json::dump_string(int indent) const {
  std::ostringstream os;
  dump(os, indent);
  return os.str();
}

// Recursive descent over RFC 8259's grammar. Each rule consumes its input
// and returns a value, or records the first error and returns nullopt;
// `depth` counts the containers around the value being read.
struct Json::Reader {
  std::string_view text;
  std::size_t pos = 0;
  std::size_t error_at = 0;
  const char* error = "";

  std::nullopt_t fail(std::size_t at, const char* what) {
    error_at = at;
    error = what;
    return std::nullopt;
  }

  bool at_end() const { return pos >= text.size(); }
  bool next_is(char c) const { return !at_end() && text[pos] == c; }
  bool next_is_digit() const {
    return !at_end() && text[pos] >= '0' && text[pos] <= '9';
  }

  void skip_ws() {
    while (next_is(' ') || next_is('\t') || next_is('\n') || next_is('\r')) {
      ++pos;
    }
  }

  /// Consumes `c` after optional whitespace.
  bool eat(char c) {
    skip_ws();
    if (!next_is(c)) return false;
    ++pos;
    return true;
  }

  bool eat_word(std::string_view word) {
    if (text.substr(pos, word.size()) != word) return false;
    pos += word.size();
    return true;
  }

  std::size_t digits() {
    const std::size_t start = pos;
    while (next_is_digit()) ++pos;
    return pos - start;
  }

  std::optional<Json> value(int depth) {  // NOLINT(misc-no-recursion)
    skip_ws();
    if (at_end()) return fail(pos, "unexpected end of input");
    if (next_is('{') || next_is('[')) {
      if (depth >= kMaxDepth) return fail(pos, "nesting too deep");
      return next_is('{') ? object(depth + 1) : array(depth + 1);
    }
    if (next_is('"')) {
      auto s = string();
      if (!s) return std::nullopt;
      return Json(std::move(*s));
    }
    if (eat_word("true")) return Json(true);
    if (eat_word("false")) return Json(false);
    if (eat_word("null")) return Json();
    return number();
  }

  std::optional<Json> number() {
    const std::size_t start = pos;
    if (next_is('-')) ++pos;
    // A leading zero stands alone: no context accepts a digit after a
    // value, so "01" fails at the '1' in the caller.
    if (next_is('0')) {
      ++pos;
    } else if (digits() == 0) {
      return fail(start, pos > start ? "malformed number" : "expected a value");
    }
    if (next_is('.')) {
      ++pos;
      if (digits() == 0) return fail(pos, "malformed number");
    }
    if (next_is('e') || next_is('E')) {
      ++pos;
      if (next_is('+') || next_is('-')) ++pos;
      if (digits() == 0) return fail(pos, "malformed number");
    }
    // The grammar above is a subset of strtod's, so it reads the whole
    // token; underflow to zero is fine, overflow to infinity is not.
    const std::string token(text.substr(start, pos - start));
    const double v = std::strtod(token.c_str(), nullptr);
    if (!std::isfinite(v)) return fail(start, "number out of range");
    return Json(v);
  }

  std::optional<std::string> string() {
    ++pos;  // '"'
    std::string out;
    while (!at_end()) {
      const char c = text[pos];
      if (c == '"') {
        ++pos;
        return out;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return fail(pos, "raw control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        ++pos;
        continue;
      }
      const std::size_t escape_at = pos++;
      if (at_end()) break;
      const char e = text[pos++];
      constexpr std::string_view kEscapes = "\"\\/bfnrt";
      constexpr std::string_view kDecoded = "\"\\/\b\f\n\r\t";
      if (const auto k = kEscapes.find(e); k != std::string_view::npos) {
        out.push_back(kDecoded[k]);
        continue;
      }
      if (e != 'u') return fail(escape_at, "unknown escape");
      const std::string_view hex = text.substr(pos, 4);
      unsigned code = 0;
      const auto [end, ec] =
          std::from_chars(hex.data(), hex.data() + hex.size(), code, 16);
      if (ec != std::errc() || end != hex.data() + 4) {
        return fail(escape_at, "bad \\u escape");
      }
      if (code > 0x7F) return fail(escape_at, "\\u escape above 0x7F");
      out.push_back(static_cast<char>(code));
      pos += 4;
    }
    return fail(pos, "unterminated string");
  }

  std::optional<Json> array(int depth) {  // NOLINT(misc-no-recursion)
    ++pos;  // '['
    Json arr = Json::array();
    if (eat(']')) return arr;
    do {
      auto item = value(depth);
      if (!item) return std::nullopt;
      arr.items_.push_back(std::move(*item));
    } while (eat(','));
    if (!eat(']')) return fail(pos, "expected ',' or ']'");
    return arr;
  }

  std::optional<Json> object(int depth) {  // NOLINT(misc-no-recursion)
    ++pos;  // '{'
    Json obj = Json::object();
    if (eat('}')) return obj;
    std::unordered_set<std::string> keys;
    do {
      skip_ws();
      const std::size_t key_at = pos;
      if (!next_is('"')) return fail(pos, "expected a string key");
      auto key = string();
      if (!key) return std::nullopt;
      if (!keys.insert(*key).second) return fail(key_at, "duplicate key");
      if (!eat(':')) return fail(pos, "expected ':'");
      auto member = value(depth);
      if (!member) return std::nullopt;
      obj.members_.emplace_back(std::move(*key), std::move(*member));
    } while (eat(','));
    if (!eat('}')) return fail(pos, "expected ',' or '}'");
    return obj;
  }
};

std::optional<Json> Json::parse(std::string_view text, std::string* error) {
  Reader reader{text};
  std::optional<Json> doc = reader.value(0);
  if (doc) {
    reader.skip_ws();
    if (!reader.at_end()) {
      doc = reader.fail(reader.pos, "trailing characters after the document");
    }
  }
  if (!doc && error != nullptr) {
    *error = "offset " + std::to_string(reader.error_at) + ": " + reader.error;
  }
  return doc;
}

}  // namespace gsight::obs
