#include "cimflow/support/json.hpp"

#include <cmath>
#include <cstdlib>

#include "cimflow/support/io.hpp"
#include "cimflow/support/status.hpp"
#include "cimflow/support/strings.hpp"

namespace cimflow {
namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json parse_document() {
    Json value = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after JSON document");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& what) {
    raise(ErrorCode::kParseError,
          strprintf("JSON error at offset %zu: %s", pos_, what.c_str()));
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else if (c == '/' && pos_ + 1 < text_.size() && text_[pos_ + 1] == '/') {
        // Allow // comments in config files (strict JSON plus comments).
        while (pos_ < text_.size() && text_[pos_] != '\n') ++pos_;
      } else {
        break;
      }
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  char take() {
    const char c = peek();
    ++pos_;
    return c;
  }

  void expect(char c) {
    if (take() != c) fail(strprintf("expected '%c'", c));
  }

  Json parse_value() {
    skip_ws();
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Json(parse_string());
      case 't': return parse_keyword("true", Json(true));
      case 'f': return parse_keyword("false", Json(false));
      case 'n': return parse_keyword("null", Json());
      default: return parse_number();
    }
  }

  Json parse_keyword(std::string_view word, Json value) {
    if (text_.substr(pos_, word.size()) != word) fail("invalid literal");
    pos_ += word.size();
    return value;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      const char c = take();
      if (c == '"') break;
      if (c == '\\') {
        const char esc = take();
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
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = take();
              code <<= 4;
              if (h >= '0' && h <= '9') code += static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code += static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code += static_cast<unsigned>(h - 'A' + 10);
              else fail("bad \\u escape");
            }
            if (code > 0x7F) fail("non-ASCII \\u escapes unsupported");
            out += static_cast<char>(code);
            break;
          }
          default: fail("bad escape character");
        }
      } else {
        out += c;
      }
    }
    return out;
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    const std::string token(text_.substr(start, pos_ - start));
    if (token.empty() || token == "-") fail("invalid number");
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) fail("invalid number");
    return Json(value);
  }

  Json parse_array() {
    expect('[');
    JsonArray items;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Json(std::move(items));
    }
    while (true) {
      items.push_back(parse_value());
      skip_ws();
      const char c = take();
      if (c == ']') break;
      if (c != ',') fail("expected ',' or ']' in array");
    }
    return Json(std::move(items));
  }

  Json parse_object() {
    expect('{');
    JsonObject members;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Json(std::move(members));
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      members[std::move(key)] = parse_value();
      skip_ws();
      const char c = take();
      if (c == '}') break;
      if (c != ',') fail("expected ',' or '}' in object");
    }
    return Json(std::move(members));
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

void type_error(const char* want, Json::Kind got) {
  raise(ErrorCode::kParseError,
        strprintf("JSON type mismatch: wanted %s, got kind %d", want, static_cast<int>(got)));
}

}  // namespace

bool Json::as_bool() const {
  if (!is_bool()) type_error("bool", kind_);
  return bool_;
}

double Json::as_double() const {
  if (!is_number()) type_error("number", kind_);
  return number_;
}

std::int64_t Json::as_int() const {
  if (!is_number()) type_error("integer", kind_);
  const double rounded = std::nearbyint(number_);
  if (std::abs(number_ - rounded) > 1e-9) type_error("integer", kind_);
  // Casting a double outside the int64 range is undefined behaviour.
  if (!(std::abs(rounded) < 9223372036854775808.0)) type_error("integer", kind_);
  return static_cast<std::int64_t>(rounded);
}

const std::string& Json::as_string() const {
  if (!is_string()) type_error("string", kind_);
  return string_;
}

const JsonArray& Json::as_array() const {
  if (!is_array()) type_error("array", kind_);
  return array_;
}

const JsonObject& Json::as_object() const {
  if (!is_object()) type_error("object", kind_);
  return object_;
}

const Json& Json::at(const std::string& key) const {
  const JsonObject& obj = as_object();
  auto it = obj.find(key);
  if (it == obj.end()) {
    raise(ErrorCode::kParseError, "missing JSON key: " + key);
  }
  return it->second;
}

bool Json::contains(const std::string& key) const {
  return is_object() && object_.count(key) > 0;
}

std::int64_t Json::get_or(const std::string& key, std::int64_t fallback) const {
  return contains(key) ? at(key).as_int() : fallback;
}

double Json::get_or(const std::string& key, double fallback) const {
  return contains(key) ? at(key).as_double() : fallback;
}

std::string Json::get_or(const std::string& key, const std::string& fallback) const {
  return contains(key) ? at(key).as_string() : fallback;
}

bool Json::get_or(const std::string& key, bool fallback) const {
  return contains(key) ? at(key).as_bool() : fallback;
}

Json Json::parse(std::string_view text) { return Parser(text).parse_document(); }

Json Json::parse_file(const std::string& path) { return parse(read_text_file(path)); }

namespace {

void append_escaped(std::string& out, const std::string& text) {
  out += '"';
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += strprintf("\\u%04x", static_cast<unsigned>(static_cast<unsigned char>(c)));
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void dump_line_to(const Json& value, std::string& out) {
  if (value.is_null()) {
    out += "null";
  } else if (value.is_bool()) {
    out += value.as_bool() ? "true" : "false";
  } else if (value.is_number()) {
    out += Json::number_to_string(value.as_double());
  } else if (value.is_string()) {
    append_escaped(out, value.as_string());
  } else if (value.is_array()) {
    out += '[';
    const JsonArray& items = value.as_array();
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (i != 0) out += ',';
      dump_line_to(items[i], out);
    }
    out += ']';
  } else {
    out += '{';
    std::size_t i = 0;
    for (const auto& [key, member] : value.as_object()) {
      if (i++ != 0) out += ',';
      append_escaped(out, key);
      out += ':';
      dump_line_to(member, out);
    }
    out += '}';
  }
}

}  // namespace

void Json::dump_to(std::string& out, int indent, int depth) const {
  const std::string pad(static_cast<std::size_t>(indent * (depth + 1)), ' ');
  const std::string closing_pad(static_cast<std::size_t>(indent * depth), ' ');
  switch (kind_) {
    case Kind::kNull: out += "null"; break;
    case Kind::kBool: out += bool_ ? "true" : "false"; break;
    case Kind::kNumber: out += number_to_string(number_); break;
    case Kind::kString: append_escaped(out, string_); break;
    case Kind::kArray: {
      if (array_.empty()) {
        out += "[]";
        break;
      }
      out += "[\n";
      for (std::size_t i = 0; i < array_.size(); ++i) {
        out += pad;
        array_[i].dump_to(out, indent, depth + 1);
        if (i + 1 != array_.size()) out += ',';
        out += '\n';
      }
      out += closing_pad + "]";
      break;
    }
    case Kind::kObject: {
      if (object_.empty()) {
        out += "{}";
        break;
      }
      out += "{\n";
      std::size_t i = 0;
      for (const auto& [key, value] : object_) {
        out += pad + '"' + key + "\": ";
        value.dump_to(out, indent, depth + 1);
        if (++i != object_.size()) out += ',';
        out += '\n';
      }
      out += closing_pad + "}";
      break;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

std::string Json::dump_line() const {
  std::string out;
  dump_line_to(*this, out);
  return out;
}

std::string Json::number_to_string(double value) {
  if (!std::isfinite(value)) return "null";
  // 2^53: largest magnitude below which every integer is exactly a double,
  // so the integer rendering is still round-trip exact.
  if (value == std::nearbyint(value) && std::abs(value) < 9007199254740992.0) {
    return strprintf("%lld", static_cast<long long>(value));
  }
  // Shortest decimal that parses back to the identical double (17 significant
  // digits always suffice for IEEE binary64).
  for (int precision = 15; precision <= 17; ++precision) {
    std::string repr = strprintf("%.*g", precision, value);
    if (std::strtod(repr.c_str(), nullptr) == value) return repr;
  }
  return strprintf("%.17g", value);
}

}  // namespace cimflow
