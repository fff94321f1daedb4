// A small JSON value type + recursive-descent parser, used for architecture
// configuration files (paper Fig. 2 "Arch. Config" / "Config File" input).
// Supports the full JSON grammar except \u escapes beyond ASCII.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace cimflow {

class Json;
using JsonArray = std::vector<Json>;
using JsonObject = std::map<std::string, Json>;

/// Immutable-ish JSON value (object keys are kept sorted for deterministic
/// printing). Accessors throw cimflow::Error on type mismatch so config
/// errors surface with a useful message instead of UB.
class Json {
 public:
  enum class Kind : std::uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() : kind_(Kind::kNull) {}
  Json(bool value) : kind_(Kind::kBool), bool_(value) {}
  Json(double value) : kind_(Kind::kNumber), number_(value) {}
  Json(int value) : kind_(Kind::kNumber), number_(value) {}
  Json(std::int64_t value) : kind_(Kind::kNumber), number_(static_cast<double>(value)) {}
  Json(const char* value) : kind_(Kind::kString), string_(value) {}
  Json(std::string value) : kind_(Kind::kString), string_(std::move(value)) {}
  Json(JsonArray value) : kind_(Kind::kArray), array_(std::move(value)) {}
  Json(JsonObject value) : kind_(Kind::kObject), object_(std::move(value)) {}

  Kind kind() const noexcept { return kind_; }
  bool is_null() const noexcept { return kind_ == Kind::kNull; }
  bool is_bool() const noexcept { return kind_ == Kind::kBool; }
  bool is_number() const noexcept { return kind_ == Kind::kNumber; }
  bool is_string() const noexcept { return kind_ == Kind::kString; }
  bool is_array() const noexcept { return kind_ == Kind::kArray; }
  bool is_object() const noexcept { return kind_ == Kind::kObject; }

  bool as_bool() const;
  double as_double() const;
  std::int64_t as_int() const;  ///< requires an integral number
  const std::string& as_string() const;
  const JsonArray& as_array() const;
  const JsonObject& as_object() const;

  /// Object member access; throws when missing (use `get_or`/`contains` for
  /// optional keys).
  const Json& at(const std::string& key) const;
  bool contains(const std::string& key) const;

  /// Optional lookup with default for numbers — the common config pattern.
  std::int64_t get_or(const std::string& key, std::int64_t fallback) const;
  double get_or(const std::string& key, double fallback) const;
  std::string get_or(const std::string& key, const std::string& fallback) const;
  bool get_or(const std::string& key, bool fallback) const;

  /// Parses text; throws Error(kParseError) with offset info on failure.
  static Json parse(std::string_view text);

  /// Reads and parses a file; throws Error(kIoError) when unreadable and
  /// Error(kParseError) when malformed.
  static Json parse_file(const std::string& path);

  /// Serializes with 2-space indentation. Output is deterministic (sorted
  /// object keys, fixed number formatting) and round-trip exact:
  /// parse(x.dump()) reconstructs the same value, bit-exact for numbers.
  std::string dump(int indent = 2) const;

  /// Serializes the whole value onto one line with no whitespace — the
  /// newline-delimited wire format of cimflowd, where one request or event
  /// must be exactly one '\n'-terminated line. Same determinism and
  /// round-trip guarantees as dump(); only the whitespace differs.
  std::string dump_line() const;

  /// The number formatting used by dump(): integral values within the
  /// double-exact range print as integers, everything else as the shortest
  /// decimal that parses back to the same double. Non-finite values (which
  /// JSON cannot represent) print as "null". Shared with the CSV emitters so
  /// all machine-readable output formats numbers identically.
  static std::string number_to_string(double value);

  /// Value equality: the same canonical serialization.
  bool operator==(const Json& other) const { return dump_line() == other.dump_line(); }

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  Kind kind_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  JsonArray array_;
  JsonObject object_;
};

}  // namespace cimflow
