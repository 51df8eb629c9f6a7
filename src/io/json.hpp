// Minimal JSON value, serializer, and parser.
//
// Examples dump scenario configuration and results as JSON for downstream
// tooling, and the experiment engine (src/exp) loads campaign manifests
// from JSON files. A ~300-line value type covers both directions without a
// vendored dependency.
#pragma once

#include <cmath>
#include <concepts>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace pas::io {

class Json;
using JsonArray = std::vector<Json>;
using JsonObject = std::map<std::string, Json>;  // ordered keys => stable output

class Json {
 public:
  Json() : value_(nullptr) {}
  Json(std::nullptr_t) : value_(nullptr) {}
  Json(bool b) : value_(b) {}
  Json(double d) : value_(d) {}
  Json(int i) : value_(static_cast<double>(i)) {}
  Json(std::int64_t i) : value_(static_cast<double>(i)) {}
  Json(std::size_t i) : value_(static_cast<double>(i)) {}
  Json(const char* s) : value_(std::string(s)) {}
  Json(std::string s) : value_(std::move(s)) {}
  Json(JsonArray a) : value_(std::move(a)) {}
  Json(JsonObject o) : value_(std::move(o)) {}

  [[nodiscard]] bool is_null() const noexcept { return std::holds_alternative<std::nullptr_t>(value_); }
  [[nodiscard]] bool is_bool() const noexcept { return std::holds_alternative<bool>(value_); }
  [[nodiscard]] bool is_number() const noexcept { return std::holds_alternative<double>(value_); }
  [[nodiscard]] bool is_string() const noexcept { return std::holds_alternative<std::string>(value_); }
  [[nodiscard]] bool is_object() const noexcept { return std::holds_alternative<JsonObject>(value_); }
  [[nodiscard]] bool is_array() const noexcept { return std::holds_alternative<JsonArray>(value_); }

  /// Typed accessors; throw std::runtime_error on a type mismatch.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_double() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const JsonArray& as_array() const;
  [[nodiscard]] const JsonObject& as_object() const;

  /// Object element access; creates the object/key as needed.
  Json& operator[](const std::string& key);

  /// True if this is an object containing `key`.
  [[nodiscard]] bool contains(const std::string& key) const noexcept;

  /// Const object lookup; throws std::runtime_error if absent/not an object.
  [[nodiscard]] const Json& at(const std::string& key) const;

  /// Convenience lookups with fallbacks for optional manifest fields.
  [[nodiscard]] double number_or(const std::string& key, double fallback) const;
  [[nodiscard]] std::string string_or(const std::string& key,
                                      std::string fallback) const;
  [[nodiscard]] bool bool_or(const std::string& key, bool fallback) const;
  /// The integer at `key`, read with to_integer(), or `fallback` when
  /// absent.
  template <std::integral T>
  [[nodiscard]] T integer_or(const std::string& key, T fallback) const;

  /// Appends to an array (converts null to array first).
  void push_back(Json v);

  /// Parses a complete JSON document. Throws std::runtime_error (with a
  /// byte offset) on malformed input or trailing garbage.
  [[nodiscard]] static Json parse(std::string_view text);

  /// Reads and parses a JSON file. Throws std::runtime_error if the file
  /// cannot be read or does not parse.
  [[nodiscard]] static Json parse_file(const std::string& path);

  /// Serialises compactly (indent < 0) or pretty-printed with `indent`
  /// spaces per level.
  [[nodiscard]] std::string dump(int indent = -1) const;

 private:
  void dump_impl(std::string& out, int indent, int depth) const;
  static void escape_into(std::string& out, std::string_view s);

  std::variant<std::nullptr_t, bool, double, std::string, JsonArray, JsonObject> value_;
};

/// A JSON number that names a count, a seed or an index, as a T. Throws
/// std::runtime_error naming `key` unless `value` is an integer that T
/// holds: a bare cast would truncate 30.9 silently and is undefined for
/// 1e30.
template <std::integral T>
[[nodiscard]] T to_integer(double value, std::string_view key) {
  // T holds the integers in [min, 2·(max/2 + 1)); both bounds are exact
  // doubles (0 or −2^k, and 2^k).
  constexpr T lo = std::numeric_limits<T>::min();
  constexpr T hi = std::numeric_limits<T>::max();
  constexpr double end = 2.0 * static_cast<double>(hi / 2 + 1);
  if (!(value >= static_cast<double>(lo) && value < end) ||
      std::trunc(value) != value) {
    throw std::runtime_error("JSON key \"" + std::string(key) + "\": " +
                             Json(value).dump() + " is not an integer in [" +
                             std::to_string(lo) + ", " + std::to_string(hi) +
                             "]");
  }
  return static_cast<T>(value);
}

template <std::integral T>
T Json::integer_or(const std::string& key, T fallback) const {
  return contains(key) ? to_integer<T>(at(key).as_double(), key) : fallback;
}

}  // namespace pas::io
