#pragma once

/// \file json.hpp
/// Minimal JSON value tree: parse, inspect, mutate, serialize. Enough for
/// the observability artifacts (Chrome traces, `trace.spio.json` run
/// records, stats streams, access profiles) and `spio_bench --json`
/// without an external dependency.
///
/// Numbers keep their raw source token alongside the double conversion,
/// so 64-bit counters survive a parse → serialize round trip without
/// precision loss.

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace spio::obs {

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;

  static JsonValue null_value() { return JsonValue(); }
  static JsonValue boolean(bool b);
  static JsonValue number(double v);
  static JsonValue number(std::uint64_t v);
  static JsonValue number(std::int64_t v);
  static JsonValue number(int v) { return number(std::int64_t{v}); }
  static JsonValue string(std::string_view s);
  /// Number carrying its exact source token (parser internal).
  static JsonValue number_from_token(std::string raw, double v);
  static JsonValue array();
  static JsonValue object();

  /// Parse a complete document (trailing whitespace allowed, trailing
  /// garbage rejected). Throws `FormatError` on malformed input.
  static JsonValue parse(std::string_view text);

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  /// Typed accessors; throw `FormatError` on kind mismatch.
  bool as_bool() const;
  double as_double() const;
  std::uint64_t as_u64() const;
  std::int64_t as_i64() const;
  const std::string& as_string() const;

  // ---- arrays ----
  std::size_t size() const;  // array or object member count
  const JsonValue& at(std::size_t i) const;
  JsonValue& push_back(JsonValue v);

  // ---- objects ----
  /// Member lookup; null when absent (object kind required).
  const JsonValue* find(std::string_view key) const;
  /// Member lookup that throws `FormatError` when the key is absent.
  const JsonValue& at(std::string_view key) const;
  bool contains(std::string_view key) const { return find(key) != nullptr; }
  /// Insert or replace a member, preserving insertion order.
  JsonValue& set(std::string_view key, JsonValue v);
  const std::vector<std::pair<std::string, JsonValue>>& members() const;

  /// Serialize. `indent > 0` pretty-prints with that many spaces per
  /// level; 0 emits the compact form.
  std::string dump(int indent = 0) const;

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double num_ = 0;
  std::string str_;  // string value, or the raw token of a number
  std::vector<JsonValue> arr_;
  std::vector<std::pair<std::string, JsonValue>> obj_;

  void dump_to(std::string& out, int indent, int depth) const;
};

}  // namespace spio::obs
