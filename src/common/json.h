// json.h — minimal JSON value tree, serializer and parser.
//
// Just enough JSON for result reports (sim/report.h) and the serve
// protocol (serve/protocol.h): objects keep insertion order, numbers
// print as printf's "%.12g" would, non-finite doubles encode as null,
// every control character (U+0000–U+001F) in a string escapes as
// \uXXXX (or the short \b \t \n \f \r forms), so an emitted document
// is always one well-formed line. Json::parse is a strict
// recursive-descent reader of the same dialect (full \uXXXX incl.
// surrogate pairs → UTF-8, a nesting-depth guard against hostile
// input) — dump() and parse() round-trip each other, which the serve
// daemon relies on to echo client-supplied request ids verbatim.
//
// Json::dump writes every number and string through the two free
// writers below, append_json_number and append_json_string. A hot
// path with a fixed document shape (the serve daemon's session.step
// reply) calls them directly instead of building a Json tree first,
// so its bytes are exactly those dump() would have written.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace otem {

class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() : type_(Type::kNull) {}
  Json(bool b) : type_(Type::kBool), bool_(b) {}           // NOLINT
  Json(double v) : type_(Type::kNumber), number_(v) {}     // NOLINT
  Json(int v) : Json(static_cast<double>(v)) {}            // NOLINT
  Json(long v) : Json(static_cast<double>(v)) {}           // NOLINT
  Json(size_t v) : Json(static_cast<double>(v)) {}         // NOLINT
  Json(const char* s) : type_(Type::kString), string_(s) {}  // NOLINT
  Json(std::string s) : type_(Type::kString), string_(std::move(s)) {}  // NOLINT

  static Json object() {
    Json j;
    j.type_ = Type::kObject;
    return j;
  }
  static Json array() {
    Json j;
    j.type_ = Type::kArray;
    return j;
  }

  /// Strict parse of one JSON document (trailing whitespace allowed,
  /// trailing garbage is an error). Throws otem::SimError with a byte
  /// offset on malformed input, a number literal that overflows a
  /// double, or nesting deeper than kMaxParseDepth.
  static Json parse(std::string_view text);

  /// Parser recursion guard: documents nesting deeper than this are
  /// rejected (the serve codec feeds parse() untrusted network bytes).
  static constexpr int kMaxParseDepth = 64;

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  /// Typed readers; each throws otem::SimError on a type mismatch.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;

  /// Object lookup: the value at `key`, or nullptr when absent (or when
  /// *this is not an object — lookups on a mistyped node just miss).
  const Json* find(const std::string& key) const;

  /// Array element access; throws otem::SimError when out of range.
  const Json& at(size_t index) const;

  /// Underlying containers, for iteration. Empty for other types.
  const std::vector<Json>& items() const { return items_; }
  const std::vector<std::pair<std::string, Json>>& members() const {
    return members_;
  }

  /// Object: set key to value (appends; later sets of the same key
  /// overwrite). Returns *this for chaining. Throws if not an object.
  Json& set(const std::string& key, Json value);

  /// Array: append a value. Throws if not an array.
  Json& push(Json value);

  /// Convenience: array from a vector of doubles.
  static Json numbers(const std::vector<double>& values);

  size_t size() const;

  /// Serialize; indent > 0 pretty-prints with that many spaces.
  std::string dump(int indent = 2) const;

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  Type type_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Json> items_;                                // array
  std::vector<std::pair<std::string, Json>> members_;      // object
};

/// Append `v` as a JSON number: the bytes of printf's "%.12g" in the
/// "C" locale, which std::to_chars(first, last, v,
/// std::chars_format::general, 12) is defined to produce, without
/// printf's format parsing and locale lookup. A non-finite value
/// writes null (JSON has no NaN or infinity).
void append_json_number(std::string& out, double v);

/// Append `s` as a quoted JSON string: '"' and '\\' are escaped, the
/// named controls use their short forms (\b \t \n \f \r) and every
/// other control character (U+0000–U+001F) becomes \u00xx; all other
/// bytes, UTF-8 included, are copied as they are.
void append_json_string(std::string& out, std::string_view s);

/// Write JSON to a file; throws otem::SimError on failure.
void write_json_file(const std::string& path, const Json& value);

}  // namespace otem
