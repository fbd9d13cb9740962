// Minimal JSON value model, parser, and emission helpers shared by the
// report layer's readers/writers (serialize.cc, trace_io.cc, compare.cc).
//
// The parser covers standard JSON — the subset the emitters in this module
// produce plus anything shaped like it.  It exists so the repo's readers
// agree on one implementation instead of growing per-file copies (the
// original lived inside serialize.cc).
#ifndef LMBENCHPP_SRC_REPORT_JSON_H_
#define LMBENCHPP_SRC_REPORT_JSON_H_

#include <cmath>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

namespace lmb::report {

struct JsonValue;
using JsonArray = std::vector<JsonValue>;
using JsonObject = std::map<std::string, JsonValue>;

struct JsonValue {
  std::variant<std::nullptr_t, bool, double, std::string, JsonArray, JsonObject> v =
      nullptr;

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(v); }
  const JsonObject& object() const {
    if (!std::holds_alternative<JsonObject>(v)) {
      throw std::invalid_argument("json: expected object");
    }
    return std::get<JsonObject>(v);
  }
  const JsonArray& array() const {
    if (!std::holds_alternative<JsonArray>(v)) {
      throw std::invalid_argument("json: expected array");
    }
    return std::get<JsonArray>(v);
  }
  const std::string& str() const {
    if (!std::holds_alternative<std::string>(v)) {
      throw std::invalid_argument("json: expected string");
    }
    return std::get<std::string>(v);
  }
  double number() const {
    if (!std::holds_alternative<double>(v)) {
      throw std::invalid_argument("json: expected number");
    }
    return std::get<double>(v);
  }
  bool boolean() const {
    if (!std::holds_alternative<bool>(v)) {
      throw std::invalid_argument("json: expected boolean");
    }
    return std::get<bool>(v);
  }
};

// Parses one JSON document (whole input; trailing characters are an error).
// Throws std::invalid_argument with the failing offset on malformed input.
JsonValue parse_json(const std::string& text);

// Member lookup; nullptr when the key is absent.
const JsonValue* find(const JsonObject& obj, const std::string& key);

// Inverse of json_double's non-finite handling: a JSON null in a numeric
// position parses back as NaN, preserving round trips for values the
// format itself cannot carry.
double number_or_nan(const JsonValue& v);

// The number `v` times `scale` (e.g. 1e3 for a microsecond value read into
// nanoseconds), rounded to the nearest integer, as a T.  Every integer the
// readers take from a document is a count, an id, a sequence number or a
// duration, and documents may be hand-edited or corrupt: the value converts
// only when it is finite, not negative and within T's range.  Anything else
// throws std::invalid_argument naming `field` (casting it would be
// undefined behaviour).
template <typename T>
T checked_integer(const JsonValue& v, const char* field, double scale = 1.0) {
  double x = std::round(v.number() * scale);
  // 2^digits (one past T's maximum) is exact in a double; NaN fails both.
  if (!(x >= 0 && x < std::ldexp(1.0, std::numeric_limits<T>::digits))) {
    throw std::invalid_argument(std::string("json: ") + field + " out of range");
  }
  return static_cast<T>(x);
}

// Compact single-line serialization of a parsed value (objects keep the
// map's key order).  parse_json(to_text(v)) round-trips; non-finite numbers
// emit as null per json_double.
std::string to_text(const JsonValue& v);

// Escaped and double-quoted JSON string literal.
std::string json_quote(const std::string& s);

// Shortest round-trippable decimal form via std::to_chars (exact and
// locale-independent — snprintf %g honors LC_NUMERIC and can emit a ','
// decimal separator, which is invalid JSON).  JSON has no NaN/Inf, so those
// become "null" (another "explicitly missing", never 0).
std::string json_double(double v);

}  // namespace lmb::report

#endif  // LMBENCHPP_SRC_REPORT_JSON_H_
