// The repo's one JSON module (hand-rolled: the repo takes no dependencies).
// Every JSON the programs emit goes through its writer: ewalkd protocol
// lines (serve/protocol), SWEEP_*.json (sweep/report) and
// BENCH_throughput.json (bench/throughput). So escaping, number spelling
// and separators are decided here only, and byte-identical inputs give
// byte-identical text, which the protocol goldens rely on.
#pragma once

#include <cstddef>
#include <cstdint>
#include <ranges>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace ewalk {

/// A parsed JSON value. Numbers keep their source spelling (`raw`) so
/// integer fidelity survives (seeds are 64-bit; a double round-trip would
/// corrupt them); object member order is preserved for faithful round-trips.
struct JsonValue {
  /// The JSON value kinds.
  enum class Type : std::uint8_t {
    kNull,    ///< the literal null
    kBool,    ///< true / false
    kNumber,  ///< any number; the literal text is kept in `raw`
    kString,  ///< a decoded string
    kObject,  ///< member list in source order
    kArray    ///< element list
  };
  Type type = Type::kNull;           ///< which kind this value is
  bool boolean = false;                  ///< valid for kBool
  std::string raw;                       ///< literal token for kNumber
  std::string string;                    ///< decoded text for kString
  std::vector<std::pair<std::string, JsonValue>> object;  ///< kObject members
  std::vector<JsonValue> array;          ///< kArray elements

  /// The value as the string a ParamMap would hold: the decoded string, the
  /// number literal, or "true"/"false". Throws for null/object/array.
  std::string as_param_string() const;
};

/// Deepest nesting of objects and arrays parse_json accepts (protocol
/// requests need 2, responses 3, SWEEP files 6); bounds its recursion.
inline constexpr std::size_t kMaxJsonDepth = 64;

/// Parses one complete JSON value from `text` (trailing whitespace allowed,
/// trailing garbage rejected). Throws std::invalid_argument ("bad JSON at
/// byte N: ...") on malformed input or nesting deeper than kMaxJsonDepth.
JsonValue parse_json(const std::string& text);

/// A compact JSON writer: appends values to its string in call order,
/// places every comma itself, and emits no whitespace. Nesting is not
/// checked; the callers are fixed schemas pinned by golden and schema tests.
class JsonWriter {
 public:
  /// Opens an object (`{`) or array (`[`).
  JsonWriter& open(char bracket) {
    separate();
    return put(bracket, false);
  }
  /// Closes the innermost object (`}`) or array (`]`).
  JsonWriter& close(char bracket) { return put(bracket, true); }
  /// Writes an object member's quoted name and the colon before its value.
  JsonWriter& key(std::string_view name) { return value(name).put(':', false); }
  /// key(name) then value(v): one object member.
  template <class T>
  JsonWriter& field(std::string_view name, const T& v) {
    return key(name).value(v);
  }

  /// Writes one value: a string (escaped as by json_quote), a bool, a
  /// double (as by format_json_double), an unsigned integer, or a range of
  /// those as an array.
  template <class T>
  JsonWriter& value(const T& v) {
    constexpr bool kString = std::is_convertible_v<const T&, std::string_view>;
    if constexpr (!kString && std::ranges::range<T>) {
      open('[');
      for (const auto& element : v) value(element);
      return close(']');
    } else {
      static_assert(kString || std::is_floating_point_v<T> ||
                    std::is_unsigned_v<T>, "no JSON spelling for this type");
      separate();
      if constexpr (kString) append_quoted(out_, v);
      else if constexpr (std::is_same_v<T, bool>) out_ += v ? "true" : "false";
      else if constexpr (std::is_floating_point_v<T>) append_double(out_, v);
      else append_unsigned(out_, v);
      return *this;
    }
  }

  /// Moves the text written so far out of the writer.
  std::string take() { return std::move(out_); }

 private:
  // The only string escaper and the only number spellings.
  static void append_quoted(std::string& out, std::string_view text);
  static void append_double(std::string& out, double d);
  static void append_unsigned(std::string& out, std::uint64_t n);

  void separate() {
    if (need_comma_) out_ += ',';
    need_comma_ = true;
  }
  JsonWriter& put(char c, bool comma_next) {
    out_ += c;
    need_comma_ = comma_next;
    return *this;
  }

  std::string out_;
  bool need_comma_ = false;
};

/// `d` formatted with %.17g — enough digits that parsing the text recovers
/// the exact bits, so serialized samples are a faithful determinism witness.
inline std::string format_json_double(double d) {
  return JsonWriter().value(d).take();
}

/// `text` as a quoted JSON string (quote, backslash and control characters
/// escaped; other bytes, UTF-8 included, pass through).
inline std::string json_quote(std::string_view text) {
  return JsonWriter().value(text).take();
}

}  // namespace ewalk
