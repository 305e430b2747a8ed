// Exact-round-trip wire primitives: the one codec behind every text format
// the system writes and later reads back — the dispatch line protocol and
// resume manifest (campaign/manifest.hpp), the steering log
// (steering/control_plane.hpp), and the JSON exports of obs and the benches.
//
//  * Strings travel percent-encoded over a single alphabet, RFC 3986's
//    unreserved set [A-Za-z0-9-._~]. An encoded value therefore never
//    contains a separator of any enclosing layer: a space (kv lines), '/'
//    (view keys), ':' and ',' (file stamps), '=' (kv pairs), quotes,
//    braces or newlines (JSON, JSONL, pipes).
//  * Doubles travel as hexfloats (`%a`), the only printf/strtod round trip
//    that is exact for every double.
//  * JSON documents are written with json_quote() and read by parse_json(),
//    a small reader for the subset these formats use.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace adaptviz::wire {

/// Malformed wire text: a bad percent escape, an unparseable hexfloat, or
/// a JSON document that is truncated, nested too deeply or repeats a key.
class WireError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Percent-encodes every byte outside [A-Za-z0-9-._~] as %XX.
std::string percent_encode(const std::string& s);

/// Inverse of percent_encode. Bytes other than '%' pass through unchanged,
/// so text written under a wider plain alphabet (literal ':' and '/', as
/// older manifests carry) still decodes. Throws WireError on a truncated
/// or non-hex escape.
std::string percent_decode(const std::string& s);

/// `%a` hexfloat text of `v`.
std::string encode_double(double v);

/// Parses all of `s` as a double (hexfloat or decimal). Throws WireError
/// on empty text or unconsumed characters.
double decode_double(const std::string& s);

/// `s` as a quoted JSON string literal: quote, backslash and every control
/// character are escaped; other bytes pass through.
std::string json_quote(const std::string& s);

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  /// Members in document order; keys are unique (parse_json enforces it).
  std::vector<std::pair<std::string, JsonValue>> object;

  /// The member named `key`, or null when absent.
  [[nodiscard]] const JsonValue* find(const std::string& key) const;
};

/// Arrays and objects nested deeper than this are rejected, so hostile
/// input cannot exhaust the stack of the recursive reader.
inline constexpr int kMaxJsonDepth = 64;

/// Parses one complete JSON document. `\u` escapes above 0xFF are not
/// supported. Throws WireError on malformed text, a duplicate object key,
/// or nesting deeper than kMaxJsonDepth.
JsonValue parse_json(const std::string& text);

}  // namespace adaptviz::wire
