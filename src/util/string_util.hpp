// Small string helpers shared by parsers and report writers.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace adaptviz {

/// Copy of `s` with leading/trailing ASCII whitespace removed.
std::string trim(const std::string& s);

/// Splits on `sep`; empty fields are preserved ("a,,b" -> {"a","","b"}).
std::vector<std::string> split(const std::string& s, char sep);

/// Splits a comma list, trimming each item and dropping empty ones
/// ("a, ,b" -> {"a","b"}).
std::vector<std::string> split_list(const std::string& s);

/// Parses all of `s` as a base-10 integer. Throws std::runtime_error
/// naming `what` on empty text, unconsumed characters or overflow.
std::int64_t parse_int(const std::string& what, const std::string& s);

/// Strict number lists for config values: split_list, then every item must
/// parse in full as a finite double (resp. a base-10 integer). Throws
/// std::runtime_error naming `what` and the offending item.
std::vector<double> parse_double_list(const std::string& what,
                                      const std::string& s);
std::vector<std::int64_t> parse_int_list(const std::string& what,
                                         const std::string& s);

/// True if `s` begins with `prefix`.
bool starts_with(const std::string& s, const std::string& prefix);

/// Joins `parts` with `sep` between elements.
std::string join(const std::vector<std::string>& parts, const std::string& sep);

/// printf into a std::string.
std::string format(const char* fmt, ...)
#if defined(__GNUC__)
    __attribute__((format(printf, 1, 2)))
#endif
    ;

}  // namespace adaptviz
