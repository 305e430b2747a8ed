#include "util/string_util.hpp"

#include <cerrno>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <utility>

namespace adaptviz {

std::string trim(const std::string& s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    const size_t pos = s.find(sep, start);
    if (pos == std::string::npos) {
      out.push_back(s.substr(start));
      break;
    }
    out.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::vector<std::string> split_list(const std::string& s) {
  std::vector<std::string> out;
  for (const std::string& part : split(s, ',')) {
    std::string item = trim(part);
    if (!item.empty()) out.push_back(std::move(item));
  }
  return out;
}

std::int64_t parse_int(const std::string& what, const std::string& s) {
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  if (end == s.c_str() || *end != '\0' || errno == ERANGE) {
    throw std::runtime_error(what + ": malformed integer '" + s + "'");
  }
  return v;
}

std::vector<double> parse_double_list(const std::string& what,
                                      const std::string& s) {
  std::vector<double> out;
  for (const std::string& item : split_list(s)) {
    char* end = nullptr;
    const double v = std::strtod(item.c_str(), &end);
    if (*end != '\0' || !std::isfinite(v)) {
      throw std::runtime_error(what + ": malformed number '" + item + "'");
    }
    out.push_back(v);
  }
  return out;
}

std::vector<std::int64_t> parse_int_list(const std::string& what,
                                         const std::string& s) {
  std::vector<std::int64_t> out;
  for (const std::string& item : split_list(s)) {
    out.push_back(parse_int(what, item));
  }
  return out;
}

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() &&
         s.compare(0, prefix.size(), prefix) == 0;
}

std::string join(const std::vector<std::string>& parts,
                 const std::string& sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i) out += sep;
    out += parts[i];
  }
  return out;
}

std::string format(const char* fmt, ...) {
  char buf[2048];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  return buf;
}

}  // namespace adaptviz
