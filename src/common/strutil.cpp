#include "common/strutil.hpp"

#include <cstdio>
#include <stdexcept>

namespace glimpse {

std::string strformat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  int n = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  if (n < 0) {
    va_end(args_copy);
    throw std::runtime_error("strformat: encoding error");
  }
  std::string out(static_cast<std::size_t>(n), '\0');
  std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  va_end(args_copy);
  return out;
}

std::vector<std::string> split(const std::string& s, char delim) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    std::size_t pos = s.find(delim, start);
    if (pos == std::string::npos) {
      out.push_back(s.substr(start));
      break;
    }
    out.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string join(const std::vector<std::string>& parts, const std::string& sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i) out += sep;
    out += parts[i];
  }
  return out;
}

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() && s.compare(0, prefix.size(), prefix) == 0;
}

std::string hex64(std::uint64_t v) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out(16, '0');
  for (auto it = out.rbegin(); it != out.rend(); ++it, v >>= 4) *it = kDigits[v & 0xf];
  return out;
}

bool parse_hex64(std::string_view s, std::uint64_t& out) {
  if (s.empty() || s.size() > 16) return false;
  std::uint64_t v = 0;
  for (char c : s) {
    if ((c < '0' || c > '9') && (c < 'a' || c > 'f')) return false;
    v = (v << 4) | static_cast<std::uint64_t>(c <= '9' ? c - '0' : c - 'a' + 10);
  }
  out = v;
  return true;
}

}  // namespace glimpse
