// printf-style string formatting and small string helpers.
// (GCC 12 ships no <format>, so we provide a checked snprintf wrapper.)
#pragma once

#include <charconv>
#include <cmath>
#include <cstdarg>
#include <cstdint>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <vector>

namespace glimpse {

/// printf-style formatting into a std::string.
[[gnu::format(printf, 1, 2)]] std::string strformat(const char* fmt, ...);

/// Split on a delimiter character; keeps empty fields.
std::vector<std::string> split(const std::string& s, char delim);

/// Join strings with a separator.
std::string join(const std::vector<std::string>& parts, const std::string& sep);

/// True if `s` starts with `prefix`.
bool starts_with(const std::string& s, const std::string& prefix);

/// `v` as 16 lowercase hex digits, zero-padded (printf's "%016llx"): the
/// spelling of fingerprints, checksums and trace/span ids.
std::string hex64(std::uint64_t v);

/// Parse `s` as 1-16 lowercase hex digits (what hex64 writes, with or
/// without its zero padding). Returns false and leaves `out` unchanged
/// otherwise: empty, too long, uppercase or any other character.
bool parse_hex64(std::string_view s, std::uint64_t& out);

/// Parse the whole of `s` as a T with std::from_chars: no leading
/// whitespace or '+', no trailing characters, within T's range (so no '-'
/// for an unsigned T), and finite for a floating-point T. Returns false and
/// leaves `out` unchanged otherwise. For command-line numbers, where a typo
/// must be an error rather than a silent zero.
template <typename T>
bool parse_number(std::string_view s, T& out) {
  if (s.empty()) return false;
  T v{};
  const char* end = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(s.data(), end, v);
  if (ec != std::errc() || ptr != end) return false;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(v)) return false;
  }
  out = v;
  return true;
}

}  // namespace glimpse
