// Checked numeric command-line values, shared by mldist_cli and the
// benches.  Every numeric flag goes through util::json::parse_u64, so
// "abc", "-5" or "12x" are refused with the flag's name instead of
// silently becoming 0, wrapping around or being cut short.
#pragma once

#include <cstdint>
#include <cstdio>
#include <limits>
#include <system_error>
#include <type_traits>

#include "util/json.hpp"

namespace mldist::util {

/// Parse `text`, the value of `flag`, into `out`: decimal digits, or a
/// 0x-prefixed hex number when `hex`, from `min` to T's maximum.  Anything
/// else prints "<flag>: '<text>' is not ..." to stderr and returns false
/// with `out` untouched.
template <typename T>
bool flag_value(const char* flag, const char* text, T& out,
                std::type_identity_t<T> min = 0, bool hex = false) {
  static_assert(std::is_integral_v<T>);
  const auto lo = static_cast<std::uint64_t>(min);
  const auto hi = static_cast<std::uint64_t>(std::numeric_limits<T>::max());
  std::uint64_t v = 0;
  const std::errc ec =
      hex ? json::parse_u64_or_hex(text, v) : json::parse_u64(text, v);
  if (ec == std::errc() && v >= lo && v <= hi) {
    out = static_cast<T>(v);
    return true;
  }
  std::fprintf(stderr, "%s: '%s' is not an integer in %llu..%llu%s\n", flag,
               text, static_cast<unsigned long long>(lo),
               static_cast<unsigned long long>(hi),
               hex ? " (decimal or 0x hex)" : "");
  return false;
}

}  // namespace mldist::util
