#ifndef PPRL_EXAMPLES_PARSE_NUMBER_H_
#define PPRL_EXAMPLES_PARSE_NUMBER_H_

/// The one rule the command-line tools (pprl_linkd, pprl_cli, pprl_clk)
/// parse every integer argument by.

#include <charconv>
#include <cstdio>
#include <cstring>
#include <string>
#include <system_error>
#include <type_traits>

namespace pprl::examples {

/// A base-10 integer in [lo, hi], nothing before or after it. Otherwise it
/// names the argument and its range on stderr and returns false, and the
/// tool exits 2 before doing any work: "-1" is never read as SIZE_MAX,
/// nor "70000" as a wrapped port.
template <typename T>
bool ParseNumber(const char* name, const char* text, std::type_identity_t<T> lo,
                 std::type_identity_t<T> hi, T* out) {
  const char* end = text + std::strlen(text);
  T value{};
  const auto [parsed_end, error] = std::from_chars(text, end, value);
  if (error != std::errc() || parsed_end != end || value < lo || value > hi) {
    std::fprintf(stderr, "%s must be an integer in [%s, %s], got '%s'\n", name,
                 std::to_string(lo).c_str(), std::to_string(hi).c_str(), text);
    return false;
  }
  *out = value;
  return true;
}

}  // namespace pprl::examples

#endif  // PPRL_EXAMPLES_PARSE_NUMBER_H_
