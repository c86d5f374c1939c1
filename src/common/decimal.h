/**
 * @file
 * Strict decimal parsing shared by the CLIs' numeric flags and the
 * JSON reader's unsigned fields.
 */

#ifndef GPUSHIELD_COMMON_DECIMAL_H
#define GPUSHIELD_COMMON_DECIMAL_H

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

namespace gpushield {

/**
 * Parses @p text as an unsigned decimal in [@p lo, @p hi]. Only the
 * digits 0-9 are accepted (std::from_chars takes no sign, space or
 * prefix for an unsigned type): no fraction, exponent or overflow.
 * @return false, leaving @p out untouched, on anything else.
 */
inline bool
parse_decimal(std::string_view text, std::uint64_t lo, std::uint64_t hi,
              std::uint64_t &out)
{
    std::uint64_t v = 0;
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, v);
    if (ec != std::errc{} || ptr != end || v < lo || v > hi)
        return false;
    out = v;
    return true;
}

/**
 * parse_decimal for the value @p text of numeric CLI flag @p flag; on a
 * bad value prints "@p prog: @p flag takes an integer in [lo, hi]" to
 * stderr and returns false.
 */
inline bool
parse_flag(const char *prog, const std::string &flag, const char *text,
           std::uint64_t lo, std::uint64_t hi, std::uint64_t &out)
{
    if (parse_decimal(text, lo, hi, out))
        return true;
    std::fprintf(stderr, "%s: %s takes an integer in [%llu, %llu]\n", prog,
                 flag.c_str(), static_cast<unsigned long long>(lo),
                 static_cast<unsigned long long>(hi));
    return false;
}

} // namespace gpushield

#endif // GPUSHIELD_COMMON_DECIMAL_H
