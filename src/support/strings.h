/**
 * @file
 * Small string-formatting helpers shared across the library.
 */

#ifndef QB_SUPPORT_STRINGS_H
#define QB_SUPPORT_STRINGS_H

#include <cstdarg>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace qb {

/** printf-style formatting into a std::string. */
std::string format(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Fixed-point decimal rendering of @p value with @p precision digits,
 * like "%.Nf" but locale-INDEPENDENT: the decimal separator is always
 * '.' no matter what LC_NUMERIC says.  Machine-readable emitters (the
 * JSON reports) must use this instead of format() - under a
 * comma-decimal locale such as de_DE, printf writes "0,5", which is
 * not a JSON number.
 */
std::string formatFixed(double value, int precision);

/**
 * The whole of @p text as a base-10 integer in [@p min, @p max], or
 * nullopt.  Strict, unlike atoll: an empty string, a leading '+' or
 * whitespace, any trailing character ("2x"), overflow and an
 * out-of-range value are all rejected.  Command-line integer flags
 * parse through this, so a malformed value is a usage error instead
 * of a silent 0.
 */
std::optional<std::int64_t> parseInt(std::string_view text,
                                     std::int64_t min,
                                     std::int64_t max);

/**
 * The whole of @p text as a finite decimal number in [@p min, @p max],
 * or nullopt.  Strict like parseInt(): an empty string, a leading '+'
 * or whitespace, any trailing character ("4x"), "inf", "nan", a value
 * beyond a double's range and an out-of-range value are all rejected.
 * Parsing is locale-independent ('.' is always the decimal point).
 */
std::optional<double> parseDouble(std::string_view text, double min,
                                  double max);

/** Join the elements of @p parts with @p sep. */
std::string join(const std::vector<std::string> &parts,
                 const std::string &sep);

/**
 * Escape @p s for inclusion inside a JSON string literal: quote,
 * backslash and every control character (including DEL) are escaped;
 * everything else passes through byte-for-byte.  Shared by the report
 * emitter and the server wire protocol.
 */
std::string jsonEscape(const std::string &s);

} // namespace qb

#endif // QB_SUPPORT_STRINGS_H
