#include "support/strings.h"

#include <charconv>
#include <clocale>
#include <cmath>
#include <cstdio>

namespace qb {

std::string
formatFixed(double value, int precision)
{
#if defined(__cpp_lib_to_chars) && __cpp_lib_to_chars >= 201611L
    // std::to_chars is specified to be locale-independent.
    char buf[64];
    const auto [end, ec] = std::to_chars(
        buf, buf + sizeof(buf), value, std::chars_format::fixed,
        precision);
    if (ec == std::errc())
        return std::string(buf, end);
    // Fall through for values too large for the buffer.
#endif
    // Fallback: printf, then normalize whatever decimal separator the
    // current LC_NUMERIC produced back to '.'.
    std::string out = format("%.*f", precision, value);
    const lconv *conv = localeconv();
    const std::string point =
        conv && conv->decimal_point ? conv->decimal_point : ".";
    if (point != ".") {
        const std::size_t at = out.find(point);
        if (at != std::string::npos)
            out.replace(at, point.size(), ".");
    }
    return out;
}

std::string
format(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    va_list args_copy;
    va_copy(args_copy, args);
    const int needed = std::vsnprintf(nullptr, 0, fmt, args);
    va_end(args);
    std::string out(needed > 0 ? static_cast<size_t>(needed) : 0, '\0');
    if (needed > 0)
        std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
    va_end(args_copy);
    return out;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (const char c : s) {
        switch (c) {
          case '"':  out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20 ||
                static_cast<unsigned char>(c) == 0x7f)
                out += format("\\u%04x", c);
            else
                out += c;
        }
    }
    return out;
}

std::optional<std::int64_t>
parseInt(std::string_view text, std::int64_t min, std::int64_t max)
{
    std::int64_t value = 0;
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc() || ptr != end || value < min || value > max)
        return std::nullopt;
    return value;
}

std::optional<double>
parseDouble(std::string_view text, double min, double max)
{
    double value = 0.0;
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc() || ptr != end || !std::isfinite(value) ||
        value < min || value > max)
        return std::nullopt;
    return value;
}

std::string
join(const std::vector<std::string> &parts, const std::string &sep)
{
    std::string out;
    for (size_t i = 0; i < parts.size(); ++i) {
        if (i > 0)
            out += sep;
        out += parts[i];
    }
    return out;
}

} // namespace qb
