/**
 * @file
 * Checked parsing of what a user types: numbers and enum names.
 *
 * Every number read from a specification or variation file, a tool
 * option or an environment variable goes through parseNumber(): it
 * accepts only a whole string that is a finite number of the field's
 * type within [lo, hi], and otherwise fatal()s as "WHAT: 'TEXT' is
 * ...".  Integers are decimal digits only (no sign, exponent or 0x);
 * doubles take decimal or exponent form.  An enum is spelled through
 * one table whose first entry per value is its name; later entries
 * are aliases that only parse.
 */

#ifndef CACHETIME_UTIL_PARSE_HH
#define CACHETIME_UTIL_PARSE_HH

#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>

#include "util/logging.hh"

namespace cachetime
{

/**
 * @return why @p text is not a T in [@p lo, @p hi] ("'TEXT' is
 * ..."), or "" with @p value set.  Never exits: the core of
 * parseNumber().
 */
template <typename T>
std::string
checkNumber(std::string_view text, T &value,
            T lo = std::numeric_limits<T>::lowest(),
            T hi = std::numeric_limits<T>::max())
{
    constexpr bool real = std::is_floating_point_v<T>;
    static_assert(real || (std::is_unsigned_v<T> &&
                           !std::is_same_v<T, bool>));
    const char *end = text.data() + text.size();
    T parsed{};
    std::from_chars_result result;
    if constexpr (real)
        result = std::from_chars(text.data(), end, parsed,
                                 std::chars_format::general);
    else
        result = std::from_chars(text.data(), end, parsed);
    // Appended piece by piece: in Release builds GCC 12's -Wrestrict
    // misfires on a string literal + std::string.
    std::string quoted = "'";
    quoted += text;
    quoted += "' is ";
    if (result.ec == std::errc::invalid_argument || result.ptr != end)
        return quoted + (real ? "not a decimal number"
                              : "not a decimal integer");
    if (result.ec == std::errc()) {
        if (real && !std::isfinite(static_cast<double>(parsed)))
            return quoted + "not finite";
        if (parsed >= lo && parsed <= hi) {
            value = parsed;
            return {};
        }
    }
    std::string range;
    if constexpr (real) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "[%g, %g]", lo, hi);
        range = buf;
    } else {
        range = '[';
        range += std::to_string(lo);
        range += ", ";
        range += std::to_string(hi);
        range += ']';
    }
    return quoted + "out of range " + range;
}

/** @return @p text as a T in [@p lo, @p hi]; fatal otherwise. */
template <typename T>
T
parseNumber(std::string_view text, const char *what,
            T lo = std::numeric_limits<T>::lowest(),
            T hi = std::numeric_limits<T>::max())
{
    T value{};
    const std::string error = checkNumber(text, value, lo, hi);
    if (!error.empty())
        fatal("%s: %s", what, error.c_str());
    return value;
}

/** One spelling of an enum value. */
template <typename E>
struct EnumName
{
    E value;
    const char *name;
};

/** Every spelling of one enum; the first per value is its name. */
template <typename E>
using EnumNames = std::span<const EnumName<E>>;

/** @return the name @p names gives @p value ("?" if none). */
template <typename E>
const char *
enumName(EnumNames<E> names, E value)
{
    for (const EnumName<E> &entry : names)
        if (entry.value == value)
            return entry.name;
    return "?";
}

/** @return the value @p text spells in @p names; fatal otherwise. */
template <typename E>
E
parseEnum(EnumNames<E> names, std::string_view text, const char *what)
{
    std::string choices;
    for (const EnumName<E> &entry : names) {
        if (text == entry.name)
            return entry.value;
        choices += choices.empty() ? "" : "|";
        choices += entry.name;
    }
    fatal("%s: '%.*s' is not one of %s", what,
          static_cast<int>(text.size()), text.data(), choices.c_str());
}

} // namespace cachetime

#endif // CACHETIME_UTIL_PARSE_HH
