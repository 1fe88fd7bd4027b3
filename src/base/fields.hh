/**
 * @file
 * Field tables for the key=value spec grammars: fault events and
 * intensity dials, arrival processes, tenants and fuzz case lines. The
 * jscale flag table (tools/cli.hh) is one more table of Field rows.
 *
 * A grammar declares one Field per key: a typed, bounded reader into a
 * member of its spec struct, the phrase a diagnosis gives for a good
 * value, and a writer. readFields() owns the key=value split, unknown,
 * duplicate and required keys and the one diagnosis format, which names
 * the grammar, the spec text, the key and the bad value. writeFields()
 * prints the rows back, so a describe() parses back to its values.
 */

#ifndef JSCALE_BASE_FIELDS_HH
#define JSCALE_BASE_FIELDS_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <ostream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "base/units.hh"

namespace jscale {

/** The spec being read; every diagnosis names its grammar and text. */
struct SpecText
{
    const char *grammar;
    const std::string &text;

    /** "<grammar> '<text>': <what>" */
    std::string diagnose(const std::string &what) const;
    /** diagnose("'<name>' needs <expects>, got '<value>'") */
    std::string badValue(const std::string &name, const std::string &expects,
                         const std::string &value) const;
};

/** Marks a real range open at zero: (0, hi]. */
constexpr double kPositive = std::numeric_limits<double>::denorm_min();

/** "[lo, hi]", or "(0, hi]" when @p lo is kPositive. */
template <class N>
std::string
rangeText(N lo, N hi)
{
    // Appended piece by piece: GCC 12 warns (-Wrestrict, falsely) on a
    // string literal plus a temporary string once it is inlined.
    std::string text = lo == kPositive ? "(0" : "[";
    if (lo != kPositive)
        text += formatValue(lo);
    text += ", ";
    text += formatValue(hi);
    text += ']';
    return text;
}

/** The nearest values [lo, hi] refuses (-1 and 2^64 past an unsigned). */
template <class N>
std::vector<std::string>
beyondRange(N lo, N hi)
{
    if constexpr (std::is_integral_v<N>) {
        std::vector<std::string> out;
        if (lo > 0 || std::is_unsigned_v<N>)
            out.push_back(lo > 0 ? formatValue(lo - 1) : "-1");
        out.push_back(hi < std::numeric_limits<std::uint64_t>::max()
                          ? formatValue(std::uint64_t{hi} + 1)
                          : "18446744073709551616");
        return out;
    } else {
        return {formatValue(std::nextafter(lo, -1.0)),
                formatValue(std::nextafter(hi, 2 * hi))};
    }
}

/** parseNumber() of a value in [lo, hi]; @p out is set only then. */
template <class N>
bool
readBounded(const std::string &text, N lo, N hi, N &out)
{
    N x{};
    const bool ok = parseNumber(text, x) && x >= lo && x <= hi;
    if (ok)
        out = x;
    return ok;
}

/** @p text times @p unit, rounded to nearest (else truncated); refused
 *  when negative, at or beyond 2^64, or 0 when @p positive. */
bool readScaled(const std::string &text, std::uint64_t unit, bool rounded,
                bool positive, std::uint64_t &out);

/** Which of the first @p n enumerators @p name spells as @p text. */
template <class E>
bool
parseName(const std::string &text, const char *(*name)(E), std::size_t n,
          E &out)
{
    for (std::size_t i = 0; i < n; ++i) {
        if (text == name(static_cast<E>(i))) {
            out = static_cast<E>(i);
            return true;
        }
    }
    return false;
}

/** One key of a grammar, bound to a member of its spec struct T. */
template <class T>
struct Field
{
    std::string key;
    /** What a good value looks like ("a whole number in [1, 8]"). */
    std::string expects;
    /** The nearest spellings the bounds refuse. */
    std::vector<std::string> beyond;
    /** Parse, bound and store a value; false leaves T as it was. */
    std::function<bool(T &, const std::string &)> read;
    /** Print the stored value as read() takes it back. */
    std::function<void(std::ostream &, const T &)> write;
    bool required = false;
    /** writeFields() prints the row only when this holds (null: always). */
    bool (*shown)(const T &) = nullptr;

    Field
    require() const
    {
        Field f = *this;
        f.required = true;
        return f;
    }

    /**
     * A number in [lo, hi] of the member's type, read by parseNumber()
     * and stored times @p unit: a count is read whole; a real is never
     * inf or nan, and lo = kPositive makes its range (0, hi].
     */
    template <class Acc,
              class N = std::remove_cvref_t<std::invoke_result_t<Acc, T &>>>
    static Field
    number(std::string key, Acc acc, std::type_identity_t<N> lo,
           std::type_identity_t<N> hi = std::numeric_limits<N>::max(),
           std::type_identity_t<N> unit = 1)
    {
        return {std::move(key),
                std::string(std::is_integral_v<N> ? "a whole number in "
                                                  : "a number in ") +
                    rangeText(lo, hi),
                beyondRange(lo, hi),
                [=](T &t, const std::string &text) {
                    N x{};
                    if (!readBounded(text, lo, hi, x))
                        return false;
                    std::invoke(acc, t) = x * unit;
                    return true;
                },
                [=](std::ostream &os, const T &t) {
                    os << std::invoke(acc, t) / unit;
                }};
    }

    /** A real count of @p unit (ms, MiB) stored whole, by readScaled(). */
    template <class Acc>
    static Field
    scaled(std::string key, Acc acc, std::uint64_t unit, bool rounded,
           bool positive, std::string expects)
    {
        const double lo = positive ? kPositive : 0.0;
        const double top = 0x1p64 / static_cast<double>(unit);
        return {std::move(key), std::move(expects),
                {formatValue(std::nextafter(lo, -1.0)), formatValue(top)},
                [=](T &t, const std::string &text) {
                    return readScaled(text, unit, rounded, positive,
                                      std::invoke(acc, t));
                },
                [=](std::ostream &os, const T &t) {
                    const auto v = static_cast<double>(std::invoke(acc, t));
                    os << formatValue(v / static_cast<double>(unit),
                                      std::chars_format::fixed);
                }};
    }

    /** Milliseconds to the nearest tick; @p positive refuses 0 ticks. */
    template <class Acc>
    static Field
    millis(std::string key, Acc acc, bool positive = false)
    {
        return scaled(std::move(key), acc, units::MS, true, positive,
                      std::string(positive ? "a positive" : "a") +
                          " ms value below 2^64 ns");
    }

    /** One of the first @p n enumerators of E, spelled by @p name. */
    template <class Acc, class E>
    static Field
    choice(std::string key, Acc acc, const char *(*name)(E), std::size_t n)
    {
        std::string names = "one of ";
        for (std::size_t i = 0; i < n; ++i) {
            if (i > 0)
                names += '|';
            names += name(static_cast<E>(i));
        }
        return {std::move(key), names, {},
                [=](T &t, const std::string &text) {
                    return parseName(text, name, n, std::invoke(acc, t));
                },
                [=](std::ostream &os, const T &t) {
                    os << name(std::invoke(acc, t));
                }};
    }
};

template <class T>
using FieldTable = std::vector<Field<T>>;

/** Read @p value through @p row; the diagnosis names the row. */
template <class T>
bool
readField(const SpecText &spec, const Field<T> &row, const std::string &value,
          T &out, std::string &err)
{
    if (row.read(out, value))
        return true;
    err = spec.badValue(row.key, row.expects, value);
    return false;
}

/**
 * Read "key=value" @p fields into @p out, in field order. A key the
 * table lacks is an error, unless @p rest collects its field for the
 * next table of a chain; so are a repeated key, a bad value and a
 * missing required key.
 */
template <class T>
bool
readFields(const SpecText &spec, const std::vector<std::string> &fields,
           const FieldTable<T> &table, T &out, std::string &err,
           std::vector<std::string> *rest = nullptr)
{
    std::vector<bool> seen(table.size());
    for (std::size_t i = 0; i < fields.size(); ++i) {
        const std::size_t eq = fields[i].find('=');
        const std::string key = fields[i].substr(0, eq);
        const auto row =
            std::find_if(table.begin(), table.end(),
                         [&key](const Field<T> &f) { return f.key == key; });
        const auto given = [&key](const std::string &f) {
            return f.rfind(key + "=", 0) == 0;
        };
        std::string why;
        if (eq == 0 || eq == std::string::npos)
            why = "expected key=value, got '" + fields[i] + "'";
        else if (std::any_of(fields.begin(), fields.begin() + i, given))
            why = "duplicate key '" + key + "'";
        else if (row == table.end() && rest == nullptr)
            why = "unknown key '" + key + "'";
        if (!why.empty()) {
            err = spec.diagnose(why);
            return false;
        }
        if (row == table.end())
            rest->push_back(fields[i]);
        else if (!readField(spec, *row, fields[i].substr(eq + 1), out, err))
            return false;
        else
            seen[row - table.begin()] = true;
    }
    for (std::size_t r = 0; r < table.size(); ++r) {
        if (table[r].required && !seen[r]) {
            err = spec.diagnose("missing required key '" + table[r].key + "'");
            return false;
        }
    }
    return true;
}

/** Print each shown row of @p table as "key=value", @p sep between. */
template <class T>
void
writeFields(std::ostream &os, const FieldTable<T> &table, const T &t, char sep)
{
    bool first = true;
    for (const Field<T> &row : table) {
        if (row.shown != nullptr && !row.shown(t))
            continue;
        if (!std::exchange(first, false))
            os << sep;
        os << row.key << '=';
        row.write(os, t);
    }
}

} // namespace jscale

#endif // JSCALE_BASE_FIELDS_HH
