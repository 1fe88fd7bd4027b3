/**
 * @file
 * Simulation units and formatting helpers.
 *
 * The simulated clock counts Ticks; one tick is one nanosecond. Memory
 * quantities are plain byte counts. Formatting helpers render both in
 * human-friendly units for reports; parseNumber() is the one strict
 * reader of numbers typed by a user or read back from a file (the spec
 * grammars read theirs through base/fields.hh).
 */

#ifndef JSCALE_BASE_UNITS_HH
#define JSCALE_BASE_UNITS_HH

#include <charconv>
#include <cstdint>
#include <string>
#include <vector>

namespace jscale {

/** Simulated time, in nanoseconds. */
using Ticks = std::uint64_t;

/** Signed tick delta. */
using TickDelta = std::int64_t;

/** Simulated memory quantity, in bytes. */
using Bytes = std::uint64_t;

/** CPU cycle count (converted to Ticks through a core's frequency). */
using Cycles = std::uint64_t;

namespace units {

constexpr Ticks NS = 1;
constexpr Ticks US = 1000 * NS;
constexpr Ticks MS = 1000 * US;
constexpr Ticks SEC = 1000 * MS;

constexpr Bytes KiB = 1024;
constexpr Bytes MiB = 1024 * KiB;
constexpr Bytes GiB = 1024 * MiB;

} // namespace units

/** Render a tick count as a scaled time string, e.g. "12.40 ms". */
std::string formatTicks(Ticks t);

/** Render a byte count as a scaled size string, e.g. "3.00 MiB". */
std::string formatBytes(Bytes b);

/** Render a ratio as a percentage string with one decimal, e.g. "42.3%". */
std::string formatPercent(double fraction);

/** Render a double with the given number of decimals. */
std::string formatFixed(double value, int decimals = 2);

/** Whole-string number: no plus sign, blanks, trailing bytes or
 *  overflow (std::from_chars; @p fmt picks a base or float format). */
template <class T, class... Fmt>
bool
parseNumber(const std::string &text, T &out, Fmt... fmt)
{
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, out, fmt...);
    return !text.empty() && ec == std::errc() && ptr == end;
}

/** Shortest text that parseNumber() reads back to @p v (std::to_chars;
 *  @p fmt picks a base or float format). */
template <class T, class... Fmt>
std::string
formatValue(T v, Fmt... fmt)
{
    char buf[64];
    return {buf, std::to_chars(buf, buf + sizeof buf, v, fmt...).ptr};
}

/** Split @p s on @p sep (no empty-field collapsing). */
std::vector<std::string> splitFields(const std::string &s, char sep);

} // namespace jscale

#endif // JSCALE_BASE_UNITS_HH
