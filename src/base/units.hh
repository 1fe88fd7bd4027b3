/**
 * @file
 * Simulation units and formatting helpers.
 *
 * The simulated clock counts Ticks; one tick is one nanosecond. Memory
 * quantities are plain byte counts. Formatting helpers render both in
 * human-friendly units for reports; parseNumber() is the one strict
 * reader of numbers typed by a user or read back from a file, and the
 * spec grammars (faults, arrivals, tenants) read their fields through
 * splitFields(), parseNonNegative() and msToTicks().
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
 *  overflow (std::from_chars). */
template <class T>
bool
parseNumber(const std::string &text, T &out)
{
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, out);
    return !text.empty() && ec == std::errc() && ptr == end;
}

/** parseNumber() of a finite, non-negative decimal. */
bool parseNonNegative(const std::string &text, double &out);

/**
 * Convert @p ms milliseconds to ticks, rounded to the nearest tick;
 * false when the result does not fit in Ticks.
 */
bool msToTicks(double ms, Ticks &out);

/** Split @p s on @p sep (no empty-field collapsing). */
std::vector<std::string> splitFields(const std::string &s, char sep);

} // namespace jscale

#endif // JSCALE_BASE_UNITS_HH
