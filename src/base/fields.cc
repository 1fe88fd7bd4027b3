#include "base/fields.hh"

#include <cmath>

namespace jscale {

std::string
SpecText::diagnose(const std::string &what) const
{
    return std::string(grammar) + " '" + text + "': " + what;
}

std::string
SpecText::badValue(const std::string &name, const std::string &expects,
                   const std::string &value) const
{
    return diagnose("'" + name + "' needs " + expects + ", got '" + value +
                    "'");
}

bool
readScaled(const std::string &text, std::uint64_t unit, bool rounded,
           bool positive, std::uint64_t &out)
{
    double x = 0;
    if (!readBounded(text, 0.0, std::numeric_limits<double>::max(), x))
        return false;
    x *= static_cast<double>(unit);
    x = rounded ? std::round(x) : std::trunc(x);
    // 2^64 is exact as a double; anything at or above it overflows.
    if (x >= 18446744073709551616.0 || (positive && x == 0.0))
        return false;
    out = static_cast<std::uint64_t>(x);
    return true;
}

} // namespace jscale
