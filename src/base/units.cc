#include "base/units.hh"

#include <cstdio>

namespace jscale {

namespace {

std::string
scaled(double value, const char *const *suffixes, std::size_t n_suffixes,
       double base)
{
    std::size_t idx = 0;
    while (value >= base && idx + 1 < n_suffixes) {
        value /= base;
        ++idx;
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.2f %s", value, suffixes[idx]);
    return buf;
}

} // namespace

std::string
formatTicks(Ticks t)
{
    static const char *suffixes[] = {"ns", "us", "ms", "s"};
    return scaled(static_cast<double>(t), suffixes, 4, 1000.0);
}

std::string
formatBytes(Bytes b)
{
    static const char *suffixes[] = {"B", "KiB", "MiB", "GiB", "TiB"};
    return scaled(static_cast<double>(b), suffixes, 5, 1024.0);
}

std::string
formatPercent(double fraction)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.1f%%", fraction * 100.0);
    return buf;
}

std::string
formatFixed(double value, int decimals)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
    return buf;
}

std::vector<std::string>
splitFields(const std::string &s, char sep)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    for (std::size_t pos = s.find(sep); pos != std::string::npos;
         pos = s.find(sep, start)) {
        out.push_back(s.substr(start, pos - start));
        start = pos + 1;
    }
    out.push_back(s.substr(start));
    return out;
}

} // namespace jscale
