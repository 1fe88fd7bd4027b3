#include "workload/alloc_profile.hh"

#include <algorithm>
#include <cmath>

namespace jscale::workload {

Bytes
AllocationProfile::drawSize(Rng &rng) const
{
    const double v = rng.logNormal(size_log_mean, size_log_sigma);
    const Bytes b = static_cast<Bytes>(std::llround(v));
    return std::clamp(b, size_min, size_max);
}

Bytes
AllocationProfile::drawTtl(Rng &rng) const
{
    const double u = rng.uniform();
    if (u < frac_tiny)
        return static_cast<Bytes>(rng.below(tiny_max + 1));
    if (u < frac_tiny + frac_short)
        return static_cast<Bytes>(short_ttl(rng));
    if (u < frac_tiny + frac_short + frac_medium)
        return static_cast<Bytes>(medium_ttl(rng));
    return static_cast<Bytes>(long_ttl(rng));
}

} // namespace jscale::workload
