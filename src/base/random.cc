#include "base/random.hh"

#include <algorithm>
#include <cmath>

namespace jscale {

ZipfDistribution::ZipfDistribution(std::size_t n, double s)
{
    jscale_assert(n > 0, "ZipfDistribution requires n > 0");
    jscale_assert(s >= 0.0, "ZipfDistribution requires s >= 0");
    cdf_.resize(n);
    double total = 0.0;
    for (std::size_t rank = 0; rank < n; ++rank) {
        total += 1.0 / std::pow(static_cast<double>(rank + 1), s);
        cdf_[rank] = total;
    }
    for (auto &c : cdf_)
        c /= total;
    cdf_.back() = 1.0;
}

std::size_t
ZipfDistribution::sample(Rng &rng) const
{
    const double u = rng.uniform();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return static_cast<std::size_t>(it - cdf_.begin());
}

} // namespace jscale
