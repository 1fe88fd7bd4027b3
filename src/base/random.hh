/**
 * @file
 * Deterministic pseudo-random number generation for the simulator.
 *
 * All stochastic behaviour in jscale flows through Rng streams derived
 * from a single experiment seed, so a simulation is exactly repeatable
 * across runs and platforms. The generator is xoshiro256** seeded via
 * SplitMix64, both public-domain algorithms with well-studied statistical
 * quality and trivial, portable implementations.
 */

#ifndef JSCALE_BASE_RANDOM_HH
#define JSCALE_BASE_RANDOM_HH

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "base/logging.hh"

namespace jscale {

/** SplitMix64 step; used for seeding and cheap hashing of stream ids. */
constexpr std::uint64_t
splitMix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/**
 * Deterministic random stream (xoshiro256**).
 *
 * Distinct subsystems should each own an Rng forked from the experiment
 * master seed with a distinct stream id, so adding draws in one subsystem
 * never perturbs another (the gem5 "random streams" discipline).
 */
class Rng
{
  public:
    /** Construct from a seed; identical seeds yield identical streams. */
    explicit Rng(std::uint64_t seed = 0x6a736361'6c652121ULL) { reseed(seed); }

    /** Re-initialize the stream from @p seed. */
    void
    reseed(std::uint64_t seed)
    {
        std::uint64_t sm = seed;
        for (auto &word : state_)
            word = splitMix64(sm);
    }

    /** Derive an independent stream for subsystem @p stream_id. */
    Rng
    fork(std::uint64_t stream_id) const
    {
        std::uint64_t mix = state_[0] ^ (stream_id * 0x9e3779b97f4a7c15ULL);
        mix = mix ^ (state_[2] + 0xda942042e4dd58b5ULL * (stream_id + 1));
        return Rng(mix);
    }

    /** Next raw 64-bit draw. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return (next() >> 11) * 0x1.0p-53;
    }

    /** Uniform double in [lo, hi). */
    double
    uniform(double lo, double hi)
    {
        return lo + (hi - lo) * uniform();
    }

    /** Uniform integer in [0, n); n must be positive. */
    std::uint64_t
    below(std::uint64_t n)
    {
        jscale_assert(n > 0, "below() requires positive bound");
        // Lemire's nearly-divisionless bounded draw (biased < 2^-64).
        return static_cast<std::uint64_t>(
            (static_cast<unsigned __int128>(next()) * n) >> 64);
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t
    range(std::int64_t lo, std::int64_t hi)
    {
        jscale_assert(lo <= hi, "range(lo, hi) requires lo <= hi");
        return lo + static_cast<std::int64_t>(
                        below(static_cast<std::uint64_t>(hi - lo) + 1));
    }

    /** Bernoulli draw with success probability @p p. */
    bool
    chance(double p)
    {
        return uniform() < p;
    }

    /** Exponential draw with mean @p mean (> 0). */
    double
    exponential(double mean)
    {
        jscale_assert(mean > 0.0, "exponential() requires positive mean");
        double u = uniform();
        if (u >= 1.0)
            u = std::nextafter(1.0, 0.0);
        return -mean * std::log1p(-u);
    }

    /** Standard normal draw (Box-Muller, one value per call). */
    double
    normal()
    {
        double u1 = uniform();
        if (u1 <= 0.0)
            u1 = std::numeric_limits<double>::min();
        const double u2 = uniform();
        return std::sqrt(-2.0 * std::log(u1)) *
               std::cos(2.0 * M_PI * u2);
    }

    /** Normal draw with the given mean and standard deviation. */
    double
    normal(double mean, double stddev)
    {
        return mean + stddev * normal();
    }

    /** Log-normal draw parameterized by the mean/sigma of log-space. */
    double
    logNormal(double mu, double sigma)
    {
        return std::exp(normal(mu, sigma));
    }

  private:
    static constexpr std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t state_[4] = {};
};

/**
 * Bounded Pareto distribution on [lo, hi] with shape alpha, the family of
 * the workloads' heavy-tailed sizes and lifetimes. The bounds' powers are
 * taken once, here, so a draw costs one uniform and one pow.
 */
class BoundedPareto
{
  public:
    BoundedPareto(double alpha, double lo, double hi)
        : alpha_(alpha), hi_(hi), la_(std::pow(lo, alpha)),
          ha_(std::pow(hi, alpha))
    {
        jscale_assert(alpha > 0.0 && lo > 0.0 && hi > lo,
                      "BoundedPareto parameter check");
    }

    double hi() const { return hi_; }

    /** One draw from @p rng. */
    double
    operator()(Rng &rng) const
    {
        const double u = rng.uniform();
        return std::pow(-(u * ha_ - u * la_ - ha_) / (ha_ * la_),
                        -1.0 / alpha_);
    }

  private:
    double alpha_;
    double hi_;
    double la_; ///< lo^alpha
    double ha_; ///< hi^alpha
};

/**
 * Zipf(s) sampler over ranks [0, n) using precomputed inverse-CDF
 * tables; models skewed popularity (e.g. hot locks, hot documents).
 */
class ZipfDistribution
{
  public:
    /**
     * @param n number of ranks (> 0)
     * @param s skew exponent (s = 0 is uniform; larger is more skewed)
     */
    ZipfDistribution(std::size_t n, double s);

    /** Draw a rank in [0, n); rank 0 is the most popular. */
    std::size_t sample(Rng &rng) const;

    /** Number of ranks. */
    std::size_t size() const { return cdf_.size(); }

  private:
    std::vector<double> cdf_;
};

} // namespace jscale

#endif // JSCALE_BASE_RANDOM_HH
