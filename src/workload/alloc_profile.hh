/**
 * @file
 * Allocation behaviour profiles.
 *
 * Each application model draws object sizes and owner-local TTLs from an
 * AllocationProfile. TTLs are a four-component mixture tuned to the
 * generational hypothesis: a large mass of immediately-dying temporaries,
 * a short-lived bulk, a medium tail, and a small long-lived component —
 * plus pinned (application-lifetime) data allocated at startup.
 *
 * The TTL is in *owner-local* allocated bytes; the observable lifespan in
 * *global* allocated bytes then scales with the number of concurrently
 * allocating threads, which is precisely the interference effect of
 * Sec. III-B of the paper.
 */

#ifndef JSCALE_WORKLOAD_ALLOC_PROFILE_HH
#define JSCALE_WORKLOAD_ALLOC_PROFILE_HH

#include <cstdint>

#include "base/random.hh"
#include "base/units.hh"

namespace jscale::workload {

/** Size and lifetime distributions for one application's allocations. */
struct AllocationProfile
{
    /** @name Object sizes (log-normal, clamped) */
    /** @{ */
    double size_log_mean = 4.5;  ///< log-space mean (~90 B)
    double size_log_sigma = 0.7; ///< log-space sigma
    Bytes size_min = 16;
    Bytes size_max = 8 * units::KiB;
    /** @} */

    /** @name Owner-local TTL mixture */
    /** @{ */
    /** Immediately-dying temporaries: TTL uniform in [0, tiny_max]. */
    double frac_tiny = 0.50;
    Bytes tiny_max = 24;
    /** Short-lived bulk. */
    double frac_short = 0.35;
    BoundedPareto short_ttl = {1.1, 32, 2 * units::KiB};
    /** Medium-lived. */
    double frac_medium = 0.10;
    BoundedPareto medium_ttl = {1.0, 2 * units::KiB, 256 * units::KiB};
    /** Remainder is long-lived, from the medium band's top upward. */
    BoundedPareto long_ttl = {0.9, 256 * units::KiB, 8 * units::MiB};
    /** @} */

    /** Draw an object size. */
    Bytes drawSize(Rng &rng) const;

    /** Draw an owner-local TTL in bytes. */
    Bytes drawTtl(Rng &rng) const;
};

} // namespace jscale::workload

#endif // JSCALE_WORKLOAD_ALLOC_PROFILE_HH
