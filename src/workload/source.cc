#include "workload/source.hh"

#include <algorithm>
#include <cmath>

namespace jscale::workload {

bool
RequestLoopSource::refill(std::vector<jvm::Action> &out)
{
    if (!started_) {
        started_ = true;
        app_.emitStartup(out, rng_, thread_idx_);
        return true;
    }
    if (pool_.claim(1) == 0)
        return false;
    app_.emitRequest(out, rng_);
    out.push_back(jvm::Action::taskDone());
    return true;
}

bool
SurplusSource::refill(std::vector<jvm::Action> &out)
{
    out.push_back(
        jvm::Action::compute(std::max<Ticks>(startup_compute_ / 2, 1)));
    for (std::uint32_t i = 0; i < allocs_; ++i) {
        out.push_back(jvm::Action::allocate(
            alloc_.drawSize(rng_), alloc_.drawTtl(rng_), /*site=*/5));
    }
    return false; // one batch, then End
}

Ticks
drawTicks(Rng &rng, Ticks mean, double sigma)
{
    return std::max<Ticks>(
        1, static_cast<Ticks>(rng.logNormal(
               std::log(static_cast<double>(mean)), sigma)));
}

void
emitStartupBatch(std::vector<jvm::Action> &out, Rng &rng,
                 std::uint32_t thread_idx, Ticks compute, Bytes pinned,
                 std::uint32_t objects)
{
    out.push_back(jvm::Action::compute(std::max<Ticks>(compute, 1)));
    if (thread_idx == 0)
        emitPinnedData(out, rng, pinned, objects, /*site=*/1);
}

void
emitTaskBody(std::vector<jvm::Action> &out, Rng &rng,
             const AllocationProfile &profile, Ticks compute,
             std::uint32_t allocs, jvm::AllocSiteId site)
{
    if (allocs == 0) {
        if (compute > 0)
            out.push_back(jvm::Action::compute(compute));
        return;
    }
    // Interleave: slice the compute time around the allocations so
    // preemption and safepoints land at realistic granularity.
    const Ticks slice = std::max<Ticks>(compute / allocs, 1);
    Ticks spent = 0;
    for (std::uint32_t i = 0; i < allocs; ++i) {
        out.push_back(jvm::Action::compute(slice));
        spent += slice;
        out.push_back(jvm::Action::allocate(profile.drawSize(rng),
                                            profile.drawTtl(rng), site));
    }
    if (compute > spent)
        out.push_back(jvm::Action::compute(compute - spent));
}

void
emitPinnedData(std::vector<jvm::Action> &out, Rng &rng, Bytes total,
               std::uint32_t count, jvm::AllocSiteId site)
{
    if (total == 0 || count == 0)
        return;
    const Bytes each = std::max<Bytes>(total / count, 16);
    for (std::uint32_t i = 0; i < count; ++i) {
        // Vary sizes a little so the pinned set is not perfectly uniform.
        const Bytes sz = std::max<Bytes>(
            16, each / 2 + rng.below(each));
        out.push_back(jvm::Action::allocatePinned(sz, site));
    }
}

} // namespace jscale::workload
