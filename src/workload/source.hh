/**
 * @file
 * BufferedSource: the common base for workload ActionSources.
 *
 * Concrete sources implement refill(), emitting one batch of actions at
 * a time (typically one task or one chunk of tasks). Batch boundaries
 * are where sources consult shared run state (task pools, unit
 * counters), so work claiming follows the simulated execution order
 * deterministically.
 */

#ifndef JSCALE_WORKLOAD_SOURCE_HH
#define JSCALE_WORKLOAD_SOURCE_HH

#include <cstdint>
#include <vector>

#include "base/random.hh"
#include "base/units.hh"
#include "jvm/threads/action.hh"
#include "workload/alloc_profile.hh"

namespace jscale::workload {

/** Base ActionSource emitting refill()-produced batches. */
class BufferedSource : public jvm::ActionSource
{
  public:
    const jvm::Action &
    next() override
    {
        while (pos_ >= buf_.size()) {
            if (done_) {
                static const jvm::Action end = jvm::Action::end();
                return end;
            }
            buf_.clear();
            pos_ = 0;
            if (!refill(buf_))
                done_ = true;
        }
        return buf_[pos_++];
    }

  protected:
    /**
     * Emit the next batch into @p out. @return false when the thread is
     * done (a trailing partial batch is still consumed first).
     */
    virtual bool refill(std::vector<jvm::Action> &out) = 0;

  private:
    std::vector<jvm::Action> buf_;
    std::size_t pos_ = 0;
    bool done_ = false;
};

/** Shared pool of identical tasks claimed in chunks. */
struct TaskPool
{
    std::uint64_t remaining = 0;

    /** Claim up to @p chunk tasks; returns the number claimed. */
    std::uint64_t
    claim(std::uint64_t chunk)
    {
        const std::uint64_t n = std::min(chunk, remaining);
        remaining -= n;
        return n;
    }
};

/**
 * Emit a task body: `allocs` allocations interleaved with compute slices
 * summing to @p compute ticks.
 */
void emitTaskBody(std::vector<jvm::Action> &out, Rng &rng,
                  const AllocationProfile &profile, Ticks compute,
                  std::uint32_t allocs, jvm::AllocSiteId site);

/** Emit `count` pinned allocations totalling roughly `total` bytes. */
void emitPinnedData(std::vector<jvm::Action> &out, Rng &rng, Bytes total,
                    std::uint32_t count, jvm::AllocSiteId site);

} // namespace jscale::workload

#endif // JSCALE_WORKLOAD_SOURCE_HH
