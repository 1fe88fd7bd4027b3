/**
 * @file
 * WorkloadApp and BufferedSource: the common bases of the workload
 * models and their ActionSources.
 *
 * A WorkloadApp emits its startup batch and one task body through
 * three emitters that both loops call: its own closed-loop sources
 * claim work from shared pools, and traffic::OpenLoopApp serves each
 * injected request as one task body. Concrete sources implement
 * refill(), emitting one batch of actions at a time (typically one
 * task or one chunk of tasks). Batch boundaries are where sources
 * consult shared run state (task pools, unit counters), so work
 * claiming follows the simulated execution order deterministically.
 */

#ifndef JSCALE_WORKLOAD_SOURCE_HH
#define JSCALE_WORKLOAD_SOURCE_HH

#include <cstdint>
#include <vector>

#include "base/random.hh"
#include "base/units.hh"
#include "jvm/runtime/app.hh"
#include "jvm/threads/action.hh"
#include "workload/alloc_profile.hh"

namespace jscale::workload {

/**
 * An application model whose task body can also be served as an
 * open-loop request. Serving keeps the body's critical sections
 * against the same shared monitors and its compute and allocation
 * draws, so the scalability character the paper measures (lock
 * serialization, GIL, allocation pressure) carries over unchanged to
 * the tail-latency study.
 */
class WorkloadApp : public jvm::ApplicationModel
{
  public:
    /** Create the monitors request bodies use, instead of setup(). */
    virtual void setupRequests(jvm::AppContext &ctx) = 0;

    /** Emit thread @p thread_idx's one-time startup batch. */
    virtual void emitStartup(std::vector<jvm::Action> &out, Rng &rng,
                             std::uint32_t thread_idx) const = 0;

    /** Emit one request: one task body without its TaskDone. */
    virtual void emitRequest(std::vector<jvm::Action> &out,
                             Rng &rng) const = 0;
};

/** Base ActionSource serving refill()-produced batches in place. */
class BufferedSource : public jvm::ActionSource
{
  protected:
    /**
     * Emit the next batch into @p out. @return false when the thread is
     * done (a trailing partial batch is still consumed first).
     */
    virtual bool refill(std::vector<jvm::Action> &out) = 0;

  private:
    void
    refillSpan() final
    {
        buf_.clear();
        while (buf_.empty() && !done_)
            done_ = !refill(buf_);
        if (buf_.empty())
            buf_.push_back(jvm::Action::end());
        serve(buf_.data(), buf_.data() + buf_.size());
    }

    std::vector<jvm::Action> buf_;
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
 * A closed-loop worker of one-task-at-a-time apps: its startup batch,
 * then one request body plus TaskDone per task claimed from @p pool.
 */
class RequestLoopSource : public BufferedSource
{
  public:
    RequestLoopSource(const WorkloadApp &app, TaskPool &pool,
                      std::uint32_t thread_idx, Rng rng)
        : app_(app), pool_(pool), thread_idx_(thread_idx), rng_(rng)
    {}

  protected:
    bool refill(std::vector<jvm::Action> &out) override;

  private:
    const WorkloadApp &app_;
    TaskPool &pool_;
    std::uint32_t thread_idx_;
    Rng rng_;
    bool started_ = false;
};

/**
 * A short-lived surplus thread of a capped-width app: half a startup's
 * compute and @p allocs small allocations, then End.
 */
class SurplusSource : public BufferedSource
{
  public:
    SurplusSource(Ticks startup_compute, std::uint32_t allocs,
                  const AllocationProfile &alloc, Rng rng)
        : startup_compute_(startup_compute), allocs_(allocs), alloc_(alloc),
          rng_(rng)
    {}

  protected:
    bool refill(std::vector<jvm::Action> &out) override;

  private:
    Ticks startup_compute_;
    std::uint32_t allocs_;
    const AllocationProfile &alloc_;
    Rng rng_;
};

/**
 * One allocation from @p profile at @p site. The TTL is drawn before
 * the size: the order every recorded output was made with.
 */
jvm::Action drawAllocation(Rng &rng, const AllocationProfile &profile,
                           jvm::AllocSiteId site);

/** A log-normal draw of ticks around @p mean, at least one tick. */
Ticks drawTicks(Rng &rng, Ticks mean, double sigma);

/**
 * Emit a startup batch: @p compute ticks (at least one), then on
 * thread 0 the application-lifetime shared data, @p pinned bytes in
 * @p objects objects.
 */
void emitStartupBatch(std::vector<jvm::Action> &out, Rng &rng,
                      std::uint32_t thread_idx, Ticks compute,
                      Bytes pinned, std::uint32_t objects);

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
