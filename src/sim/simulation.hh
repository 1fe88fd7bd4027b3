/**
 * @file
 * The Simulation object: global clock, event dispatch loop and the
 * experiment-wide deterministic random seed from which every subsystem
 * forks its private stream.
 */

#ifndef JSCALE_SIM_SIMULATION_HH
#define JSCALE_SIM_SIMULATION_HH

#include <cstdint>
#include <functional>
#include <string>

#include "base/random.hh"
#include "base/units.hh"
#include "sim/event.hh"

namespace jscale::sim {

/**
 * Owns the event queue and the simulated clock. One Simulation per
 * experiment run; components hold a reference and schedule against it.
 */
class Simulation
{
  public:
    /** @param seed master seed; all component Rngs fork from it. */
    explicit Simulation(std::uint64_t seed = 1);

    Simulation(const Simulation &) = delete;
    Simulation &operator=(const Simulation &) = delete;

    /** Current simulated time. */
    Ticks now() const { return now_; }

    /** Event queue (for schedule/deschedule). */
    EventQueue &queue() { return queue_; }

    /** Schedule @p ev at absolute time @p when (must be >= now()). */
    void schedule(Event *ev, Ticks when);

    /** Schedule @p ev @p delta ticks in the future. */
    void scheduleIn(Event *ev, TickDelta delta);

    /** Schedule a one-shot callback at absolute time @p when. */
    void scheduleAt(Ticks when, std::function<void()> fn,
                    std::string what = "lambda");

    /** Schedule a one-shot callback @p delta ticks in the future. */
    void scheduleAfter(TickDelta delta, std::function<void()> fn,
                       std::string what = "lambda");

    /**
     * Run until the queue drains or @p until is reached (0 = no limit).
     * @return the time at which the loop stopped.
     */
    Ticks run(Ticks until = 0);

    /**
     * Process exactly one event; returns false if the queue was empty.
     * Handlers dispatched here never fuse (see fuse()).
     */
    bool step();

    /**
     * Process a handler's own next event in place. A handler about to
     * schedule an event for itself at @p when calls this first. When
     * run() would pop that event next (the handler was dispatched by
     * run(), no stop was requested, @p when is within run()'s limit and
     * strictly before every queued event), the clock advances to
     * @p when, the event counts as processed and this returns true: the
     * caller then handles it without a queue round trip. Otherwise
     * nothing changes and the caller schedules it as usual.
     */
    bool
    fuse(Ticks when)
    {
        jscale_assert(when >= now_, "fusing an event in the past: ", when,
                      " < ", now_);
        // Exactly the checks run() makes before its next pop: a stop
        // ends the loop, an event past the limit stays queued, and a
        // queued event at or before @p when pops first (ties go by
        // sequence).
        if (!fusing_ || stop_requested_ || when > fuse_until_)
            return false;
        if (!queue_.empty() && queue_.nextTime() <= when)
            return false;
        now_ = when;
        ++events_processed_;
        return true;
    }

    /** Request the run() loop to exit after the current event. */
    void requestStop() { stop_requested_ = true; }

    /** Number of events processed so far. */
    std::uint64_t eventsProcessed() const { return events_processed_; }

    /** Master seed the simulation was built with. */
    std::uint64_t seed() const { return seed_; }

    /** Fork a named random stream deterministically from the master seed. */
    Rng forkRng(std::uint64_t stream_id) const { return master_rng_.fork(stream_id); }

  private:
    /** Pop and process the earliest event (false when none is left). */
    bool processNext();

    EventQueue queue_;
    Ticks now_ = 0;
    bool stop_requested_ = false;
    /** Whether the event being processed came from run() (see fuse()). */
    bool fusing_ = false;
    /** The active run()'s limit (no limit: the largest tick). */
    Ticks fuse_until_ = 0;
    std::uint64_t events_processed_ = 0;
    std::uint64_t seed_;
    Rng master_rng_;
};

} // namespace jscale::sim

#endif // JSCALE_SIM_SIMULATION_HH
