#include "sim/simulation.hh"

#include <limits>

#include "base/logging.hh"

namespace jscale::sim {

Simulation::Simulation(std::uint64_t seed)
    : seed_(seed), master_rng_(seed)
{
}

void
Simulation::schedule(Event *ev, Ticks when)
{
    jscale_assert(when >= now_, "scheduling event '", ev->name(),
                  "' in the past: ", when, " < ", now_);
    queue_.schedule(ev, when);
}

void
Simulation::scheduleIn(Event *ev, TickDelta delta)
{
    jscale_assert(delta >= 0, "negative delay for event '", ev->name(), "'");
    schedule(ev, now_ + static_cast<Ticks>(delta));
}

void
Simulation::scheduleAt(Ticks when, std::function<void()> fn,
                       std::string what)
{
    schedule(new LambdaEvent(std::move(fn), std::move(what)), when);
}

void
Simulation::scheduleAfter(TickDelta delta, std::function<void()> fn,
                          std::string what)
{
    jscale_assert(delta >= 0, "negative delay for lambda event");
    scheduleAt(now_ + static_cast<Ticks>(delta), std::move(fn),
               std::move(what));
}

bool
Simulation::step()
{
    fusing_ = false;
    return processNext();
}

bool
Simulation::processNext()
{
    Event *ev = queue_.pop();
    if (!ev)
        return false;
    jscale_assert(ev->when() >= now_, "event time went backwards");
    now_ = ev->when();
    ++events_processed_;
    const bool self_delete = ev->selfDeleting();
    ev->process();
    if (self_delete)
        delete ev;
    return true;
}

Ticks
Simulation::run(Ticks until)
{
    stop_requested_ = false;
    const Ticks limit =
        until != 0 ? until : std::numeric_limits<Ticks>::max();
    while (!stop_requested_) {
        if (queue_.empty())
            break;
        if (until != 0 && queue_.nextTime() > until) {
            now_ = until;
            break;
        }
        // Set before every event: a handler may have nested step() or
        // run() calls, which leave their own values behind.
        fusing_ = true;
        fuse_until_ = limit;
        processNext();
    }
    fusing_ = false;
    return now_;
}

} // namespace jscale::sim
