#include "sim/event.hh"

#include "base/logging.hh"

namespace jscale::sim {

Event::~Event()
{
    // Owners must deschedule their events before destroying them; a
    // scheduled event dying would leave a dangling pointer in the queue.
    jscale_assert(!scheduled(), "event destroyed while scheduled");
}

EventQueue::~EventQueue()
{
    // Drain remaining events, honouring self-deletion so no
    // LambdaEvents leak when a simulation ends early.
    while (Event *ev = pop()) {
        if (ev->selfDeleting())
            delete ev;
    }
}

void
EventQueue::settle(std::size_t slot, Entry e)
{
    if (slot > 0 && before(e, heap_[(slot - 1) / 2])) {
        // Up: each parent that e precedes shifts one level down.
        do {
            const std::size_t parent = (slot - 1) / 2;
            put(slot, heap_[parent]);
            slot = parent;
        } while (slot > 0 && before(e, heap_[(slot - 1) / 2]));
    } else {
        // Down: the lesser child shifts up while it precedes e.
        const std::size_t n = heap_.size();
        for (std::size_t child = 2 * slot + 1; child < n;
             child = 2 * slot + 1) {
            // Start loading the grandchildren now: in a heap larger than
            // the cache each level's read would otherwise miss in turn.
            if (4 * slot + 3 < n)
                __builtin_prefetch(&heap_[4 * slot + 3]);
            if (child + 1 < n)
                child += before(heap_[child + 1], heap_[child]);
            if (!before(heap_[child], e))
                break;
            put(slot, heap_[child]);
            slot = child;
        }
    }
    put(slot, e);
}

void
EventQueue::remove(std::size_t slot)
{
    const Entry last = heap_.back();
    heap_.pop_back();
    // The last entry fills the hole; it may belong above or below it.
    if (slot < heap_.size())
        settle(slot, last);
}

void
EventQueue::schedule(Event *ev, Ticks when)
{
    jscale_assert(ev != nullptr, "schedule of null event");
    jscale_assert(!ev->scheduled(),
                  "event '", ev->name(), "' is already scheduled");
    ev->when_ = when;
    ev->seq_ = next_seq_++;
    const Entry e{when, ev};
    heap_.push_back(e);
    settle(heap_.size() - 1, e);
}

void
EventQueue::deschedule(Event *ev)
{
    jscale_assert(ev != nullptr, "deschedule of null event");
    if (!ev->scheduled())
        return;
    jscale_assert(ev->slot_ < heap_.size() && heap_[ev->slot_].ev == ev,
                  "event '", ev->name(), "' is scheduled on another queue");
    remove(ev->slot_);
    ev->slot_ = Event::kNoSlot;
    // A descheduled self-deleting event can never be popped again, so
    // deleting it here is the only way it is ever reclaimed.
    if (ev->selfDeleting())
        delete ev;
}

void
EventQueue::reschedule(Event *ev, Ticks when)
{
    jscale_assert(ev != nullptr, "reschedule of null event");
    if (!ev->scheduled()) {
        schedule(ev, when);
        return;
    }
    // The fresh sequence number sorts the event after every entry of
    // its new tick, exactly as a deschedule then schedule would.
    ev->when_ = when;
    ev->seq_ = next_seq_++;
    settle(ev->slot_, Entry{when, ev});
}

Event *
EventQueue::pop()
{
    if (heap_.empty())
        return nullptr;
    Event *ev = heap_.front().ev;
    remove(0);
    ev->slot_ = Event::kNoSlot;
    return ev;
}

} // namespace jscale::sim
