#include "jvm/locks/policy.hh"

#include <algorithm>
#include <deque>
#include <map>
#include <sstream>

#include "base/logging.hh"

namespace jscale::jvm {

const char *
lockPolicyName(LockPolicy p)
{
    constexpr const char *kNames[std::size(kAllLockPolicies)] = {
        "fifo", "barging", "malthusian", "lcr"};
    return kNames[static_cast<std::size_t>(p)];
}

std::string
describeLockPolicyConfig(const LockPolicyConfig &cfg)
{
    std::ostringstream os;
    os << "policy=" << lockPolicyName(cfg.policy);
    switch (cfg.policy) {
      case LockPolicy::Fifo:
        break;
      case LockPolicy::Barging:
        os << " window=" << cfg.barge_window;
        break;
      case LockPolicy::Malthusian:
        os << " target=" << cfg.active_target
           << " rotation=" << cfg.rotation_period;
        break;
      case LockPolicy::Lcr:
        os << " min=" << cfg.lcr_min_active
           << " max=" << cfg.lcr_max_active
           << " rotation=" << cfg.rotation_period;
        break;
    }
    os << " base=" << cfg.handoff_base
       << " coherence=" << cfg.coherence_cost
       << " circulation=" << cfg.circulation_window;
    return os.str();
}

namespace {

/** One queued waiter. @p seq orders arrivals across the whole policy
 *  (active + passive) so bypassed_head is exact under culling. */
struct Entry
{
    MonitorWaiter *waiter;
    Ticks since;
    std::uint64_t seq;
};

bool
eraseEntry(std::deque<Entry> &q, const MonitorWaiter *w)
{
    for (auto it = q.begin(); it != q.end(); ++it) {
        if (it->waiter == w) {
            q.erase(it);
            return true;
        }
    }
    return false;
}

/** Strict FIFO: the queue head is always next. */
class FifoPolicy : public AdmissionPolicy
{
  public:
    LockPolicy kind() const override { return LockPolicy::Fifo; }

    void enqueue(MonitorWaiter *w, Ticks now) override
    {
        queue_.push_back(Entry{w, now, next_seq_++});
    }

    Grant selectNext(Ticks now) override
    {
        (void)now;
        jscale_assert(!queue_.empty(), "selectNext on empty queue");
        const Entry e = queue_.front();
        queue_.pop_front();
        return Grant{e.waiter, e.since, false};
    }

    bool cancel(MonitorWaiter *w) override
    {
        return eraseEntry(queue_, w);
    }

    bool empty() const override { return queue_.empty(); }
    std::size_t depth() const override { return queue_.size(); }

  private:
    std::deque<Entry> queue_;
    std::uint64_t next_seq_ = 0;
};

/**
 * Bounded barging: a cyclic cursor walks the first barge_window queue
 * positions, one step per handoff, clipped to the live depth. The
 * cursor passes position 0 every barge_window-th handoff, so the head
 * is bypassed at most barge_window-1 consecutive times (the bound the
 * handoff oracle enforces) — but the circulating set stays as wide as
 * FIFO's. This is the unfair lock that *still* collapses.
 */
class BargingPolicy : public AdmissionPolicy
{
  public:
    explicit BargingPolicy(std::uint32_t window)
        : window_(std::max<std::uint32_t>(window, 1))
    {}

    LockPolicy kind() const override { return LockPolicy::Barging; }

    void enqueue(MonitorWaiter *w, Ticks now) override
    {
        queue_.push_back(Entry{w, now, next_seq_++});
    }

    Grant selectNext(Ticks now) override
    {
        (void)now;
        jscale_assert(!queue_.empty(), "selectNext on empty queue");
        const std::size_t pos =
            std::min<std::size_t>(cursor_, queue_.size() - 1);
        cursor_ = (cursor_ + 1) % window_;
        const Entry e = queue_[pos];
        queue_.erase(queue_.begin() +
                     static_cast<std::ptrdiff_t>(pos));
        return Grant{e.waiter, e.since, pos != 0};
    }

    bool cancel(MonitorWaiter *w) override
    {
        return eraseEntry(queue_, w);
    }

    bool empty() const override { return queue_.empty(); }
    std::size_t depth() const override { return queue_.size(); }

  private:
    const std::uint32_t window_;
    std::deque<Entry> queue_;
    std::uint64_t next_seq_ = 0;
    std::uint32_t cursor_ = 0;
};

/**
 * Shared machinery of the culling policies (Malthusian, LCR): an
 * active circulation list bounded by cap() whose overflow is
 * passivated to a cold list, with periodic rotation for long-term
 * fairness. Grants always come from the active front; the cull never
 * removes the front, so a reactivated waiter is granted immediately.
 */
class CullingPolicy : public AdmissionPolicy
{
  public:
    CullingPolicy(std::uint32_t rotation_period, Events *events)
        : rotation_period_(rotation_period), events_(events)
    {}

    void enqueue(MonitorWaiter *w, Ticks now) override
    {
        active_.push_back(Entry{w, now, next_seq_++});
    }

    Grant selectNext(Ticks now) override
    {
        jscale_assert(!active_.empty() || !passive_.empty(),
                      "selectNext on empty queue");
        ++handoffs_;
        // Long-term fairness: periodically (and whenever the active
        // set drains) the oldest passive waiter rejoins at the active
        // *front*, so it is granted now instead of being re-culled.
        const bool rotate = rotation_period_ > 0 &&
                            handoffs_ % rotation_period_ == 0;
        if (!passive_.empty() && (rotate || active_.empty())) {
            Entry e = passive_.front();
            passive_.pop_front();
            active_.push_front(e);
            if (events_)
                events_->waiterReactivated(e.waiter, now);
        }
        // Cull the excess from the active tail onto the cold list.
        const std::size_t bound = std::max<std::size_t>(cap(), 1);
        while (active_.size() > bound) {
            Entry e = active_.back();
            active_.pop_back();
            passive_.push_back(e);
            if (events_)
                events_->waiterPassivated(e.waiter, now);
        }
        const Entry e = active_.front();
        active_.pop_front();
        return Grant{e.waiter, e.since, e.seq != oldestSeq(e.seq)};
    }

    bool cancel(MonitorWaiter *w) override
    {
        return eraseEntry(active_, w) || eraseEntry(passive_, w);
    }

    bool empty() const override
    {
        return active_.empty() && passive_.empty();
    }

    std::size_t depth() const override
    {
        return active_.size() + passive_.size();
    }

    std::size_t passiveDepth() const override { return passive_.size(); }

  protected:
    /** Active-set bound (>= 1) re-evaluated at every handoff. */
    virtual std::size_t cap() const = 0;

  private:
    /** Oldest arrival seq still waiting, seeded with the grantee's. */
    std::uint64_t oldestSeq(std::uint64_t granted) const
    {
        std::uint64_t oldest = granted;
        for (const Entry &e : active_)
            oldest = std::min(oldest, e.seq);
        for (const Entry &e : passive_)
            oldest = std::min(oldest, e.seq);
        return oldest;
    }

    const std::uint32_t rotation_period_;
    Events *events_;
    std::deque<Entry> active_;
    std::deque<Entry> passive_;
    std::uint64_t next_seq_ = 0;
    std::uint64_t handoffs_ = 0;
};

/** Malthusian: fixed active-set target. */
class MalthusianPolicy : public CullingPolicy
{
  public:
    MalthusianPolicy(const LockPolicyConfig &cfg, Events *events)
        : CullingPolicy(cfg.rotation_period, events),
          target_(std::max<std::uint32_t>(cfg.active_target, 1))
    {}

    LockPolicy kind() const override { return LockPolicy::Malthusian; }

  protected:
    std::size_t cap() const override { return target_; }

  private:
    const std::uint32_t target_;
};

/**
 * LCR: the active-set bound tracks the measured service capacity
 * 1 + think/hold (how many threads the critical section can keep
 * busy), clamped to [min, max]. All integer arithmetic — the cap is a
 * deterministic function of the observed tick sums.
 */
class LcrPolicy : public CullingPolicy
{
  public:
    LcrPolicy(const LockPolicyConfig &cfg, Events *events)
        : CullingPolicy(cfg.rotation_period, events),
          min_(std::max<std::uint32_t>(cfg.lcr_min_active, 1)),
          max_(std::max(cfg.lcr_max_active, min_))
    {}

    LockPolicy kind() const override { return LockPolicy::Lcr; }

    void enqueue(MonitorWaiter *w, Ticks now) override
    {
        // Think time: how long the thread ran outside the lock since
        // its last release of this monitor.
        const auto it = last_release_.find(w);
        if (it != last_release_.end()) {
            think_sum_ += now - it->second;
            ++think_n_;
        }
        CullingPolicy::enqueue(w, now);
    }

    void noteRelease(MonitorWaiter *w, Ticks now, Ticks hold) override
    {
        hold_sum_ += hold;
        ++hold_n_;
        last_release_[w] = now;
    }

  protected:
    std::size_t cap() const override
    {
        if (hold_n_ == 0 || think_n_ == 0)
            return max_; // no measurement yet: admit freely
        const Ticks avg_hold = std::max<Ticks>(hold_sum_ / hold_n_, 1);
        const Ticks avg_think = think_sum_ / think_n_;
        const std::uint64_t capacity = 1 + avg_think / avg_hold;
        return static_cast<std::size_t>(
            std::clamp<std::uint64_t>(capacity, min_, max_));
    }

  private:
    const std::uint32_t min_;
    const std::uint32_t max_;
    /** Keyed by waiter identity; lookups only, never iterated, so the
     *  pointer key cannot leak host-address order into results. */
    std::map<const MonitorWaiter *, Ticks> last_release_;
    Ticks think_sum_ = 0;
    std::uint64_t think_n_ = 0;
    Ticks hold_sum_ = 0;
    std::uint64_t hold_n_ = 0;
};

} // namespace

std::unique_ptr<AdmissionPolicy>
makeAdmissionPolicy(const LockPolicyConfig &cfg,
                    AdmissionPolicy::Events *events)
{
    switch (cfg.policy) {
      case LockPolicy::Fifo:
        return std::make_unique<FifoPolicy>();
      case LockPolicy::Barging:
        return std::make_unique<BargingPolicy>(cfg.barge_window);
      case LockPolicy::Malthusian:
        return std::make_unique<MalthusianPolicy>(cfg, events);
      case LockPolicy::Lcr:
        return std::make_unique<LcrPolicy>(cfg, events);
    }
    jscale_panic("unknown lock policy");
}

} // namespace jscale::jvm
