#include "traffic/engine.hh"

#include <algorithm>

#include "base/logging.hh"
#include "sim/simulation.hh"

namespace jscale::traffic {

namespace {

/** Arrival-process Rng stream id, salted per tenant so co-hosted
 *  streams are independent ("trfc" + tenant). */
std::uint64_t
arrivalStream(std::uint32_t tenant)
{
    return 0x7472'6663'0000'0000ULL + tenant;
}

} // namespace

TrafficEngine::TrafficEngine(jvm::JavaVm &vm, const ArrivalSpec &spec,
                             profile::TaskProfiler &profiler)
    : vm_(vm), sim_(vm.sim()), spec_(spec),
      process_(spec, vm.sim().forkRng(
                         arrivalStream(vm.config().tenant)))
{
    arrival_event_ = std::make_unique<sim::CallbackEvent>(
        [this] { onArrival(); }, "traffic-arrival");
    profiler.addTaskSink([this](const jvm::SlowTaskRecord &rec) {
        onServiceComplete(rec);
    });
}

TrafficEngine::~TrafficEngine()
{
    if (arrival_event_->scheduled())
        sim_.queue().deschedule(arrival_event_.get());
}

void
TrafficEngine::bind(jvm::ChannelId channel, std::uint32_t n_workers)
{
    jscale_assert(!bound_, "traffic engine already bound");
    jscale_assert(n_workers > 0, "traffic needs at least one worker");
    channel_ = channel;
    n_workers_ = n_workers;
    bound_ = true;
}

void
TrafficEngine::arm()
{
    jscale_assert(bound_, "bind() must precede arm()");
    jscale_assert(spec_.requests > 0, "empty arrival stream");
    sim_.scheduleIn(arrival_event_.get(),
                    process_.nextGap(sim_.now()));
}

void
TrafficEngine::scheduleNext(Ticks now)
{
    if (arrivals_ < spec_.requests) {
        sim_.scheduleIn(arrival_event_.get(), process_.nextGap(now));
        return;
    }
    // Stream complete: one end-of-stream sentinel permit per worker.
    // Permits are anonymous and granted FIFO, so a granted worker finds
    // a queued request whenever any remains; only the last n_workers_
    // grants (with the queue empty) read as sentinels.
    vm_.monitors().channel(channel_).post(n_workers_, now);
}

void
TrafficEngine::onArrival()
{
    const Ticks now = sim_.now();
    const std::uint64_t id = ++arrivals_;
    auto &listeners = vm_.listeners();
    const std::uint32_t tenant = vm_.config().tenant;

    if (spec_.queue_limit > 0 && queue_.size() >= spec_.queue_limit) {
        if (spec_.shed == ShedPolicy::DropNewest) {
            // Reject at the door; the arrival is never admitted.
            ++shed_;
            listeners.dispatch([&](jvm::RuntimeListener &l) {
                l.onRequestShed(tenant, id, now);
            });
        } else {
            // Evict the oldest queued request; its already-posted
            // permit transfers to the new arrival, so no extra post.
            const Queued victim = queue_.front();
            queue_.pop_front();
            ++shed_;
            listeners.dispatch([&](jvm::RuntimeListener &l) {
                l.onRequestShed(tenant, victim.id, now);
            });
            ++admitted_;
            queue_.push_back(Queued{id, now});
            listeners.dispatch([&](jvm::RuntimeListener &l) {
                l.onRequestArrival(tenant, id, now);
            });
        }
    } else {
        ++admitted_;
        queue_.push_back(Queued{id, now});
        max_queue_depth_ =
            std::max<std::uint64_t>(max_queue_depth_, queue_.size());
        listeners.dispatch([&](jvm::RuntimeListener &l) {
            l.onRequestArrival(tenant, id, now);
        });
        vm_.monitors().channel(channel_).post(1, now);
    }

    scheduleNext(now);
}

bool
TrafficEngine::dispatchNext(jvm::MutatorIndex thread)
{
    if (queue_.empty())
        return false; // the granted permit was a sentinel
    const Ticks now = sim_.now();
    const Queued q = queue_.front();
    queue_.pop_front();
    ++dispatched_;
    if (thread >= inflight_.size())
        inflight_.resize(thread + 1);
    Inflight &fl = inflight_[thread];
    jscale_assert(!fl.active, "worker already serving a request");
    fl.active = true;
    fl.id = q.id;
    fl.arrival = q.arrival;
    fl.dispatch = now;
    // The probe restarts the VM profiler's attribution window at
    // `now`, anchoring the service decomposition to this dispatch.
    vm_.listeners().dispatch([&](jvm::RuntimeListener &l) {
        l.onRequestDispatched(vm_.config().tenant, q.id, thread, now);
    });
    return true;
}

void
TrafficEngine::onServiceComplete(const jvm::SlowTaskRecord &rec)
{
    if (rec.thread >= inflight_.size())
        return;
    Inflight &fl = inflight_[rec.thread];
    if (!fl.active)
        return;
    jscale_assert(rec.start == fl.dispatch,
                  "service window must open at the dispatch stamp");
    jscale_assert(fl.dispatch >= fl.arrival,
                  "dispatch precedes arrival");
    const Ticks end = rec.end;
    const std::uint64_t id = fl.id;
    fl.active = false;

    sojourn_.add(end - fl.arrival);
    queueing_.add(fl.dispatch - fl.arrival);
    service_.add(end - fl.dispatch);
    for (std::size_t i = 0; i < jvm::kWaitBucketCount; ++i)
        service_bucket_total_[i] += rec.buckets[i];
    ++completed_;

    vm_.listeners().dispatch([&](jvm::RuntimeListener &l) {
        l.onRequestCompleted(vm_.config().tenant, id, rec.thread, end);
    });
}

std::uint64_t
TrafficEngine::inflightCount() const
{
    std::uint64_t n = 0;
    for (const Inflight &fl : inflight_)
        n += fl.active ? 1 : 0;
    return n;
}

jvm::TrafficSummary
TrafficEngine::summary() const
{
    jvm::TrafficSummary s;
    s.enabled = true;
    s.tenant = vm_.config().tenant;
    s.arrival_spec = spec_.describe();
    s.arrivals = arrivals_;
    s.admitted = admitted_;
    s.shed = shed_;
    s.dispatched = dispatched_;
    s.completed = completed_;
    s.max_queue_depth = max_queue_depth_;
    s.sojourn = sojourn_;
    s.queueing = queueing_;
    s.service = service_;
    std::copy(std::begin(service_bucket_total_),
              std::end(service_bucket_total_),
              std::begin(s.service_bucket_total));
    return s;
}

} // namespace jscale::traffic
