#include "telemetry/sampler.hh"

#include <sstream>

#include "base/logging.hh"
#include "base/output.hh"
#include "jvm/runtime/vm.hh"
#include "sim/simulation.hh"
#include "telemetry/recorder.hh"
#include "telemetry/timeline.hh"

namespace jscale::telemetry {

MetricSampler::MetricSampler(sim::Simulation &sim, jvm::JavaVm &vm,
                             Ticks interval)
    : sim_(sim), vm_(vm), interval_(interval)
{
    jscale_assert(interval_ > 0, "sampling interval must be positive");
    tick_event_ = std::make_unique<sim::RecurringEvent>(
        sim_.queue(), static_cast<TickDelta>(interval_),
        [this] { tick(); }, "metric-sample");
}

void
MetricSampler::start()
{
    tick_event_->start(sim_.now() + interval_);
}

void
MetricSampler::tick()
{
    sample(sim_.now());
    // The RecurringEvent rearms itself after this callback returns.
}

void
MetricSampler::finish(Ticks end)
{
    if (!samples_.empty() && samples_.back().at >= end)
        return;
    sample(end);
}

void
MetricSampler::sample(Ticks now)
{
    MetricSample s;
    s.at = now;
    s.eden_used = vm_.heap().edenUsed();
    s.survivor_used = vm_.heap().survivorUsed();
    s.old_used = vm_.heap().oldUsed();
    s.live_bytes = vm_.heap().liveBytes();
    s.run_queue = vm_.scheduler().totalReadyQueued();
    s.running = vm_.scheduler().runningCount();
    s.lock_blocked = vm_.monitors().totalQueuedWaiters();
    if (const jvm::TaskAdmission *adm = vm_.taskAdmission()) {
        s.gov_target = adm->admissionTarget();
        s.gov_parked = adm->parkedNow();
    }
    samples_.push_back(s);

    summary_.eden_used.add(static_cast<double>(s.eden_used));
    summary_.old_used.add(static_cast<double>(s.old_used));
    summary_.live_bytes.add(static_cast<double>(s.live_bytes));
    summary_.run_queue.add(static_cast<double>(s.run_queue));
    summary_.running.add(static_cast<double>(s.running));
    summary_.lock_blocked.add(static_cast<double>(s.lock_blocked));
    summary_.gov_parked.add(static_cast<double>(s.gov_parked));

    if (timeline_ != nullptr) {
        timeline_->counter(kVmPid, "heap", now,
                           {targ("eden", s.eden_used),
                            targ("survivor", s.survivor_used),
                            targ("old", s.old_used),
                            targ("live", s.live_bytes)});
        timeline_->counter(kVmPid, "scheduler", now,
                           {targ("run_queue", s.run_queue),
                            targ("running", s.running)});
        timeline_->counter(kVmPid, "locks", now,
                           {targ("blocked_now", s.lock_blocked)});
        // The "governor" counter track belongs to the recorder (one
        // point per decision); the sampler mirrors its own polled view
        // on a separate track, and only when a governor is installed so
        // ungoverned timelines keep their track set.
        if (vm_.taskAdmission() != nullptr) {
            timeline_->counter(kVmPid, "admission", now,
                               {targ("target", s.gov_target),
                                targ("parked", s.gov_parked)});
        }
    }

    if (!gauges_.empty()) {
        std::vector<std::uint64_t> row;
        row.reserve(gauges_.size());
        std::vector<TraceArg> args;
        for (const auto &[name, poll] : gauges_) {
            const std::uint64_t v = poll();
            row.push_back(v);
            if (timeline_ != nullptr)
                args.push_back(targ(name, v));
        }
        gauge_rows_.push_back(std::move(row));
        if (timeline_ != nullptr)
            timeline_->counter(kVmPid, "gauges", now, args);
    }
}

const char *
MetricSampler::csvHeader()
{
    return "time_ns,eden_used,survivor_used,old_used,live_bytes,"
           "run_queue,running,lock_blocked,gov_target,gov_parked";
}

void
MetricSampler::writeCsv(std::ostream &os) const
{
    std::vector<TextTable::Column> cols;
    std::istringstream fixed(csvHeader());
    for (std::string name; std::getline(fixed, name, ',');)
        cols.push_back({"", name});
    for (const auto &[name, poll] : gauges_)
        cols.push_back({"", name});
    TextTable t(std::move(cols));
    for (std::size_t i = 0; i < samples_.size(); ++i) {
        const MetricSample &s = samples_[i];
        std::vector<Cell> row;
        for (const std::uint64_t v :
             {s.at, s.eden_used, s.survivor_used, s.old_used, s.live_bytes,
              s.run_queue, s.running, s.lock_blocked, s.gov_target,
              s.gov_parked})
            row.push_back(Cell::count(v));
        if (!gauges_.empty()) {
            for (const std::uint64_t v : gauge_rows_[i])
                row.push_back(Cell::count(v));
        }
        t.row(std::move(row));
    }
    t.writeCsv(os);
}

} // namespace jscale::telemetry
