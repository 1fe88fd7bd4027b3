#include "core/report.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "base/logging.hh"
#include "base/output.hh"
#include "core/analyze.hh"
#include "trace/trace.hh"

namespace jscale::core {

namespace {

std::string
threadsLabel(const jvm::RunResult &r)
{
    return std::to_string(r.threads) + "T/" + std::to_string(r.cores) +
           "C";
}

/** Sweep points that actually ran (neither out-of-slice nor failed). */
std::vector<jvm::RunResult>
measuredRuns(const std::vector<jvm::RunResult> &sweep)
{
    std::vector<jvm::RunResult> out;
    for (const auto &r : sweep) {
        if (!r.skipped && !r.failed())
            out.push_back(r);
    }
    return out;
}

} // namespace

void
printScalabilityTable(std::ostream &os, const SweepSet &sweeps)
{
    os << "E1: execution time and speedup vs. threads "
          "(threads == enabled cores, heap = 3x min)\n";
    TextTable t;
    t.header({"app", "threads", "wall", "speedup", "mutator", "gc",
              "gc-share", "class"});
    for (const auto &[app, sweep] : sweeps) {
        jscale_assert(!sweep.empty(), "empty sweep for ", app);
        const auto measured = measuredRuns(sweep);
        const char *cls =
            measured.size() >= 2
                ? (ScalabilityAnalyzer::isScalable(measured)
                       ? "scalable"
                       : "non-scalable")
                : "n/a";
        for (const auto &r : sweep) {
            // Out-of-slice or failed points have no measurements;
            // show their status instead of fabricating numbers.
            if (r.skipped || r.failed()) {
                t.row({app, std::to_string(r.threads), "-", "-", "-",
                       "-", "-", r.skipped ? "skipped" : "failed"});
                continue;
            }
            t.row({app, std::to_string(r.threads),
                   formatTicks(r.wall_time),
                   formatFixed(ScalabilityAnalyzer::speedup(
                                   measured.front(), r),
                               2),
                   formatTicks(r.mutatorTime()), formatTicks(r.gc_time),
                   formatPercent(ScalabilityAnalyzer::gcShare(r)), cls});
        }
    }
    t.print(os);
}

void
writeScalabilityCsv(std::ostream &os, const SweepSet &sweeps)
{
    CsvWriter csv(os);
    csv.row({"app", "threads", "wall_ns", "speedup", "mutator_ns",
             "gc_ns", "gc_share", "scalable"});
    for (const auto &[app, sweep] : sweeps) {
        // Machine-readable output carries measured points only:
        // skipped/failed runs have no numbers downstream tools could use.
        const auto measured = measuredRuns(sweep);
        if (measured.empty())
            continue;
        const bool scalable = measured.size() >= 2 &&
                              ScalabilityAnalyzer::isScalable(measured);
        for (const auto &r : measured) {
            csv.row({app, std::to_string(r.threads),
                     std::to_string(r.wall_time),
                     formatFixed(ScalabilityAnalyzer::speedup(
                                     measured.front(), r),
                                 4),
                     std::to_string(r.mutatorTime()),
                     std::to_string(r.gc_time),
                     formatFixed(ScalabilityAnalyzer::gcShare(r), 4),
                     scalable ? "1" : "0"});
        }
    }
}

void
printWorkloadDistributionTable(std::ostream &os, const SweepSet &sweeps)
{
    os << "E2: workload distribution across threads "
          "(effective workers cover 90% of tasks)\n";
    TextTable t;
    t.header({"app", "threads", "tasks", "eff-workers", "top-share",
              "task-cv"});
    for (const auto &[app, sweep] : sweeps) {
        for (const auto &r : sweep) {
            t.row({app, std::to_string(r.threads),
                   std::to_string(r.total_tasks),
                   std::to_string(
                       ScalabilityAnalyzer::effectiveWorkers(r)),
                   formatPercent(ScalabilityAnalyzer::topThreadShare(r)),
                   formatFixed(
                       ScalabilityAnalyzer::taskDistributionCv(r), 2)});
        }
    }
    t.print(os);
}

void
writeWorkloadDistributionCsv(std::ostream &os, const SweepSet &sweeps)
{
    CsvWriter csv(os);
    csv.row({"app", "threads", "tasks", "effective_workers", "top_share",
             "task_cv"});
    for (const auto &[app, sweep] : sweeps) {
        for (const auto &r : sweep) {
            csv.row({app, std::to_string(r.threads),
                     std::to_string(r.total_tasks),
                     std::to_string(
                         ScalabilityAnalyzer::effectiveWorkers(r)),
                     formatFixed(
                         ScalabilityAnalyzer::topThreadShare(r), 4),
                     formatFixed(
                         ScalabilityAnalyzer::taskDistributionCv(r),
                         4)});
        }
    }
}

namespace {

void
printLockSeries(std::ostream &os, const SweepSet &sweeps,
                bool contentions, const char *title)
{
    os << title << '\n';
    TextTable t;
    t.header({"app", "threads", contentions ? "contentions"
                                            : "acquisitions",
              "vs-min-threads"});
    for (const auto &[app, sweep] : sweeps) {
        jscale_assert(!sweep.empty(), "empty sweep for ", app);
        const double base = std::max<double>(
            1.0, static_cast<double>(
                     contentions ? sweep.front().locks.contentions
                                 : sweep.front().locks.acquisitions));
        for (const auto &r : sweep) {
            const std::uint64_t v = contentions ? r.locks.contentions
                                                : r.locks.acquisitions;
            t.row({app, std::to_string(r.threads), std::to_string(v),
                   formatFixed(static_cast<double>(v) / base, 2) + "x"});
        }
    }
    t.print(os);
}

void
writeLockSeriesCsv(std::ostream &os, const SweepSet &sweeps,
                   bool contentions)
{
    CsvWriter csv(os);
    csv.row({"app", "threads",
             contentions ? "contentions" : "acquisitions"});
    for (const auto &[app, sweep] : sweeps) {
        for (const auto &r : sweep) {
            csv.row({app, std::to_string(r.threads),
                     std::to_string(contentions ? r.locks.contentions
                                                : r.locks.acquisitions)});
        }
    }
}

} // namespace

void
printLockAcquisitionTable(std::ostream &os, const SweepSet &sweeps)
{
    printLockSeries(os, sweeps, false,
                    "E3 (Fig. 1a): lock acquisitions vs. threads");
}

void
writeLockAcquisitionCsv(std::ostream &os, const SweepSet &sweeps)
{
    writeLockSeriesCsv(os, sweeps, false);
}

void
printLockContentionTable(std::ostream &os, const SweepSet &sweeps)
{
    printLockSeries(os, sweeps, true,
                    "E4 (Fig. 1b): lock contention instances vs. threads");
}

void
writeLockContentionCsv(std::ostream &os, const SweepSet &sweeps)
{
    writeLockSeriesCsv(os, sweeps, true);
}

void
printLifespanCdfTable(std::ostream &os, const std::string &app,
                      const std::vector<jvm::RunResult> &sweep)
{
    os << "Object-lifespan CDF for " << app
       << " (fraction of objects with lifespan < threshold; lifespan = "
          "bytes allocated between birth and death)\n";
    TextTable t;
    std::vector<std::string> header = {"lifespan <"};
    for (const auto &r : sweep)
        header.push_back(threadsLabel(r));
    t.header(header);
    for (const auto threshold : trace::paperLifespanThresholds()) {
        std::vector<std::string> row = {formatBytes(threshold)};
        for (const auto &r : sweep) {
            row.push_back(
                formatPercent(r.heap.lifespan.fractionBelow(threshold)));
        }
        t.row(row);
    }
    t.print(os);
}

void
writeLifespanCdfCsv(std::ostream &os, const std::string &app,
                    const std::vector<jvm::RunResult> &sweep)
{
    CsvWriter csv(os);
    csv.row({"app", "threads", "threshold_bytes", "fraction_below"});
    for (const auto &r : sweep) {
        for (const auto threshold : trace::paperLifespanThresholds()) {
            csv.row({app, std::to_string(r.threads),
                     std::to_string(threshold),
                     formatFixed(
                         r.heap.lifespan.fractionBelow(threshold), 4)});
        }
    }
}

void
printMutatorGcTable(std::ostream &os, const SweepSet &sweeps)
{
    os << "E7 (Fig. 2): distribution of mutator and GC times\n";
    TextTable t;
    t.header({"app", "threads", "wall", "mutator", "gc", "gc-share",
              "mutator-speedup", "minor-gcs", "full-gcs"});
    for (const auto &[app, sweep] : sweeps) {
        for (const auto &r : sweep) {
            t.row({app, std::to_string(r.threads),
                   formatTicks(r.wall_time), formatTicks(r.mutatorTime()),
                   formatTicks(r.gc_time),
                   formatPercent(ScalabilityAnalyzer::gcShare(r)),
                   formatFixed(ScalabilityAnalyzer::mutatorSpeedup(
                                   sweep.front(), r),
                               2),
                   std::to_string(r.gc.minor_count),
                   std::to_string(r.gc.full_count)});
        }
    }
    t.print(os);
}

void
writeMutatorGcCsv(std::ostream &os, const SweepSet &sweeps)
{
    CsvWriter csv(os);
    csv.row({"app", "threads", "wall_ns", "mutator_ns", "gc_ns",
             "gc_share", "minor_gcs", "full_gcs"});
    for (const auto &[app, sweep] : sweeps) {
        for (const auto &r : sweep) {
            csv.row({app, std::to_string(r.threads),
                     std::to_string(r.wall_time),
                     std::to_string(r.mutatorTime()),
                     std::to_string(r.gc_time),
                     formatFixed(ScalabilityAnalyzer::gcShare(r), 4),
                     std::to_string(r.gc.minor_count),
                     std::to_string(r.gc.full_count)});
        }
    }
}

void
printGcSurvivalTable(std::ostream &os, const SweepSet &sweeps)
{
    os << "E8: GC effectiveness vs. threads (nursery survival drives "
          "copy cost and promotions)\n";
    TextTable t;
    t.header({"app", "threads", "survival", "copied", "promoted",
              "minor-gcs", "full-gcs", "mean-pause", "ttsp"});
    for (const auto &[app, sweep] : sweeps) {
        for (const auto &r : sweep) {
            t.row({app, std::to_string(r.threads),
                   formatPercent(r.gc.nursery_survival.mean()),
                   formatBytes(r.gc.copied_bytes),
                   formatBytes(r.gc.promoted_bytes),
                   std::to_string(r.gc.minor_count),
                   std::to_string(r.gc.full_count),
                   formatTicks(static_cast<Ticks>(
                       r.gc.minor_pauses.mean())),
                   formatTicks(r.gc.total_ttsp)});
        }
    }
    t.print(os);
    os << "(p50/p99 pauses per app at the largest setting: ";
    bool first = true;
    for (const auto &[app, sweep] : sweeps) {
        const auto &hist = sweep.back().gc.pause_hist;
        if (hist.totalWeight() == 0)
            continue;
        os << (first ? "" : "; ") << app << " "
           << formatTicks(hist.percentile(0.5)) << "/"
           << formatTicks(hist.percentile(0.99));
        first = false;
    }
    os << ")\n";
}

void
writeGcSurvivalCsv(std::ostream &os, const SweepSet &sweeps)
{
    CsvWriter csv(os);
    csv.row({"app", "threads", "survival", "copied_bytes",
             "promoted_bytes", "minor_gcs", "full_gcs", "mean_pause_ns",
             "ttsp_ns"});
    for (const auto &[app, sweep] : sweeps) {
        for (const auto &r : sweep) {
            csv.row({app, std::to_string(r.threads),
                     formatFixed(r.gc.nursery_survival.mean(), 4),
                     std::to_string(r.gc.copied_bytes),
                     std::to_string(r.gc.promoted_bytes),
                     std::to_string(r.gc.minor_count),
                     std::to_string(r.gc.full_count),
                     formatFixed(r.gc.minor_pauses.mean(), 0),
                     std::to_string(r.gc.total_ttsp)});
        }
    }
}

namespace {

/** Mean per-mutator suspend components of one run. */
struct SuspendMeans
{
    double ready = 0.0;
    double blocked = 0.0;
    double cpu = 0.0;
};

SuspendMeans
suspendMeans(const jvm::RunResult &r)
{
    SuspendMeans m;
    std::size_t n = 0;
    for (const auto &ts : r.thread_summaries) {
        if (ts.kind != os::ThreadKind::Mutator)
            continue;
        m.ready += static_cast<double>(ts.ready_time);
        m.blocked += static_cast<double>(ts.blocked_time);
        m.cpu += static_cast<double>(ts.cpu_time);
        ++n;
    }
    if (n > 0) {
        m.ready /= static_cast<double>(n);
        m.blocked /= static_cast<double>(n);
        m.cpu /= static_cast<double>(n);
    }
    return m;
}

} // namespace

void
printSuspendWaitTable(std::ostream &os, const SweepSet &sweeps)
{
    os << "E14: per-mutator suspend wait vs. threads (the Sec. III-B "
          "interference mechanism)\n";
    TextTable t;
    t.header({"app", "threads", "mean-ready-wait", "mean-lock-block",
              "suspend/cpu", "lifespan<1KiB"});
    for (const auto &[app, sweep] : sweeps) {
        for (const auto &r : sweep) {
            const SuspendMeans m = suspendMeans(r);
            const double suspend = m.ready + m.blocked;
            t.row({app, std::to_string(r.threads),
                   formatTicks(static_cast<Ticks>(m.ready)),
                   formatTicks(static_cast<Ticks>(m.blocked)),
                   formatFixed(m.cpu > 0 ? suspend / m.cpu : 0.0, 3),
                   formatPercent(
                       r.heap.lifespan.fractionBelow(1024))});
        }
    }
    t.print(os);
}

void
writeSuspendWaitCsv(std::ostream &os, const SweepSet &sweeps)
{
    CsvWriter csv(os);
    csv.row({"app", "threads", "mean_ready_ns", "mean_blocked_ns",
             "suspend_over_cpu", "lifespan_lt_1k"});
    for (const auto &[app, sweep] : sweeps) {
        for (const auto &r : sweep) {
            const SuspendMeans m = suspendMeans(r);
            csv.row({app, std::to_string(r.threads),
                     formatFixed(m.ready, 0), formatFixed(m.blocked, 0),
                     formatFixed(m.cpu > 0 ? (m.ready + m.blocked) / m.cpu
                                           : 0.0,
                                 4),
                     formatFixed(r.heap.lifespan.fractionBelow(1024),
                                 4)});
        }
    }
}

void
printThreadTable(std::ostream &os, const jvm::RunResult &r)
{
    TextTable t;
    t.header({"thread", "kind", "tasks", "cpu", "ready-wait",
              "lock-block", "sleep", "allocs", "alloc-bytes",
              "dispatches"});
    for (const auto &ts : r.thread_summaries) {
        const char *kind = ts.kind == os::ThreadKind::Mutator
                               ? "mutator"
                               : ts.kind == os::ThreadKind::Helper
                                     ? "helper"
                                     : "daemon";
        t.row({ts.name, kind, std::to_string(ts.tasks_completed),
               formatTicks(ts.cpu_time), formatTicks(ts.ready_time),
               formatTicks(ts.blocked_time), formatTicks(ts.sleep_time),
               std::to_string(ts.allocations),
               formatBytes(ts.bytes_allocated),
               std::to_string(ts.dispatches)});
    }
    t.print(os);
}

namespace {

/** Absolute-thread-count speedup points of one sweep. */
std::vector<control::UslPoint>
sweepUslPoints(const std::vector<jvm::RunResult> &sweep)
{
    std::vector<control::UslPoint> pts;
    pts.reserve(sweep.size());
    for (const auto &r : sweep) {
        pts.push_back({static_cast<double>(r.threads),
                       ScalabilityAnalyzer::speedup(sweep.front(), r)});
    }
    return pts;
}

/** Derived per-app row of the USL table. */
struct UslRowData
{
    control::UslFit fit;
    double max_n = 0.0;
    double knee = 0.0; // thread count of the best observed speedup
    double peak = 0.0; // best observed speedup
    std::uint32_t rec = 0;
    std::string cls;
};

UslRowData
uslRowData(const std::vector<control::UslPoint> &pts)
{
    UslRowData d;
    d.fit = control::UslModel::fit(pts);
    for (const auto &p : pts) {
        d.max_n = std::max(d.max_n, p.n);
        if (p.speedup > d.peak) { // strict: earliest point wins ties
            d.peak = p.speedup;
            d.knee = p.n;
        }
    }
    if (!d.fit.valid) {
        d.cls = "unfit";
        return d;
    }
    if (d.fit.n_star <= 0.0 || d.fit.n_star >= d.max_n) {
        // No interior optimum within the measured range: the model says
        // keep adding threads up to what was actually swept.
        d.rec = static_cast<std::uint32_t>(std::lround(d.max_n));
        d.cls = "beyond-sweep";
    } else {
        d.rec = static_cast<std::uint32_t>(
            std::max<long>(1, std::lround(d.fit.n_star)));
        d.cls = "in-sweep";
    }
    return d;
}

std::vector<UslSeries>
sweepUslSeries(const SweepSet &sweeps)
{
    std::vector<UslSeries> series;
    series.reserve(sweeps.size());
    for (const auto &[app, sweep] : sweeps) {
        jscale_assert(!sweep.empty(), "empty sweep for ", app);
        series.push_back({app, sweepUslPoints(sweep)});
    }
    return series;
}

} // namespace

void
printUslSeriesTable(std::ostream &os, const std::vector<UslSeries> &series)
{
    os << "E17: USL fit per app: "
          "S(n) = n / (1 + sigma*(n-1) + kappa*n*(n-1))\n";
    TextTable t;
    t.header({"app", "sigma", "kappa", "n*", "rec-threads", "peak-pred",
              "knee-obs", "peak-obs", "rms", "knee-class"});
    for (const auto &s : series) {
        const UslRowData d = uslRowData(s.points);
        if (!d.fit.valid) {
            t.row({s.app, "-", "-", "-", "-", "-",
                   formatFixed(d.knee, 0), formatFixed(d.peak, 2), "-",
                   d.cls});
            continue;
        }
        t.row({s.app, formatFixed(d.fit.sigma, 4),
               formatFixed(d.fit.kappa, 6),
               d.fit.n_star > 0.0 ? formatFixed(d.fit.n_star, 1) : "-",
               std::to_string(d.rec), formatFixed(d.fit.peak_speedup, 2),
               formatFixed(d.knee, 0), formatFixed(d.peak, 2),
               formatFixed(d.fit.rms_residual, 3), d.cls});
    }
    t.print(os);
}

void
printUslTable(std::ostream &os, const SweepSet &sweeps)
{
    printUslSeriesTable(os, sweepUslSeries(sweeps));
}

void
writeUslCsv(std::ostream &os, const SweepSet &sweeps)
{
    CsvWriter csv(os);
    csv.row({"app", "sigma", "kappa", "n_star", "recommended_threads",
             "predicted_peak", "observed_knee", "observed_peak",
             "rms_residual", "knee_class"});
    for (const auto &s : sweepUslSeries(sweeps)) {
        const UslRowData d = uslRowData(s.points);
        if (!d.fit.valid) {
            csv.row({s.app, "", "", "", "", "", formatFixed(d.knee, 0),
                     formatFixed(d.peak, 4), "", d.cls});
            continue;
        }
        csv.row({s.app, formatFixed(d.fit.sigma, 6),
                 formatFixed(d.fit.kappa, 6),
                 formatFixed(d.fit.n_star, 2), std::to_string(d.rec),
                 formatFixed(d.fit.peak_speedup, 4),
                 formatFixed(d.knee, 0), formatFixed(d.peak, 4),
                 formatFixed(d.fit.rms_residual, 4), d.cls});
    }
}

void
printGovernedComparisonTable(std::ostream &os, const SweepSet &off,
                             const SweepSet &on)
{
    os << "Governed vs. ungoverned wall time "
          "(positive delta = governed faster)\n";
    TextTable t;
    t.header({"app", "threads", "wall-off", "wall-on", "delta", "policy",
              "target", "parks"});
    for (const auto &[app, sweep_on] : on) {
        const auto it = off.find(app);
        if (it == off.end())
            continue;
        for (const auto &r_on : sweep_on) {
            const jvm::RunResult *r_off = nullptr;
            for (const auto &r : it->second) {
                if (r.threads == r_on.threads) {
                    r_off = &r;
                    break;
                }
            }
            if (r_off == nullptr)
                continue;
            const double delta =
                static_cast<double>(r_off->wall_time) /
                    static_cast<double>(r_on.wall_time) -
                1.0;
            t.row({app, std::to_string(r_on.threads),
                   formatTicks(r_off->wall_time),
                   formatTicks(r_on.wall_time), formatPercent(delta),
                   r_on.governor.policy,
                   std::to_string(r_on.governor.final_target),
                   std::to_string(r_on.governor.parks)});
        }
    }
    t.print(os);
}

stats::StatSnapshot
runStatSnapshot(const jvm::RunResult &r)
{
    stats::StatSnapshot s;
    s.add("threads", r.threads);
    s.add("cores", r.cores);
    s.add("heap_capacity", static_cast<double>(r.heap_capacity), "B");
    s.add("wall_time", static_cast<double>(r.wall_time), "ticks");
    s.add("gc_time", static_cast<double>(r.gc_time), "ticks");
    s.add("mutator_time", static_cast<double>(r.mutatorTime()), "ticks");
    s.add("total_tasks", r.total_tasks);
    s.add("sim_events", r.sim_events);

    s.add("gc.minor_count", r.gc.minor_count);
    s.add("gc.full_count", r.gc.full_count);
    s.add("gc.local_count", r.gc.local_count);
    s.add("gc.concurrent_cycles", r.gc.concurrent_cycles);
    s.add("gc.concurrent_failures", r.gc.concurrent_failures);
    s.add("gc.remark_count", r.gc.remark_count);
    s.add("gc.local_pause", static_cast<double>(r.gc.local_pause),
          "ticks");
    s.add("gc.total_pause", static_cast<double>(r.gc.total_pause),
          "ticks");
    s.add("gc.total_ttsp", static_cast<double>(r.gc.total_ttsp), "ticks");
    s.add("gc.copied_bytes", static_cast<double>(r.gc.copied_bytes), "B");
    s.add("gc.promoted_bytes", static_cast<double>(r.gc.promoted_bytes),
          "B");
    s.add("gc.reclaimed_bytes",
          static_cast<double>(r.gc.reclaimed_bytes), "B");
    s.add("gc.young_resizes", r.gc.young_resizes);
    s.addSummary("gc.minor_pause", r.gc.minor_pauses, "ticks");
    s.addSummary("gc.full_pause", r.gc.full_pauses, "ticks");
    s.addSummary("gc.nursery_survival", r.gc.nursery_survival);
    s.add("gc.events", static_cast<double>(r.gc.events.size()));

    s.add("heap.objects_allocated", r.heap.objects_allocated);
    s.add("heap.objects_died", r.heap.objects_died);
    s.add("heap.bytes_allocated",
          static_cast<double>(r.heap.bytes_allocated), "B");
    s.add("heap.bytes_died", static_cast<double>(r.heap.bytes_died), "B");
    s.add("heap.peak_live_bytes",
          static_cast<double>(r.heap.peak_live_bytes), "B");
    s.add("heap.tlab_refills", r.heap.tlab_refills);
    s.add("heap.tlab_waste", static_cast<double>(r.heap.tlab_waste), "B");
    s.add("heap.lifespan_weight",
          static_cast<double>(r.heap.lifespan.totalWeight()));
    s.add("heap.lifespan_p50",
          static_cast<double>(r.heap.lifespan.percentile(0.5)), "B");

    s.add("locks.acquisitions", r.locks.acquisitions);
    s.add("locks.contentions", r.locks.contentions);
    s.add("locks.block_time", static_cast<double>(r.locks.block_time),
          "ticks");
    s.add("locks.monitors", r.locks.monitors);
    s.add("locks.biased", r.locks.biased_acquisitions);
    s.add("locks.thin", r.locks.thin_acquisitions);
    s.add("locks.fat", r.locks.fat_acquisitions);
    s.add("locks.revocations", r.locks.bias_revocations);
    s.add("locks.inflations", r.locks.inflations);
    s.add("locks.waits", r.locks.waits);
    s.add("locks.notifies", r.locks.notifies);
    s.add("locks.handoffs", r.locks.handoffs);
    s.add("locks.barged_grants", r.locks.barged_grants);
    s.add("locks.waiters_passivated", r.locks.waiters_passivated);
    s.add("locks.waiters_reactivated", r.locks.waiters_reactivated);
    s.add("locks.coherence_penalty",
          static_cast<double>(r.locks.coherence_penalty), "ticks");
    s.add("locks.circulation_avg",
          r.locks.handoffs
              ? static_cast<double>(r.locks.circulation_sum) /
                    static_cast<double>(r.locks.handoffs)
              : 0.0);
    s.add("locks.block_p50",
          static_cast<double>(r.locks.block_hist.quantile(0.5)), "ticks");
    s.add("locks.block_p99",
          static_cast<double>(r.locks.block_hist.quantile(0.99)),
          "ticks");

    s.add("sched.dispatches", r.sched.dispatches);
    s.add("sched.context_switches", r.sched.context_switches);
    s.add("sched.migrations", r.sched.migrations);
    s.add("sched.steals", r.sched.steals);
    s.add("sched.preemptions", r.sched.preemptions);
    s.add("sched.admission_parks", r.sched.admission_parks);
    s.add("sched.admission_unparks", r.sched.admission_unparks);
    s.add("sched.busy_ticks", static_cast<double>(r.sched.busy_ticks),
          "ticks");
    s.add("sched.overhead_ticks",
          static_cast<double>(r.sched.overhead_ticks), "ticks");

    s.add("gov.enabled", r.governor.enabled ? 1 : 0);
    s.add("gov.final_target", r.governor.final_target);
    s.add("gov.min_target", r.governor.min_target);
    s.add("gov.max_target", r.governor.max_target);
    s.add("gov.decisions", r.governor.decisions);
    s.add("gov.parks", r.governor.parks);
    s.add("gov.unparks", r.governor.unparks);
    s.add("gov.usl_sigma", r.governor.usl_sigma);
    s.add("gov.usl_kappa", r.governor.usl_kappa);
    s.add("gov.usl_nstar", r.governor.usl_nstar);

    s.add("faults.injections", r.faults.injections);
    s.add("faults.recoveries", r.faults.recoveries);
    s.add("faults.cores_offlined", r.faults.cores_offlined);
    s.add("faults.cores_onlined", r.faults.cores_onlined);
    s.add("faults.slowdowns", r.faults.slowdowns);
    s.add("faults.preempt_bursts", r.faults.preempt_bursts);
    s.add("faults.lock_holders_preempted",
          r.faults.lock_holders_preempted);
    s.add("faults.mutators_killed", r.faults.mutators_killed);
    s.add("faults.mutators_stalled", r.faults.mutators_stalled);
    s.add("faults.heap_spikes", r.faults.heap_spikes);
    s.add("faults.gc_worker_losses", r.faults.gc_worker_losses);
    s.add("faults.tasks_reassigned", r.faults.tasks_reassigned);

    for (std::size_t i = 0; i < r.thread_summaries.size(); ++i) {
        const auto &ts = r.thread_summaries[i];
        const std::string p = "thread." + std::to_string(i) + ".";
        s.add(p + "cpu_time", static_cast<double>(ts.cpu_time), "ticks");
        s.add(p + "ready_time", static_cast<double>(ts.ready_time),
              "ticks");
        s.add(p + "blocked_time", static_cast<double>(ts.blocked_time),
              "ticks");
        s.add(p + "sleep_time", static_cast<double>(ts.sleep_time),
              "ticks");
        s.add(p + "dispatches", ts.dispatches);
        s.add(p + "migrations", ts.migrations);
        s.add(p + "tasks_completed", ts.tasks_completed);
        s.add(p + "allocations", ts.allocations);
        s.add(p + "bytes_allocated",
              static_cast<double>(ts.bytes_allocated), "B");
    }
    return s;
}

namespace {

/** Tail-quantile cells (p50/p90/p99/p999/max) of one histogram. */
std::vector<std::string>
quantileCells(const stats::LatencyHistogram &h)
{
    if (h.count() == 0)
        return {"-", "-", "-", "-", "-"};
    return {formatTicks(h.quantile(0.50)), formatTicks(h.quantile(0.90)),
            formatTicks(h.quantile(0.99)), formatTicks(h.quantile(0.999)),
            formatTicks(h.max())};
}

} // namespace

void
printBlameTable(std::ostream &os, const jvm::RunResult &r)
{
    const jvm::ProfileSummary &p = r.profile;
    os << "wait-state blame: " << r.app_name << " @ " << r.threads
       << " threads / " << r.cores << " cores\n";
    if (!p.enabled) {
        os << "  (profiling disabled; run with --profile)\n";
        return;
    }
    const Ticks total = p.total();
    const double denom = total > 0 ? static_cast<double>(total) : 1.0;
    TextTable t;
    t.header({"bucket", "total", "share", "p50", "p90", "p99", "p999",
              "max"});
    for (std::size_t i = 0; i < jvm::kWaitBucketCount; ++i) {
        if (p.bucket_total[i] == 0)
            continue;
        std::vector<std::string> row = {
            jvm::waitBucketName(static_cast<jvm::WaitBucket>(i)),
            formatTicks(p.bucket_total[i]),
            formatPercent(static_cast<double>(p.bucket_total[i]) / denom)};
        for (auto &cell : quantileCells(p.bucket_hist[i]))
            row.push_back(std::move(cell));
        t.row(std::move(row));
    }
    {
        std::vector<std::string> row = {"task wall", formatTicks(total),
                                        formatPercent(total > 0 ? 1.0
                                                                : 0.0)};
        for (auto &cell : quantileCells(p.latency))
            row.push_back(std::move(cell));
        t.row(std::move(row));
    }
    t.print(os);
    os << "  tasks " << p.tasks << " (" << p.tasks_discarded
       << " discarded), dominant wait: "
       << jvm::waitBucketName(p.dominantWait()) << "\n";

    if (!p.slowest.empty()) {
        os << "slowest tasks:\n";
        TextTable st;
        st.header({"task", "thread", "wall", "cpu", "dominant wait",
                   "wait share"});
        for (const jvm::SlowTaskRecord &rec : p.slowest) {
            std::size_t worst = 1;
            for (std::size_t i = 1; i < jvm::kWaitBucketCount; ++i) {
                if (rec.buckets[i] > rec.buckets[worst])
                    worst = i;
            }
            const Ticks wall = rec.wall();
            st.row({std::to_string(rec.task),
                    std::to_string(rec.thread), formatTicks(wall),
                    formatTicks(rec.buckets[0]),
                    jvm::waitBucketName(
                        static_cast<jvm::WaitBucket>(worst)),
                    formatPercent(
                        wall > 0 ? static_cast<double>(wall -
                                                       rec.buckets[0]) /
                                       static_cast<double>(wall)
                                 : 0.0)});
        }
        st.print(os);
    }

    if (!p.lock_waits.empty()) {
        os << "hottest monitors (by task lock-wait):\n";
        TextTable lt;
        lt.header({"monitor", "wait", "blocks"});
        for (const jvm::MonitorWaitTotal &m : p.lock_waits) {
            lt.row({std::to_string(m.monitor), formatTicks(m.wait),
                    std::to_string(m.blocks)});
        }
        lt.print(os);
    }
}

void
writeBlameCsv(std::ostream &os, const jvm::RunResult &r)
{
    const jvm::ProfileSummary &p = r.profile;
    const Ticks total = p.total();
    const double denom = total > 0 ? static_cast<double>(total) : 1.0;
    os << "app,threads,bucket,total_ns,share,tasks,p50_ns,p90_ns,p99_ns,"
          "p999_ns,max_ns\n";
    const auto emit = [&](const char *name, Ticks bucket_total,
                          const stats::LatencyHistogram &h,
                          double share) {
        os << r.app_name << "," << r.threads << "," << name << ","
           << bucket_total << "," << formatFixed(share, 6) << ","
           << h.count() << "," << h.quantile(0.50) << ","
           << h.quantile(0.90) << "," << h.quantile(0.99) << ","
           << h.quantile(0.999) << "," << h.max() << "\n";
    };
    for (std::size_t i = 0; i < jvm::kWaitBucketCount; ++i) {
        emit(jvm::waitBucketName(static_cast<jvm::WaitBucket>(i)),
             p.bucket_total[i], p.bucket_hist[i],
             static_cast<double>(p.bucket_total[i]) / denom);
    }
    emit("task-wall", total, p.latency, total > 0 ? 1.0 : 0.0);
}

void
writeProfileHistogramCsv(std::ostream &os, const jvm::RunResult &r)
{
    const jvm::ProfileSummary &p = r.profile;
    os << "app,threads,histogram,bucket_index,lower_edge_ns,count\n";
    const auto emit = [&](const char *name,
                          const stats::LatencyHistogram &h) {
        for (std::size_t i = 0; i < stats::LatencyHistogram::kBuckets;
             ++i) {
            if (h.bucket(i) == 0)
                continue;
            os << r.app_name << "," << r.threads << "," << name << ","
               << i << "," << stats::LatencyHistogram::bucketLowerEdge(i)
               << "," << h.bucket(i) << "\n";
        }
    };
    emit("task-wall", p.latency);
    for (std::size_t i = 0; i < jvm::kWaitBucketCount; ++i) {
        emit(jvm::waitBucketName(static_cast<jvm::WaitBucket>(i)),
             p.bucket_hist[i]);
    }
}

void
printTrafficTable(std::ostream &os,
                  const std::vector<jvm::RunResult> &runs)
{
    os << "open-loop traffic: per-request sojourn = queueing + "
          "attributed service\n";
    TextTable t;
    t.header({"app", "tenant", "threads", "arrivals", "shed", "done",
              "maxq", "p50", "p99", "p999", "queue p99", "svc p99"});
    for (const jvm::RunResult &r : runs) {
        if (!r.traffic.enabled)
            continue;
        const jvm::TrafficSummary &s = r.traffic;
        t.row({r.app_name, std::to_string(s.tenant),
               std::to_string(r.threads), std::to_string(s.arrivals),
               std::to_string(s.shed), std::to_string(s.completed),
               std::to_string(s.max_queue_depth),
               formatTicks(s.sojourn.quantile(0.50)),
               formatTicks(s.sojourn.quantile(0.99)),
               formatTicks(s.sojourn.quantile(0.999)),
               formatTicks(s.queueing.quantile(0.99)),
               formatTicks(s.service.quantile(0.99))});
    }
    t.print(os);

    os << "\nservice-time decomposition (share of attributed service)\n";
    TextTable d;
    d.header({"app", "tenant", "arrival spec", "cpu", "runq", "ttsp",
              "gc-stw", "lock", "channel", "governor"});
    const auto share = [](const jvm::TrafficSummary &s,
                          jvm::WaitBucket b) {
        const Ticks total = s.serviceBucketTotal();
        if (total == 0)
            return std::string("-");
        const double v =
            100.0 *
            static_cast<double>(
                s.service_bucket_total[static_cast<std::size_t>(b)]) /
            static_cast<double>(total);
        std::ostringstream str;
        str.setf(std::ios::fixed);
        str.precision(1);
        str << v << "%";
        return str.str();
    };
    for (const jvm::RunResult &r : runs) {
        if (!r.traffic.enabled)
            continue;
        const jvm::TrafficSummary &s = r.traffic;
        d.row({r.app_name, std::to_string(s.tenant), s.arrival_spec,
               share(s, jvm::WaitBucket::Cpu),
               share(s, jvm::WaitBucket::RunQueue),
               share(s, jvm::WaitBucket::Ttsp),
               share(s, jvm::WaitBucket::GcStw),
               share(s, jvm::WaitBucket::Lock),
               share(s, jvm::WaitBucket::Channel),
               share(s, jvm::WaitBucket::Governor)});
    }
    d.print(os);
}

void
writeTrafficCsv(std::ostream &os,
                const std::vector<jvm::RunResult> &runs)
{
    os << "app,tenant,threads,arrival_spec,arrivals,admitted,shed,"
          "dispatched,completed,max_queue_depth,sojourn_p50_ns,"
          "sojourn_p99_ns,sojourn_p999_ns,queueing_p99_ns,"
          "service_p99_ns";
    for (std::size_t i = 0; i < jvm::kWaitBucketCount; ++i) {
        os << ",svc_"
           << jvm::waitBucketName(static_cast<jvm::WaitBucket>(i))
           << "_ns";
    }
    os << "\n";
    for (const jvm::RunResult &r : runs) {
        if (!r.traffic.enabled)
            continue;
        const jvm::TrafficSummary &s = r.traffic;
        os << r.app_name << "," << s.tenant << "," << r.threads << ","
           << s.arrival_spec << "," << s.arrivals << "," << s.admitted
           << "," << s.shed << "," << s.dispatched << "," << s.completed
           << "," << s.max_queue_depth << ","
           << s.sojourn.quantile(0.50) << "," << s.sojourn.quantile(0.99)
           << "," << s.sojourn.quantile(0.999) << ","
           << s.queueing.quantile(0.99) << ","
           << s.service.quantile(0.99);
        for (std::size_t i = 0; i < jvm::kWaitBucketCount; ++i)
            os << "," << s.service_bucket_total[i];
        os << "\n";
    }
}

void
printRunSummary(std::ostream &os, const jvm::RunResult &r)
{
    os << "== " << r.app_name << " @ " << r.threads << " threads / "
       << r.cores << " cores, heap " << formatBytes(r.heap_capacity)
       << " ==\n";
    TextTable t;
    t.header({"metric", "value"});
    t.align(1, TextTable::Align::Right);
    t.row({"wall time", formatTicks(r.wall_time)});
    t.row({"mutator time", formatTicks(r.mutatorTime())});
    t.row({"gc time", formatTicks(r.gc_time)});
    t.row({"gc share", formatPercent(ScalabilityAnalyzer::gcShare(r))});
    t.row({"minor / full GCs", std::to_string(r.gc.minor_count) + " / " +
                                   std::to_string(r.gc.full_count)});
    t.row({"objects allocated", std::to_string(r.heap.objects_allocated)});
    t.row({"bytes allocated", formatBytes(r.heap.bytes_allocated)});
    t.row({"peak live", formatBytes(r.heap.peak_live_bytes)});
    t.row({"nursery survival",
           formatPercent(r.gc.nursery_survival.mean())});
    t.row({"lock acquisitions", std::to_string(r.locks.acquisitions)});
    t.row({"lock contentions", std::to_string(r.locks.contentions)});
    t.row({"tasks completed", std::to_string(r.total_tasks)});
    t.row({"effective workers",
           std::to_string(ScalabilityAnalyzer::effectiveWorkers(r))});
    t.row({"lifespan < 1 KiB",
           formatPercent(r.heap.lifespan.fractionBelow(1024))});
    t.row({"lock block time", formatTicks(r.locks.block_time)});
    t.row({"ttsp total", formatTicks(r.gc.total_ttsp)});
    t.row({"ctx switches", std::to_string(r.sched.context_switches)});
    t.row({"migrations", std::to_string(r.sched.migrations)});
    t.row({"preemptions", std::to_string(r.sched.preemptions)});
    t.row({"sched overhead", formatTicks(r.sched.overhead_ticks)});
    if (r.governor.enabled) {
        t.row({"governor policy", r.governor.policy});
        t.row({"governor target",
               std::to_string(r.governor.final_target) + " (seen " +
                   std::to_string(r.governor.min_target) + "-" +
                   std::to_string(r.governor.max_target) + ")"});
        t.row({"admission parks",
               std::to_string(r.governor.parks) + " / " +
                   std::to_string(r.governor.unparks) + " unparks"});
    }
    if (r.faults.any()) {
        t.row({"fault injections",
               std::to_string(r.faults.injections) + " (" +
                   std::to_string(r.faults.recoveries) + " recovered)"});
        t.row({"cores offlined",
               std::to_string(r.faults.cores_offlined) + " / " +
                   std::to_string(r.faults.cores_onlined) +
                   " re-onlined"});
        t.row({"mutators killed",
               std::to_string(r.faults.mutators_killed) + " (" +
                   std::to_string(r.faults.tasks_reassigned) +
                   " tasks reassigned)"});
        t.row({"mutators stalled",
               std::to_string(r.faults.mutators_stalled)});
        t.row({"lock holders preempted",
               std::to_string(r.faults.lock_holders_preempted)});
        t.row({"heap spikes", std::to_string(r.faults.heap_spikes)});
        t.row({"gc worker losses",
               std::to_string(r.faults.gc_worker_losses)});
    }
    if (r.profile.enabled) {
        t.row({"profiled tasks",
               std::to_string(r.profile.tasks) + " (" +
                   std::to_string(r.profile.tasks_discarded) +
                   " discarded)"});
        t.row({"dominant wait",
               jvm::waitBucketName(r.profile.dominantWait())});
        t.row({"task wall p50 / p99",
               formatTicks(r.profile.latency.quantile(0.5)) + " / " +
                   formatTicks(r.profile.latency.quantile(0.99))});
    }
    for (const auto &err : r.artifact_errors)
        t.row({"artifact error", err});
    t.row({"sim events", std::to_string(r.sim_events)});
    t.print(os);
}

} // namespace jscale::core
