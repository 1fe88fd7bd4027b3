#include "core/report.hh"

#include <algorithm>
#include <cmath>

#include "base/logging.hh"
#include "base/output.hh"
#include "core/analyze.hh"
#include "trace/trace.hh"

namespace jscale::core {

namespace {

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

using Column = TextTable::Column;
using RowKind = TextTable::RowKind;

/** E1: unmeasured points keep a text row that shows their status. */
TextTable
scalabilityTable(const SweepSet &sweeps)
{
    TextTable t({{"app", "app"}, {"threads", "threads"}, {"wall", "wall_ns"},
                 {"speedup", "speedup"}, {"mutator", "mutator_ns"},
                 {"gc", "gc_ns"}, {"gc-share", "gc_share"},
                 {"class", "scalable"}});
    // `usl --in` fits every CSV row; an unmeasured point would read as
    // zeros, so the machine-readable form carries measured points only.
    t.dropUnmeasuredFromCsv();
    for (const auto &[app, sweep] : sweeps) {
        jscale_assert(!sweep.empty(), "empty sweep for ", app);
        const auto measured = measuredRuns(sweep);
        const bool classed = measured.size() >= 2;
        const bool scalable =
            classed && ScalabilityAnalyzer::isScalable(measured);
        const Cell cls = Cell::label(
            classed ? (scalable ? "scalable" : "non-scalable") : "n/a",
            scalable ? "1" : "0");
        for (const auto &r : sweep) {
            const bool ok = !r.skipped && !r.failed();
            t.row({app, std::to_string(r.threads), Cell::ticks(r.wall_time),
                   ok ? Cell::fixed(ScalabilityAnalyzer::speedup(
                                        measured.front(), r),
                                    2, 4)
                      : Cell::missing(),
                   Cell::ticks(r.mutatorTime()), Cell::ticks(r.gc_time),
                   Cell::share(ScalabilityAnalyzer::gcShare(r)),
                   ok ? cls : Cell(runStatus(r))},
                  ok ? RowKind::Measured : RowKind::Unmeasured);
        }
    }
    return t;
}

/** E2. */
TextTable
workloadDistributionTable(const SweepSet &sweeps)
{
    TextTable t({{"app", "app"}, {"threads", "threads"}, {"tasks", "tasks"},
                 {"eff-workers", "effective_workers"},
                 {"top-share", "top_share"}, {"task-cv", "task_cv"}});
    for (const auto &[app, sweep] : sweeps) {
        for (const auto &r : sweep) {
            t.row({app, std::to_string(r.threads),
                   Cell::count(r.total_tasks),
                   Cell::count(ScalabilityAnalyzer::effectiveWorkers(r)),
                   Cell::share(ScalabilityAnalyzer::topThreadShare(r)),
                   Cell::fixed(ScalabilityAnalyzer::taskDistributionCv(r),
                               2, 4)});
        }
    }
    return t;
}

/** E3/E4: one lock counter per point, relative to the smallest sweep
 *  point in the text. */
TextTable
lockTable(const SweepSet &sweeps, bool contentions)
{
    const char *what = contentions ? "contentions" : "acquisitions";
    TextTable t({{"app", "app"}, {"threads", "threads"}, {what, what},
                 {"vs-min-threads", ""}});
    const auto value = [contentions](const jvm::RunResult &r) {
        return contentions ? r.locks.contentions : r.locks.acquisitions;
    };
    for (const auto &[app, sweep] : sweeps) {
        jscale_assert(!sweep.empty(), "empty sweep for ", app);
        const double base = std::max<double>(
            1.0, static_cast<double>(value(sweep.front())));
        for (const auto &r : sweep) {
            const std::uint64_t v = value(r);
            t.row({app, std::to_string(r.threads), Cell::count(v),
                   formatFixed(static_cast<double>(v) / base, 2) + "x"});
        }
    }
    return t;
}

/** E7: unmeasured points (a shard's skipped slice) read "-". */
TextTable
mutatorGcTable(const SweepSet &sweeps)
{
    TextTable t({{"app", "app"}, {"threads", "threads"}, {"wall", "wall_ns"},
                 {"mutator", "mutator_ns"}, {"gc", "gc_ns"},
                 {"gc-share", "gc_share"}, {"mutator-speedup", ""},
                 {"minor-gcs", "minor_gcs"}, {"full-gcs", "full_gcs"}});
    for (const auto &[app, sweep] : sweeps) {
        const auto measured = measuredRuns(sweep);
        for (const auto &r : sweep) {
            const bool ok = !r.skipped && !r.failed();
            t.row({app, std::to_string(r.threads), Cell::ticks(r.wall_time),
                   Cell::ticks(r.mutatorTime()), Cell::ticks(r.gc_time),
                   Cell::share(ScalabilityAnalyzer::gcShare(r)),
                   ok ? Cell::fixed(ScalabilityAnalyzer::mutatorSpeedup(
                                        measured.front(), r),
                                    2, 2)
                      : Cell::missing(),
                   Cell::count(r.gc.minor_count),
                   Cell::count(r.gc.full_count)},
                  ok ? RowKind::Measured : RowKind::Unmeasured);
        }
    }
    return t;
}

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
        series.push_back({app, sweepUslPoints(measuredRuns(sweep))});
    }
    return series;
}

/** E17: an unfit series keeps only its observed knee and peak. */
TextTable
uslTable(const std::vector<UslSeries> &series)
{
    TextTable t({{"app", "app"}, {"sigma", "sigma"}, {"kappa", "kappa"},
                 {"n*", "n_star"}, {"rec-threads", "recommended_threads"},
                 {"peak-pred", "predicted_peak"},
                 {"knee-obs", "observed_knee"}, {"peak-obs", "observed_peak"},
                 {"rms", "rms_residual"}, {"knee-class", "knee_class"}});
    for (const auto &s : series) {
        const UslRowData d = uslRowData(s.points);
        const control::UslFit &f = d.fit;
        const auto fitted = [&f](Cell c) {
            return f.valid ? std::move(c) : Cell::missing();
        };
        t.row({s.app, fitted(Cell::fixed(f.sigma, 4, 6)),
               fitted(Cell::fixed(f.kappa, 6, 6)),
               fitted(f.n_star > 0.0
                          ? Cell::fixed(f.n_star, 1, 2)
                          : Cell::label("-", formatFixed(f.n_star, 2))),
               fitted(Cell::count(d.rec)),
               fitted(Cell::fixed(f.peak_speedup, 2, 4)),
               Cell::fixed(d.knee, 0, 0), Cell::fixed(d.peak, 2, 4),
               fitted(Cell::fixed(f.rms_residual, 3, 4)), d.cls});
    }
    return t;
}

} // namespace

void
printScalabilityTable(std::ostream &os, const SweepSet &sweeps)
{
    os << "E1: execution time and speedup vs. threads "
          "(threads == enabled cores, heap = 3x min)\n";
    scalabilityTable(sweeps).print(os);
}

void
writeScalabilityCsv(std::ostream &os, const SweepSet &sweeps)
{
    scalabilityTable(sweeps).writeCsv(os);
}

void
printWorkloadDistributionTable(std::ostream &os, const SweepSet &sweeps)
{
    os << "E2: workload distribution across threads "
          "(effective workers cover 90% of tasks)\n";
    workloadDistributionTable(sweeps).print(os);
}

void
writeWorkloadDistributionCsv(std::ostream &os, const SweepSet &sweeps)
{
    workloadDistributionTable(sweeps).writeCsv(os);
}

void
printLockAcquisitionTable(std::ostream &os, const SweepSet &sweeps)
{
    os << "E3 (Fig. 1a): lock acquisitions vs. threads\n";
    lockTable(sweeps, false).print(os);
}

void
writeLockAcquisitionCsv(std::ostream &os, const SweepSet &sweeps)
{
    lockTable(sweeps, false).writeCsv(os);
}

void
printLockContentionTable(std::ostream &os, const SweepSet &sweeps)
{
    os << "E4 (Fig. 1b): lock contention instances vs. threads\n";
    lockTable(sweeps, true).print(os);
}

void
writeLockContentionCsv(std::ostream &os, const SweepSet &sweeps)
{
    lockTable(sweeps, true).writeCsv(os);
}

/** E5/E6 in long form (one row per run and threshold); the text shows
 *  it wide, thresholds down and thread counts across. */
TextTable
lifespanCdfTable(const std::string &app,
                 const std::vector<jvm::RunResult> &sweep)
{
    TextTable t({{"", "app"}, {"", "threads"},
                 {"lifespan <", "threshold_bytes"}, {"", "fraction_below"}});
    for (const auto &r : sweep) {
        for (const auto threshold : trace::paperLifespanThresholds()) {
            t.row({app,
                   Cell::label(std::to_string(r.threads) + "T/" +
                                   std::to_string(r.cores) + "C",
                               std::to_string(r.threads)),
                   Cell::bytes(threshold),
                   Cell::share(r.heap.lifespan.fractionBelow(threshold))});
        }
    }
    return t;
}

void
printLifespanCdfTable(std::ostream &os, const std::string &app,
                      const std::vector<jvm::RunResult> &sweep)
{
    os << "Object-lifespan CDF for " << app
       << " (fraction of objects with lifespan < threshold; lifespan = "
          "bytes allocated between birth and death)\n";
    lifespanCdfTable(app, sweep).printPivot(os, 2, 1, 3);
}

void
printMutatorGcTable(std::ostream &os, const SweepSet &sweeps)
{
    os << "E7 (Fig. 2): distribution of mutator and GC times\n";
    mutatorGcTable(sweeps).print(os);
}

void
writeMutatorGcCsv(std::ostream &os, const SweepSet &sweeps)
{
    mutatorGcTable(sweeps).writeCsv(os);
}

/** E8. */
TextTable
gcSurvivalTable(const SweepSet &sweeps)
{
    TextTable t({{"app", "app"}, {"threads", "threads"},
                 {"survival", "survival"}, {"copied", "copied_bytes"},
                 {"promoted", "promoted_bytes"}, {"minor-gcs", "minor_gcs"},
                 {"full-gcs", "full_gcs"}, {"mean-pause", "mean_pause_ns"},
                 {"ttsp", "ttsp_ns"}});
    for (const auto &[app, sweep] : sweeps) {
        for (const auto &r : sweep) {
            t.row({app, std::to_string(r.threads),
                   Cell::share(r.gc.nursery_survival.mean()),
                   Cell::bytes(r.gc.copied_bytes),
                   Cell::bytes(r.gc.promoted_bytes),
                   Cell::count(r.gc.minor_count),
                   Cell::count(r.gc.full_count),
                   Cell::meanTicks(r.gc.minor_pauses.mean()),
                   Cell::ticks(r.gc.total_ttsp)});
        }
    }
    return t;
}

void
printGcSurvivalTable(std::ostream &os, const SweepSet &sweeps)
{
    os << "E8: GC effectiveness vs. threads (nursery survival drives "
          "copy cost and promotions)\n";
    gcSurvivalTable(sweeps).print(os);
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

/** E14. */
TextTable
suspendWaitTable(const SweepSet &sweeps)
{
    TextTable t({{"app", "app"}, {"threads", "threads"},
                 {"mean-ready-wait", "mean_ready_ns"},
                 {"mean-lock-block", "mean_blocked_ns"},
                 {"suspend/cpu", "suspend_over_cpu"},
                 {"lifespan<1KiB", "lifespan_lt_1k"}});
    for (const auto &[app, sweep] : sweeps) {
        for (const auto &r : sweep) {
            // Means over the mutator threads.
            double ready = 0.0, blocked = 0.0, cpu = 0.0, n = 0.0;
            for (const auto &ts : r.thread_summaries) {
                if (ts.kind != os::ThreadKind::Mutator)
                    continue;
                ready += static_cast<double>(ts.ready_time);
                blocked += static_cast<double>(ts.blocked_time);
                cpu += static_cast<double>(ts.cpu_time);
                ++n;
            }
            if (n > 0) {
                ready /= n;
                blocked /= n;
                cpu /= n;
            }
            t.row({app, std::to_string(r.threads), Cell::meanTicks(ready),
                   Cell::meanTicks(blocked),
                   Cell::fixed(cpu > 0 ? (ready + blocked) / cpu : 0.0, 3, 4),
                   Cell::share(r.heap.lifespan.fractionBelow(1024))});
        }
    }
    return t;
}

void
printSuspendWaitTable(std::ostream &os, const SweepSet &sweeps)
{
    os << "E14: per-mutator suspend wait vs. threads (the Sec. III-B "
          "interference mechanism)\n";
    suspendWaitTable(sweeps).print(os);
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

void
printUslSeriesTable(std::ostream &os, const std::vector<UslSeries> &series)
{
    os << "E17: USL fit per app: "
          "S(n) = n / (1 + sigma*(n-1) + kappa*n*(n-1))\n";
    uslTable(series).print(os);
}

void
printUslTable(std::ostream &os, const SweepSet &sweeps)
{
    printUslSeriesTable(os, sweepUslSeries(sweeps));
}

void
writeUslCsv(std::ostream &os, const SweepSet &sweeps)
{
    uslTable(sweepUslSeries(sweeps)).writeCsv(os);
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

/**
 * Wait-state blame of one run: every bucket in the CSV (zero rows
 * included, so the row set is configuration-independent), the
 * non-empty ones in the text.
 */
TextTable
blameTable(const jvm::RunResult &r)
{
    const jvm::ProfileSummary &p = r.profile;
    const Ticks total = p.total();
    const double denom = total > 0 ? static_cast<double>(total) : 1.0;
    TextTable t({{"", "app"}, {"", "threads"}, {"bucket", "bucket"},
                 {"total", "total_ns"}, {"share", "share"}, {"", "tasks"},
                 {"p50", "p50_ns"}, {"p90", "p90_ns"}, {"p99", "p99_ns"},
                 {"p999", "p999_ns"}, {"max", "max_ns"}});
    const auto add = [&](Cell bucket, Ticks sum,
                         const stats::LatencyHistogram &h, double share,
                         RowKind kind) {
        // Tails of an empty distribution read "-" in the text.
        const auto tail = [&h](std::uint64_t v) {
            return h.count() > 0 ? Cell::ticks(v)
                                 : Cell::label("-", std::to_string(v));
        };
        t.row({r.app_name, std::to_string(r.threads), std::move(bucket),
               Cell::ticks(sum), Cell::share(share, 6), Cell::count(h.count()),
               tail(h.quantile(0.50)), tail(h.quantile(0.90)),
               tail(h.quantile(0.99)), tail(h.quantile(0.999)),
               tail(h.max())},
              kind);
    };
    for (std::size_t i = 0; i < jvm::kWaitBucketCount; ++i) {
        add(jvm::waitBucketName(static_cast<jvm::WaitBucket>(i)),
            p.bucket_total[i], p.bucket_hist[i],
            static_cast<double>(p.bucket_total[i]) / denom,
            p.bucket_total[i] == 0 ? RowKind::CsvOnly : RowKind::Measured);
    }
    add(Cell::label("task wall", "task-wall"), total, p.latency,
        total > 0 ? 1.0 : 0.0, RowKind::Measured);
    return t;
}

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
    blameTable(r).print(os);
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

TextTable
profileHistogramTable(const jvm::RunResult &r)
{
    const jvm::ProfileSummary &p = r.profile;
    TextTable t({{"", "app"}, {"", "threads"}, {"", "histogram"},
                 {"", "bucket_index"}, {"", "lower_edge_ns"}, {"", "count"}});
    const auto add = [&](const char *name,
                         const stats::LatencyHistogram &h) {
        for (std::size_t i = 0; i < stats::LatencyHistogram::kBuckets;
             ++i) {
            if (h.bucket(i) == 0)
                continue;
            t.row({r.app_name, std::to_string(r.threads), name,
                   Cell::count(i),
                   Cell::count(stats::LatencyHistogram::bucketLowerEdge(i)),
                   Cell::count(h.bucket(i))});
        }
    };
    add("task-wall", p.latency);
    for (std::size_t i = 0; i < jvm::kWaitBucketCount; ++i) {
        add(jvm::waitBucketName(static_cast<jvm::WaitBucket>(i)),
            p.bucket_hist[i]);
    }
    return t;
}

/**
 * Open-loop traffic of several runs. Text panel 0 is the arrival
 * accounting and tails, panel 1 the service-time decomposition; the
 * CSV carries both, with raw per-bucket service totals.
 */
TextTable
trafficTable(const std::vector<jvm::RunResult> &runs)
{
    std::vector<Column> cols = {{"app", "app", 3}, {"tenant", "tenant", 3},
                                {"threads", "threads"},
                                {"arrival spec", "arrival_spec", 2},
                                {"arrivals", "arrivals"}, {"", "admitted"},
                                {"shed", "shed"}, {"", "dispatched"},
                                {"done", "completed"},
                                {"maxq", "max_queue_depth"},
                                {"p50", "sojourn_p50_ns"},
                                {"p99", "sojourn_p99_ns"},
                                {"p999", "sojourn_p999_ns"},
                                {"queue p99", "queueing_p99_ns"},
                                {"svc p99", "service_p99_ns"}};
    for (std::size_t i = 0; i < jvm::kWaitBucketCount; ++i) {
        const auto b = static_cast<jvm::WaitBucket>(i);
        const std::string name = jvm::waitBucketName(b);
        // The decomposition panel leaves out the rarely-charged buckets.
        const bool shown = b != jvm::WaitBucket::Waitset &&
                           b != jvm::WaitBucket::AllocStall &&
                           b != jvm::WaitBucket::Stall &&
                           b != jvm::WaitBucket::Other;
        cols.push_back({shown ? name : "", "svc_" + name + "_ns", 2});
    }
    TextTable t(std::move(cols));
    for (const jvm::RunResult &r : runs) {
        if (!r.traffic.enabled)
            continue;
        const jvm::TrafficSummary &s = r.traffic;
        std::vector<Cell> row = {
            r.app_name, std::to_string(s.tenant), std::to_string(r.threads),
            s.arrival_spec, Cell::count(s.arrivals), Cell::count(s.admitted),
            Cell::count(s.shed), Cell::count(s.dispatched),
            Cell::count(s.completed), Cell::count(s.max_queue_depth),
            Cell::ticks(s.sojourn.quantile(0.50)),
            Cell::ticks(s.sojourn.quantile(0.99)),
            Cell::ticks(s.sojourn.quantile(0.999)),
            Cell::ticks(s.queueing.quantile(0.99)),
            Cell::ticks(s.service.quantile(0.99))};
        const Ticks svc = s.serviceBucketTotal();
        for (const Ticks v : s.service_bucket_total) {
            row.push_back(Cell::label(
                svc == 0 ? "-"
                         : formatFixed(100.0 * static_cast<double>(v) /
                                           static_cast<double>(svc),
                                       1) +
                               "%",
                std::to_string(v)));
        }
        t.row(std::move(row));
    }
    return t;
}

void
printTrafficTable(std::ostream &os,
                  const std::vector<jvm::RunResult> &runs)
{
    os << "open-loop traffic: per-request sojourn = queueing + "
          "attributed service\n";
    const TextTable t = trafficTable(runs);
    t.print(os, 0);
    os << "\nservice-time decomposition (share of attributed service)\n";
    t.print(os, 1);
}

const char *
runStatus(const jvm::RunResult &r)
{
    return r.failed() ? "failed" : r.skipped ? "skipped" : "ok";
}

void
printRunSummary(std::ostream &os, const jvm::RunResult &r)
{
    os << "== " << r.app_name << " @ " << r.threads << " threads / "
       << r.cores << " cores, heap " << formatBytes(r.heap_capacity)
       << " ==\n";
    TextTable t;
    t.header({"metric", "value"});
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
