#include "core/resilience.hh"

#include <algorithm>
#include <utility>

#include "base/logging.hh"
#include "base/output.hh"
#include "core/analyze.hh"
#include "core/report.hh"
#include "fault/fault.hh"

namespace jscale::core {

namespace {

/** Share of total thread-time spent blocked on locks. */
double
lockShare(const jvm::RunResult &r)
{
    if (r.wall_time == 0 || r.threads == 0)
        return 0.0;
    return static_cast<double>(r.locks.block_time) /
           (static_cast<double>(r.wall_time) *
            static_cast<double>(r.threads));
}

} // namespace

std::vector<ResiliencePoint>
runResilienceStudy(const ResilienceConfig &config)
{
    ExperimentRunner runner(config.base);

    // Calibrate the heap once; every arm then runs with the same fixed
    // capacity, so the intensity axis is the only thing that varies.
    const Bytes heap = runner.heapCapacity(config.app);

    // Auto-horizon: measure an unfaulted run and fire every schedule
    // within 3/4 of its wall time. A fixed default would silently land
    // the whole plan past the end of short (scaled-down) runs.
    Ticks horizon = config.horizon;
    if (horizon == 0) {
        ExperimentConfig probe_cfg = config.base;
        probe_cfg.heap_override = heap;
        probe_cfg.faults = {};
        probe_cfg.governor.mode = control::GovernorMode::Off;
        probe_cfg.timeline_path.clear();
        probe_cfg.metrics_path.clear();
        ExperimentRunner probe(std::move(probe_cfg));
        const jvm::RunResult r = probe.runApp(config.app, config.threads);
        horizon = std::max<Ticks>(1 * units::MS, r.wall_time * 3 / 4);
        inform("resilience: auto horizon ", formatTicks(horizon),
               " (3/4 of the unfaulted ", formatTicks(r.wall_time),
               " run)");
    }

    // Every (intensity, arm) run, ungoverned first, as one batch.
    std::vector<ResiliencePoint> points;
    std::vector<CampaignPoint> runs;
    for (const double intensity : config.intensities) {
        const fault::FaultPlan plan = fault::FaultPlan::fromIntensity(
            intensity, config.base.seed, horizon);
        points.push_back({intensity, plan.describe(), {}, {}});
        for (const bool governed : {false, true}) {
            ExperimentConfig arm = config.base;
            arm.heap_override = heap;
            arm.faults = plan;
            arm.governor.mode = governed ? config.governed_mode
                                         : control::GovernorMode::Off;
            // Tag every per-arm artifact so the arms never collide.
            tagArtifactPaths(arm, "i" + formatFixed(intensity, 2) +
                                      (governed ? "-gov" : "-ungov"));
            runs.push_back({config.app, config.threads,
                            std::make_shared<const ExperimentConfig>(
                                std::move(arm))});
        }
    }
    // An aborted run becomes an error artifact + failed() marker and
    // the study continues.
    std::vector<jvm::RunResult> results = runner.runPoints(runs);
    for (std::size_t i = 0; i < points.size(); ++i) {
        ResiliencePoint &point = points[i];
        point.ungoverned = std::move(results[2 * i]);
        point.governed = std::move(results[2 * i + 1]);
        inform("resilience: intensity ", formatFixed(point.intensity, 2),
               " done (ungoverned ", runStatus(point.ungoverned),
               ", governed ", runStatus(point.governed), ")");
    }
    return points;
}

TextTable
resilienceTable(const std::vector<ResiliencePoint> &points)
{
    TextTable t({{"intensity", "intensity"}, {"arm", "arm"},
                 {"status", "status"}, {"wall", "wall_ticks"},
                 {"tput", "throughput"}, {"gc-share", "gc_share"},
                 {"lock-share", "lock_share"}, {"inject", "injections"},
                 {"recover", "recoveries"}, {"", "cores_offlined"},
                 {"killed", "mutators_killed"}, {"", "tasks_reassigned"},
                 {"target", "gov_target"}});
    for (const auto &p : points) {
        for (const bool governed : {false, true}) {
            const jvm::RunResult &r =
                governed ? p.governed : p.ungoverned;
            t.row({formatFixed(p.intensity, 2), governed ? "gov" : "ungov",
                   runStatus(r), Cell::ticks(r.wall_time),
                   Cell::fixed(ScalabilityAnalyzer::throughput(r), 1, 3),
                   Cell::share(ScalabilityAnalyzer::gcShare(r)),
                   Cell::share(lockShare(r)),
                   Cell::count(r.faults.injections),
                   Cell::count(r.faults.recoveries),
                   Cell::count(r.faults.cores_offlined),
                   Cell::count(r.faults.mutators_killed),
                   Cell::count(r.faults.tasks_reassigned),
                   r.governor.enabled
                       ? std::to_string(r.governor.final_target)
                       : "-"},
                  r.failed() ? TextTable::RowKind::Unmeasured
                             : TextTable::RowKind::Measured);
        }
    }
    return t;
}

void
printResilienceTable(std::ostream &os,
                     const std::vector<ResiliencePoint> &points)
{
    os << "E18 — resilience under fault injection "
          "(throughput in tasks/s of simulated time)\n";
    resilienceTable(points).print(os);
    for (const auto &p : points) {
        if (p.ungoverned.failed())
            os << "failed: intensity " << formatFixed(p.intensity, 2)
               << " ungoverned: " << p.ungoverned.run_error << "\n";
        if (p.governed.failed())
            os << "failed: intensity " << formatFixed(p.intensity, 2)
               << " governed: " << p.governed.run_error << "\n";
    }
}

} // namespace jscale::core
