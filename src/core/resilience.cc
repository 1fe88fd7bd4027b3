#include "core/resilience.hh"

#include <algorithm>
#include <utility>

#include "base/logging.hh"
#include "base/output.hh"
#include "core/analyze.hh"
#include "fault/fault.hh"

namespace jscale::core {

namespace {

/** Tasks per second of simulated time (0 for failed/empty runs). */
double
throughput(const jvm::RunResult &r)
{
    if (r.wall_time == 0)
        return 0.0;
    return static_cast<double>(r.total_tasks) /
           (static_cast<double>(r.wall_time) /
            static_cast<double>(units::SEC));
}

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

std::string
armStatus(const jvm::RunResult &r)
{
    if (r.failed())
        return "failed";
    if (r.skipped)
        return "skipped";
    return "ok";
}

} // namespace

std::vector<ResiliencePoint>
runResilienceStudy(const ResilienceConfig &config)
{
    std::vector<ResiliencePoint> points;
    points.reserve(config.intensities.size());

    // Calibrate the heap once; every arm then runs with the same fixed
    // capacity, so the intensity axis is the only thing that varies.
    Bytes heap = config.base.heap_override;
    if (heap == 0) {
        ExperimentRunner calib(config.base);
        heap = static_cast<Bytes>(
            config.base.heap_factor *
            static_cast<double>(calib.minHeapRequirement(config.app)));
    }

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

    for (const double intensity : config.intensities) {
        ResiliencePoint point;
        point.intensity = intensity;

        const fault::FaultPlan plan = fault::FaultPlan::fromIntensity(
            intensity, config.base.seed, horizon);
        point.plan = plan.describe();

        for (const bool governed : {false, true}) {
            ExperimentConfig arm = config.base;
            arm.heap_override = heap;
            arm.faults = plan;
            arm.governor.mode = governed ? config.governed_mode
                                         : control::GovernorMode::Off;

            // Tag every per-arm artifact so the arms never collide.
            const std::string tag =
                "i" + formatFixed(intensity, 2) +
                (governed ? "-gov" : "-ungov");
            tagArtifactPaths(arm, tag);

            ExperimentRunner runner(std::move(arm));
            // sweep() routes through the isolated batch executor: an
            // aborted run becomes an error artifact + failed() marker
            // and the study continues.
            jvm::RunResult r =
                std::move(runner.sweep(config.app, {config.threads})[0]);
            if (governed)
                point.governed = std::move(r);
            else
                point.ungoverned = std::move(r);
        }
        inform("resilience: intensity ", formatFixed(intensity, 2),
               " done (ungoverned ", armStatus(point.ungoverned),
               ", governed ", armStatus(point.governed), ")");
        points.push_back(std::move(point));
    }
    return points;
}

void
printResilienceTable(std::ostream &os,
                     const std::vector<ResiliencePoint> &points)
{
    os << "E18 — resilience under fault injection "
          "(throughput in tasks/s of simulated time)\n";
    TextTable t;
    t.header({"intensity", "arm", "status", "wall", "tput", "gc-share",
              "lock-share", "inject", "recover", "killed", "target"});
    for (const auto &p : points) {
        for (const bool governed : {false, true}) {
            const jvm::RunResult &r =
                governed ? p.governed : p.ungoverned;
            const std::string target =
                r.governor.enabled
                    ? std::to_string(r.governor.final_target)
                    : "-";
            if (r.failed()) {
                t.row({formatFixed(p.intensity, 2),
                       governed ? "gov" : "ungov", "failed", "-", "-",
                       "-", "-", "-", "-", "-", target});
                continue;
            }
            t.row({formatFixed(p.intensity, 2),
                   governed ? "gov" : "ungov", armStatus(r),
                   formatTicks(r.wall_time),
                   formatFixed(throughput(r), 1),
                   formatPercent(ScalabilityAnalyzer::gcShare(r)),
                   formatPercent(lockShare(r)),
                   std::to_string(r.faults.injections),
                   std::to_string(r.faults.recoveries),
                   std::to_string(r.faults.mutators_killed), target});
        }
    }
    t.print(os);
    for (const auto &p : points) {
        if (p.ungoverned.failed())
            os << "failed: intensity " << formatFixed(p.intensity, 2)
               << " ungoverned: " << p.ungoverned.run_error << "\n";
        if (p.governed.failed())
            os << "failed: intensity " << formatFixed(p.intensity, 2)
               << " governed: " << p.governed.run_error << "\n";
    }
}

void
writeResilienceCsv(std::ostream &os,
                   const std::vector<ResiliencePoint> &points)
{
    os << "intensity,arm,status,wall_ticks,throughput,gc_share,"
          "lock_share,injections,recoveries,cores_offlined,"
          "mutators_killed,tasks_reassigned,gov_target\n";
    for (const auto &p : points) {
        for (const bool governed : {false, true}) {
            const jvm::RunResult &r =
                governed ? p.governed : p.ungoverned;
            os << formatFixed(p.intensity, 2) << ','
               << (governed ? "gov" : "ungov") << ',' << armStatus(r)
               << ',' << r.wall_time << ','
               << formatFixed(throughput(r), 3) << ','
               << formatFixed(ScalabilityAnalyzer::gcShare(r), 4) << ','
               << formatFixed(lockShare(r), 4) << ','
               << r.faults.injections << ',' << r.faults.recoveries
               << ',' << r.faults.cores_offlined << ','
               << r.faults.mutators_killed << ','
               << r.faults.tasks_reassigned << ','
               << (r.governor.enabled
                       ? std::to_string(r.governor.final_target)
                       : std::string("-"))
               << '\n';
        }
    }
}

} // namespace jscale::core
