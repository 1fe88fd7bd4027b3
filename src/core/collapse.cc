#include "core/collapse.hh"

#include <algorithm>
#include <utility>

#include "base/logging.hh"
#include "base/output.hh"

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

/** Average distinct-recent-owner count per contended handoff. */
double
circulation(const jvm::RunResult &r)
{
    if (r.locks.handoffs == 0)
        return 0.0;
    return static_cast<double>(r.locks.circulation_sum) /
           static_cast<double>(r.locks.handoffs);
}

std::string
armName(const CollapseArm &arm)
{
    std::string name = jvm::lockPolicyName(arm.policy);
    if (arm.governed)
        name += "+gov";
    return name;
}

std::string
pointStatus(const jvm::RunResult &r)
{
    if (r.failed())
        return "failed";
    if (r.skipped)
        return "skipped";
    return "ok";
}

} // namespace

CollapseStudy
runCollapseStudy(const CollapseConfig &config)
{
    CollapseStudy study;
    study.threads = config.threads;
    if (study.threads.empty()) {
        ExperimentRunner ladder(config.base);
        study.threads = ladder.paperThreadCounts();
    }

    // A costless handoff cannot collapse; zero-cost base configs get
    // the study's coherence cost model.
    jvm::LockPolicyConfig locks = config.base.vm.locks;
    if (locks.handoff_base == 0 && locks.coherence_cost == 0) {
        locks.handoff_base = 250;
        locks.coherence_cost = 500;
    }

    // Calibrate the heap once; every arm then runs with the same fixed
    // capacity, so policy is the only thing that varies between arms.
    Bytes heap = config.base.heap_override;
    if (heap == 0) {
        ExperimentRunner calib(config.base);
        heap = static_cast<Bytes>(
            config.base.heap_factor *
            static_cast<double>(calib.minHeapRequirement(config.app)));
    }

    for (const jvm::LockPolicy policy : config.policies) {
        for (const bool governed :
             config.governed_arms
                 ? std::vector<bool>{false, true}
                 : std::vector<bool>{false}) {
            CollapseArm arm;
            arm.policy = policy;
            arm.governed = governed;

            ExperimentConfig run_cfg = config.base;
            run_cfg.heap_override = heap;
            run_cfg.vm.locks = locks;
            run_cfg.vm.locks.policy = policy;
            if (governed)
                run_cfg.governor.mode = control::GovernorMode::HillClimb;

            // Tag per-arm artifacts so the arms never collide.
            const std::string tag = armName(arm);
            tagArtifactPaths(run_cfg, tag);

            ExperimentRunner runner(std::move(run_cfg));
            // sweep() routes through the isolated batch executor: an
            // aborted point becomes an error artifact + failed()
            // marker and the study continues.
            arm.runs = runner.sweep(config.app, study.threads);

            std::size_t ok = 0;
            for (const jvm::RunResult &r : arm.runs)
                ok += r.failed() ? 0 : 1;
            inform("collapse: arm ", tag, " done (", ok, "/",
                   arm.runs.size(), " points ok)");
            study.arms.push_back(std::move(arm));
        }
    }
    return study;
}

CollapseSummary
summarizeCollapseArm(const CollapseStudy &study, const CollapseArm &arm)
{
    CollapseSummary s;
    for (std::size_t i = 0; i < arm.runs.size(); ++i) {
        const jvm::RunResult &r = arm.runs[i];
        if (r.failed())
            continue;
        const double tput = throughput(r);
        if (tput > s.peak_throughput) {
            s.peak_throughput = tput;
            s.peak_threads = study.threads[i];
        }
        s.max_threads_throughput = tput; // last non-failed point
    }
    if (s.peak_throughput > 0.0)
        s.retention = s.max_threads_throughput / s.peak_throughput;
    return s;
}

void
printCollapseTable(std::ostream &os, const CollapseStudy &study)
{
    os << "E19 — scalability collapse by admission policy "
          "(throughput in ops/s of simulated time)\n";
    TextTable t;
    t.header({"policy", "threads", "status", "wall", "tput", "circ",
              "barged", "passiv", "react", "penalty", "blk-p99",
              "target"});
    for (const CollapseArm &arm : study.arms) {
        for (std::size_t i = 0; i < arm.runs.size(); ++i) {
            const jvm::RunResult &r = arm.runs[i];
            const std::string target =
                r.governor.enabled
                    ? std::to_string(r.governor.final_target)
                    : "-";
            if (r.failed()) {
                t.row({armName(arm), std::to_string(study.threads[i]),
                       "failed", "-", "-", "-", "-", "-", "-", "-", "-",
                       target});
                continue;
            }
            t.row({armName(arm), std::to_string(study.threads[i]),
                   pointStatus(r), formatTicks(r.wall_time),
                   formatFixed(throughput(r), 1),
                   formatFixed(circulation(r), 2),
                   std::to_string(r.locks.barged_grants),
                   std::to_string(r.locks.waiters_passivated),
                   std::to_string(r.locks.waiters_reactivated),
                   formatTicks(r.locks.coherence_penalty),
                   formatTicks(r.locks.block_hist.quantile(0.99)),
                   target});
        }
    }
    t.print(os);

    os << "\narm summaries (retention = throughput at max threads / "
          "peak):\n";
    TextTable s;
    s.header({"policy", "peak-tput", "peak-T", "maxT-tput", "retention"});
    for (const CollapseArm &arm : study.arms) {
        const CollapseSummary sum = summarizeCollapseArm(study, arm);
        s.row({armName(arm), formatFixed(sum.peak_throughput, 1),
               std::to_string(sum.peak_threads),
               formatFixed(sum.max_threads_throughput, 1),
               formatPercent(sum.retention)});
    }
    s.print(os);
    for (const CollapseArm &arm : study.arms) {
        for (std::size_t i = 0; i < arm.runs.size(); ++i) {
            if (arm.runs[i].failed())
                os << "failed: " << armName(arm) << " t"
                   << study.threads[i] << ": " << arm.runs[i].run_error
                   << "\n";
        }
    }
}

void
writeCollapseCsv(std::ostream &os, const CollapseStudy &study)
{
    os << "policy,governed,threads,status,wall_ticks,throughput,"
          "handoffs,barged_grants,waiters_passivated,"
          "waiters_reactivated,circulation_avg,coherence_penalty_ticks,"
          "block_p50_ticks,block_p99_ticks,gov_target\n";
    for (const CollapseArm &arm : study.arms) {
        for (std::size_t i = 0; i < arm.runs.size(); ++i) {
            const jvm::RunResult &r = arm.runs[i];
            os << jvm::lockPolicyName(arm.policy) << ','
               << (arm.governed ? 1 : 0) << ',' << study.threads[i]
               << ',' << pointStatus(r) << ',' << r.wall_time << ','
               << formatFixed(throughput(r), 3) << ','
               << r.locks.handoffs << ',' << r.locks.barged_grants
               << ',' << r.locks.waiters_passivated << ','
               << r.locks.waiters_reactivated << ','
               << formatFixed(circulation(r), 3) << ','
               << r.locks.coherence_penalty << ','
               << r.locks.block_hist.quantile(0.50) << ','
               << r.locks.block_hist.quantile(0.99) << ','
               << (r.governor.enabled
                       ? std::to_string(r.governor.final_target)
                       : std::string("-"))
               << '\n';
        }
    }
}

} // namespace jscale::core
