#include "core/collapse.hh"

#include <algorithm>
#include <utility>

#include "base/logging.hh"
#include "base/output.hh"
#include "core/analyze.hh"
#include "core/report.hh"

namespace jscale::core {

namespace {

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

} // namespace

CollapseStudy
runCollapseStudy(const CollapseConfig &config)
{
    ExperimentRunner runner(config.base);
    CollapseStudy study;
    study.threads = config.threads.empty() ? runner.paperThreadCounts()
                                           : config.threads;

    // A costless handoff cannot collapse; zero-cost base configs get
    // the study's coherence cost model.
    jvm::LockPolicyConfig locks = config.base.vm.locks;
    if (locks.handoff_base == 0 && locks.coherence_cost == 0) {
        locks.handoff_base = 250;
        locks.coherence_cost = 500;
    }

    // Calibrate the heap once; every arm then runs with the same fixed
    // capacity, so policy is the only thing that varies between arms.
    const Bytes heap = runner.heapCapacity(config.app);

    // Every (arm, threads) point as one batch.
    std::vector<CampaignPoint> runs;
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
            tagArtifactPaths(run_cfg, armName(arm));
            const ArmConfig shared =
                std::make_shared<const ExperimentConfig>(std::move(run_cfg));
            for (const std::uint32_t t : study.threads)
                runs.push_back({config.app, t, shared});
            study.arms.push_back(std::move(arm));
        }
    }
    // An aborted point becomes an error artifact + failed() marker and
    // the study continues.
    std::vector<jvm::RunResult> results = runner.runPoints(runs);
    std::size_t next = 0;
    for (CollapseArm &arm : study.arms) {
        for (std::size_t i = 0; i < study.threads.size(); ++i)
            arm.runs.push_back(std::move(results[next++]));
        std::size_t ok = 0;
        for (const jvm::RunResult &r : arm.runs)
            ok += r.failed() ? 0 : 1;
        inform("collapse: arm ", armName(arm), " done (", ok, "/",
               arm.runs.size(), " points ok)");
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
        const double tput = ScalabilityAnalyzer::throughput(r);
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

TextTable
collapseTable(const CollapseStudy &study)
{
    TextTable t({{"policy", "policy"}, {"", "governed"},
                 {"threads", "threads"}, {"status", "status"},
                 {"wall", "wall_ticks"}, {"tput", "throughput"}, {"circ", ""},
                 {"", "handoffs"}, {"barged", "barged_grants"},
                 {"passiv", "waiters_passivated"},
                 {"react", "waiters_reactivated"}, {"", "circulation_avg"},
                 {"penalty", "coherence_penalty_ticks"},
                 {"", "block_p50_ticks"}, {"blk-p99", "block_p99_ticks"},
                 {"target", "gov_target"}});
    for (const CollapseArm &arm : study.arms) {
        for (std::size_t i = 0; i < arm.runs.size(); ++i) {
            const jvm::RunResult &r = arm.runs[i];
            t.row({Cell::label(armName(arm), jvm::lockPolicyName(arm.policy)),
                   Cell::count(arm.governed ? 1 : 0),
                   std::to_string(study.threads[i]), runStatus(r),
                   Cell::ticks(r.wall_time),
                   Cell::fixed(ScalabilityAnalyzer::throughput(r), 1, 3),
                   Cell::fixed(circulation(r), 2, 2),
                   Cell::count(r.locks.handoffs),
                   Cell::count(r.locks.barged_grants),
                   Cell::count(r.locks.waiters_passivated),
                   Cell::count(r.locks.waiters_reactivated),
                   Cell::fixed(circulation(r), 3, 3),
                   Cell::ticks(r.locks.coherence_penalty),
                   Cell::ticks(r.locks.block_hist.quantile(0.50)),
                   Cell::ticks(r.locks.block_hist.quantile(0.99)),
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
printCollapseTable(std::ostream &os, const CollapseStudy &study)
{
    os << "E19 — scalability collapse by admission policy "
          "(throughput in ops/s of simulated time)\n";
    collapseTable(study).print(os);

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

} // namespace jscale::core
