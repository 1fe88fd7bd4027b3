#include "core/traffic_study.hh"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "base/logging.hh"
#include "base/output.hh"
#include "control/governor.hh"
#include "core/report.hh"

namespace jscale::core {

namespace {

/** Canonical fixed-point rate rendering, shared by spec and report. */
std::string
formatRate(double rate)
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(2) << rate;
    return os.str();
}

/** The poisson arrival spec for one rung. */
std::string
rungSpec(double rate, std::uint64_t requests)
{
    return "poisson:rate=" + formatRate(rate) +
           ":requests=" + std::to_string(requests);
}

Ticks
p99(const jvm::RunResult &r)
{
    return r.traffic.sojourn.quantile(0.99);
}

/** Dominant service bucket of one traffic summary. */
std::string
dominantServiceBucket(const jvm::TrafficSummary &t)
{
    std::size_t best = 0;
    for (std::size_t i = 1; i < jvm::kWaitBucketCount; ++i) {
        if (t.service_bucket_total[i] > t.service_bucket_total[best])
            best = i;
    }
    return jvm::waitBucketName(static_cast<jvm::WaitBucket>(best));
}

/** @p cfg as an arm of its own, its artifacts tagged @p tag. */
ArmConfig
taggedArm(ExperimentConfig cfg, const std::string &tag)
{
    tagArtifactPaths(cfg, tag);
    return std::make_shared<const ExperimentConfig>(std::move(cfg));
}

} // namespace

TrafficStudy
runTrafficStudy(const TrafficStudyConfig &config)
{
    jscale_assert(!config.apps.empty(), "study needs apps");
    jscale_assert(!config.threads.empty(), "study needs thread counts");
    jscale_assert(!config.load_factors.empty(), "study needs a ladder");

    // One runner for every arm: it calibrates each app's heap once.
    ExperimentRunner runner(config.base);

    ExperimentConfig closed_cfg = config.base;
    closed_cfg.arrivals.clear();
    const ArmConfig closed = taggedArm(closed_cfg, "closed");

    ExperimentConfig open_cfg = config.base;
    open_cfg.governor.mode = control::GovernorMode::Off;
    open_cfg.biased_scheduling = false;
    ExperimentConfig gov_cfg = open_cfg;
    gov_cfg.governor.mode = control::GovernorMode::HillClimb;
    ExperimentConfig bias_cfg = open_cfg;
    bias_cfg.biased_scheduling = true;

    // The remedy arms run the top two rungs — where the tail is sick
    // enough for admission control to matter.
    std::vector<double> top_rungs(config.load_factors);
    std::sort(top_rungs.begin(), top_rungs.end());
    if (top_rungs.size() > 2)
        top_rungs.erase(top_rungs.begin(), top_rungs.end() - 2);

    // Batch 1. Closed-loop capacity of every cell: the service rate at
    // its thread count with the task pool always full.
    TrafficStudy study;
    std::vector<CampaignPoint> cap_runs;
    for (const std::string &app : config.apps) {
        for (const std::uint32_t threads : config.threads) {
            if (threads > config.base.machine.totalCores())
                continue;
            study.capacities.push_back({app, threads, 0.0});
            cap_runs.push_back({app, threads, closed});
        }
    }
    const std::vector<jvm::RunResult> cap_results =
        runner.runPoints(cap_runs);

    // Batch 2. The offered-load ladder and the remedy arms of every
    // cell with a capacity, in (cell, arm, ascending load) order: each
    // cell's open rungs lead its points.
    std::vector<CampaignPoint> runs;
    for (std::size_t c = 0; c < study.capacities.size(); ++c) {
        TrafficCapacity &cap = study.capacities[c];
        const jvm::RunResult &cap_run = cap_results[c];
        if (!cap_run.failed() && cap_run.wall_time > 0) {
            cap.rate = static_cast<double>(cap_run.total_tasks) *
                       static_cast<double>(units::SEC) /
                       static_cast<double>(cap_run.wall_time);
        }
        if (cap.rate <= 0.0) {
            inform("traffic study: no capacity for ", cap.app, " t",
                   cap.threads, ", skipping cell");
            continue;
        }
        inform("traffic study: ", cap.app, " t", cap.threads, " capacity ",
               formatRate(cap.rate), " req/s");

        const auto add = [&](const char *arm, ExperimentConfig cfg,
                             double factor) {
            const double rate = factor * cap.rate;
            cfg.arrivals = rungSpec(rate, config.requests);
            study.points.push_back(
                {cap.app, cap.threads, factor, rate, arm, {}});
            runs.push_back(
                {cap.app, cap.threads,
                 taggedArm(std::move(cfg),
                           std::string(arm) + "-" + formatRate(factor))});
        };
        for (const double factor : config.load_factors)
            add("open", open_cfg, factor);
        for (const double factor : top_rungs) {
            if (config.governed_arm)
                add("governed", gov_cfg, factor);
            if (config.biased_arm)
                add("biased", bias_cfg, factor);
        }
    }
    std::vector<jvm::RunResult> results = runner.runPoints(runs);
    for (std::size_t i = 0; i < results.size(); ++i)
        study.points[i].run = std::move(results[i]);

    // Knee detection on each ungoverned ladder: smallest rung whose p99
    // is knee_ratio x the rung below.
    const std::size_t rungs = config.load_factors.size();
    const std::size_t per_cell =
        rungs + top_rungs.size() * (std::size_t{config.governed_arm} +
                                    std::size_t{config.biased_arm});
    for (std::size_t first = 0; first < study.points.size();
         first += per_cell) {
        const TrafficPoint *ladder = &study.points[first];
        TrafficKnee knee{ladder->app, ladder->threads};
        for (std::size_t i = 1; i < rungs; ++i) {
            const jvm::RunResult &lo = ladder[i - 1].run;
            const jvm::RunResult &hi = ladder[i].run;
            if (lo.failed() || hi.failed() || p99(lo) == 0)
                continue;
            if (static_cast<double>(p99(hi)) >=
                config.knee_ratio * static_cast<double>(p99(lo))) {
                knee.knee_factor = ladder[i].load_factor;
                knee.p99_at_knee = p99(hi);
                knee.p99_below = p99(lo);
                break;
            }
        }
        study.knees.push_back(knee);
    }
    return study;
}

TextTable
trafficStudyTable(const TrafficStudy &study)
{
    std::vector<TextTable::Column> cols = {
        {"app", "app"},
        {"threads", "threads"},
        {"arm", "arm"},
        {"load", "load_factor"},
        {"req/s", "offered_rate"},
        {"status", ""},
        {"", "arrivals"},
        {"", "admitted"},
        {"shed", "shed"},
        {"", "completed"},
        {"", "max_queue_depth"},
        {"p50", "sojourn_p50_ns"},
        {"p99", "sojourn_p99_ns"},
        {"p999", "sojourn_p999_ns"},
        {"queue p99", "queueing_p99_ns"},
        {"svc p99", "service_p99_ns"},
        {"svc dominant", ""}};
    for (std::size_t i = 0; i < jvm::kWaitBucketCount; ++i) {
        cols.push_back({"", std::string("svc_") +
                                jvm::waitBucketName(
                                    static_cast<jvm::WaitBucket>(i)) +
                                "_ns"});
    }
    TextTable t(std::move(cols));
    for (const TrafficPoint &p : study.points) {
        const jvm::RunResult &r = p.run;
        const jvm::TrafficSummary &s = r.traffic;
        const bool measured = !r.failed() && s.enabled;
        std::vector<Cell> row = {
            p.app, std::to_string(p.threads), p.arm,
            formatRate(p.load_factor), formatRate(p.offered_rate),
            runStatus(r), Cell::count(s.arrivals), Cell::count(s.admitted),
            Cell::count(s.shed), Cell::count(s.completed),
            Cell::count(s.max_queue_depth),
            Cell::ticks(s.sojourn.quantile(0.50)),
            Cell::ticks(s.sojourn.quantile(0.99)),
            Cell::ticks(s.sojourn.quantile(0.999)),
            Cell::ticks(s.queueing.quantile(0.99)),
            Cell::ticks(s.service.quantile(0.99)),
            measured ? dominantServiceBucket(s) : "-"};
        for (const Ticks v : s.service_bucket_total)
            row.push_back(Cell::count(v));
        t.row(std::move(row), measured ? TextTable::RowKind::Measured
                                       : TextTable::RowKind::Unmeasured);
    }
    return t;
}

void
printTrafficStudyTable(std::ostream &os, const TrafficStudy &study)
{
    os << "E21 — open-system tail latency vs. offered load\n\n";

    os << "closed-loop capacity (the ladder's 1.0x rung)\n";
    TextTable cap;
    cap.header({"app", "threads", "capacity req/s"});
    for (const TrafficCapacity &c : study.capacities) {
        cap.row({c.app, std::to_string(c.threads),
                 c.rate > 0.0 ? formatRate(c.rate) : "-"});
    }
    cap.print(os);

    os << "\nper-request sojourn tails by offered load\n";
    trafficStudyTable(study).print(os);

    os << "\noffered-load knee (p99 growth >= ratio across one rung)\n";
    TextTable k;
    k.header({"app", "threads", "knee load", "p99 below", "p99 at knee",
              "growth"});
    for (const TrafficKnee &kn : study.knees) {
        if (kn.knee_factor == 0.0) {
            k.row({kn.app, std::to_string(kn.threads), "none", "-", "-",
                   "-"});
            continue;
        }
        std::ostringstream growth;
        growth << std::fixed << std::setprecision(1)
               << (kn.p99_below > 0
                       ? static_cast<double>(kn.p99_at_knee) /
                             static_cast<double>(kn.p99_below)
                       : 0.0)
               << "x";
        k.row({kn.app, std::to_string(kn.threads),
               formatRate(kn.knee_factor), formatTicks(kn.p99_below),
               formatTicks(kn.p99_at_knee), growth.str()});
    }
    k.print(os);
}

} // namespace jscale::core
