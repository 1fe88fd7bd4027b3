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

/**
 * Run one cell through the isolated batch executor: an abort becomes
 * an error artifact plus a failed() marker, and a run cache, when
 * configured, salvages the cell instead of re-simulating it.
 */
jvm::RunResult
isolatedRun(ExperimentRunner &runner, const std::string &app,
            std::uint32_t threads)
{
    return std::move(runner.sweep(app, {threads}).front());
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

} // namespace

TrafficStudy
runTrafficStudy(const TrafficStudyConfig &config)
{
    jscale_assert(!config.apps.empty(), "study needs apps");
    jscale_assert(!config.threads.empty(), "study needs thread counts");
    jscale_assert(!config.load_factors.empty(), "study needs a ladder");

    // One runner per arm: the closed-loop capacity probe, the
    // ungoverned open loop, and the two remedy arms. Separate runners
    // keep per-arm campaign fingerprints distinct while sharing each
    // arm's heap-calibration cache across all of its rungs.
    ExperimentConfig closed_cfg = config.base;
    closed_cfg.arrivals.clear();
    ExperimentRunner closed(closed_cfg);

    ExperimentConfig open_cfg = config.base;
    open_cfg.governor.mode = control::GovernorMode::Off;
    open_cfg.biased_scheduling = false;
    ExperimentRunner open(open_cfg);

    ExperimentConfig gov_cfg = open_cfg;
    gov_cfg.governor.mode = control::GovernorMode::HillClimb;
    ExperimentRunner governed(gov_cfg);

    ExperimentConfig bias_cfg = open_cfg;
    bias_cfg.biased_scheduling = true;
    ExperimentRunner biased(bias_cfg);

    // The remedy arms run the top two rungs — where the tail is sick
    // enough for admission control to matter.
    std::vector<double> top_rungs(config.load_factors);
    std::sort(top_rungs.begin(), top_rungs.end());
    if (top_rungs.size() > 2)
        top_rungs.erase(top_rungs.begin(), top_rungs.end() - 2);

    TrafficStudy study;
    for (const std::string &app : config.apps) {
        for (const std::uint32_t threads : config.threads) {
            if (threads > config.base.machine.totalCores())
                continue;

            // 1. Closed-loop capacity: the service rate at this thread
            // count with the task pool always full.
            const jvm::RunResult cap_run =
                isolatedRun(closed, app, threads);
            TrafficCapacity cap;
            cap.app = app;
            cap.threads = threads;
            if (!cap_run.failed() && cap_run.wall_time > 0) {
                cap.rate = static_cast<double>(cap_run.total_tasks) *
                           static_cast<double>(units::SEC) /
                           static_cast<double>(cap_run.wall_time);
            }
            study.capacities.push_back(cap);
            if (cap.rate <= 0.0) {
                inform("traffic study: no capacity for ", app, " t",
                       threads, ", skipping cell");
                continue;
            }
            inform("traffic study: ", app, " t", threads, " capacity ",
                   formatRate(cap.rate), " req/s");

            // 2. The ungoverned offered-load ladder.
            std::vector<const TrafficPoint *> ladder;
            for (const double factor : config.load_factors) {
                const double rate = factor * cap.rate;
                open.setArrivals(rungSpec(rate, config.requests));
                TrafficPoint p;
                p.app = app;
                p.threads = threads;
                p.load_factor = factor;
                p.offered_rate = rate;
                p.arm = "open";
                p.run = isolatedRun(open, app, threads);
                study.points.push_back(std::move(p));
            }
            for (const TrafficPoint &p : study.points) {
                if (p.app == app && p.threads == threads &&
                    p.arm == "open") {
                    ladder.push_back(&p);
                }
            }

            // 3. Knee detection on the ungoverned ladder: smallest rung
            // whose p99 is knee_ratio x the rung below.
            TrafficKnee knee;
            knee.app = app;
            knee.threads = threads;
            for (std::size_t i = 1; i < ladder.size(); ++i) {
                const jvm::RunResult &lo = ladder[i - 1]->run;
                const jvm::RunResult &hi = ladder[i]->run;
                if (lo.failed() || hi.failed() || p99(lo) == 0)
                    continue;
                if (static_cast<double>(p99(hi)) >=
                    config.knee_ratio * static_cast<double>(p99(lo))) {
                    knee.knee_factor = ladder[i]->load_factor;
                    knee.p99_at_knee = p99(hi);
                    knee.p99_below = p99(lo);
                    break;
                }
            }
            study.knees.push_back(knee);

            // 4. Remedy arms at the top rungs.
            for (const double factor : top_rungs) {
                const double rate = factor * cap.rate;
                const std::string spec = rungSpec(rate, config.requests);
                if (config.governed_arm) {
                    governed.setArrivals(spec);
                    TrafficPoint p;
                    p.app = app;
                    p.threads = threads;
                    p.load_factor = factor;
                    p.offered_rate = rate;
                    p.arm = "governed";
                    p.run = isolatedRun(governed, app, threads);
                    study.points.push_back(std::move(p));
                }
                if (config.biased_arm) {
                    biased.setArrivals(spec);
                    TrafficPoint p;
                    p.app = app;
                    p.threads = threads;
                    p.load_factor = factor;
                    p.offered_rate = rate;
                    p.arm = "biased";
                    p.run = isolatedRun(biased, app, threads);
                    study.points.push_back(std::move(p));
                }
            }
        }
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
