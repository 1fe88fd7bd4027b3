#include "core/blame.hh"

#include <algorithm>
#include <utility>

#include "base/logging.hh"
#include "base/output.hh"
#include "core/report.hh"

namespace jscale::core {

namespace {

/** Share of one bucket in a cell's aggregate task wall time. */
double
bucketShare(const jvm::ProfileSummary &p, jvm::WaitBucket b)
{
    const Ticks total = p.total();
    if (total == 0)
        return 0.0;
    return static_cast<double>(
               p.bucket_total[static_cast<std::size_t>(b)]) /
           static_cast<double>(total);
}

} // namespace

BlameStudy
runBlameStudy(const BlameConfig &config)
{
    ExperimentConfig cfg = config.base;
    cfg.profile = true;
    cfg.profile_topk = config.topk;
    ExperimentRunner runner(std::move(cfg));

    std::vector<std::uint32_t> threads = config.threads;
    if (threads.empty())
        threads = runner.paperThreadCounts();

    // One batch over the whole (app x threads) cross product, so the
    // study parallelizes across cells exactly like an E1 sweep.
    const SweepSet sweeps = runner.sweepApps(
        config.apps, threads, [](const std::string &app) {
            inform("blame study: planning ", app);
        });

    BlameStudy study;
    for (const std::string &app : config.apps) {
        const auto it = sweeps.find(app);
        jscale_assert(it != sweeps.end(), "missing sweep for ", app);
        const std::vector<jvm::RunResult> &sweep = it->second;

        // Speedup curve for the USL cross-reference, anchored at the
        // smallest measured thread count.
        std::vector<control::UslPoint> usl_points;
        const jvm::RunResult *base_run = nullptr;
        for (const jvm::RunResult &r : sweep) {
            if (!r.skipped && !r.failed() && r.wall_time > 0) {
                base_run = &r;
                break;
            }
        }
        for (const jvm::RunResult &r : sweep) {
            if (base_run != nullptr && !r.skipped && !r.failed() &&
                r.wall_time > 0) {
                usl_points.push_back(
                    {static_cast<double>(r.threads),
                     static_cast<double>(base_run->wall_time) /
                         static_cast<double>(r.wall_time)});
            }
        }

        BlameAppFit fit;
        fit.app = app;
        fit.usl = control::UslModel::fit(usl_points);
        for (auto rit = sweep.rbegin(); rit != sweep.rend(); ++rit) {
            if (!rit->skipped && !rit->failed() &&
                rit->profile.enabled) {
                fit.dominant = rit->profile.dominantWait();
                break;
            }
        }
        study.fits.push_back(std::move(fit));

        for (const jvm::RunResult &r : sweep) {
            BlamePoint point;
            point.app = app;
            point.threads = r.threads;
            point.run = r;
            study.points.push_back(std::move(point));
        }
    }
    return study;
}

TextTable
blameStudyTable(const BlameStudy &study)
{
    std::vector<TextTable::Column> cols = {
        {"app", "app"}, {"threads", "threads"}, {"status", "status"},
        {"", "wall_ticks"}, {"", "tasks"}};
    for (std::size_t i = 0; i < jvm::kWaitBucketCount; ++i) {
        cols.push_back({"", std::string("share_") +
                                jvm::waitBucketName(
                                    static_cast<jvm::WaitBucket>(i))});
    }
    for (const char *fold :
         {"cpu", "runq", "lock", "gc-stw", "ttsp", "alloc", "gov", "other"})
        cols.push_back({fold, ""});
    cols.insert(cols.end(), {{"dominant", "dominant"}, {"p50", "p50_ns"},
                             {"", "p90_ns"}, {"p99", "p99_ns"},
                             {"", "p999_ns"}, {"", "max_ns"},
                             {"", "usl_n_star"}});
    TextTable t(std::move(cols));

    for (const BlamePoint &p : study.points) {
        const jvm::RunResult &r = p.run;
        const jvm::ProfileSummary &prof = r.profile;
        const bool measured = !r.skipped && !r.failed() && prof.enabled;
        double n_star = 0.0;
        for (const BlameAppFit &fit : study.fits) {
            if (fit.app == p.app && fit.usl.valid) {
                n_star = fit.usl.n_star;
                break;
            }
        }
        const auto share = [&prof](jvm::WaitBucket b) {
            return bucketShare(prof, b);
        };
        std::vector<Cell> row = {p.app, std::to_string(p.threads),
                                 runStatus(r), Cell::ticks(r.wall_time),
                                 Cell::count(prof.tasks)};
        for (std::size_t i = 0; i < jvm::kWaitBucketCount; ++i)
            row.push_back(
                Cell::fixed(share(static_cast<jvm::WaitBucket>(i)), 6, 6));
        // "runq" folds pure run-queue wait with waitset/channel parks
        // and "other" collects the residual buckets.
        using B = jvm::WaitBucket;
        for (const double v :
             {share(B::Cpu),
              share(B::RunQueue) + share(B::Waitset) + share(B::Channel),
              share(B::Lock), share(B::GcStw), share(B::Ttsp),
              share(B::AllocStall), share(B::Governor),
              share(B::Stall) + share(B::Other)})
            row.push_back(Cell::share(v));
        row.insert(row.end(),
                   {measured ? jvm::waitBucketName(prof.dominantWait())
                             : "-",
                    Cell::ticks(prof.latency.quantile(0.5)),
                    Cell::ticks(prof.latency.quantile(0.9)),
                    Cell::ticks(prof.latency.quantile(0.99)),
                    Cell::ticks(prof.latency.quantile(0.999)),
                    Cell::ticks(prof.latency.max()),
                    Cell::fixed(n_star, 2, 2)});
        t.row(std::move(row), measured ? TextTable::RowKind::Measured
                                       : TextTable::RowKind::Unmeasured);
    }
    return t;
}

void
printBlameStudyTable(std::ostream &os, const BlameStudy &study)
{
    os << "E20 — blame decomposition vs. threads (shares of aggregate "
          "task wall time)\n";
    blameStudyTable(study).print(os);

    os << "USL cross-reference (E17): fitted knee vs. the wait state "
          "dominating at the largest sweep point\n";
    TextTable f;
    f.header({"app", "sigma", "kappa", "n*", "dominant wait"});
    for (const BlameAppFit &fit : study.fits) {
        f.row({fit.app,
               fit.usl.valid ? formatFixed(fit.usl.sigma, 4) : "-",
               fit.usl.valid ? formatFixed(fit.usl.kappa, 6) : "-",
               fit.usl.valid && fit.usl.n_star > 0
                   ? formatFixed(fit.usl.n_star, 1)
                   : "-",
               jvm::waitBucketName(fit.dominant)});
    }
    f.print(os);
}

} // namespace jscale::core
