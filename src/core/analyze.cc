#include "core/analyze.hh"

#include <algorithm>
#include <cmath>

#include "base/logging.hh"

namespace jscale::core {

double
ScalabilityAnalyzer::speedup(const jvm::RunResult &base,
                             const jvm::RunResult &r)
{
    jscale_assert(r.wall_time > 0, "run with zero wall time");
    return static_cast<double>(base.wall_time) /
           static_cast<double>(r.wall_time);
}

double
ScalabilityAnalyzer::mutatorSpeedup(const jvm::RunResult &base,
                                    const jvm::RunResult &r)
{
    jscale_assert(r.mutatorTime() > 0, "run with zero mutator time");
    return static_cast<double>(base.mutatorTime()) /
           static_cast<double>(r.mutatorTime());
}

bool
ScalabilityAnalyzer::isScalable(const std::vector<jvm::RunResult> &sweep,
                                double threshold)
{
    jscale_assert(sweep.size() >= 2, "need at least two sweep points");
    if (speedup(sweep.front(), sweep.back()) < threshold)
        return false;
    // The paper's criterion: execution time keeps dropping as threads
    // and cores are added. The largest setting must (approximately) be
    // the best one, not a rebound past an earlier optimum.
    Ticks best = sweep.front().wall_time;
    for (const auto &r : sweep)
        best = std::min(best, r.wall_time);
    return static_cast<double>(sweep.back().wall_time) <=
           1.05 * static_cast<double>(best);
}

namespace {

std::vector<std::uint64_t>
mutatorTaskCounts(const jvm::RunResult &r)
{
    std::vector<std::uint64_t> tasks;
    for (const auto &ts : r.thread_summaries) {
        if (ts.kind == os::ThreadKind::Mutator)
            tasks.push_back(ts.tasks_completed);
    }
    return tasks;
}

} // namespace

std::uint32_t
ScalabilityAnalyzer::effectiveWorkers(const jvm::RunResult &r,
                                      double coverage)
{
    auto tasks = mutatorTaskCounts(r);
    std::sort(tasks.begin(), tasks.end(), std::greater<>());
    std::uint64_t total = 0;
    for (const auto t : tasks)
        total += t;
    if (total == 0)
        return 0;
    std::uint64_t acc = 0;
    std::uint32_t n = 0;
    for (const auto t : tasks) {
        acc += t;
        ++n;
        if (static_cast<double>(acc) >=
            coverage * static_cast<double>(total)) {
            break;
        }
    }
    return n;
}

double
ScalabilityAnalyzer::topThreadShare(const jvm::RunResult &r)
{
    const auto tasks = mutatorTaskCounts(r);
    std::uint64_t total = 0;
    std::uint64_t top = 0;
    for (const auto t : tasks) {
        total += t;
        top = std::max(top, t);
    }
    return total == 0 ? 0.0
                      : static_cast<double>(top) /
                            static_cast<double>(total);
}

double
ScalabilityAnalyzer::taskDistributionCv(const jvm::RunResult &r)
{
    const auto tasks = mutatorTaskCounts(r);
    if (tasks.empty())
        return 0.0;
    double mean = 0.0;
    for (const auto t : tasks)
        mean += static_cast<double>(t);
    mean /= static_cast<double>(tasks.size());
    if (mean == 0.0)
        return 0.0;
    double var = 0.0;
    for (const auto t : tasks) {
        const double d = static_cast<double>(t) - mean;
        var += d * d;
    }
    var /= static_cast<double>(tasks.size());
    return std::sqrt(var) / mean;
}

double
ScalabilityAnalyzer::gcShare(const jvm::RunResult &r)
{
    return r.wall_time == 0 ? 0.0
                            : static_cast<double>(r.gc_time) /
                                  static_cast<double>(r.wall_time);
}

double
ScalabilityAnalyzer::throughput(const jvm::RunResult &r)
{
    if (r.wall_time == 0)
        return 0.0;
    return static_cast<double>(r.total_tasks) /
           (static_cast<double>(r.wall_time) /
            static_cast<double>(units::SEC));
}

control::UslFit
ScalabilityAnalyzer::uslFit(const std::vector<jvm::RunResult> &sweep)
{
    std::vector<control::UslPoint> pts;
    pts.reserve(sweep.size());
    if (sweep.empty())
        return control::UslModel::fit(pts);
    const jvm::RunResult &base = sweep.front();
    const double base_n = static_cast<double>(base.threads);
    for (const auto &r : sweep) {
        // Normalize thread counts to the base point so sweeps that do
        // not start at one thread still fit a relative curve.
        pts.push_back({static_cast<double>(r.threads) / base_n,
                       speedup(base, r)});
    }
    return control::UslModel::fit(pts);
}

std::uint32_t
ScalabilityAnalyzer::observedKnee(const std::vector<jvm::RunResult> &sweep)
{
    std::uint32_t knee = 0;
    Ticks best = 0;
    for (const auto &r : sweep) {
        if (knee == 0 || r.wall_time < best) {
            knee = r.threads;
            best = r.wall_time;
        }
    }
    return knee;
}

double
ScalabilityAnalyzer::lifespanFractionBelow(const jvm::RunResult &r,
                                           Bytes threshold)
{
    return r.heap.lifespan.fractionBelow(threshold);
}

ScalabilityAnalyzer::Confidence
ScalabilityAnalyzer::confidence(const std::vector<double> &samples)
{
    Confidence c;
    c.n = samples.size();
    if (c.n == 0)
        return c;
    double sum = 0.0;
    for (const double s : samples)
        sum += s;
    c.mean = sum / static_cast<double>(c.n);
    if (c.n < 2)
        return c;
    double var = 0.0;
    for (const double s : samples)
        var += (s - c.mean) * (s - c.mean);
    var /= static_cast<double>(c.n - 1);
    c.stddev = std::sqrt(var);
    c.ci95 = 1.96 * c.stddev / std::sqrt(static_cast<double>(c.n));
    return c;
}

ScalabilityAnalyzer::Confidence
ScalabilityAnalyzer::wallTimeConfidence(
    const std::vector<jvm::RunResult> &replicas)
{
    std::vector<double> walls;
    walls.reserve(replicas.size());
    for (const auto &r : replicas)
        walls.push_back(static_cast<double>(r.wall_time));
    return confidence(walls);
}

} // namespace jscale::core
