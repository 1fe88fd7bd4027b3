/**
 * @file
 * Tests for the report writers: headers, row counts and CSV structure,
 * and how every report renders points that were skipped or failed.
 */

#include <gtest/gtest.h>

#include <functional>
#include <sstream>

#include "core/blame.hh"
#include "core/collapse.hh"
#include "core/report.hh"
#include "core/resilience.hh"
#include "core/traffic_study.hh"

namespace {

using namespace jscale;
using core::SweepSet;

jvm::RunResult
fakeRun(const std::string &app, std::uint32_t threads)
{
    jvm::RunResult r;
    r.app_name = app;
    r.threads = threads;
    r.cores = threads;
    r.wall_time = 1000000 / threads + 1000;
    r.gc_time = 1000 * threads;
    r.heap_capacity = 3 * units::MiB;
    r.locks.acquisitions = 100 * threads;
    r.locks.contentions = 10 * threads;
    r.total_tasks = 400;
    r.heap.lifespan.add(100, 50);
    r.heap.lifespan.add(10000, 50);
    r.gc.minor_count = 5;
    for (std::uint32_t i = 0; i < threads; ++i) {
        jvm::ThreadSummary ts;
        ts.kind = os::ThreadKind::Mutator;
        ts.tasks_completed = 400 / threads;
        r.thread_summaries.push_back(ts);
    }
    return r;
}

SweepSet
fakeSweeps()
{
    SweepSet s;
    for (const std::string app : {"alpha", "beta"}) {
        for (const std::uint32_t t : {1u, 4u, 16u})
            s[app].push_back(fakeRun(app, t));
    }
    return s;
}

std::size_t
countLines(const std::string &s)
{
    return static_cast<std::size_t>(std::count(s.begin(), s.end(), '\n'));
}

TEST(Report, ScalabilityTableHasRowPerRun)
{
    std::ostringstream os;
    core::printScalabilityTable(os, fakeSweeps());
    // Title + header + underline + 6 rows.
    EXPECT_EQ(countLines(os.str()), 9u);
    EXPECT_NE(os.str().find("speedup"), std::string::npos);
    EXPECT_NE(os.str().find("alpha"), std::string::npos);
}

TEST(Report, ScalabilityCsvParsable)
{
    std::ostringstream os;
    core::writeScalabilityCsv(os, fakeSweeps());
    std::istringstream lines(os.str());
    std::string header;
    std::getline(lines, header);
    EXPECT_EQ(header,
              "app,threads,wall_ns,speedup,mutator_ns,gc_ns,gc_share,"
              "scalable");
    std::string line;
    std::size_t rows = 0;
    while (std::getline(lines, line))
        ++rows;
    EXPECT_EQ(rows, 6u);
}

TEST(Report, WorkloadDistributionTable)
{
    std::ostringstream os;
    core::printWorkloadDistributionTable(os, fakeSweeps());
    EXPECT_NE(os.str().find("eff-workers"), std::string::npos);
    EXPECT_EQ(countLines(os.str()), 9u);
}

TEST(Report, LockTablesTitleTheRightFigure)
{
    std::ostringstream a;
    core::printLockAcquisitionTable(a, fakeSweeps());
    EXPECT_NE(a.str().find("Fig. 1a"), std::string::npos);
    std::ostringstream b;
    core::printLockContentionTable(b, fakeSweeps());
    EXPECT_NE(b.str().find("Fig. 1b"), std::string::npos);
}

TEST(Report, LifespanCdfTableHasThresholdRows)
{
    std::ostringstream os;
    const auto sweeps = fakeSweeps();
    core::printLifespanCdfTable(os, "alpha", sweeps.at("alpha"));
    EXPECT_NE(os.str().find("1.00 KiB"), std::string::npos);
    EXPECT_NE(os.str().find("4T/4C"), std::string::npos);
}

TEST(Report, LifespanCsvHasAppColumn)
{
    std::ostringstream os;
    const auto sweeps = fakeSweeps();
    core::lifespanCdfTable("alpha", sweeps.at("alpha")).writeCsv(os);
    std::istringstream lines(os.str());
    std::string header;
    std::getline(lines, header);
    EXPECT_EQ(header, "app,threads,threshold_bytes,fraction_below");
}

TEST(Report, MutatorGcTable)
{
    std::ostringstream os;
    core::printMutatorGcTable(os, fakeSweeps());
    EXPECT_NE(os.str().find("Fig. 2"), std::string::npos);
    EXPECT_NE(os.str().find("mutator"), std::string::npos);
}

TEST(Report, SuspendWaitTableRenders)
{
    std::ostringstream os;
    core::printSuspendWaitTable(os, fakeSweeps());
    EXPECT_NE(os.str().find("suspend/cpu"), std::string::npos);
    EXPECT_EQ(countLines(os.str()), 9u);
    std::ostringstream csv;
    core::suspendWaitTable(fakeSweeps()).writeCsv(csv);
    std::istringstream lines(csv.str());
    std::string header;
    std::getline(lines, header);
    EXPECT_EQ(header,
              "app,threads,mean_ready_ns,mean_blocked_ns,"
              "suspend_over_cpu,lifespan_lt_1k");
}

TEST(Report, RunSummaryContainsKeyMetrics)
{
    std::ostringstream os;
    core::printRunSummary(os, fakeRun("gamma", 8));
    const std::string s = os.str();
    EXPECT_NE(s.find("gamma"), std::string::npos);
    EXPECT_NE(s.find("wall time"), std::string::npos);
    EXPECT_NE(s.find("gc share"), std::string::npos);
    EXPECT_NE(s.find("lock contentions"), std::string::npos);
}

/** An out-of-slice sweep point: identity only, no measurements. */
jvm::RunResult
skippedRun(const std::string &app, std::uint32_t threads)
{
    jvm::RunResult r;
    r.app_name = app;
    r.threads = threads;
    r.skipped = true;
    return r;
}

/** An aborted sweep point (the error text needs CSV quoting). */
jvm::RunResult
failedRun(const std::string &app, std::uint32_t threads)
{
    jvm::RunResult r;
    r.app_name = app;
    r.threads = threads;
    r.run_error = "aborted: \"watchdog\", no progress";
    return r;
}

/** Measured points mixed with skipped and failed ones. */
SweepSet
mixedSweeps()
{
    SweepSet s;
    s["alpha"] = {fakeRun("alpha", 1), skippedRun("alpha", 4),
                  fakeRun("alpha", 16), failedRun("alpha", 32)};
    s["beta"] = {failedRun("beta", 1), fakeRun("beta", 4),
                 skippedRun("beta", 16)};
    return s;
}

/** Split one RFC 4180 record (no embedded line breaks); false if it
 *  is malformed. */
bool
parseCsvRecord(const std::string &line, std::vector<std::string> &out)
{
    out.assign(1, "");
    bool quoted = false;
    for (std::size_t i = 0; i < line.size(); ++i) {
        const char c = line[i];
        if (quoted) {
            if (c != '"')
                out.back() += c;
            else if (i + 1 < line.size() && line[i + 1] == '"')
                out.back() += line[++i];
            else if (i + 1 == line.size() || line[i + 1] == ',')
                quoted = false;
            else
                return false;
        } else if (c == ',') {
            out.emplace_back();
        } else if (c == '"' && out.back().empty()) {
            quoted = true;
        } else if (c == '"' || c == '\r') {
            return false;
        } else {
            out.back() += c;
        }
    }
    return !quoted;
}

/** The records of @p csv (header first); each must parse and have the
 *  header's width. */
std::vector<std::vector<std::string>>
csvRecords(const std::string &csv)
{
    std::vector<std::vector<std::string>> records;
    std::istringstream lines(csv);
    std::string line;
    while (std::getline(lines, line)) {
        std::vector<std::string> cells;
        EXPECT_TRUE(parseCsvRecord(line, cells)) << line;
        if (!records.empty()) {
            EXPECT_EQ(cells.size(), records.front().size()) << line;
        }
        records.push_back(std::move(cells));
    }
    EXPECT_FALSE(records.empty());
    return records;
}

/** Whitespace-separated words of @p line. */
std::vector<std::string>
words(const std::string &line)
{
    std::istringstream in(line);
    std::vector<std::string> out;
    for (std::string w; in >> w;)
        out.push_back(w);
    return out;
}

/** The text line whose first words are those of @p key. */
std::string
textRow(const std::string &text, const std::string &key)
{
    const auto want = words(key);
    std::istringstream lines(text);
    std::string line;
    while (std::getline(lines, line)) {
        const auto have = words(line);
        if (have.size() >= want.size() &&
            std::equal(want.begin(), want.end(), have.begin()))
            return line;
    }
    ADD_FAILURE() << "no row starting '" << key << "' in\n" << text;
    return "";
}

std::size_t
countDashes(const std::string &row)
{
    const auto w = words(row);
    return static_cast<std::size_t>(std::count(w.begin(), w.end(), "-"));
}

template <class Print, class Write>
std::pair<std::string, std::vector<std::vector<std::string>>>
render(Print print, Write write)
{
    std::ostringstream text;
    std::ostringstream csv;
    print(text);
    write(csv);
    return {text.str(), csvRecords(csv.str())};
}

TEST(ReportUnmeasured, ScalabilityShowsStatusAndDropsCsvRows)
{
    const auto [text, csv] = render(
        [](std::ostream &os) { core::printScalabilityTable(os, mixedSweeps()); },
        [](std::ostream &os) { core::writeScalabilityCsv(os, mixedSweeps()); });
    EXPECT_EQ(countLines(text), 3u + 7u);
    const std::string skipped = textRow(text, "alpha 4");
    EXPECT_NE(skipped.find("skipped"), std::string::npos);
    EXPECT_EQ(countDashes(skipped), 5u);
    EXPECT_NE(textRow(text, "beta 1").find("failed"),
              std::string::npos);
    // `usl --in` fits every CSV row: only the measured points remain.
    ASSERT_EQ(csv.size(), 1u + 3u);
    EXPECT_EQ(csv[1][0] + csv[1][1], "alpha1");
    EXPECT_EQ(csv[2][0] + csv[2][1], "alpha16");
    EXPECT_EQ(csv[3][0] + csv[3][1], "beta4");
}

TEST(ReportUnmeasured, SweepTablesKeepEveryRowInBothForms)
{
    using Fn = std::function<void(std::ostream &, const SweepSet &)>;
    const auto csvOf = [](TextTable (*table)(const SweepSet &)) {
        return Fn([table](std::ostream &os, const SweepSet &s) {
            table(s).writeCsv(os);
        });
    };
    const std::vector<std::pair<Fn, Fn>> reports = {
        {core::printWorkloadDistributionTable,
         core::writeWorkloadDistributionCsv},
        {core::printLockAcquisitionTable, core::writeLockAcquisitionCsv},
        {core::printLockContentionTable, core::writeLockContentionCsv},
        {core::printMutatorGcTable, core::writeMutatorGcCsv},
        {core::printGcSurvivalTable, csvOf(core::gcSurvivalTable)},
        {core::printSuspendWaitTable, csvOf(core::suspendWaitTable)}};
    for (const auto &[print, write] : reports) {
        const auto [text, csv] = render(
            [&print](std::ostream &os) { print(os, mixedSweeps()); },
            [&write](std::ostream &os) { write(os, mixedSweeps()); });
        EXPECT_EQ(csv.size(), 1u + 7u) << text;
        EXPECT_NE(textRow(text, "alpha 4").find("alpha"),
                  std::string::npos);
    }
}

TEST(ReportUnmeasured, MutatorGcDashesUnmeasuredPoints)
{
    // The speedup base is the first measured point, so a sweep whose
    // first point was skipped (a shard's slice) still renders.
    std::ostringstream os;
    core::printMutatorGcTable(os, mixedSweeps());
    EXPECT_EQ(countDashes(textRow(os.str(), "beta 1")), 7u);
    EXPECT_NE(textRow(os.str(), "beta 4").find("1.00"),
              std::string::npos);
}

TEST(ReportUnmeasured, LifespanRendersMarkersAsColumns)
{
    const auto sweeps = mixedSweeps();
    const auto &sweep = sweeps.at("alpha");
    const auto [text, csv] = render(
        [&sweep](std::ostream &os) {
            core::printLifespanCdfTable(os, "alpha", sweep);
        },
        [&sweep](std::ostream &os) {
            core::lifespanCdfTable("alpha", sweep).writeCsv(os);
        });
    const std::size_t thresholds = csv.size() / sweep.size();
    EXPECT_EQ(csv.size(), 1u + sweep.size() * thresholds);
    EXPECT_EQ(countLines(text), 3u + thresholds);
    EXPECT_NE(text.find("4T/0C"), std::string::npos);
}

TEST(ReportUnmeasured, UslFitsMeasuredPointsOnly)
{
    const auto [text, csv] = render(
        [](std::ostream &os) { core::printUslTable(os, mixedSweeps()); },
        [](std::ostream &os) { core::writeUslCsv(os, mixedSweeps()); });
    ASSERT_EQ(csv.size(), 1u + 2u);
    // beta has one measured point: no fit, its cells stay empty.
    EXPECT_EQ(csv[2][0], "beta");
    EXPECT_EQ(csv[2][1], "");
    EXPECT_EQ(csv[2].back(), "unfit");
    EXPECT_EQ(countDashes(textRow(text, "beta")), 6u);
}

/** A profiled run: cpu and lock time, but no lock-wait histogram. */
jvm::RunResult
profiledRun()
{
    jvm::RunResult r = fakeRun("gamma", 4);
    jvm::ProfileSummary &p = r.profile;
    p.enabled = true;
    p.tasks = 3;
    p.bucket_total[0] = 3000;
    p.bucket_hist[0].add(1000, 3);
    p.bucket_total[static_cast<std::size_t>(jvm::WaitBucket::Lock)] = 500;
    p.latency.add(1200, 3);
    return r;
}

TEST(ReportUnmeasured, BlameCsvKeepsEveryBucket)
{
    for (const jvm::RunResult &r :
         {profiledRun(), skippedRun("gamma", 4), failedRun("gamma", 8)}) {
        const auto [text, csv] = render(
            [&r](std::ostream &os) { core::printBlameTable(os, r); },
            [&r](std::ostream &os) { core::blameTable(r).writeCsv(os); });
        EXPECT_EQ(csv.size(), 1u + jvm::kWaitBucketCount + 1u);
        EXPECT_EQ(csv.back()[2], "task-wall");
        if (!r.profile.enabled) {
            EXPECT_NE(text.find("profiling disabled"), std::string::npos);
        }
    }
    std::ostringstream os;
    core::printBlameTable(os, profiledRun());
    // Only charged buckets show; an empty distribution's tails read "-".
    EXPECT_EQ(os.str().find("\nrunq"), std::string::npos);
    EXPECT_EQ(countDashes(textRow(os.str(), "lock")), 5u);
    EXPECT_EQ(countDashes(textRow(os.str(), "cpu")), 0u);
}

TEST(ReportUnmeasured, ProfileHistogramCsvParses)
{
    std::ostringstream os;
    core::profileHistogramTable(profiledRun()).writeCsv(os);
    EXPECT_EQ(csvRecords(os.str()).size(), 1u + 2u);
}

TEST(ReportUnmeasured, TrafficSkipsClosedLoopRuns)
{
    jvm::RunResult open = fakeRun("delta", 4);
    open.traffic.enabled = true;
    open.traffic.arrival_spec = "poisson:rate=5:requests=2";
    open.traffic.arrivals = 2;
    const std::vector<jvm::RunResult> runs = {open, failedRun("delta", 8),
                                              skippedRun("delta", 16)};
    const auto [text, csv] = render(
        [&runs](std::ostream &os) { core::printTrafficTable(os, runs); },
        [&runs](std::ostream &os) { core::trafficTable(runs).writeCsv(os); });
    ASSERT_EQ(csv.size(), 1u + 1u);
    EXPECT_EQ(csv[1][3], open.traffic.arrival_spec);
    // No attributed service: every decomposition share reads "-".
    EXPECT_EQ(countDashes(textRow(text.substr(text.find("arrival spec")),
                                  "delta")),
              7u);
}

TEST(ReportUnmeasured, BlameStudyDashesUnmeasuredCells)
{
    core::BlameStudy study;
    study.points = {{"gamma", 4, profiledRun()},
                    {"gamma", 8, failedRun("gamma", 8)},
                    {"gamma", 16, skippedRun("gamma", 16)}};
    const auto [text, csv] = render(
        [&study](std::ostream &os) { core::printBlameStudyTable(os, study); },
        [&study](std::ostream &os) { core::blameStudyTable(study).writeCsv(os); });
    ASSERT_EQ(csv.size(), 1u + 3u);
    EXPECT_EQ(csv[2][2], "failed");
    EXPECT_EQ(csv[3][2], "skipped");
    EXPECT_EQ(csv[3][csv[3].size() - 7], "-"); // dominant
    EXPECT_EQ(countDashes(textRow(text, "gamma 8")), 11u);
    EXPECT_EQ(countDashes(textRow(text, "gamma 4")), 0u);
}

TEST(ReportUnmeasured, CollapseDashesFailedPoints)
{
    core::CollapseStudy study;
    study.threads = {4, 8, 16};
    study.arms.push_back({jvm::LockPolicy::Fifo, false,
                          {fakeRun("hotlock", 4), failedRun("hotlock", 8),
                           skippedRun("hotlock", 16)}});
    const auto [text, csv] = render(
        [&study](std::ostream &os) { core::printCollapseTable(os, study); },
        [&study](std::ostream &os) { core::collapseTable(study).writeCsv(os); });
    ASSERT_EQ(csv.size(), 1u + 3u);
    EXPECT_EQ(csv[2][3], "failed");
    const std::string failed = textRow(text, "fifo 8");
    EXPECT_NE(failed.find("failed"), std::string::npos);
    EXPECT_EQ(countDashes(failed), 9u); // 8 measurements + target
    // A skipped point keeps its (zero) numbers, as it always has.
    EXPECT_EQ(countDashes(textRow(text, "fifo 16")), 1u);
    EXPECT_NE(text.find("failed: fifo t8: aborted"), std::string::npos);
}

TEST(ReportUnmeasured, ResilienceDashesFailedArms)
{
    std::vector<core::ResiliencePoint> points(2);
    points[0].intensity = 0.0;
    points[0].ungoverned = fakeRun("xalan", 8);
    points[0].governed = fakeRun("xalan", 8);
    points[1].intensity = 1.0;
    points[1].ungoverned = failedRun("xalan", 8);
    points[1].governed = skippedRun("xalan", 8);
    const auto [text, csv] = render(
        [&points](std::ostream &os) {
            core::printResilienceTable(os, points);
        },
        [&points](std::ostream &os) {
            core::resilienceTable(points).writeCsv(os);
        });
    ASSERT_EQ(csv.size(), 1u + 4u);
    EXPECT_EQ(csv[3][2], "failed");
    EXPECT_EQ(csv[4][2], "skipped");
    EXPECT_EQ(countDashes(textRow(text, "1.00 ungov")), 8u);
    EXPECT_NE(text.find("failed: intensity 1.00 ungoverned"),
              std::string::npos);
}

TEST(ReportUnmeasured, TrafficStudyDashesPointsWithoutTraffic)
{
    core::TrafficStudy study;
    jvm::RunResult open = fakeRun("sunflow", 8);
    open.traffic.enabled = true;
    open.traffic.arrivals = 10;
    study.points = {{"sunflow", 8, 0.5, 100.0, "open", open},
                    {"sunflow", 8, 2.0, 400.0, "open",
                     failedRun("sunflow", 8)}};
    const auto [text, csv] = render(
        [&study](std::ostream &os) {
            core::printTrafficStudyTable(os, study);
        },
        [&study](std::ostream &os) {
            core::trafficStudyTable(study).writeCsv(os);
        });
    ASSERT_EQ(csv.size(), 1u + 2u);
    EXPECT_EQ(csv[1][5], "10");
    const std::string failed = textRow(
        text.substr(text.find("per-request")), "sunflow 8 open 2.00");
    EXPECT_NE(failed.find("failed"), std::string::npos);
    EXPECT_EQ(countDashes(failed), 7u);
}

} // namespace
