/**
 * @file
 * E18 resilience-study tests: the intensity ladder expands each point
 * into a reproducible fault schedule, every point runs a governed and
 * an ungoverned arm of the same configuration, and the table/CSV
 * renderers report failed and skipped arms instead of dropping them.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "base/units.hh"
#include "core/resilience.hh"
#include "fault/fault.hh"

namespace {

using namespace jscale;

core::ResilienceConfig
smallStudy()
{
    core::ResilienceConfig cfg;
    cfg.app = "sunflow";
    cfg.threads = 4;
    cfg.intensities = {0.0, 0.6};
    cfg.horizon = 20 * units::MS;
    cfg.base.workload_scale = 0.05;
    cfg.base.heap_override = 32 * units::MiB; // skip calibration runs
    cfg.base.error_path.clear();
    return cfg;
}

TEST(Resilience, IntensityLadderExpandsIntoReproducibleSchedules)
{
    // Zero intensity expands to no faults at all.
    const auto none =
        fault::FaultPlan::fromIntensity(0.0, 42, 20 * units::MS);
    EXPECT_TRUE(none.empty());

    // The ladder is monotone: harder dials schedule at least as many
    // faults, and every expansion is a pure function of its arguments.
    std::size_t prev = 0;
    for (const double intensity : {0.25, 0.5, 0.75, 1.0}) {
        const auto plan =
            fault::FaultPlan::fromIntensity(intensity, 42, 20 * units::MS);
        EXPECT_FALSE(plan.empty()) << "intensity " << intensity;
        EXPECT_GE(plan.faults.size(), prev) << "intensity " << intensity;
        prev = plan.faults.size();

        const auto again =
            fault::FaultPlan::fromIntensity(intensity, 42, 20 * units::MS);
        EXPECT_EQ(plan.describe(), again.describe());
    }
}

TEST(Resilience, StudyRunsGovernedAndUngovernedArmsPerPoint)
{
    const auto points = core::runResilienceStudy(smallStudy());
    ASSERT_EQ(points.size(), 2u);

    EXPECT_DOUBLE_EQ(points[0].intensity, 0.0);
    EXPECT_DOUBLE_EQ(points[1].intensity, 0.6);

    for (const auto &p : points) {
        // Both arms completed and ran the same configuration.
        ASSERT_FALSE(p.ungoverned.failed()) << p.ungoverned.run_error;
        ASSERT_FALSE(p.governed.failed()) << p.governed.run_error;
        EXPECT_EQ(p.ungoverned.app_name, "sunflow");
        EXPECT_EQ(p.governed.app_name, "sunflow");
        EXPECT_EQ(p.ungoverned.threads, 4u);
        EXPECT_EQ(p.governed.threads, 4u);

        // The arms differ exactly in admission control.
        EXPECT_FALSE(p.ungoverned.governor.enabled);
        EXPECT_TRUE(p.governed.governor.enabled);
        EXPECT_GT(p.governed.governor.final_target, 0u);
    }

    // The faulted point carries its expanded schedule and actually
    // injected it; the clean point did not.
    EXPECT_EQ(points[0].ungoverned.faults.injections, 0u);
    EXPECT_FALSE(points[1].plan.empty());
    EXPECT_GT(points[1].ungoverned.faults.injections, 0u);
    EXPECT_GT(points[1].governed.faults.injections, 0u);
}

/** A study row whose arms never ran: one failed, one skipped. */
std::vector<core::ResiliencePoint>
syntheticPoints()
{
    core::ResiliencePoint ok;
    ok.intensity = 0.0;
    ok.ungoverned.app_name = ok.governed.app_name = "xalan";
    ok.ungoverned.threads = ok.governed.threads = 8;
    ok.ungoverned.wall_time = ok.governed.wall_time = 50 * units::MS;
    ok.ungoverned.total_tasks = ok.governed.total_tasks = 100;
    ok.governed.governor.enabled = true;
    ok.governed.governor.final_target = 6;

    core::ResiliencePoint broken;
    broken.intensity = 0.75;
    broken.plan = "kill@10ms";
    broken.ungoverned.app_name = "xalan";
    broken.ungoverned.run_error = "watchdog: no forward progress";
    broken.governed.app_name = "xalan";
    broken.governed.skipped = true;
    return {ok, broken};
}

TEST(Resilience, TableRendersFailedAndSkippedArms)
{
    std::ostringstream os;
    core::printResilienceTable(os, syntheticPoints());
    const std::string table = os.str();

    // The healthy point reports its governor target.
    EXPECT_NE(table.find("ungov"), std::string::npos) << table;
    EXPECT_NE(table.find("gov"), std::string::npos) << table;

    // The failed arm renders as a status row, not a crash or a silent
    // omission, and the diagnosis is printed after the table.
    EXPECT_NE(table.find("failed"), std::string::npos) << table;
    EXPECT_NE(table.find("watchdog: no forward progress"),
              std::string::npos)
        << table;

    // The skipped (out-of-slice shard marker) arm is labelled, too.
    EXPECT_NE(table.find("skipped"), std::string::npos) << table;
}

TEST(Resilience, CsvReportsOneRowPerArmWithStatusColumn)
{
    std::ostringstream os;
    core::writeResilienceCsv(os, syntheticPoints());
    const std::string csv = os.str();

    std::istringstream lines(csv);
    std::string line;
    std::vector<std::string> rows;
    while (std::getline(lines, line))
        rows.push_back(line);

    // Header + 2 points x 2 arms.
    ASSERT_EQ(rows.size(), 5u) << csv;
    EXPECT_NE(rows[0].find("intensity,arm,status"), std::string::npos);
    EXPECT_NE(rows[1].find(",ungov,ok,"), std::string::npos) << rows[1];
    EXPECT_NE(rows[2].find(",gov,ok,"), std::string::npos) << rows[2];
    EXPECT_NE(rows[3].find(",ungov,failed,"), std::string::npos)
        << rows[3];
    EXPECT_NE(rows[4].find(",gov,skipped,"), std::string::npos)
        << rows[4];

    // Every row has the same number of columns as the header.
    const auto cols = [](const std::string &s) {
        return std::count(s.begin(), s.end(), ',');
    };
    for (const auto &row : rows)
        EXPECT_EQ(cols(row), cols(rows[0])) << row;
}

} // namespace
