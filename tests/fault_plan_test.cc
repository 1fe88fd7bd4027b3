/**
 * @file
 * FaultPlan unit tests: spec-grammar parsing (accepting and rejecting),
 * and the intensity dial's determinism and monotonicity.
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "base/units.hh"
#include "fault/fault.hh"

namespace {

using namespace jscale;
using fault::FaultKind;
using fault::FaultPlan;

TEST(FaultPlanParse, EmptySpecIsEmptyPlan)
{
    FaultPlan plan;
    std::string err;
    ASSERT_TRUE(FaultPlan::parse("", plan, err)) << err;
    EXPECT_TRUE(plan.empty());
}

TEST(FaultPlanParse, FullGrammarRoundTrip)
{
    const std::string spec =
        "coreoff@100:n=2:for=200,slow@50:factor=0.25:for=10,"
        "preempt@80:n=3:every=2:for=1,kill@250,stall@120:n=2:for=5,"
        "heap@300:mb=24:for=100,gcworkers@10:n=2:for=40";
    FaultPlan plan;
    std::string err;
    ASSERT_TRUE(FaultPlan::parse(spec, plan, err)) << err;
    ASSERT_EQ(plan.faults.size(), 7u);
    EXPECT_EQ(plan.spec, spec);
    EXPECT_FALSE(plan.describe().empty());
}

TEST(FaultPlanParse, EventsAreSortedByTime)
{
    FaultPlan plan;
    std::string err;
    ASSERT_TRUE(
        FaultPlan::parse("kill@250,coreoff@100:n=2,heap@50:mb=8", plan,
                         err))
        << err;
    ASSERT_EQ(plan.faults.size(), 3u);
    EXPECT_EQ(plan.faults[0].kind, FaultKind::HeapPressure);
    EXPECT_EQ(plan.faults[1].kind, FaultKind::CoreOffline);
    EXPECT_EQ(plan.faults[2].kind, FaultKind::MutatorKill);
    EXPECT_LE(plan.faults[0].at, plan.faults[1].at);
    EXPECT_LE(plan.faults[1].at, plan.faults[2].at);
    EXPECT_EQ(plan.faults[1].count, 2u);
}

TEST(FaultPlanParse, TimesAreMilliseconds)
{
    FaultPlan plan;
    std::string err;
    ASSERT_TRUE(FaultPlan::parse("coreoff@1.5:for=0.5", plan, err)) << err;
    ASSERT_EQ(plan.faults.size(), 1u);
    EXPECT_EQ(plan.faults[0].at, static_cast<Ticks>(1.5 * units::MS));
    EXPECT_EQ(plan.faults[0].duration,
              static_cast<Ticks>(0.5 * units::MS));
}

TEST(FaultPlanParse, RejectsMalformedSpecs)
{
    FaultPlan plan;
    std::string err;
    // Unknown kind.
    EXPECT_FALSE(FaultPlan::parse("bogus@5", plan, err));
    EXPECT_NE(err.find("bogus"), std::string::npos);
    // Missing injection time.
    EXPECT_FALSE(FaultPlan::parse("coreoff", plan, err));
    // Garbage time.
    EXPECT_FALSE(FaultPlan::parse("coreoff@abc", plan, err));
    // Option without '='.
    EXPECT_FALSE(FaultPlan::parse("coreoff@5:n", plan, err));
    // Unknown option key.
    EXPECT_FALSE(FaultPlan::parse("coreoff@5:bananas=2", plan, err));
    // Zero count.
    EXPECT_FALSE(FaultPlan::parse("coreoff@5:n=0", plan, err));
    // Slowdown factor out of (0, 1].
    EXPECT_FALSE(FaultPlan::parse("slow@5:factor=0", plan, err));
    EXPECT_FALSE(FaultPlan::parse("slow@5:factor=1.5", plan, err));
    // Heap spike without a size... has a default, but mb=0 is invalid.
    EXPECT_FALSE(FaultPlan::parse("heap@5:mb=0", plan, err));
    // Negative time.
    EXPECT_FALSE(FaultPlan::parse("kill@-3", plan, err));
    // Counts are read whole and bounded, and no key is given twice;
    // the diagnosis names the key.
    for (const auto &[spec, key] :
         std::vector<std::pair<std::string, std::string>>{
             {"coreoff@5:n=2.7", "n"},
             {"coreoff@5:n=4294967296", "n"},
             {"heap@3:mb=1e300", "mb"},
             {"intensity=0.5:seed=1e300", "seed"},
             {"intensity=0.5:seed=2.5", "seed"},
             {"kill@3:n=2:n=5", "n"},
             {"intensity=0.5:seed=1:seed=2", "seed"}}) {
        EXPECT_FALSE(FaultPlan::parse(spec, plan, err)) << spec;
        EXPECT_NE(err.find("'" + key + "'"), std::string::npos) << err;
    }
}

TEST(FaultPlanParse, RejectsTimesBeyondTheTickClock)
{
    FaultPlan plan;
    std::string err;
    // 2^64 ns is about 1.8e13 ms: the largest whole-ms time that fits
    // parses, anything whose ticks overflow is refused by field.
    ASSERT_TRUE(FaultPlan::parse("kill@18446744073709", plan, err)) << err;
    EXPECT_EQ(plan.faults.front().at / units::MS, 18446744073709ULL);
    EXPECT_FALSE(FaultPlan::parse("coreoff@1e300:n=2", plan, err));
    EXPECT_NE(err.find("injection time"), std::string::npos) << err;
    EXPECT_FALSE(FaultPlan::parse("coreoff@18446744073710", plan, err));
    EXPECT_FALSE(FaultPlan::parse("stall@5:for=1e14", plan, err));
    EXPECT_NE(err.find("for=1e14"), std::string::npos) << err;
    EXPECT_FALSE(FaultPlan::parse("intensity=0.5:horizon=1e300", plan, err));
    EXPECT_NE(err.find("horizon"), std::string::npos) << err;
}

TEST(FaultPlanParse, NumbersAreReadStrictly)
{
    // strtod spellings the strict reader refuses: a plus sign, leading
    // blanks, hex and non-finite values.
    FaultPlan plan;
    std::string err;
    for (const char *spec : {"kill@+5", "kill@ 5", "kill@0x10", "kill@inf",
                             "kill@nan", "coreoff@5:n=+2"})
        EXPECT_FALSE(FaultPlan::parse(spec, plan, err)) << spec;
    EXPECT_TRUE(FaultPlan::parse("kill@.5", plan, err)) << err;
}

TEST(FaultPlanIntensity, IdenticalArgumentsYieldIdenticalPlans)
{
    const auto a = FaultPlan::fromIntensity(0.6, 7, 400 * units::MS);
    const auto b = FaultPlan::fromIntensity(0.6, 7, 400 * units::MS);
    ASSERT_EQ(a.faults.size(), b.faults.size());
    EXPECT_FALSE(a.empty());
    for (std::size_t i = 0; i < a.faults.size(); ++i) {
        EXPECT_EQ(a.faults[i].kind, b.faults[i].kind) << i;
        EXPECT_EQ(a.faults[i].at, b.faults[i].at) << i;
        EXPECT_EQ(a.faults[i].duration, b.faults[i].duration) << i;
        EXPECT_EQ(a.faults[i].count, b.faults[i].count) << i;
        EXPECT_EQ(a.faults[i].bytes, b.faults[i].bytes) << i;
    }
    EXPECT_EQ(a.describe(), b.describe());
}

TEST(FaultPlanIntensity, SeedChangesTheSchedule)
{
    const auto a = FaultPlan::fromIntensity(0.6, 7, 400 * units::MS);
    const auto b = FaultPlan::fromIntensity(0.6, 8, 400 * units::MS);
    EXPECT_NE(a.describe(), b.describe());
}

TEST(FaultPlanIntensity, HigherIntensityInjectsMore)
{
    const auto low = FaultPlan::fromIntensity(0.1, 7, 400 * units::MS);
    const auto high = FaultPlan::fromIntensity(1.0, 7, 400 * units::MS);
    EXPECT_GE(high.faults.size(), low.faults.size());
    EXPECT_GE(high.faults.size(), 5u);
    EXPECT_GE(low.faults.size(), 1u);
}

TEST(FaultPlanIntensity, ZeroIntensityStillParsesViaSpecString)
{
    FaultPlan plan;
    std::string err;
    ASSERT_TRUE(FaultPlan::parse("intensity=0.5:seed=3:horizon=200",
                                 plan, err))
        << err;
    EXPECT_FALSE(plan.empty());
    const auto direct = FaultPlan::fromIntensity(0.5, 3, 200 * units::MS);
    EXPECT_EQ(plan.describe(), direct.describe());

    // Out-of-range intensity is rejected.
    EXPECT_FALSE(FaultPlan::parse("intensity=1.5", plan, err));
    EXPECT_FALSE(FaultPlan::parse("intensity=-0.1", plan, err));
}

TEST(FaultPlanIntensity, AllEventsLandWithinTheHorizon)
{
    const Ticks horizon = 250 * units::MS;
    const auto plan = FaultPlan::fromIntensity(1.0, 11, horizon);
    for (const auto &f : plan.faults)
        EXPECT_LE(f.at, horizon) << f.describe();
}

} // namespace
