/**
 * @file
 * Fuzz-driver tests: case derivation is deterministic and parseable,
 * clean campaigns pass, a sabotaged campaign fails, shrinks to a
 * minimal still-failing case within budget, and round-trips through
 * the reproducer artifact.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "check/fuzz.hh"
#include "test_tempdir.hh"

namespace {

using namespace jscale;
using check::FuzzCase;

TEST(Fuzz, CaseDerivationIsDeterministicAndInRange)
{
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
        const FuzzCase a = check::caseForSeed(seed);
        const FuzzCase b = check::caseForSeed(seed);
        EXPECT_EQ(a.describe(), b.describe());

        EXPECT_GE(a.threads, 1u);
        EXPECT_LE(a.threads, 8u);
        EXPECT_GE(a.tasks, 20u);
        EXPECT_GE(a.monitors, 1u);
        EXPECT_GE(a.heap, 3 * units::MiB);
        EXPECT_GE(a.fault_intensity, 0.0);
        EXPECT_LE(a.fault_intensity, 1.0);
        EXPECT_EQ(a.sabotage, check::Sabotage::None);
    }
}

TEST(Fuzz, DescribeParseRoundTrips)
{
    for (const std::uint64_t seed : {1ULL, 42ULL, 999ULL}) {
        const FuzzCase c = check::caseForSeed(seed);
        FuzzCase parsed;
        std::string err;
        ASSERT_TRUE(FuzzCase::parse(c.describe(), parsed, err)) << err;
        EXPECT_EQ(parsed.describe(), c.describe());
    }
}

TEST(Fuzz, ParseRejectsJunk)
{
    FuzzCase out;
    std::string err;
    // Junk token, missing seed, degenerate geometry.
    EXPECT_FALSE(FuzzCase::parse("what=ever", out, err));
    EXPECT_FALSE(err.empty());
    EXPECT_FALSE(FuzzCase::parse("threads=4 tasks=10", out, err));
    EXPECT_FALSE(
        FuzzCase::parse("seed=1 threads=0 tasks=10", out, err));
    EXPECT_FALSE(FuzzCase::parse("seed=1 heap=5", out, err));
    EXPECT_FALSE(FuzzCase::parse("", out, err));
}

TEST(Fuzz, SabotageNamesRoundTrip)
{
    for (const auto s :
         {check::Sabotage::None, check::Sabotage::DupAlloc,
          check::Sabotage::PhantomDeath, check::Sabotage::DoubleRelease,
          check::Sabotage::IllegalHandoff}) {
        check::Sabotage parsed;
        ASSERT_TRUE(check::parseSabotage(check::sabotageName(s), parsed));
        EXPECT_EQ(parsed, s);
    }
    check::Sabotage parsed;
    EXPECT_FALSE(check::parseSabotage("subtle", parsed));
}

TEST(Fuzz, PolicyDimensionIsDrawnParsedAndDefaulted)
{
    // The seed space exercises every admission policy...
    bool seen[4] = {false, false, false, false};
    for (std::uint64_t seed = 1; seed <= 200; ++seed)
        seen[static_cast<std::size_t>(check::caseForSeed(seed).policy)] =
            true;
    for (const jvm::LockPolicy p : jvm::kAllLockPolicies)
        EXPECT_TRUE(seen[static_cast<std::size_t>(p)])
            << jvm::lockPolicyName(p);

    // ...a pre-policy case line still parses (defaults to fifo)...
    FuzzCase legacy;
    std::string err;
    ASSERT_TRUE(FuzzCase::parse(
        "seed=7 threads=2 tasks=30 monitors=1 heap=4194304", legacy, err))
        << err;
    EXPECT_EQ(legacy.policy, jvm::LockPolicy::Fifo);

    // ...and junk policies are rejected.
    FuzzCase out;
    EXPECT_FALSE(FuzzCase::parse("seed=1 policy=anarchic", out, err));
    EXPECT_FALSE(err.empty());
}

TEST(Fuzz, IllegalHandoffIsCaughtUnderEveryPolicyAndShrinksToFifo)
{
    // The saboteur fabricates a contended grant to the releasing
    // thread — a grantee that never queued — which every admission
    // policy's oracle model must reject.
    for (const jvm::LockPolicy p : jvm::kAllLockPolicies) {
        FuzzCase c = check::caseForSeed(42);
        c.threads = 6;
        c.monitors = 1; // one hot monitor guarantees contention
        c.policy = p;
        c.sabotage = check::Sabotage::IllegalHandoff;
        const check::FuzzOutcome out = check::runFuzzCase(c);
        ASSERT_FALSE(out.clean()) << jvm::lockPolicyName(p);
        ASSERT_FALSE(out.violations.empty()) << jvm::lockPolicyName(p);
        EXPECT_EQ(out.violations[0].oracle, "monitor-fifo")
            << out.violations[0].format();
    }

    // The shrinker walks the policy dimension back to fifo while the
    // bug keeps firing.
    FuzzCase c = check::caseForSeed(42);
    c.threads = 6;
    c.monitors = 1;
    c.policy = jvm::LockPolicy::Lcr;
    c.sabotage = check::Sabotage::IllegalHandoff;
    ASSERT_FALSE(check::runFuzzCase(c).clean());
    std::uint32_t used = 0;
    const FuzzCase shrunk = check::shrinkCase(c, /*budget=*/48, &used);
    EXPECT_FALSE(check::runFuzzCase(shrunk).clean());
    EXPECT_EQ(shrunk.policy, jvm::LockPolicy::Fifo);
    EXPECT_LE(used, 48u);
}

TEST(Fuzz, CleanCampaignReportsNoFailures)
{
    std::vector<std::uint64_t> seeds;
    for (std::uint64_t s = 100; s < 112; ++s)
        seeds.push_back(s);
    const check::FuzzReport report = check::runFuzzCampaign(
        seeds, check::Sabotage::None, /*shrink_budget=*/16, nullptr);
    EXPECT_FALSE(report.failed());
    EXPECT_EQ(report.cases_run, seeds.size());
    EXPECT_GT(report.total_checks, 0u);
}

TEST(Fuzz, SabotagedCampaignFailsAndShrinksToAMinimalCase)
{
    const check::FuzzReport report = check::runFuzzCampaign(
        {42}, check::Sabotage::DupAlloc, /*shrink_budget=*/64, nullptr);
    ASSERT_TRUE(report.failed());
    ASSERT_EQ(report.failures.size(), 1u);
    EXPECT_FALSE(report.failures[0].clean());

    // The shrunk case still fails (it is the reproducer)...
    const check::FuzzOutcome replay = check::runFuzzCase(report.shrunk);
    EXPECT_FALSE(replay.clean());

    // ...and the one-fault sabotage shrinks all the way down: the bug
    // needs exactly one thread, one task and no fault schedule.
    EXPECT_EQ(report.shrunk.threads, 1u);
    EXPECT_EQ(report.shrunk.tasks, 1u);
    EXPECT_DOUBLE_EQ(report.shrunk.fault_intensity, 0.0);
    EXPECT_FALSE(report.shrunk.governed);
    EXPECT_LE(report.shrink_runs, 64u);
}

TEST(Fuzz, ShrinkStopsWithinBudget)
{
    check::FuzzCase c = check::caseForSeed(42);
    c.sabotage = check::Sabotage::DoubleRelease;
    std::uint32_t used = 0;
    const check::FuzzCase shrunk = check::shrinkCase(c, 3, &used);
    EXPECT_LE(used, 3u);
    // Whatever the budget allowed, the result must still fail.
    EXPECT_FALSE(check::runFuzzCase(shrunk).clean());
}

TEST(Fuzz, ReproducerRoundTripsThroughTheArtifact)
{
    const check::FuzzReport report = check::runFuzzCampaign(
        {42}, check::Sabotage::PhantomDeath, 32, nullptr);
    ASSERT_TRUE(report.failed());

    std::ostringstream os;
    check::writeReproducer(os, report);
    const std::string artifact = os.str();
    EXPECT_NE(artifact.find("jscale-fuzz-repro v1"), std::string::npos);
    EXPECT_NE(artifact.find("case seed="), std::string::npos);
    // The artifact carries the diagnosed violation as provenance.
    EXPECT_NE(artifact.find("# violation:"), std::string::npos)
        << artifact;

    const jscale::testing::TempDir tmp;
    const std::string path = tmp.file("roundtrip.repro");
    {
        std::ofstream f(path);
        f << artifact;
    }
    check::FuzzCase replayed;
    std::string err;
    ASSERT_TRUE(check::readReproducer(path, replayed, err)) << err;
    EXPECT_EQ(replayed.describe(), report.shrunk.describe());
}

TEST(Fuzz, ReadReproducerRejectsMissingAndMalformedFiles)
{
    check::FuzzCase out;
    std::string err;
    EXPECT_FALSE(check::readReproducer("no-such-file.repro", out, err));
    EXPECT_FALSE(err.empty());

    const jscale::testing::TempDir tmp;
    const std::string path = tmp.file("malformed.repro");
    {
        std::ofstream f(path);
        f << "jscale-fuzz-repro v1\n# no case line\n";
    }
    EXPECT_FALSE(check::readReproducer(path, out, err));
}

} // namespace
