/**
 * @file
 * Fuzz-driver tests: case derivation is deterministic and parseable,
 * clean campaigns pass, a sabotaged campaign fails, shrinks to a
 * minimal still-failing case within budget, and round-trips through
 * the reproducer artifact.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/fuzz.hh"
#include "test_tempdir.hh"

namespace {

using namespace jscale;
using core::FuzzCase;

TEST(Fuzz, CaseDerivationIsDeterministicAndInRange)
{
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
        const FuzzCase a = core::caseForSeed(seed);
        const FuzzCase b = core::caseForSeed(seed);
        EXPECT_EQ(a.describe(), b.describe());

        EXPECT_GE(a.threads, 1u);
        EXPECT_LE(a.threads, 8u);
        EXPECT_GE(a.tasks, 20u);
        EXPECT_GE(a.monitors, 1u);
        EXPECT_GE(a.heap, 3 * units::MiB);
        EXPECT_GE(a.fault_intensity, 0.0);
        EXPECT_LE(a.fault_intensity, 1.0);
        EXPECT_EQ(a.sabotage, core::Sabotage::None);
    }
}

TEST(Fuzz, DescribeParseRoundTrips)
{
    for (const std::uint64_t seed : {1ULL, 42ULL, 999ULL}) {
        const FuzzCase c = core::caseForSeed(seed);
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
    EXPECT_FALSE(FuzzCase::parse("seed=1 seed=2", out, err));
    EXPECT_NE(err.find("duplicate key 'seed'"), std::string::npos) << err;
}

TEST(Fuzz, ParseReadsEveryFieldWholeAndBounded)
{
    // Each bad token names its field; nothing is truncated, wrapped or
    // read as a near miss.
    const std::vector<std::pair<std::string, std::string>> bad = {
        {"threads", "threads=4000000000"}, {"threads", "threads=9"},
        {"threads", "threads=4x"},         {"threads", "threads="},
        {"tasks", "tasks=99999999999"},    {"tasks", "tasks=141"},
        {"tasks", "tasks=0"},              {"monitors", "monitors=6"},
        {"heap", "heap=1048575"},          {"heap", "heap=-4194304"},
        {"intensity", "intensity=nan"},    {"intensity", "intensity=-5"},
        {"intensity", "intensity=inf"},    {"intensity", "intensity=1.5"},
        {"governed", "governed=yes"},      {"governed", "governed=2"},
        {"seed", "seed=-1"},               {"tlab", "tlab=8192k"},
        {"tlab", "heap=3145728 tlab=4194304"},
    };
    for (const auto &[field, token] : bad) {
        FuzzCase out;
        std::string err;
        EXPECT_FALSE(FuzzCase::parse("seed=1 " + token, out, err)) << token;
        EXPECT_NE(err.find("'" + field + "'"), std::string::npos)
            << token << ": " << err;
    }

    // Every drawn case and every value the shrinker walks to parses.
    for (std::uint64_t seed = 1; seed <= 500; ++seed) {
        FuzzCase c = core::caseForSeed(seed);
        FuzzCase parsed;
        std::string err;
        ASSERT_TRUE(FuzzCase::parse(c.describe(), parsed, err)) << err;
        c.threads = c.tasks = c.monitors = 1;
        c.tlab = 0;
        c.fault_intensity = 0.0;
        c.governed = false;
        ASSERT_TRUE(FuzzCase::parse(c.describe(), parsed, err)) << err;
    }
}

TEST(Fuzz, CorruptedOutcomeRecordReRunsItsSeed)
{
    const std::vector<std::uint64_t> seeds = {100, 101, 102};
    const core::FuzzReport plain =
        core::runFuzzCampaign(seeds, core::Sabotage::None, 16, nullptr);

    const jscale::testing::TempDir tmp;
    core::ExperimentConfig exec;
    exec.jobs = 1;
    exec.run_cache_dir = tmp.file("cache");
    (void)core::runFuzzCampaign(seeds, core::Sabotage::None, 16, nullptr,
                                exec);

    // A number with trailing bytes, and a missing one: both run records
    // are misses, so their seeds re-run instead of reading as 7 / 0.
    const auto corrupt = [&tmp](std::uint64_t seed, const std::string &key,
                                const std::string &value) {
        // A fuzz point's record is named after its case line.
        const std::string prefix = "seed_" + std::to_string(seed) + "_";
        std::string path;
        for (const auto &e :
             std::filesystem::directory_iterator(tmp.file("cache"))) {
            if (e.path().filename().string().rfind(prefix, 0) == 0)
                path = e.path().string();
        }
        ASSERT_FALSE(path.empty()) << "no record for seed " << seed;
        std::ifstream in(path);
        std::ostringstream body;
        std::string line;
        int hits = 0;
        while (std::getline(in, line)) {
            const bool hit = line.rfind(key + " ", 0) == 0;
            hits += hit;
            body << (hit ? key + " " + value : line) << '\n';
        }
        in.close();
        ASSERT_EQ(hits, 1) << key;
        std::ofstream(path) << body.str();
    };
    corrupt(101, "u oracle_checks", "7x");
    corrupt(102, "u oracle_checks", "");

    const core::FuzzReport cached = core::runFuzzCampaign(
        seeds, core::Sabotage::None, 16, nullptr, exec);
    EXPECT_EQ(cached.cases_run, plain.cases_run);
    EXPECT_EQ(cached.total_checks, plain.total_checks);
    EXPECT_EQ(cached.failed(), plain.failed());
}

TEST(Fuzz, CampaignReportIsTheSameAtAnyJobs)
{
    // A clean campaign and a sabotaged one (every case fails, the
    // first shrinks): the narration, the counts and the shrunk case
    // must not depend on how many host workers ran the points. 130
    // seeds span more than one batch of points.
    std::vector<std::uint64_t> seeds;
    for (std::uint64_t s = 40; s < 170; ++s)
        seeds.push_back(s);
    const auto campaign = [&seeds](core::Sabotage sabotage,
                                   std::uint32_t jobs) {
        core::ExperimentConfig exec;
        exec.jobs = jobs;
        std::ostringstream narration;
        const core::FuzzReport r =
            core::runFuzzCampaign(seeds, sabotage, 8, &narration, exec);
        EXPECT_EQ(r.cases_run, seeds.size());
        EXPECT_EQ(r.failures.size(),
                  sabotage == core::Sabotage::None ? 0u : seeds.size());
        std::ostringstream os;
        os << narration.str() << r.cases_run << ' ' << r.total_checks
           << ' ' << r.failures.size() << ' ' << r.shrunk.describe() << ' '
           << r.shrink_runs;
        for (const core::FuzzOutcome &f : r.failures)
            os << '\n' << f.fuzz_case.describe() << ": " << f.diagnosis();
        return os.str();
    };
    for (const core::Sabotage s :
         {core::Sabotage::None, core::Sabotage::DoubleRelease}) {
        EXPECT_EQ(campaign(s, 1), campaign(s, 4)) << core::sabotageName(s);
    }
    EXPECT_NE(campaign(core::Sabotage::None, 2)
                  .find("... 125/130 cases clean\n"),
              std::string::npos);
}

TEST(Fuzz, PolicyDimensionIsDrawnParsedAndDefaulted)
{
    // The seed space exercises every admission policy...
    bool seen[4] = {false, false, false, false};
    for (std::uint64_t seed = 1; seed <= 200; ++seed)
        seen[static_cast<std::size_t>(core::caseForSeed(seed).policy)] =
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
        FuzzCase c = core::caseForSeed(42);
        c.threads = 6;
        c.monitors = 1; // one hot monitor guarantees contention
        c.policy = p;
        c.sabotage = core::Sabotage::IllegalHandoff;
        const core::FuzzOutcome out = core::runFuzzCase(c);
        ASSERT_FALSE(out.clean()) << jvm::lockPolicyName(p);
        const std::string v = out.violation();
        ASSERT_FALSE(v.empty()) << jvm::lockPolicyName(p);
        EXPECT_EQ(v.rfind("monitor-fifo: ", 0), 0u) << v;
    }

    // The shrinker walks the policy dimension back to fifo while the
    // bug keeps firing.
    FuzzCase c = core::caseForSeed(42);
    c.threads = 6;
    c.monitors = 1;
    c.policy = jvm::LockPolicy::Lcr;
    c.sabotage = core::Sabotage::IllegalHandoff;
    ASSERT_FALSE(core::runFuzzCase(c).clean());
    std::uint32_t used = 0;
    const FuzzCase shrunk = core::shrinkCase(c, /*budget=*/48, &used);
    EXPECT_FALSE(core::runFuzzCase(shrunk).clean());
    EXPECT_EQ(shrunk.policy, jvm::LockPolicy::Fifo);
    EXPECT_LE(used, 48u);
}

TEST(Fuzz, CleanCampaignReportsNoFailures)
{
    std::vector<std::uint64_t> seeds;
    for (std::uint64_t s = 100; s < 112; ++s)
        seeds.push_back(s);
    const core::FuzzReport report = core::runFuzzCampaign(
        seeds, core::Sabotage::None, /*shrink_budget=*/16, nullptr);
    EXPECT_FALSE(report.failed());
    EXPECT_EQ(report.cases_run, seeds.size());
    EXPECT_GT(report.total_checks, 0u);
}

TEST(Fuzz, SabotagedCampaignFailsAndShrinksToAMinimalCase)
{
    const core::FuzzReport report = core::runFuzzCampaign(
        {42}, core::Sabotage::DupAlloc, /*shrink_budget=*/64, nullptr);
    ASSERT_TRUE(report.failed());
    ASSERT_EQ(report.failures.size(), 1u);
    EXPECT_FALSE(report.failures[0].clean());

    // The shrunk case still fails (it is the reproducer)...
    const core::FuzzOutcome replay = core::runFuzzCase(report.shrunk);
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
    core::FuzzCase c = core::caseForSeed(42);
    c.sabotage = core::Sabotage::DoubleRelease;
    std::uint32_t used = 0;
    const core::FuzzCase shrunk = core::shrinkCase(c, 3, &used);
    EXPECT_LE(used, 3u);
    // Whatever the budget allowed, the result must still fail.
    EXPECT_FALSE(core::runFuzzCase(shrunk).clean());
}

TEST(Fuzz, ReproducerRoundTripsThroughTheArtifact)
{
    const core::FuzzReport report = core::runFuzzCampaign(
        {42}, core::Sabotage::PhantomDeath, 32, nullptr);
    ASSERT_TRUE(report.failed());

    std::ostringstream os;
    core::writeReproducer(os, report);
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
    core::FuzzCase replayed;
    std::string err;
    ASSERT_TRUE(core::readReproducer(path, replayed, err)) << err;
    EXPECT_EQ(replayed.describe(), report.shrunk.describe());
}

TEST(Fuzz, ReadReproducerRejectsMissingAndMalformedFiles)
{
    core::FuzzCase out;
    std::string err;
    EXPECT_FALSE(core::readReproducer("no-such-file.repro", out, err));
    EXPECT_FALSE(err.empty());

    const jscale::testing::TempDir tmp;
    const std::string path = tmp.file("malformed.repro");
    {
        std::ofstream f(path);
        f << "jscale-fuzz-repro v1\n# no case line\n";
    }
    EXPECT_FALSE(core::readReproducer(path, out, err));
}

} // namespace
