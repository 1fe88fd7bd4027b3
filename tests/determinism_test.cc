/**
 * @file
 * Whole-system determinism: identical configurations must replay
 * identically event by event, including with observation tools
 * attached — the property every debugging and comparison workflow in
 * this project relies on.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "core/collapse.hh"
#include "core/experiment.hh"
#include "core/report.hh"
#include "core/resilience.hh"
#include "core/run_record.hh"
#include "core/traffic_study.hh"
#include "jvm/locks/policy.hh"
#include "lockprof/lockprof.hh"
#include "test_tempdir.hh"
#include "trace/trace.hh"

namespace {

using namespace jscale;

core::ExperimentConfig
cfgWith(std::uint64_t seed)
{
    core::ExperimentConfig cfg;
    cfg.workload_scale = 0.05;
    cfg.seed = seed;
    return cfg;
}

TEST(Determinism, TraceStreamsIdenticalAcrossReplays)
{
    auto capture = [](std::uint64_t seed) {
        core::ExperimentRunner runner(cfgWith(seed));
        trace::MemoryTraceSink sink;
        trace::ObjectTracer tracer(sink);
        runner.runApp("lusearch", 8, [&tracer](jvm::JavaVm &vm) {
            vm.listeners().add(&tracer);
        });
        return sink;
    };
    const auto a = capture(5);
    const auto b = capture(5);
    ASSERT_EQ(a.events().size(), b.events().size());
    for (std::size_t i = 0; i < a.events().size(); ++i)
        ASSERT_EQ(a.events()[i], b.events()[i]) << "event " << i;
}

TEST(Determinism, ObserversDoNotPerturbTheRun)
{
    // Attaching a tracer/profiler must not change simulated behaviour.
    core::ExperimentRunner bare_runner(cfgWith(9));
    const auto bare = bare_runner.runApp("xalan", 8);

    core::ExperimentRunner observed_runner(cfgWith(9));
    trace::MemoryTraceSink sink;
    trace::ObjectTracer tracer(sink);
    lockprof::LockProfiler profiler;
    const auto observed = observed_runner.runApp(
        "xalan", 8, [&](jvm::JavaVm &vm) {
            vm.listeners().add(&tracer);
            vm.listeners().add(&profiler);
        });

    EXPECT_EQ(bare.wall_time, observed.wall_time);
    EXPECT_EQ(bare.gc_time, observed.gc_time);
    EXPECT_EQ(bare.sim_events, observed.sim_events);
    EXPECT_EQ(bare.locks.contentions, observed.locks.contentions);

    // The oracles share the VM's ledger and profiler with the blame
    // summary, the traffic engine and the timeline: arming them changes
    // no profile, traffic or timeline byte of an open-loop run.
    jscale::testing::TempDir dir;
    const auto open_loop = [&dir](bool oracles, std::string &timeline) {
        core::ExperimentConfig cfg = cfgWith(9);
        cfg.oracles = oracles;
        cfg.profile = true;
        cfg.arrivals = "poisson:rate=2000:requests=200";
        cfg.timeline_path = dir.file("t.json");
        core::ExperimentRunner runner(cfg);
        const jvm::RunResult r = runner.runApp("xalan", 8);
        EXPECT_FALSE(r.failed()) << r.run_error;
        std::ifstream in(cfg.timeline_path, std::ios::binary);
        timeline.assign(std::istreambuf_iterator<char>(in), {});
        std::ostringstream record;
        core::writeRunRecord(record, "key", "fingerprint", r);
        return record.str();
    };
    std::string plain_timeline;
    std::string checked_timeline;
    const std::string plain = open_loop(false, plain_timeline);
    const std::string checked = open_loop(true, checked_timeline);
    EXPECT_NE(plain.find("profile.enabled 1"), std::string::npos);
    EXPECT_NE(plain.find("traffic.enabled 1"), std::string::npos);
    EXPECT_EQ(plain, checked);
    EXPECT_FALSE(plain_timeline.empty());
    EXPECT_TRUE(plain_timeline == checked_timeline)
        << "timeline bytes differ with --oracles";
}

TEST(Determinism, AllAppsReplayExactly)
{
    for (const std::string app :
         {"sunflow", "lusearch", "xalan", "h2", "eclipse", "jython"}) {
        core::ExperimentRunner a(cfgWith(3));
        core::ExperimentRunner b(cfgWith(3));
        const auto ra = a.runApp(app, 4);
        const auto rb = b.runApp(app, 4);
        EXPECT_EQ(ra.wall_time, rb.wall_time) << app;
        EXPECT_EQ(ra.sim_events, rb.sim_events) << app;
        EXPECT_EQ(ra.heap.objects_allocated, rb.heap.objects_allocated)
            << app;
        EXPECT_EQ(ra.gc.minor_count, rb.gc.minor_count) << app;
    }
}

TEST(Determinism, CompartmentalizedModeReplays)
{
    auto run = [] {
        auto cfg = cfgWith(11);
        cfg.vm.heap.compartmentalized = true;
        core::ExperimentRunner runner(cfg);
        return runner.runApp("xalan", 8);
    };
    const auto a = run();
    const auto b = run();
    EXPECT_EQ(a.wall_time, b.wall_time);
    EXPECT_EQ(a.gc.local_count, b.gc.local_count);
}

TEST(Determinism, BiasedSchedulingReplays)
{
    auto run = [] {
        auto cfg = cfgWith(13);
        cfg.biased_scheduling = true;
        core::ExperimentRunner runner(cfg);
        return runner.runApp("sunflow", 8);
    };
    const auto a = run();
    const auto b = run();
    EXPECT_EQ(a.wall_time, b.wall_time);
    EXPECT_EQ(a.sim_events, b.sim_events);
}

// ---------------------------------------------------------------------
// Sequential-vs-parallel equivalence: the --jobs contract. A sweep at
// --jobs 8 must be indistinguishable from --jobs 1 — same RunResult
// fields, same report bytes, same full stat-registry dumps.
// ---------------------------------------------------------------------

/** Full-field comparison of two runs via their stat snapshots. */
void
expectRunsEqual(const jvm::RunResult &a, const jvm::RunResult &b,
                const std::string &label)
{
    const auto sa = core::runStatSnapshot(a);
    const auto sb = core::runStatSnapshot(b);
    ASSERT_EQ(sa.values().size(), sb.values().size()) << label;
    for (std::size_t i = 0; i < sa.values().size(); ++i) {
        EXPECT_EQ(sa.values()[i].name, sb.values()[i].name) << label;
        EXPECT_EQ(sa.values()[i].value, sb.values()[i].value)
            << label << ": " << sa.values()[i].name;
    }
    std::ostringstream csv_a, csv_b;
    sa.printCsv(csv_a);
    sb.printCsv(csv_b);
    EXPECT_EQ(csv_a.str(), csv_b.str()) << label;
}

TEST(ParallelEquivalence, SweepMatchesSequential)
{
    const std::vector<std::uint32_t> threads = {1, 2, 4, 8};
    auto sweep = [&threads](std::uint32_t jobs) {
        auto cfg = cfgWith(21);
        cfg.jobs = jobs;
        core::ExperimentRunner runner(cfg);
        return runner.sweep("xalan", threads);
    };
    const auto seq = sweep(1);
    const auto par = sweep(8);
    ASSERT_EQ(seq.size(), par.size());
    for (std::size_t i = 0; i < seq.size(); ++i) {
        EXPECT_EQ(seq[i].threads, par[i].threads);
        expectRunsEqual(seq[i], par[i],
                        "xalan t" + std::to_string(seq[i].threads));
    }
}

TEST(ParallelEquivalence, AllAppsMatchSequential)
{
    const std::vector<std::string> apps = {
        "sunflow", "lusearch", "xalan", "h2", "eclipse", "jython"};
    const std::vector<std::uint32_t> threads = {2, 4};
    auto sweepAll = [&](std::uint32_t jobs) {
        auto cfg = cfgWith(23);
        cfg.jobs = jobs;
        core::ExperimentRunner runner(cfg);
        return runner.sweepApps(apps, threads);
    };
    const auto seq = sweepAll(1);
    const auto par = sweepAll(8);
    ASSERT_EQ(seq.size(), par.size());
    for (const auto &app : apps) {
        ASSERT_EQ(seq.at(app).size(), par.at(app).size()) << app;
        for (std::size_t i = 0; i < seq.at(app).size(); ++i) {
            expectRunsEqual(
                seq.at(app)[i], par.at(app)[i],
                app + " t" + std::to_string(seq.at(app)[i].threads));
        }
    }
}

TEST(ParallelEquivalence, CsvReportBytesIdentical)
{
    auto report = [](std::uint32_t jobs) {
        auto cfg = cfgWith(25);
        cfg.jobs = jobs;
        core::ExperimentRunner runner(cfg);
        core::SweepSet sweeps =
            runner.sweepApps({"sunflow", "h2"}, {1, 2, 4});
        std::ostringstream os;
        core::writeScalabilityCsv(os, sweeps);
        return os.str();
    };
    EXPECT_EQ(report(1), report(8));
}

TEST(ParallelEquivalence, ReplicationMatchesSequential)
{
    auto replicate = [](std::uint32_t jobs) {
        auto cfg = cfgWith(27);
        cfg.jobs = jobs;
        core::ExperimentRunner runner(cfg);
        return runner.runReplicated("lusearch", 4, 4);
    };
    const auto seq = replicate(1);
    const auto par = replicate(8);
    ASSERT_EQ(seq.size(), par.size());
    // Replicas use distinct derived seeds, so they must differ from
    // each other but match across jobs settings pairwise.
    EXPECT_NE(seq[0].wall_time, seq[1].wall_time);
    for (std::size_t i = 0; i < seq.size(); ++i)
        expectRunsEqual(seq[i], par[i],
                        "replica " + std::to_string(i));
}

TEST(ParallelEquivalence, GovernedSweepMatchesSequential)
{
    // The governor steers each run, so this is the stronger form of the
    // --jobs contract: admission decisions (and thus parks, targets and
    // wall times) must be byte-identical at any parallelism.
    const std::vector<std::uint32_t> threads = {2, 4, 8};
    auto sweep = [&threads](std::uint32_t jobs) {
        auto cfg = cfgWith(31);
        cfg.jobs = jobs;
        cfg.governor.mode = control::GovernorMode::HillClimb;
        cfg.governor.interval = 1 * units::MS;
        core::ExperimentRunner runner(cfg);
        return runner.sweep("h2", threads);
    };
    const auto seq = sweep(1);
    const auto par = sweep(8);
    ASSERT_EQ(seq.size(), par.size());
    for (std::size_t i = 0; i < seq.size(); ++i) {
        EXPECT_EQ(seq[i].governor.enabled, par[i].governor.enabled);
        expectRunsEqual(seq[i], par[i],
                        "governed h2 t" +
                            std::to_string(seq[i].threads));
    }
}

TEST(ParallelEquivalence, GovernedCsvReportBytesIdentical)
{
    auto report = [](control::GovernorMode mode, std::uint32_t jobs) {
        auto cfg = cfgWith(33);
        cfg.jobs = jobs;
        cfg.governor.mode = mode;
        cfg.governor.interval = 1 * units::MS;
        core::ExperimentRunner runner(cfg);
        core::SweepSet sweeps =
            runner.sweepApps({"jython", "h2"}, {2, 4});
        std::ostringstream os;
        core::writeScalabilityCsv(os, sweeps);
        core::writeUslCsv(os, sweeps);
        return os.str();
    };
    EXPECT_EQ(report(control::GovernorMode::HillClimb, 1),
              report(control::GovernorMode::HillClimb, 8));
    EXPECT_EQ(report(control::GovernorMode::UslGuided, 1),
              report(control::GovernorMode::UslGuided, 8));
}

TEST(ParallelEquivalence, EveryAdmissionPolicyMatchesSequential)
{
    // The policy machinery (barging cursor, culling rotation, LCR
    // capacity measurement, coherence penalties) lives entirely inside
    // the simulated VM, so a lock-saturated sweep must stay
    // byte-identical at any --jobs under every admission policy.
    const std::vector<std::uint32_t> threads = {2, 4, 8};
    for (const jvm::LockPolicy policy : jvm::kAllLockPolicies) {
        auto sweep = [&](std::uint32_t jobs) {
            auto cfg = cfgWith(35);
            cfg.jobs = jobs;
            cfg.vm.locks.policy = policy;
            cfg.vm.locks.handoff_base = 250;
            cfg.vm.locks.coherence_cost = 500;
            core::ExperimentRunner runner(cfg);
            return runner.sweep("hotlock", threads);
        };
        const auto seq = sweep(1);
        const auto par = sweep(8);
        ASSERT_EQ(seq.size(), par.size());
        for (std::size_t i = 0; i < seq.size(); ++i) {
            EXPECT_EQ(seq[i].locks.handoffs, par[i].locks.handoffs);
            EXPECT_EQ(seq[i].locks.barged_grants,
                      par[i].locks.barged_grants);
            EXPECT_EQ(seq[i].locks.waiters_passivated,
                      par[i].locks.waiters_passivated);
            expectRunsEqual(seq[i], par[i],
                            std::string(jvm::lockPolicyName(policy)) +
                                " t" + std::to_string(seq[i].threads));
        }
    }
}

TEST(ParallelEquivalence, StudiesMatchSequential)
{
    // Each multi-arm study submits all its arms' points as one batch
    // (traffic: one per phase), so its CSV must not depend on --jobs.
    const auto csvs = [](std::uint32_t jobs) {
        core::ExperimentConfig base = cfgWith(37);
        base.jobs = jobs;
        base.error_path.clear();

        core::ResilienceConfig res;
        res.app = "sunflow";
        res.threads = 4;
        res.intensities = {0.0, 0.6};
        res.base = base;

        core::CollapseConfig col;
        col.threads = {2, 4};
        col.governed_arms = true;
        col.base = base;

        core::TrafficStudyConfig traf;
        traf.apps = {"sunflow", "h2"};
        traf.threads = {4};
        traf.load_factors = {0.5, 2.0};
        traf.requests = 60;
        traf.base = base;

        std::ostringstream os;
        core::resilienceTable(core::runResilienceStudy(res)).writeCsv(os);
        core::collapseTable(core::runCollapseStudy(col)).writeCsv(os);
        core::trafficStudyTable(core::runTrafficStudy(traf)).writeCsv(os);
        return os.str();
    };
    EXPECT_EQ(csvs(1), csvs(4));
}

TEST(ParallelEquivalence, JobsZeroUsesAllCoresAndStillMatches)
{
    auto sweep = [](std::uint32_t jobs) {
        auto cfg = cfgWith(29);
        cfg.jobs = jobs;
        core::ExperimentRunner runner(cfg);
        return runner.sweep("eclipse", {1, 4});
    };
    const auto seq = sweep(1);
    const auto def = sweep(0); // hardware concurrency
    ASSERT_EQ(seq.size(), def.size());
    for (std::size_t i = 0; i < seq.size(); ++i)
        expectRunsEqual(seq[i], def[i], "jobs0");
}

} // namespace
