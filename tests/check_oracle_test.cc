/**
 * @file
 * Oracle-suite tests: a clean run produces zero violations while
 * performing real checks, an armed suite is a pure observer (identical
 * simulated behaviour), attach() self-configures its gates from the
 * scheduler configuration, and each seeded event-stream bug (sabotage
 * mode) is caught with a diagnosis naming the offender.
 */

#include <gtest/gtest.h>

#include <string>

#include "base/error.hh"
#include "base/units.hh"
#include "core/fuzz.hh"
#include "check/oracle.hh"
#include "check/random_app.hh"
#include "profile/ledger.hh"
#include "profile/profiler.hh"
#include "test_apps.hh"

namespace {

using namespace jscale;

TEST(Oracle, ViolationFormatsWithOracleNameAndTime)
{
    check::InvariantViolation v;
    v.oracle = "heap-conservation";
    v.message = "object 7 allocated twice";
    v.at = 3 * units::MS;
    const std::string s = v.format();
    EXPECT_NE(s.find("heap-conservation:"), std::string::npos) << s;
    EXPECT_NE(s.find("object 7 allocated twice"), std::string::npos) << s;
    EXPECT_NE(s.find("3.00 ms"), std::string::npos) << s;
}

TEST(Oracle, OracleErrorIsAnAbortErrorCarryingTheViolation)
{
    check::InvariantViolation v;
    v.oracle = "monitor-exclusion";
    v.message = "two holders";
    const check::OracleError e(v);
    // AbortError is what the experiment harness isolates per run, so an
    // oracle hit gets an error artifact exactly like a watchdog timeout.
    const AbortError &base = e;
    EXPECT_NE(std::string(base.what()).find("invariant violation"),
              std::string::npos);
    EXPECT_EQ(e.violation.oracle, "monitor-exclusion");
}

TEST(Oracle, CleanRunPerformsChecksAndReportsNoViolations)
{
    jvm::VmConfig cfg = test::VmHarness::defaultVmConfig();
    cfg.heap.capacity = 3 * units::MiB; // small: force collections
    test::VmHarness h(8, cfg, /*seed=*/42);

    profile::ThreadStateLedger ledger;
    ledger.attach(h.vm);
    profile::TaskProfiler profiler;
    profiler.attach(h.vm, ledger);
    check::OracleSuite suite;
    suite.attach(h.vm, profiler);
    check::RandomApp app(42, /*monitors=*/4, /*tasks=*/120);
    const jvm::RunResult r = h.vm.run(app, 8);
    suite.finishRun(h.sim.now());

    EXPECT_TRUE(suite.violations().empty());
    EXPECT_EQ(suite.violationCount(), 0u);
    EXPECT_GT(suite.checksPerformed(), 1000u);
    EXPECT_EQ(r.total_tasks, 8u * 120u);

    // Detach is idempotent (the destructor detaches again).
    suite.detach();
    suite.detach();
}

TEST(Oracle, ArmedSuiteIsAPureObserver)
{
    const auto run = [](bool armed) {
        jvm::VmConfig cfg = test::VmHarness::defaultVmConfig();
        cfg.heap.capacity = 3 * units::MiB;
        test::VmHarness h(6, cfg, /*seed=*/7);
        profile::ThreadStateLedger ledger;
        profile::TaskProfiler profiler;
        check::OracleSuite suite;
        if (armed) {
            ledger.attach(h.vm);
            profiler.attach(h.vm, ledger);
            suite.attach(h.vm, profiler);
        }
        check::RandomApp app(7, 3, 80);
        const jvm::RunResult r = h.vm.run(app, 6);
        if (armed)
            suite.finishRun(h.sim.now());
        return r;
    };
    const jvm::RunResult plain = run(false);
    const jvm::RunResult checked = run(true);
    EXPECT_EQ(plain.wall_time, checked.wall_time);
    EXPECT_EQ(plain.sim_events, checked.sim_events);
    EXPECT_EQ(plain.gc.minor_count, checked.gc.minor_count);
    EXPECT_EQ(plain.locks.contentions, checked.locks.contentions);
    EXPECT_EQ(plain.heap.bytes_allocated, checked.heap.bytes_allocated);
}

TEST(Oracle, AttachDisarmsStarvationCheckWhenStealingIsOff)
{
    // Without work stealing a ready thread can legitimately wait
    // unboundedly for its home core, so attach() must disarm the
    // starvation-freedom oracle instead of producing false alarms.
    sim::Simulation sim(1);
    machine::Machine mach(machine::Machine::testMachine_2p8c());
    mach.enableCores(4);
    os::SchedulerConfig scfg;
    scfg.stealing = false;
    os::Scheduler sched(sim, mach, scfg);
    jvm::JavaVm vm(sim, mach, sched, test::VmHarness::defaultVmConfig());

    profile::TaskProfiler profiler;
    check::OracleSuite suite;
    EXPECT_TRUE(suite.config().starvation);
    suite.attach(vm, profiler);
    EXPECT_FALSE(suite.config().starvation);
}

TEST(Oracle, SabotagedEventStreamsAreCaughtAndDiagnosed)
{
    const struct
    {
        core::Sabotage sabotage;
        const char *oracle;
        const char *needle;
    } kinds[] = {
        {core::Sabotage::DupAlloc, "heap-conservation",
         "allocated twice"},
        {core::Sabotage::PhantomDeath, "heap-conservation", "object"},
        {core::Sabotage::DoubleRelease, "monitor-exclusion",
         "released"},
    };
    for (const auto &k : kinds) {
        core::FuzzCase c = core::caseForSeed(42);
        c.sabotage = k.sabotage;
        const core::FuzzOutcome out = core::runFuzzCase(c);
        ASSERT_FALSE(out.clean()) << core::sabotageName(k.sabotage);
        ASSERT_FALSE(out.violations.empty())
            << core::sabotageName(k.sabotage) << ": " << out.run_error;
        EXPECT_EQ(out.violations[0].oracle, k.oracle)
            << out.violations[0].format();
        EXPECT_NE(out.violations[0].message.find(k.needle),
                  std::string::npos)
            << out.violations[0].format();
    }
}

TEST(Oracle, UnsabotagedCaseIsCleanAcrossConfigurationSpace)
{
    // TLABs, faults and the governor all change the event stream the
    // oracles observe; none of them may trip a false alarm.
    for (const std::uint64_t seed : {1ULL, 9ULL, 23ULL, 77ULL}) {
        const core::FuzzOutcome out =
            core::runFuzzCase(core::caseForSeed(seed));
        EXPECT_TRUE(out.clean()) << "seed " << seed << ": "
                                 << out.diagnosis();
        EXPECT_GT(out.checks, 0u);
        EXPECT_GT(out.sim_time, 0u);
    }
}

TEST(Oracle, EveryAdmissionPolicyRunsOracleClean)
{
    // Barging reorders grants within its window, the culling policies
    // passivate and rotate waiters — the per-policy handoff models
    // must follow along without false alarms, including on a single
    // heavily contended monitor.
    for (const jvm::LockPolicy p : jvm::kAllLockPolicies) {
        for (const std::uint64_t seed : {5ULL, 42ULL, 91ULL}) {
            core::FuzzCase c = core::caseForSeed(seed);
            c.threads = 6;
            c.monitors = 1;
            c.policy = p;
            const core::FuzzOutcome out = core::runFuzzCase(c);
            EXPECT_TRUE(out.clean())
                << jvm::lockPolicyName(p) << " seed " << seed << ": "
                << out.diagnosis();
        }
    }
}

} // namespace
