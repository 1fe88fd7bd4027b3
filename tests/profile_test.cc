/**
 * @file
 * Tests for the wait-state attribution layer: LatencyHistogram bucket
 * exactness and merge algebra, TaskProfiler latency conservation on
 * real runs, the pure-observer guarantee (profiled primary stats ==
 * unprofiled), and --jobs invariance of the blame study.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "check/oracle.hh"
#include "core/blame.hh"
#include "core/experiment.hh"
#include "core/report.hh"
#include "profile/ledger.hh"
#include "profile/profiler.hh"
#include "stats/stats.hh"
#include "telemetry/recorder.hh"
#include "test_apps.hh"
#include "test_tempdir.hh"
#include "traffic/tenancy.hh"

namespace {

using namespace jscale;
using stats::LatencyHistogram;
using test::TinyApp;
using test::TinyAppParams;
using test::VmHarness;

// ---------------------------------------------------------------------
// LatencyHistogram: bucket boundaries
// ---------------------------------------------------------------------

TEST(LatencyHistogram, SmallValuesGetExactBuckets)
{
    // Below 2 * kSubBuckets every value is its own bucket, so small
    // latencies (the common case in tick units) are stored exactly.
    for (std::uint64_t v = 0; v < 2 * LatencyHistogram::kSubBuckets;
         ++v) {
        EXPECT_EQ(LatencyHistogram::bucketIndex(v), v);
        EXPECT_EQ(LatencyHistogram::bucketLowerEdge(v), v);
    }
}

TEST(LatencyHistogram, BucketEdgesBracketTheirValues)
{
    const std::vector<std::uint64_t> probes = {
        0,      1,      63,       64,        65,         127,
        128,    1000,   4096,     4097,      1u << 20,   (1u << 20) + 1,
        999983, 1u << 31, (1ull << 40) - 1, 1ull << 40,
        (1ull << 63) - 1, 1ull << 63, ~0ull};
    for (const std::uint64_t v : probes) {
        const std::size_t i = LatencyHistogram::bucketIndex(v);
        ASSERT_LT(i, LatencyHistogram::kBuckets) << v;
        EXPECT_LE(LatencyHistogram::bucketLowerEdge(i), v) << v;
        if (i + 1 < LatencyHistogram::kBuckets) {
            EXPECT_GT(LatencyHistogram::bucketLowerEdge(i + 1), v) << v;
        }
    }
}

TEST(LatencyHistogram, LowerEdgesAreFixedPoints)
{
    // Every bucket's lower edge must map back to that bucket, and the
    // edge sequence must be strictly increasing.
    std::uint64_t prev = 0;
    for (std::size_t i = 0; i < LatencyHistogram::kBuckets; ++i) {
        const std::uint64_t edge = LatencyHistogram::bucketLowerEdge(i);
        EXPECT_EQ(LatencyHistogram::bucketIndex(edge), i) << i;
        if (i > 0) {
            EXPECT_GT(edge, prev) << i;
        }
        prev = edge;
    }
}

// ---------------------------------------------------------------------
// LatencyHistogram: merge algebra
// ---------------------------------------------------------------------

void
expectIdentical(const LatencyHistogram &a, const LatencyHistogram &b)
{
    EXPECT_EQ(a.count(), b.count());
    EXPECT_EQ(a.sum(), b.sum());
    EXPECT_EQ(a.min(), b.min());
    EXPECT_EQ(a.max(), b.max());
    for (std::size_t i = 0; i < LatencyHistogram::kBuckets; ++i)
        ASSERT_EQ(a.bucket(i), b.bucket(i)) << "bucket " << i;
}

LatencyHistogram
histOf(const std::vector<std::uint64_t> &values)
{
    LatencyHistogram h;
    for (const auto v : values)
        h.add(v);
    return h;
}

TEST(LatencyHistogram, MergeIsCommutative)
{
    const LatencyHistogram a = histOf({1, 5, 70, 1000, 1u << 20});
    const LatencyHistogram b = histOf({0, 63, 64, 999983});

    LatencyHistogram ab = a;
    ab.merge(b);
    LatencyHistogram ba = b;
    ba.merge(a);
    expectIdentical(ab, ba);
}

TEST(LatencyHistogram, MergeIsAssociative)
{
    const LatencyHistogram a = histOf({3, 3, 3, 129});
    const LatencyHistogram b = histOf({64, 65, 1ull << 40});
    const LatencyHistogram c = histOf({7, 4095, 4096});

    LatencyHistogram left = a; // (a + b) + c
    left.merge(b);
    left.merge(c);
    LatencyHistogram bc = b; // a + (b + c)
    bc.merge(c);
    LatencyHistogram right = a;
    right.merge(bc);
    expectIdentical(left, right);
}

TEST(LatencyHistogram, MergeMatchesDirectAccumulation)
{
    // Shard-and-merge (the --jobs path) must equal single-stream adds.
    const std::vector<std::uint64_t> all = {9, 12, 800, 800, 65536, 2};
    LatencyHistogram direct = histOf(all);
    LatencyHistogram s1 = histOf({9, 12, 800});
    const LatencyHistogram s2 = histOf({800, 65536, 2});
    s1.merge(s2);
    expectIdentical(direct, s1);
}

// ---------------------------------------------------------------------
// LatencyHistogram: quantile edge cases
// ---------------------------------------------------------------------

TEST(LatencyHistogram, QuantileOfEmptyIsZero)
{
    const LatencyHistogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.quantile(0.0), 0u);
    EXPECT_EQ(h.quantile(0.5), 0u);
    EXPECT_EQ(h.quantile(1.0), 0u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 0u);
}

TEST(LatencyHistogram, QuantileOfSingleSampleIsThatSample)
{
    LatencyHistogram h;
    h.add(123456789);
    for (const double p : {0.0, 0.5, 0.99, 0.999, 1.0})
        EXPECT_EQ(h.quantile(p), 123456789u) << p;
}

TEST(LatencyHistogram, QuantileOfAllEqualSamplesIsExact)
{
    LatencyHistogram h;
    // 1000 falls in a log bucket whose lower edge is below it; the
    // min/max clamp must still return the exact value at every p.
    h.add(1000, 500);
    for (const double p : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0})
        EXPECT_EQ(h.quantile(p), 1000u) << p;
}

TEST(LatencyHistogram, QuantilesAreOrderStatistics)
{
    LatencyHistogram h;
    for (std::uint64_t v = 1; v <= 100; ++v)
        h.add(v); // values 1..100, all exact buckets
    EXPECT_EQ(h.quantile(0.0), 1u);
    EXPECT_EQ(h.quantile(0.5), 50u);
    EXPECT_EQ(h.quantile(0.9), 90u);
    EXPECT_EQ(h.quantile(1.0), 100u);
}

TEST(LatencyHistogram, ZeroWeightAddIsNoOp)
{
    LatencyHistogram h;
    h.add(42, 0);
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.sum(), 0u);
}

// ---------------------------------------------------------------------
// TaskProfiler: latency conservation on real simulated runs
// ---------------------------------------------------------------------

TEST(TaskProfiler, BucketsSumToWallForEveryTask)
{
    TinyAppParams params;
    params.tasks_per_thread = 8;
    params.use_shared_lock = 20 * units::US; // force lock waits
    TinyApp app(params);

    VmHarness h(4);
    profile::ThreadStateLedger ledger;
    profile::TaskProfiler profiler;
    std::uint64_t checked = 0;
    profiler.addTaskSink([&checked](const jvm::SlowTaskRecord &rec) {
        Ticks sum = 0;
        for (std::size_t i = 0; i < jvm::kWaitBucketCount; ++i)
            sum += rec.buckets[i];
        ASSERT_EQ(sum, rec.wall())
            << "task " << rec.task << " on thread " << rec.thread;
        ++checked;
    });
    ledger.attach(h.vm);
    profiler.attach(h.vm, ledger);
    h.vm.run(app, 4);
    profiler.finishRun(h.sim.now());

    EXPECT_EQ(checked, 4u * 8u);
    const jvm::ProfileSummary s = profiler.summary();
    EXPECT_TRUE(s.enabled);
    EXPECT_EQ(s.tasks, checked);

    // Aggregate conservation: bucket totals sum to the latency sum.
    Ticks bucket_sum = 0;
    for (std::size_t i = 0; i < jvm::kWaitBucketCount; ++i)
        bucket_sum += s.bucket_total[i];
    EXPECT_EQ(bucket_sum, s.latency.sum());
    EXPECT_EQ(s.total(), bucket_sum);
}

TEST(TaskProfiler, ContendedLockDominatesBlame)
{
    TinyAppParams params;
    params.tasks_per_thread = 6;
    params.compute_per_task = 2 * units::US;
    params.use_shared_lock = 100 * units::US; // long critical section
    TinyApp app(params);

    VmHarness h(8);
    profile::ThreadStateLedger ledger;
    ledger.attach(h.vm);
    profile::TaskProfiler profiler;
    profiler.attach(h.vm, ledger);
    h.vm.run(app, 8);
    profiler.finishRun(h.sim.now());

    const jvm::ProfileSummary s = profiler.summary();
    EXPECT_EQ(s.dominantWait(), jvm::WaitBucket::Lock);
    EXPECT_GT(s.bucket_total[static_cast<std::size_t>(
                  jvm::WaitBucket::Lock)],
              0u);
    // The contended monitor shows up in the per-monitor wait list.
    ASSERT_FALSE(s.lock_waits.empty());
    EXPECT_GT(s.lock_waits.front().wait, 0u);
    EXPECT_GT(s.lock_waits.front().blocks, 0u);
}

TEST(TaskProfiler, SlowestTasksAreSortedAndCapped)
{
    TinyAppParams params;
    params.tasks_per_thread = 10;
    TinyApp app(params);

    VmHarness h(2);
    profile::ThreadStateLedger ledger;
    ledger.attach(h.vm);
    profile::TaskProfiler profiler;
    profiler.attach(h.vm, ledger);
    h.vm.run(app, 2);
    profiler.finishRun(h.sim.now());

    const jvm::ProfileSummary s = profiler.summary(3);
    ASSERT_EQ(s.slowest.size(), 3u);
    for (std::size_t i = 1; i < s.slowest.size(); ++i)
        EXPECT_GE(s.slowest[i - 1].wall(), s.slowest[i].wall());
}

// ---------------------------------------------------------------------
// Experiment harness: pure-observer and --jobs guarantees
// ---------------------------------------------------------------------

core::ExperimentConfig
fastConfig()
{
    core::ExperimentConfig cfg;
    cfg.workload_scale = 0.05;
    return cfg;
}

TEST(ProfiledExperiment, PrimaryStatsIdenticalToUnprofiled)
{
    core::ExperimentConfig plain_cfg = fastConfig();
    core::ExperimentConfig prof_cfg = fastConfig();
    prof_cfg.profile = true;

    core::ExperimentRunner plain(plain_cfg);
    core::ExperimentRunner profiled(prof_cfg);
    const jvm::RunResult a = plain.runApp("xalan", 4);
    const jvm::RunResult b = profiled.runApp("xalan", 4);

    EXPECT_FALSE(a.profile.enabled);
    EXPECT_TRUE(b.profile.enabled);

    // The profiler is a pure observer: every primary stat must be
    // byte-identical with and without it.
    std::ostringstream sa;
    std::ostringstream sb;
    core::runStatSnapshot(a).printCsv(sa);
    core::runStatSnapshot(b).printCsv(sb);
    EXPECT_EQ(sa.str(), sb.str());
}

TEST(ProfiledExperiment, ProfileFillsSummaryAndReports)
{
    core::ExperimentConfig cfg = fastConfig();
    cfg.profile = true;
    cfg.profile_topk = 4;
    core::ExperimentRunner runner(cfg);
    const jvm::RunResult r = runner.runApp("h2", 8);

    ASSERT_TRUE(r.profile.enabled);
    EXPECT_EQ(r.profile.tasks, r.total_tasks);
    EXPECT_LE(r.profile.slowest.size(), 4u);
    EXPECT_EQ(r.profile.latency.count(), r.profile.tasks);

    // The blame reports render without blowing up and carry the
    // conservation identity through to the CSV.
    std::ostringstream table;
    core::printBlameTable(table, r);
    EXPECT_NE(table.str().find("task wall"), std::string::npos);
    std::ostringstream csv;
    core::blameTable(r).writeCsv(csv);
    EXPECT_NE(csv.str().find("p99_ns"), std::string::npos);
    std::ostringstream hist;
    core::profileHistogramTable(r).writeCsv(hist);
    EXPECT_NE(hist.str().find("lower_edge_ns"), std::string::npos);
}

/** Ledgers and profilers subscribed to one probe chain. */
struct ObserverCount
{
    int ledgers = 0;
    int profilers = 0;
};

template <typename Chain>
ObserverCount
countObservers(const Chain &chain)
{
    ObserverCount c;
    for (auto *l : chain.all()) {
        c.ledgers += dynamic_cast<profile::ThreadStateLedger *>(l) != nullptr;
        c.profilers += dynamic_cast<profile::TaskProfiler *>(l) != nullptr;
    }
    return c;
}

TEST(ProfiledExperiment, OneLedgerAndOneProfilerPerVm)
{
    jscale::testing::TempDir dir;
    const auto counts = [](core::ExperimentConfig cfg) {
        std::vector<ObserverCount> seen(2);
        core::ExperimentRunner runner(cfg);
        runner.runApp("sunflow", 4, [&seen](jvm::JavaVm &vm) {
            seen[0] = countObservers(vm.listeners());
            seen[1] = countObservers(vm.scheduler().listeners());
        });
        return seen;
    };

    // Every consumer at once on an open-loop run: still one of each.
    core::ExperimentConfig all = fastConfig();
    all.oracles = true;
    all.profile = true;
    all.arrivals = "poisson:rate=2000:requests=50";
    all.timeline_path = dir.file("t.json");
    std::vector<ObserverCount> c = counts(all);
    EXPECT_EQ(c[0].ledgers, 1);
    EXPECT_EQ(c[0].profilers, 1);
    EXPECT_EQ(c[1].ledgers, 1);
    EXPECT_EQ(c[1].profilers, 0) << "the profiler reads the ledger";

    // A timeline alone needs the ledger, not the profiler.
    core::ExperimentConfig timeline = fastConfig();
    timeline.timeline_path = dir.file("t2.json");
    c = counts(timeline);
    EXPECT_EQ(c[0].ledgers, 1);
    EXPECT_EQ(c[0].profilers, 0);

    // A bare run subscribes neither.
    c = counts(fastConfig());
    EXPECT_EQ(c[0].ledgers + c[0].profilers + c[1].ledgers, 0);

    // Co-hosted tenants: one of each per VM; the scheduler chain is
    // shared, so it carries one ledger per tenant.
    core::ExperimentConfig tenants = fastConfig();
    tenants.oracles = true;
    tenants.profile = true;
    std::vector<traffic::TenantSpec> specs;
    std::string err;
    ASSERT_TRUE(traffic::TenantSpec::parseList(
        "h2:threads=2:rate=400:requests=20;"
        "sunflow:threads=2:rate=400:requests=20",
        specs, err))
        << err;
    std::vector<ObserverCount> per_vm;
    ObserverCount sched;
    core::ExperimentRunner runner(tenants);
    const auto results =
        runner.runTenants(specs, [&](jvm::JavaVm &vm) {
            per_vm.push_back(countObservers(vm.listeners()));
            sched = countObservers(vm.scheduler().listeners());
        });
    ASSERT_EQ(results.size(), 2u);
    ASSERT_EQ(per_vm.size(), 2u);
    for (const ObserverCount &vm : per_vm) {
        EXPECT_EQ(vm.ledgers, 1);
        EXPECT_EQ(vm.profilers, 1);
    }
    EXPECT_EQ(sched.ledgers, 2);
    EXPECT_EQ(sched.profilers, 0);
    EXPECT_TRUE(results[0].profile.enabled);
    EXPECT_TRUE(results[1].profile.enabled);
}

/** The caller's attach hook, as seen on the probe chain. */
struct HookProbe : jvm::RuntimeListener
{};

/**
 * The rig's parts on @p chain, in subscription order: L(edger),
 * P(rofiler), O(racles), R(ecorder), H(ook); anything else is left out.
 */
template <typename Chain>
std::string
chainOrder(const Chain &chain)
{
    std::string order;
    for (auto *l : chain.all()) {
        if (dynamic_cast<profile::ThreadStateLedger *>(l) != nullptr)
            order += 'L';
        else if (dynamic_cast<profile::TaskProfiler *>(l) != nullptr)
            order += 'P';
        else if (dynamic_cast<check::OracleSuite *>(l) != nullptr)
            order += 'O';
        else if (dynamic_cast<telemetry::TelemetryRecorder *>(l) != nullptr)
            order += 'R';
        else if (dynamic_cast<HookProbe *>(l) != nullptr)
            order += 'H';
    }
    return order;
}

TEST(RunRig, ChainOrderIsLedgerProfilerOraclesRecorderHook)
{
    jscale::testing::TempDir dir;
    core::ExperimentConfig all = fastConfig();
    all.oracles = true;
    all.profile = true;
    all.watchdog = true;
    all.governor.mode = control::GovernorMode::HillClimb;

    // One VM with every observer armed, a timeline included.
    core::ExperimentConfig one = all;
    one.arrivals = "poisson:rate=2000:requests=50";
    one.timeline_path = dir.file("t.json");
    one.metrics_interval = 1 * units::MS;
    HookProbe probe;
    std::string runtime;
    core::ExperimentRunner runner(one);
    const jvm::RunResult r =
        runner.runApp("sunflow", 4, [&](jvm::JavaVm &vm) {
            vm.listeners().add(&probe);
            runtime = chainOrder(vm.listeners());
        });
    ASSERT_FALSE(r.failed()) << r.run_error;
    EXPECT_EQ(runtime, "LPORH");

    // Two co-hosted tenants (no timeline): the same order on each VM.
    std::vector<traffic::TenantSpec> specs;
    std::string err;
    ASSERT_TRUE(traffic::TenantSpec::parseList(
        "h2:threads=2:rate=400:requests=20;"
        "sunflow:threads=2:rate=400:requests=20",
        specs, err))
        << err;
    HookProbe probes[2];
    std::vector<std::string> per_vm;
    core::ExperimentRunner tenants(all);
    const auto results =
        tenants.runTenants(specs, [&](jvm::JavaVm &vm) {
            vm.listeners().add(&probes[per_vm.size()]);
            per_vm.push_back(chainOrder(vm.listeners()));
        });
    ASSERT_EQ(results.size(), 2u);
    ASSERT_EQ(per_vm.size(), 2u);
    EXPECT_EQ(per_vm[0], "LPOH");
    EXPECT_EQ(per_vm[1], "LPOH");
}

TEST(RunRig, FailedArtifactCommitClaimsNoFile)
{
    // Both artifact paths name existing directories, so each writer
    // opens its temp file but cannot rename it into place. The run
    // reports both errors and must not claim either file.
    jscale::testing::TempDir dir;
    core::ExperimentConfig cfg = fastConfig();
    cfg.timeline_path = dir.file("t");
    cfg.metrics_path = dir.file("m");
    cfg.metrics_interval = 1 * units::MS;
    std::filesystem::create_directory(cfg.timeline_path);
    std::filesystem::create_directory(cfg.metrics_path);

    core::ExperimentRunner runner(cfg);
    const jvm::RunResult r = runner.runApp("xalan", 2);
    ASSERT_FALSE(r.failed()) << r.run_error;
    EXPECT_EQ(r.artifact_errors.size(), 2u);
    EXPECT_TRUE(r.timeline_file.empty()) << r.timeline_file;
    EXPECT_EQ(r.timeline_events, 0u);
    EXPECT_TRUE(r.metrics_file.empty()) << r.metrics_file;
    EXPECT_EQ(r.metric_rows, 0u);

    // The same run into writable paths claims both files.
    cfg.timeline_path = dir.file("t.json");
    cfg.metrics_path = dir.file("m.csv");
    core::ExperimentRunner ok(cfg);
    const jvm::RunResult w = ok.runApp("xalan", 2);
    EXPECT_TRUE(w.artifact_errors.empty());
    EXPECT_EQ(w.timeline_file, cfg.timeline_path);
    EXPECT_GT(w.timeline_events, 0u);
    EXPECT_EQ(w.metrics_file, cfg.metrics_path);
    EXPECT_GT(w.metric_rows, 0u);
}

TEST(ProfiledExperiment, BlameStudyIsJobsInvariant)
{
    core::BlameConfig seq;
    seq.apps = {"h2", "lusearch"};
    seq.threads = {2, 4};
    seq.base = fastConfig();
    seq.base.jobs = 1;
    core::BlameConfig par = seq;
    par.base.jobs = 4;

    const core::BlameStudy a = core::runBlameStudy(seq);
    const core::BlameStudy b = core::runBlameStudy(par);

    std::ostringstream ca;
    std::ostringstream cb;
    core::blameStudyTable(a).writeCsv(ca);
    core::blameStudyTable(b).writeCsv(cb);
    EXPECT_EQ(ca.str(), cb.str());
    EXPECT_FALSE(ca.str().empty());
}

} // namespace
