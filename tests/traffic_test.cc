/**
 * @file
 * Tests for the open-system traffic subsystem: arrival-spec grammar,
 * arrival-stream determinism, per-request latency conservation, bounded
 * admission queues, multi-tenant hosting and the per-tenant sampler
 * gauge columns.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "core/report.hh"
#include "stats/stats.hh"
#include "telemetry/sampler.hh"
#include "traffic/arrival.hh"
#include "traffic/tenancy.hh"
#include "test_tempdir.hh"

namespace {

using namespace jscale;
using core::ExperimentConfig;
using core::ExperimentRunner;
using traffic::ArrivalProcess;
using traffic::ArrivalSpec;
using traffic::TenantSpec;

ExperimentConfig
fastConfig()
{
    ExperimentConfig cfg;
    cfg.workload_scale = 0.05;
    return cfg;
}

// ---------------------------------------------------------------------
// Spec grammar
// ---------------------------------------------------------------------

TEST(ArrivalSpec, ParsesEveryProcessFamily)
{
    ArrivalSpec s;
    std::string err;
    ASSERT_TRUE(ArrivalSpec::parse("poisson:rate=500:requests=100", s,
                                   err))
        << err;
    EXPECT_EQ(s.kind, traffic::ArrivalKind::Poisson);
    EXPECT_DOUBLE_EQ(s.rate, 500.0);
    EXPECT_EQ(s.requests, 100u);

    ASSERT_TRUE(ArrivalSpec::parse(
        "burst:rate=200:factor=8:on_ms=5:off_ms=15", s, err))
        << err;
    EXPECT_EQ(s.kind, traffic::ArrivalKind::Bursty);
    EXPECT_DOUBLE_EQ(s.burst_factor, 8.0);
    EXPECT_EQ(s.on_mean, 5 * units::MS);
    EXPECT_EQ(s.off_mean, 15 * units::MS);

    ASSERT_TRUE(ArrivalSpec::parse(
        "diurnal:rate=100:peak=4:period_ms=200", s, err))
        << err;
    EXPECT_EQ(s.kind, traffic::ArrivalKind::Diurnal);
    EXPECT_DOUBLE_EQ(s.peak_factor, 4.0);
    EXPECT_EQ(s.period, 200 * units::MS);
}

TEST(ArrivalSpec, DescribeRoundTrips)
{
    // Canonical specs print back byte for byte, fractional ms included,
    // and parse to the same fields.
    for (const char *spec :
         {"poisson:rate=350:requests=42:queue=7:shed=oldest",
          "burst:rate=1000:factor=2:on_ms=2.5:off_ms=0.4:requests=20",
          "diurnal:rate=100:peak=4:period_ms=1234567.5:requests=1000"}) {
        ArrivalSpec a;
        std::string err;
        ASSERT_TRUE(ArrivalSpec::parse(spec, a, err)) << spec << ": " << err;
        EXPECT_EQ(a.describe(), spec);
        ArrivalSpec b;
        ASSERT_TRUE(ArrivalSpec::parse(a.describe(), b, err))
            << a.describe() << ": " << err;
        EXPECT_EQ(a.kind, b.kind) << spec;
        EXPECT_EQ(a.rate, b.rate) << spec;
        EXPECT_EQ(a.requests, b.requests) << spec;
        EXPECT_EQ(a.queue_limit, b.queue_limit) << spec;
        EXPECT_EQ(a.shed, b.shed) << spec;
        EXPECT_EQ(a.burst_factor, b.burst_factor) << spec;
        EXPECT_EQ(a.on_mean, b.on_mean) << spec;
        EXPECT_EQ(a.off_mean, b.off_mean) << spec;
        EXPECT_EQ(a.peak_factor, b.peak_factor) << spec;
        EXPECT_EQ(a.period, b.period) << spec;
    }
}

TEST(ArrivalSpec, RejectsMalformedSpecs)
{
    ArrivalSpec s;
    std::string err;
    for (const char *bad :
         {"", "bogus:rate=1", "poisson", "poisson:rate=0",
          "poisson:rate=-5", "poisson:rate=1:rate=2",
          "poisson:rate=1:bananas=3", "poisson:rate=1:requests=0",
          "burst:rate=100:factor=0", "diurnal:rate=100:peak=0.5",
          "poisson:rate=1:shed=sometimes", "poisson:rate=+5",
          "poisson:rate= 5", "poisson:rate=0x10",
          "burst:rate=1000:factor=2:on_ms=1e300:requests=20",
          "diurnal:rate=100:period_ms=1e14",
          "poisson:rate=100:requests=1e300",
          "poisson:rate=100:requests=18446744073709551615",
          "poisson:rate=100:requests=2.5", "poisson:rate=100:queue=0.5",
          "poisson:rate=100:queue=1e300",
          "poisson:rate=100:requests=5:requests=5",
          "diurnal:rate=100:period_ms=0.0000001"}) {
        EXPECT_FALSE(ArrivalSpec::parse(bad, s, err)) << bad;
        EXPECT_FALSE(err.empty()) << bad;
    }
}

TEST(TenantSpec, ParsesListAndRejectsGarbage)
{
    std::vector<TenantSpec> tenants;
    std::string err;
    ASSERT_TRUE(TenantSpec::parseList(
        "h2:threads=4:rate=100;jython:threads=2:process=burst:rate=50:"
        "factor=4",
        tenants, err))
        << err;
    ASSERT_EQ(tenants.size(), 2u);
    EXPECT_EQ(tenants[0].app, "h2");
    EXPECT_EQ(tenants[0].threads, 4u);
    EXPECT_EQ(tenants[1].arrival.kind, traffic::ArrivalKind::Bursty);

    for (const char *bad :
         {"", "h2", "h2:rate=5", "h2:threads=0:rate=5",
          "h2:threads=4294967297:rate=5", "h2:threads=+2:rate=5",
          "nosuchapp:threads=2:rate=5",
          "h2:threads=2:rate=5;;h2:threads=2:rate=5",
          "h2:threads=2:rate=5:requests=1e300",
          "h2:threads=2:rate=5:requests=18446744073709551615",
          "h2:threads=2:rate=5:requests=2.5", "h2:threads=2:rate=5:queue=0.5",
          "h2:threads=2:rate=5:queue=1e300", "h2:threads=2.5:rate=5",
          "h2:threads=2:threads=2:rate=5", "h2:threads=2:rate=5:rate=5",
          "h2:threads=2:process=burst:process=burst:rate=5"}) {
        EXPECT_FALSE(TenantSpec::parseList(bad, tenants, err)) << bad;
    }
}

// ---------------------------------------------------------------------
// Arrival-stream determinism
// ---------------------------------------------------------------------

TEST(ArrivalProcess, SameSeedSameSchedule)
{
    ArrivalSpec spec;
    std::string err;
    ASSERT_TRUE(ArrivalSpec::parse(
        "burst:rate=1000:factor=6:on_ms=2:off_ms=8", spec, err));
    ArrivalProcess a(spec, Rng(99));
    ArrivalProcess b(spec, Rng(99));
    Ticks now_a = 0;
    Ticks now_b = 0;
    for (int i = 0; i < 5000; ++i) {
        const Ticks ga = a.nextGap(now_a);
        const Ticks gb = b.nextGap(now_b);
        ASSERT_EQ(ga, gb) << "arrival " << i;
        ASSERT_GE(ga, 1u);
        now_a += ga;
        now_b += gb;
    }
}

TEST(ArrivalProcess, SeedChangesSchedule)
{
    ArrivalSpec spec;
    std::string err;
    ASSERT_TRUE(ArrivalSpec::parse("poisson:rate=1000", spec, err));
    ArrivalProcess a(spec, Rng(1));
    ArrivalProcess b(spec, Rng(2));
    bool differs = false;
    Ticks now_a = 0;
    Ticks now_b = 0;
    for (int i = 0; i < 200 && !differs; ++i) {
        const Ticks ga = a.nextGap(now_a);
        const Ticks gb = b.nextGap(now_b);
        differs = ga != gb;
        now_a += ga;
        now_b += gb;
    }
    EXPECT_TRUE(differs);
}

// ---------------------------------------------------------------------
// Open-loop runs: conservation, determinism, --jobs byte-identity
// ---------------------------------------------------------------------

TEST(OpenLoop, RequestAccountingConserves)
{
    ExperimentConfig cfg = fastConfig();
    cfg.arrivals = "poisson:rate=400:requests=150";
    cfg.oracles = true; // the request-conservation oracle rides along
    ExperimentRunner runner(cfg);
    const jvm::RunResult r = runner.runApp("sunflow", 4);

    ASSERT_TRUE(r.traffic.enabled);
    EXPECT_EQ(r.traffic.arrivals, 150u);
    EXPECT_EQ(r.traffic.shed, 0u);
    EXPECT_EQ(r.traffic.admitted, 150u);
    EXPECT_EQ(r.traffic.dispatched, 150u);
    EXPECT_EQ(r.traffic.completed, 150u);
    EXPECT_EQ(r.traffic.sojourn.count(), 150u);
    EXPECT_EQ(r.traffic.queueing.count(), 150u);
    EXPECT_EQ(r.traffic.service.count(), 150u);

    // Integer-exact conservation: sojourn = queueing + service, and the
    // service time is fully attributed to wait-state buckets.
    EXPECT_EQ(r.traffic.sojourn.sum(),
              r.traffic.queueing.sum() + r.traffic.service.sum());
    EXPECT_EQ(r.traffic.service.sum(), r.traffic.serviceBucketTotal());
}

TEST(OpenLoop, DeterministicAcrossRuns)
{
    ExperimentConfig cfg = fastConfig();
    cfg.arrivals = "burst:rate=600:factor=4:requests=200";
    ExperimentRunner a(cfg);
    ExperimentRunner b(cfg);
    const jvm::RunResult ra = a.runApp("h2", 4);
    const jvm::RunResult rb = b.runApp("h2", 4);
    EXPECT_EQ(ra.wall_time, rb.wall_time);
    EXPECT_EQ(ra.traffic.sojourn.sum(), rb.traffic.sojourn.sum());
    EXPECT_EQ(ra.traffic.sojourn.quantile(0.99),
              rb.traffic.sojourn.quantile(0.99));
    EXPECT_EQ(ra.traffic.queueing.sum(), rb.traffic.queueing.sum());
    EXPECT_EQ(ra.sim_events, rb.sim_events);
}

TEST(OpenLoop, SweepByteIdenticalAcrossJobs)
{
    ExperimentConfig cfg = fastConfig();
    cfg.arrivals = "poisson:rate=500:requests=120";
    cfg.oracles = true;

    ExperimentConfig cfg1 = cfg;
    cfg1.jobs = 1;
    ExperimentConfig cfgN = cfg;
    cfgN.jobs = 4;
    ExperimentRunner seq(cfg1);
    ExperimentRunner par(cfgN);

    const std::vector<std::uint32_t> threads = {2, 4};
    const auto rs = seq.sweep("xalan", threads);
    const auto rp = par.sweep("xalan", threads);
    ASSERT_EQ(rs.size(), rp.size());

    std::ostringstream cs;
    std::ostringstream cp;
    core::trafficTable(rs).writeCsv(cs);
    core::trafficTable(rp).writeCsv(cp);
    EXPECT_EQ(cs.str(), cp.str());
    for (std::size_t i = 0; i < rs.size(); ++i) {
        const auto ss = core::runStatSnapshot(rs[i]);
        const auto sp = core::runStatSnapshot(rp[i]);
        std::ostringstream ds;
        std::ostringstream dp;
        ss.print(ds);
        sp.print(dp);
        EXPECT_EQ(ds.str(), dp.str()) << "threads " << rs[i].threads;
    }
}

/** FNV-1a 64 digest of @p text. */
std::uint64_t
fnv1a(const std::string &text)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : text) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

TEST(OpenLoop, PinnedDigestPerApp)
{
    // Every app's served request body is pinned byte for byte: the
    // stat snapshot and the traffic CSV of one oracle-checked run.
    ExperimentConfig cfg = fastConfig();
    cfg.arrivals = "poisson:rate=4000:requests=200";
    cfg.oracles = true;
    const std::vector<std::pair<std::string, std::uint64_t>> pinned = {
        {"sunflow", 0x393281d1fde1a144ull},
        {"lusearch", 0x338a1ccdd578a9f0ull},
        {"xalan", 0x68787ac28907615aull},
        {"h2", 0xc2e912b92ee317d8ull},
        {"eclipse", 0x52faf99c39c454bfull},
        {"jython", 0x84efc75ac734111aull},
        {"hotlock", 0xb2adfb0bdd1d3641ull},
    };
    for (const auto &[app, digest] : pinned) {
        ExperimentRunner runner(cfg);
        const jvm::RunResult r = runner.runApp(app, 4);
        ASSERT_EQ(r.traffic.completed, 200u) << app;
        std::ostringstream os;
        core::runStatSnapshot(r).print(os);
        core::trafficTable({r}).writeCsv(os);
        EXPECT_EQ(fnv1a(os.str()), digest)
            << app << ": 0x" << std::hex << fnv1a(os.str());
    }
}

// ---------------------------------------------------------------------
// Bounded admission queues
// ---------------------------------------------------------------------

TEST(OpenLoop, BoundedQueueShedsAndConserves)
{
    // Rate far beyond one slow worker's capacity with a 2-deep queue:
    // most arrivals must shed, and every request either completes or
    // sheds — never both, never neither.
    ExperimentConfig cfg = fastConfig();
    cfg.arrivals = "poisson:rate=20000:requests=300:queue=2:shed=drop";
    cfg.oracles = true;
    ExperimentRunner runner(cfg);
    const jvm::RunResult r = runner.runApp("jython", 1);

    ASSERT_TRUE(r.traffic.enabled);
    EXPECT_EQ(r.traffic.arrivals, 300u);
    EXPECT_GT(r.traffic.shed, 0u);
    // DropNewest rejects at the door: shed arrivals are never admitted.
    EXPECT_EQ(r.traffic.admitted + r.traffic.shed, r.traffic.arrivals);
    EXPECT_EQ(r.traffic.completed, r.traffic.admitted);
    EXPECT_EQ(r.traffic.dispatched, r.traffic.completed);
    EXPECT_LE(r.traffic.max_queue_depth, 2u);
}

TEST(OpenLoop, DropOldestEvictsAdmittedRequests)
{
    ExperimentConfig cfg = fastConfig();
    cfg.arrivals = "poisson:rate=20000:requests=300:queue=2:shed=oldest";
    cfg.oracles = true;
    ExperimentRunner runner(cfg);
    const jvm::RunResult r = runner.runApp("jython", 1);

    ASSERT_TRUE(r.traffic.enabled);
    EXPECT_GT(r.traffic.shed, 0u);
    // DropOldest admits every arrival and evicts from the queue, so
    // the conservation law runs through admitted, not arrivals.
    EXPECT_EQ(r.traffic.admitted, r.traffic.arrivals);
    EXPECT_EQ(r.traffic.completed + r.traffic.shed, r.traffic.admitted);
    EXPECT_EQ(r.traffic.dispatched, r.traffic.completed);
}

// ---------------------------------------------------------------------
// Histogram quantile edges at open-loop scale
// ---------------------------------------------------------------------

TEST(LatencyHistogramEdges, EmptyAndSingleValue)
{
    stats::LatencyHistogram h;
    EXPECT_EQ(h.quantile(0.0), 0u);
    EXPECT_EQ(h.quantile(0.99), 0u);
    h.add(12345);
    EXPECT_EQ(h.quantile(0.0), 12345u);
    EXPECT_EQ(h.quantile(0.5), 12345u);
    EXPECT_EQ(h.quantile(1.0), 12345u);
}

TEST(LatencyHistogramEdges, QuantilesAreRecordedLowerEdges)
{
    // At open-loop scale (10^5 samples spanning us..s magnitudes) each
    // quantile must land on the lower edge of an occupied bucket,
    // clamped to the exact extremes, and stay monotone in p.
    stats::LatencyHistogram h;
    Rng rng(7);
    std::uint64_t lo = ~0ULL;
    std::uint64_t hi = 0;
    for (int i = 0; i < 100000; ++i) {
        const auto v = static_cast<std::uint64_t>(
            1000.0 * rng.exponential(1.0) * (1 + i % 997));
        h.add(v);
        lo = std::min(lo, v);
        hi = std::max(hi, v);
    }
    EXPECT_EQ(h.min(), lo);
    EXPECT_EQ(h.max(), hi);
    EXPECT_EQ(h.quantile(0.0), lo);
    // p=1 lands on the lower edge of the bucket holding the maximum
    // (clamped into [min, max]) — within one bucket's width of max.
    const std::uint64_t top = h.quantile(1.0);
    EXPECT_GE(top, stats::LatencyHistogram::bucketLowerEdge(
                       stats::LatencyHistogram::bucketIndex(hi)));
    EXPECT_LE(top, hi);
    std::uint64_t prev = 0;
    for (const double p : {0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}) {
        const std::uint64_t q = h.quantile(p);
        EXPECT_GE(q, prev) << "p=" << p;
        EXPECT_GE(q, lo);
        EXPECT_LE(q, hi);
        if (q > lo && q < hi) {
            // Interior quantiles sit exactly on a bucket lower edge.
            EXPECT_EQ(
                q, stats::LatencyHistogram::bucketLowerEdge(
                       stats::LatencyHistogram::bucketIndex(q)))
                << "p=" << p;
        }
        prev = q;
    }
}

// ---------------------------------------------------------------------
// Multi-tenant hosting
// ---------------------------------------------------------------------

TEST(MultiTenant, CoreAccountingTotals)
{
    ExperimentConfig cfg = fastConfig();
    std::vector<TenantSpec> specs;
    std::string err;
    ASSERT_TRUE(TenantSpec::parseList(
        "sunflow:threads=4:rate=300:requests=80;"
        "h2:threads=4:rate=200:requests=60",
        specs, err))
        << err;
    ExperimentRunner runner(cfg);
    const auto results = runner.runTenants(specs);
    ASSERT_EQ(results.size(), 2u);

    Ticks host_wall = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
        const jvm::RunResult &r = results[i];
        ASSERT_FALSE(r.failed()) << r.run_error;
        EXPECT_EQ(r.threads, specs[i].threads);
        EXPECT_EQ(r.cores, 8u); // 4 + 4 tenant threads, one core each
        ASSERT_TRUE(r.traffic.enabled);
        EXPECT_EQ(r.traffic.tenant, i);
        EXPECT_EQ(r.traffic.completed + r.traffic.shed,
                  r.traffic.admitted);
        host_wall = std::max(host_wall, r.wall_time);

        // Each tenant summarizes only its own scheduling group: exactly
        // its mutators, and every thread's CPU fits inside the host run.
        std::uint64_t mutators = 0;
        for (const jvm::ThreadSummary &ts : r.thread_summaries) {
            mutators += ts.kind == os::ThreadKind::Mutator ? 1 : 0;
            EXPECT_LE(ts.cpu_time, host_wall);
        }
        EXPECT_EQ(mutators, specs[i].threads);
    }

    // The shared machine cannot hand out more CPU than cores x wall.
    std::uint64_t total_cpu = 0;
    for (const jvm::RunResult &r : results)
        for (const jvm::ThreadSummary &ts : r.thread_summaries)
            total_cpu += ts.cpu_time;
    EXPECT_LE(total_cpu, static_cast<std::uint64_t>(host_wall) * 8u);
}

TEST(MultiTenant, DeterministicAcrossHosts)
{
    ExperimentConfig cfg = fastConfig();
    std::vector<TenantSpec> specs;
    std::string err;
    ASSERT_TRUE(TenantSpec::parseList(
        "xalan:threads=2:rate=200:requests=60;"
        "jython:threads=2:rate=150:requests=40",
        specs, err));
    ExperimentRunner a(cfg);
    ExperimentRunner b(cfg);
    const auto ra = a.runTenants(specs);
    const auto rb = b.runTenants(specs);
    ASSERT_EQ(ra.size(), rb.size());
    for (std::size_t i = 0; i < ra.size(); ++i) {
        EXPECT_EQ(ra[i].wall_time, rb[i].wall_time);
        EXPECT_EQ(ra[i].traffic.sojourn.sum(),
                  rb[i].traffic.sojourn.sum());
        EXPECT_EQ(ra[i].traffic.sojourn.quantile(0.99),
                  rb[i].traffic.sojourn.quantile(0.99));
    }
}

TEST(MultiTenant, OraclesCleanUnderSharedScheduler)
{
    ExperimentConfig cfg = fastConfig();
    cfg.oracles = true;
    std::vector<TenantSpec> specs;
    std::string err;
    ASSERT_TRUE(TenantSpec::parseList(
        "h2:threads=2:rate=200:requests=50;"
        "sunflow:threads=2:rate=300:requests=60",
        specs, err));
    ExperimentRunner runner(cfg);
    const auto results = runner.runTenants(specs);
    for (const jvm::RunResult &r : results)
        EXPECT_FALSE(r.failed()) << r.run_error;
}

TEST(MultiTenant, EveryTenantGetsItsOwnGovernor)
{
    // The governor is a per-VM part of the run rig, so a governed
    // tenant run steers each tenant's admission on its own.
    ExperimentConfig cfg = fastConfig();
    cfg.governor.mode = control::GovernorMode::HillClimb;
    cfg.governor.interval = 1 * units::MS;
    std::vector<TenantSpec> specs;
    std::string err;
    ASSERT_TRUE(TenantSpec::parseList(
        "h2:threads=4:rate=2000:requests=200;"
        "jython:threads=4:rate=1500:requests=200",
        specs, err))
        << err;
    ExperimentRunner runner(cfg);
    const auto results = runner.runTenants(specs);
    ASSERT_EQ(results.size(), 2u);
    for (const jvm::RunResult &r : results) {
        ASSERT_FALSE(r.failed()) << r.run_error;
        EXPECT_TRUE(r.governor.enabled) << r.app_name;
        EXPECT_EQ(r.governor.policy, "hill") << r.app_name;
        EXPECT_GT(r.governor.decisions, 0u) << r.app_name;
    }
}

TEST(MultiTenant, FinishedTenantDisarmsItsWatchdog)
{
    // A finished tenant's progress gauges stop moving while its
    // neighbour runs on for far longer than the watchdog tolerates a
    // stall (10 x 1 ms here); only the running tenant may be watched.
    ExperimentConfig cfg = fastConfig();
    cfg.watchdog = true;
    cfg.watchdog_config.interval = 1 * units::MS;
    cfg.watchdog_config.stalled_limit = 10;
    std::vector<TenantSpec> specs;
    std::string err;
    ASSERT_TRUE(TenantSpec::parseList(
        "h2:threads=4:rate=4000:requests=40;"
        "jython:threads=4:rate=1500:requests=300",
        specs, err))
        << err;
    ExperimentRunner runner(cfg);
    const auto results = runner.runTenants(specs);
    ASSERT_EQ(results.size(), 2u);
    for (const jvm::RunResult &r : results)
        ASSERT_FALSE(r.failed()) << r.run_error;
    EXPECT_GT(results[1].wall_time,
              results[0].wall_time + 20 * cfg.watchdog_config.interval);
}

// ---------------------------------------------------------------------
// Per-tenant sampler gauges (single-tenant schema stays fixed)
// ---------------------------------------------------------------------

/** First line of file @p path (empty when unreadable). */
std::string
headerLine(const std::string &path)
{
    std::ifstream in(path);
    std::string line;
    std::getline(in, line);
    return line;
}

TEST(MultiTenant, SamplerSchemaFixedForSingleTenant)
{
    const jscale::testing::TempDir tmp;
    const std::string single = tmp.file("metrics_single.csv");
    const std::string dual = tmp.file("metrics_dual.csv");

    ExperimentConfig cfg = fastConfig();
    cfg.metrics_interval = 1 * units::MS;
    std::vector<TenantSpec> specs;
    std::string err;

    // One tenant: the CSV schema must stay byte-identical to the fixed
    // header — no per-tenant gauge columns appear.
    cfg.metrics_path = single;
    ASSERT_TRUE(TenantSpec::parseList("sunflow:threads=2:rate=300:"
                                      "requests=60",
                                      specs, err));
    ExperimentRunner one(cfg);
    (void)one.runTenants(specs);
    EXPECT_EQ(headerLine(single),
              telemetry::MetricSampler::csvHeader());

    // Two tenants: queue-depth and in-flight columns per tenant append
    // after the fixed schema.
    cfg.metrics_path = dual;
    ASSERT_TRUE(TenantSpec::parseList(
        "sunflow:threads=2:rate=300:requests=60;"
        "h2:threads=2:rate=200:requests=40",
        specs, err));
    ExperimentRunner two(cfg);
    (void)two.runTenants(specs);
    const std::string header = headerLine(dual);
    const std::string fixed = telemetry::MetricSampler::csvHeader();
    ASSERT_EQ(header.compare(0, fixed.size(), fixed), 0) << header;
    EXPECT_NE(header.find("tenant0_sunflow_queued"), std::string::npos)
        << header;
    EXPECT_NE(header.find("tenant1_h2_inflight"), std::string::npos)
        << header;
}

} // namespace
