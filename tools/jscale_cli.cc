/**
 * @file
 * jscale — the command entry points and the command table. `jscale
 * --help` lists the commands, `jscale <cmd> --help` the flags of one.
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "base/atomic_file.hh"
#include "base/error.hh"
#include "base/output.hh"
#include "check/golden.hh"
#include "cli.hh"
#include "core/analyze.hh"
#include "core/blame.hh"
#include "core/collapse.hh"
#include "core/plots.hh"
#include "core/report.hh"
#include "core/resilience.hh"
#include "core/shard.hh"
#include "core/traffic_study.hh"
#include "jvm/gc/gclog.hh"
#include "lockprof/lockprof.hh"
#include "trace/trace.hh"
#include "workload/dacapo.hh"

namespace jscale::cli {

namespace {

/** Multi-tenant run: N JVMs co-located on one simulated machine. */
int
runTenants(const CliOptions &o)
{
    core::ExperimentRunner runner(o.config);
    const auto results = runner.runTenants(o.tenants);
    TextTable t;
    t.header({"tenant", "app", "threads", "status", "wall", "tasks"});
    for (std::size_t i = 0; i < results.size(); ++i) {
        const jvm::RunResult &r = results[i];
        t.row({std::to_string(i), r.app_name,
               std::to_string(r.threads),
               r.failed() ? "failed" : "ok", formatTicks(r.wall_time),
               std::to_string(r.total_tasks)});
    }
    t.print(std::cout);
    std::cout << "\n";
    core::printTrafficTable(std::cout, results);
    if (o.csv)
        core::trafficTable(results).writeCsv(std::cout << "\n");
    for (const jvm::RunResult &r : results) {
        if (r.failed()) {
            std::cerr << "tenant " << r.app_name
                      << " failed: " << r.run_error << "\n";
            return 1;
        }
    }
    return 0;
}

int
cmdApps(const CliOptions &)
{
    TextTable t;
    t.header({"app", "class", "model"});
    t.align(2, TextTable::Align::Left);
    const std::map<std::string, const char *> models = {
        {"sunflow", "task queue, compute-heavy (raytracer)"},
        {"lusearch", "task queue, striped index cache (search)"},
        {"xalan", "task queue, hot output buffer (XSLT)"},
        {"h2", "coarse database lock (transactions)"},
        {"eclipse", "fixed-width compile pipeline"},
        {"jython", "interpreter lock, <=4 workers"}};
    for (const auto &name : workload::dacapoAppNames()) {
        t.row({name,
               workload::dacapoExpectedScalable(name) ? "scalable"
                                                      : "non-scalable",
               models.at(name)});
    }
    t.print(std::cout);
    return 0;
}

core::VmAttachHook
gcLogHook(const CliOptions &o,
          std::unique_ptr<std::ofstream> &log_stream,
          std::unique_ptr<jvm::GcLogWriter> &writer)
{
    if (o.gclog_path.empty())
        return {};
    log_stream = std::make_unique<std::ofstream>(o.gclog_path);
    if (!*log_stream) {
        std::cerr << "cannot open gc log '" << o.gclog_path << "'\n";
        std::exit(2);
    }
    return [&log_stream, &writer](jvm::JavaVm &vm) {
        writer = std::make_unique<jvm::GcLogWriter>(*log_stream, vm);
        vm.listeners().add(writer.get());
    };
}

int
cmdRun(const CliOptions &o)
{
    if (!o.tenants.empty())
        return runTenants(o);
    core::ExperimentRunner runner(o.config);
    std::unique_ptr<std::ofstream> log_stream;
    std::unique_ptr<jvm::GcLogWriter> writer;
    const jvm::RunResult r = runner.runApp(
        o.app, o.threads.front(), gcLogHook(o, log_stream, writer));
    core::printRunSummary(std::cout, r);
    if (r.traffic.enabled) {
        std::cout << "\n";
        core::printTrafficTable(std::cout, {r});
        if (o.csv)
            core::trafficTable({r}).writeCsv(std::cout << "\n");
    }
    if (o.per_thread) {
        std::cout << "\n";
        core::printThreadTable(std::cout, r);
    }
    if (r.profile.enabled) {
        std::cout << "\n";
        core::printBlameTable(std::cout, r);
        if (o.csv) {
            core::blameTable(r).writeCsv(std::cout << "\n");
            core::profileHistogramTable(r).writeCsv(std::cout << "\n");
        }
    }
    if (r.locks.acquisitions > 0) {
        std::cout << "lock states: " << r.locks.biased_acquisitions
                  << " biased, " << r.locks.thin_acquisitions
                  << " thin, " << r.locks.fat_acquisitions << " fat ("
                  << r.locks.bias_revocations << " revocations, "
                  << r.locks.inflations << " inflations)\n";
    }
    if (r.locks.handoffs > 0) {
        std::cout << "admission ["
                  << jvm::describeLockPolicyConfig(o.config.vm.locks) << "]: "
                  << r.locks.handoffs << " handoffs, "
                  << r.locks.barged_grants << " barged, "
                  << r.locks.waiters_passivated << " passivated, "
                  << r.locks.waiters_reactivated << " reactivated, "
                  << formatTicks(r.locks.coherence_penalty)
                  << " coherence penalty\n";
    }
    if (r.gc.local_count > 0) {
        std::cout << "local GCs: " << r.gc.local_count << " ("
                  << formatTicks(r.gc.local_pause)
                  << " thread-local pause)\n";
    }
    if (r.gc.concurrent_cycles > 0) {
        std::cout << "concurrent GC: " << r.gc.concurrent_cycles
                  << " cycles, " << r.gc.remark_count << " remarks, "
                  << r.gc.concurrent_failures << " mode failures\n";
    }
    if (r.gc.young_resizes > 0) {
        std::cout << "adaptive sizing: " << r.gc.young_resizes
                  << " young-gen resizes, final young fraction "
                  << formatFixed(r.gc.adaptive.final_young_fraction, 3)
                  << "\n";
    }
    if (writer) {
        std::cout << "gc log: " << writer->lines() << " lines -> "
                  << o.gclog_path << "\n";
    }
    if (!r.timeline_file.empty()) {
        std::cout << "timeline: " << r.timeline_events << " events -> "
                  << r.timeline_file << "\n";
    }
    if (!r.metrics_file.empty()) {
        std::cout << "metrics: " << r.metric_rows << " samples -> "
                  << r.metrics_file << "\n";
    }
    return 0;
}

int
cmdSweep(const CliOptions &o)
{
    core::ExperimentRunner runner(o.config);
    if (o.replicas > 1) {
        // Replicated mode: mean and 95% CI over derived seeds.
        TextTable t;
        t.header({"app", "threads", "replicas", "wall-mean", "wall-ci95",
                  "gc-mean"});
        for (const auto threads : o.threads) {
            const auto reps =
                runner.runReplicated(o.app, threads, o.replicas);
            const auto wall =
                core::ScalabilityAnalyzer::wallTimeConfidence(reps);
            std::vector<double> gcs;
            for (const auto &r : reps)
                gcs.push_back(static_cast<double>(r.gc_time));
            const auto gc = core::ScalabilityAnalyzer::confidence(gcs);
            t.row({o.app, std::to_string(threads),
                   std::to_string(o.replicas),
                   formatTicks(static_cast<Ticks>(wall.mean)),
                   "+/- " + formatTicks(static_cast<Ticks>(wall.ci95)),
                   formatTicks(static_cast<Ticks>(gc.mean))});
        }
        t.print(std::cout);
        return 0;
    }
    core::SweepSet sweeps;
    sweeps[o.app] = runner.sweep(o.app, o.threads);
    core::printScalabilityTable(std::cout, sweeps);
    if (!o.config.arrivals.empty()) {
        std::cout << "\n";
        core::printTrafficTable(std::cout, sweeps[o.app]);
        if (o.csv)
            core::trafficTable(sweeps[o.app]).writeCsv(std::cout << "\n");
    }
    for (const auto &r : sweeps[o.app]) {
        if (!r.timeline_file.empty()) {
            std::cout << "timeline (" << r.threads << " threads): "
                      << r.timeline_events << " events -> "
                      << r.timeline_file << "\n";
        }
    }
    if (o.csv)
        core::writeScalabilityCsv(std::cout << "\n", sweeps);
    return 0;
}

int
cmdStudy(const CliOptions &o)
{
    core::ExperimentRunner runner(o.config);
    const auto threads = runner.paperThreadCounts();
    // One batch for the whole (app x threads) cross product, so --jobs
    // parallelism spans apps instead of draining one sweep at a time.
    for (const std::string &app : workload::dacapoAppNames())
        std::cerr << "sweeping " << app << "...\n";
    core::SweepSet sweeps =
        runner.sweepApps(workload::dacapoAppNames(), threads);
    core::printScalabilityTable(std::cout, sweeps);
    core::printWorkloadDistributionTable(std::cout << '\n', sweeps);
    core::printLockAcquisitionTable(std::cout << '\n', sweeps);
    core::printLockContentionTable(std::cout << '\n', sweeps);
    core::printMutatorGcTable(std::cout << '\n', sweeps);
    core::printUslTable(std::cout << '\n', sweeps);
    if (o.csv) {
        core::writeScalabilityCsv(std::cout << "\n", sweeps);
        core::writeUslCsv(std::cout << "\n", sweeps);
    }
    if (!o.plots_dir.empty()) {
        const auto files = core::writeAllFigures(o.plots_dir, sweeps);
        std::cerr << "wrote " << files.size() << " figure files to "
                  << o.plots_dir << "\n";
    }
    return 0;
}

int
cmdLifespan(const CliOptions &o)
{
    core::ExperimentRunner runner(o.config);
    std::vector<jvm::RunResult> sweep = runner.sweep(o.app, o.threads);
    core::printLifespanCdfTable(std::cout, o.app, sweep);
    if (o.csv)
        core::lifespanCdfTable(o.app, sweep).writeCsv(std::cout << "\n");
    return 0;
}

int
cmdLocks(const CliOptions &o)
{
    core::ExperimentRunner runner(o.config);
    lockprof::LockProfiler profiler;
    const jvm::RunResult r = runner.runApp(
        o.app, o.threads.front(),
        [&profiler](jvm::JavaVm &vm) { vm.listeners().add(&profiler); });
    std::cout << "Lock profile: " << o.app << " @ " << r.threads
              << " threads (wall " << formatTicks(r.wall_time) << ")\n\n";
    profiler.printReport(std::cout);
    return 0;
}

int
cmdTrace(const CliOptions &o)
{
    const std::string path = o.out_path.empty() ? "jscale.trace" : o.out_path;
    std::ofstream out(path, std::ios::binary);
    if (!out) {
        std::cerr << "cannot open '" << path << "'\n";
        return 2;
    }
    trace::BinaryTraceWriter writer(out);
    trace::ObjectTracer tracer(writer);
    core::ExperimentRunner runner(o.config);
    const jvm::RunResult r = runner.runApp(
        o.app, o.threads.front(),
        [&tracer](jvm::JavaVm &vm) { vm.listeners().add(&tracer); });
    writer.flush();
    std::cout << "traced " << o.app << " @ " << r.threads << " threads: "
              << writer.recordCount() << " events ("
              << r.heap.objects_allocated << " allocations) -> "
              << path << "\n";
    return 0;
}

int
cmdAnalyze(const CliOptions &o)
{
    std::ifstream in(o.in_path, std::ios::binary);
    if (!in) {
        std::cerr << "cannot open --in '" << o.in_path << "'\n";
        return 2;
    }
    trace::BinaryTraceReader reader(in);
    trace::LifespanAnalyzer analyzer;
    trace::TraceEvent ev;
    std::uint64_t events = 0;
    while (reader.next(ev)) {
        analyzer.feed(ev);
        ++events;
    }
    std::cout << "trace '" << o.in_path << "': " << events
              << " events, " << analyzer.allocs() << " allocations, "
              << analyzer.deaths() << " deaths\n\n";

    TextTable cdf;
    cdf.header({"lifespan <", "fraction"});
    for (const auto thr : trace::paperLifespanThresholds()) {
        cdf.row({formatBytes(thr),
                 formatPercent(analyzer.histogram().fractionBelow(thr))});
    }
    cdf.print(std::cout);

    std::cout << "\nhottest allocation sites by volume:\n";
    TextTable sites;
    sites.header({"site", "objects", "bytes", "median-lifespan"});
    for (const auto &s : analyzer.topSites(8)) {
        sites.row({std::to_string(s.site), std::to_string(s.objects),
                   formatBytes(s.bytes), formatBytes(s.median_lifespan)});
    }
    sites.print(std::cout);
    return 0;
}

/** Split one CSV line on commas (our CSVs quote no number). */
std::vector<std::string>
splitCsvLine(const std::string &line)
{
    std::vector<std::string> fields;
    std::stringstream ss(line);
    std::string item;
    while (std::getline(ss, item, ','))
        fields.push_back(item);
    return fields;
}

/** A finite number, nothing else; exit(2) with context on garbage. */
double
parseCsvNumber(const std::string &field, const char *what,
               std::size_t line_no)
{
    double v = 0.0;
    if (!parseNumber(field, v) || !std::isfinite(v)) {
        std::cerr << "bad " << what << " '" << field << "' on line "
                  << line_no << "\n";
        std::exit(2);
    }
    return v;
}

int
cmdUsl(const CliOptions &o)
{
    std::ifstream in(o.in_path);
    if (!in) {
        std::cerr << "cannot open --in '" << o.in_path << "'\n";
        return 2;
    }

    // Locate the needed columns by name, so both writeScalabilityCsv
    // output and hand-made measurement files fit.
    std::string line;
    if (!std::getline(in, line)) {
        std::cerr << "'" << o.in_path << "' is empty\n";
        return 2;
    }
    const auto header = splitCsvLine(line);
    constexpr std::size_t npos = static_cast<std::size_t>(-1);
    std::size_t app_col = npos;
    std::size_t threads_col = npos;
    std::size_t speedup_col = npos;
    for (std::size_t i = 0; i < header.size(); ++i) {
        if (header[i] == "app")
            app_col = i;
        else if (header[i] == "threads")
            threads_col = i;
        else if (header[i] == "speedup")
            speedup_col = i;
    }
    if (app_col == npos || threads_col == npos || speedup_col == npos) {
        std::cerr << "'" << o.in_path
                  << "' needs app, threads and speedup columns\n";
        return 2;
    }
    const std::size_t need =
        std::max({app_col, threads_col, speedup_col}) + 1;

    std::vector<core::UslSeries> series;
    std::size_t line_no = 1;
    while (std::getline(in, line)) {
        ++line_no;
        if (line.empty())
            continue;
        const auto fields = splitCsvLine(line);
        if (fields.size() < need) {
            std::cerr << "short row on line " << line_no << " of '"
                      << o.in_path << "'\n";
            return 2;
        }
        const std::string &app = fields[app_col];
        const double threads = parseCsvNumber(fields[threads_col],
                                              "thread count", line_no);
        const double speedup =
            parseCsvNumber(fields[speedup_col], "speedup", line_no);
        if (threads < 1.0 || speedup <= 0.0) {
            std::cerr << "non-positive measurement on line " << line_no
                      << " of '" << o.in_path << "'\n";
            return 2;
        }
        auto it = std::find_if(
            series.begin(), series.end(),
            [&app](const core::UslSeries &s) { return s.app == app; });
        if (it == series.end()) {
            series.push_back({app, {}});
            it = series.end() - 1;
        }
        it->points.push_back({threads, speedup});
    }
    if (series.empty()) {
        std::cerr << "'" << o.in_path << "' has no data rows\n";
        return 2;
    }
    core::printUslSeriesTable(std::cout, series);
    return 0;
}

int
cmdFaults(const CliOptions &o)
{
    if (!o.given("--faults")) {
        std::cerr << "faults requires --faults <spec>\n";
        return 2;
    }
    // Already validated by the flag parser; print the expanded schedule.
    std::cout << o.config.faults.describe() << "\n";
    return 0;
}

int
cmdResilience(const CliOptions &o)
{
    core::ResilienceConfig cfg;
    cfg.app = o.app;
    cfg.threads = o.threads.front();
    cfg.intensities = o.intensities;
    cfg.horizon = o.horizon;
    // --governor selects the governed arm's policy; the study itself
    // toggles governed vs. ungoverned, so off falls back to hill.
    cfg.governed_mode = o.config.governor.mode != control::GovernorMode::Off
                            ? o.config.governor.mode
                            : control::GovernorMode::HillClimb;
    cfg.base = o.config;
    cfg.base.faults = {};
    cfg.base.governor.mode = control::GovernorMode::Off;

    const auto points = core::runResilienceStudy(cfg);
    core::printResilienceTable(std::cout, points);
    if (o.csv)
        core::resilienceTable(points).writeCsv(std::cout << "\n");
    return 0;
}

int
cmdProfile(const CliOptions &o)
{
    core::BlameConfig cfg;
    // Default: the full six-app study over the paper thread ladder;
    // --app / --threads narrow it explicitly.
    if (o.given("--app")) {
        cfg.apps = {o.app};
    }
    if (o.given("--threads"))
        cfg.threads = o.threads;
    cfg.topk = o.config.profile_topk;
    cfg.base = o.config;

    const core::BlameStudy study = core::runBlameStudy(cfg);
    core::printBlameStudyTable(std::cout, study);
    if (o.csv)
        core::blameStudyTable(study).writeCsv(std::cout << "\n");
    if (!o.plots_dir.empty()) {
        std::vector<std::string> files;
        for (const std::string &app : cfg.apps) {
            std::vector<jvm::RunResult> sweep;
            for (const core::BlamePoint &p : study.points) {
                if (p.app == app)
                    sweep.push_back(p.run);
            }
            const auto more =
                core::writeBlameFigure(o.plots_dir, app, sweep);
            files.insert(files.end(), more.begin(), more.end());
        }
        std::cerr << "wrote " << files.size() << " figure files to "
                  << o.plots_dir << "\n";
    }
    return 0;
}

int
cmdFuzz(const CliOptions &o)
{
    if (!o.replay_path.empty()) {
        core::FuzzCase c;
        std::string err;
        if (!core::readReproducer(o.replay_path, c, err)) {
            std::cerr << "bad reproducer: " << err << "\n";
            return 2;
        }
        std::cout << "replaying " << c.describe() << "\n";
        const core::FuzzOutcome out = core::runFuzzCase(c);
        for (const auto &v : out.violations)
            std::cout << "violation: " << v.format() << "\n";
        if (out.run_failed)
            std::cout << "run error: " << out.run_error << "\n";
        if (out.clean()) {
            std::cout << "replay ran clean (" << out.checks
                      << " checks)\n";
            return 0;
        }
        return 1;
    }

    std::vector<std::uint64_t> seeds;
    seeds.reserve(o.fuzz_seeds);
    // The campaign seed list derives from --seed, so two campaigns
    // with the same flags cover the same cases.
    for (std::uint64_t i = 0; i < o.fuzz_seeds; ++i)
        seeds.push_back(o.config.seed + i);
    core::FuzzCampaignIo io;
    io.shard_index = o.config.shard_index;
    io.shard_count = o.config.shard_count;
    if (!o.config.run_cache_dir.empty()) {
        io.cache_dir = o.config.run_cache_dir;
        std::ostringstream fp;
        fp << "fuzz seeds=" << o.fuzz_seeds << " base=" << o.config.seed
           << " sabotage=" << core::sabotageName(o.sabotage);
        io.fingerprint = fp.str();
    }
    const core::FuzzReport report = core::runFuzzCampaign(
        seeds, o.sabotage, static_cast<std::uint32_t>(o.shrink_budget),
        &std::cerr, io);
    std::cout << report.cases_run << " case(s), " << report.total_checks
              << " invariant checks, " << report.failures.size()
              << " failure(s)\n";
    if (!report.failed())
        return 0;

    const core::FuzzOutcome &first = report.failures.front();
    std::cout << "first failure: " << first.fuzz_case.describe() << "\n"
              << "  " << first.diagnosis() << "\n"
              << "shrunk (" << report.shrink_runs
              << " re-runs): " << report.shrunk.describe() << "\n";
    const std::string path =
        o.out_path.empty() ? "jscale-fuzz.repro" : o.out_path;
    AtomicFileWriter repro(path);
    std::string werr;
    if (!repro.ok()) {
        std::cerr << "cannot open '" << path << "'\n";
    } else {
        core::writeReproducer(repro.stream(), report);
        if (!repro.commit(werr)) {
            std::cerr << "cannot write '" << path << "': " << werr
                      << "\n";
        } else {
            std::cout << "reproducer -> " << path
                      << " (replay with: jscale fuzz --replay " << path
                      << ")\n";
        }
    }
    return 1;
}

int
cmdTraffic(const CliOptions &o)
{
    core::TrafficStudyConfig cfg;
    // Default: three representative apps over {8, 16} threads;
    // --app / --threads narrow or widen explicitly.
    if (o.given("--app")) {
        cfg.apps = {o.app};
    }
    if (o.given("--threads"))
        cfg.threads = o.threads;
    cfg.load_factors = o.loads;
    std::sort(cfg.load_factors.begin(), cfg.load_factors.end());
    cfg.requests = o.requests;
    cfg.base = o.config;
    // The study drives the arrival spec itself, rung by rung.
    cfg.base.arrivals.clear();

    const core::TrafficStudy study = core::runTrafficStudy(cfg);
    core::printTrafficStudyTable(std::cout, study);
    if (o.csv)
        core::trafficStudyTable(study).writeCsv(std::cout << "\n");
    return 0;
}

int
cmdCollapse(const CliOptions &o)
{
    core::CollapseConfig cfg;
    // Default: the E19 lock-saturated microbenchmark over the paper
    // thread ladder, all four policies; --app / --threads /
    // --lock-policy narrow explicitly.
    if (o.given("--app")) {
        cfg.app = o.app;
    }
    if (o.given("--threads"))
        cfg.threads = o.threads;
    if (o.given("--lock-policy"))
        cfg.policies = {o.config.vm.locks.policy};
    // --governor adds an E17-governed arm per policy.
    cfg.governed_arms = o.config.governor.mode != control::GovernorMode::Off;
    cfg.base = o.config;
    cfg.base.governor.mode = control::GovernorMode::Off;

    const core::CollapseStudy study = core::runCollapseStudy(cfg);
    core::printCollapseTable(std::cout, study);
    if (o.csv)
        core::collapseTable(study).writeCsv(std::cout << "\n");
    return 0;
}

int
cmdGolden(const CliOptions &o)
{
    const std::string path =
        o.out_path.empty() ? "jscale.golden" : o.out_path;
    const bool record = o.action == "record";
    if (!record && o.action != "verify") {
        std::cerr << "golden requires an action: jscale golden "
                     "record|verify [flags]\n";
        return 2;
    }
    check::GoldenFile file;
    CliOptions ro = o;
    if (!record) {
        std::string err;
        if (!check::readGoldenFile(path, file, err)) {
            std::cerr << "bad golden file: " << err << "\n";
            return 2;
        }
        // The sweep definition comes from the file, parsed as its flags
        // would be; remaining knobs (compartments, governor, ...) come
        // from the CLI and are cross-checked through the fingerprint.
        for (const char *key : {"app", "threads", "seed", "scale"}) {
            const std::string value = file.configValue(key);
            const std::string bad =
                value.empty() ? std::string("missing config entry ") + key
                              : setFlag(ro, std::string("--") + key, value);
            if (!bad.empty()) {
                std::cerr << "bad golden file: " << bad << "\n";
                return 2;
            }
        }
    }
    core::ExperimentRunner runner(ro.config);
    const std::string fingerprint = runner.campaignFingerprint();
    if (!record && file.configValue("fingerprint") != fingerprint) {
        std::cerr << "configuration drift:\n  recorded: "
                  << file.configValue("fingerprint")
                  << "\n  current:  " << fingerprint
                  << "\n(pass the flags the file was recorded with)\n";
        return 1;
    }
    std::vector<check::GoldenRun> runs;
    for (const jvm::RunResult &r : runner.sweep(ro.app, ro.threads)) {
        if (r.failed()) {
            std::cerr << (record ? "cannot record: run" : "verify run")
                      << " at " << r.threads
                      << " threads failed: " << r.run_error << "\n";
            return 1;
        }
        runs.push_back({r.app_name, r.threads, core::runStatSnapshot(r)});
    }
    if (!record) {
        const auto diffs = check::diffGolden(file, runs);
        if (diffs.empty()) {
            std::cout << "golden verify OK: " << file.runs.size()
                      << " run(s) bit-identical (" << path << ")\n";
            return 0;
        }
        std::cout << "golden verify FAILED: " << diffs.size()
                  << " field(s) drifted (" << path << ")\n";
        const std::size_t shown = std::min<std::size_t>(diffs.size(), 20);
        for (std::size_t i = 0; i < shown; ++i)
            std::cout << "  " << diffs[i].format() << "\n";
        if (shown < diffs.size())
            std::cout << "  ... and " << diffs.size() - shown << " more\n";
        return 1;
    }
    if (o.config.shard_count > 1) {
        // A shard worker executes (and caches) only its slice; the other
        // points come back as skipped markers. Writing a snapshot from
        // that would publish a scratch partial file the merge step then
        // has to race against — so shard workers only populate the cache
        // and the merge's rewrite (shard_count == 1, every point
        // salvaged) is the one authoritative snapshot.
        std::cout << "shard slice cached; snapshot deferred to merge\n";
        return 0;
    }
    for (const char *key : {"app", "threads", "seed"}) {
        file.config.emplace_back(
            key, findFlag(std::string("--") + key)->value.show(o));
    }
    std::ostringstream scale;
    scale.precision(17);
    scale << o.config.workload_scale;
    file.config.emplace_back("scale", scale.str());
    file.config.emplace_back("fingerprint", fingerprint);
    file.runs = std::move(runs);
    std::ofstream out(path);
    if (!out) {
        std::cerr << "cannot open '" << path << "'\n";
        return 2;
    }
    check::writeGolden(out, file);
    std::cout << "recorded " << file.runs.size() << " run(s) -> " << path
              << "\n";
    return 0;
}

/** Run @p o's command; a single run that aborts exits 1. */
int
dispatch(const CliOptions &o)
{
    try {
        return findCommand(o.command)->run(o);
    } catch (const AbortError &e) {
        // A single-run command hit the watchdog or the sim-time guard.
        // Batch commands isolate these per run and never get here.
        std::cerr << "aborted: " << e.what() << "\n";
        return 1;
    }
}

/** Per-point accounting line: every planned point lands in exactly one
 *  bucket, so a campaign can never lose work silently. */
int
runAccounted(const CliOptions &o, const std::string &what)
{
    core::resetCampaignPointStats();
    const int rc = dispatch(o);
    const core::CampaignPointStats &p = core::campaignPointStats();
    std::cerr << what << ": " << p.executed.load() << " executed, "
              << p.salvaged.load() << " salvaged, " << p.skipped.load()
              << " skipped, " << p.failed.load() << " failed, "
              << p.missing.load() << " missing\n";
    return rc;
}

/** A wrapper's nested command (checked when the wrapper was parsed). */
CliOptions
nestedOptions(const CliOptions &o, const char *default_cache_dir)
{
    CliOptions inner;
    parseCommandLine(o.nested, inner);
    inner.config.run_cache_dir =
        o.given("--cache-dir") ? o.config.run_cache_dir : default_cache_dir;
    return inner;
}

int
cmdShard(const CliOptions &o)
{
    if (o.config.shard_index >= o.config.shard_count) {
        std::cerr << "jscale shard: --index " << o.config.shard_index
                  << " out of range for --of " << o.config.shard_count << "\n";
        return 2;
    }
    CliOptions inner = nestedOptions(o, "jscale-cache");
    inner.config.shard_index = o.config.shard_index;
    inner.config.shard_count = o.config.shard_count;
    return runAccounted(inner, "shard " + std::to_string(o.config.shard_index) +
                                   "/" + std::to_string(o.config.shard_count));
}

int
cmdMerge(const CliOptions &o)
{
    CliOptions inner = nestedOptions(o, "jscale-cache");
    inner.config.merge_strict = !o.fill;
    const int rc = runAccounted(inner, "merge");
    const std::uint64_t missing = core::campaignPointStats().missing;
    if (rc == 0 && missing > 0) {
        std::cerr << "merge: " << missing
                  << " point(s) missing from the cache — partial "
                     "campaign (re-run the failed shards, or pass "
                     "--fill to run them here)\n";
        return 3;
    }
    return rc;
}

/**
 * Forks --shards workers of this binary, supervises them (watchdog,
 * classify, retry with backoff), then merges in-process. The final
 * exit code comes from the merged data, not the worker exits: a shard
 * that crashed but whose points were salvaged is a success; points
 * still missing after the retry budget make the campaign partial (3).
 */
int
cmdCampaign(const CliOptions &o)
{
    CliOptions merged = nestedOptions(o, "jscale-campaign/cache");
    merged.config.merge_strict = true;
    core::SupervisorConfig scfg = o.supervisor;
    if (!o.given("--log-dir"))
        scfg.log_dir = "jscale-campaign/logs";
    if (o.chaos) {
        scfg.chaos_kill_after = o.chaos_kill_after;
        scfg.chaos_victim =
            static_cast<std::uint32_t>(o.chaos_seed % o.shards);
        std::cerr << "chaos: shard " << scfg.chaos_victim
                  << " dies after " << o.chaos_kill_after
                  << " durable record(s) on its first attempt\n";
    }
    const auto argvFor = [&](std::uint32_t s) {
        std::vector<std::string> a = {
            "/proc/self/exe",  "shard", "--index",
            std::to_string(s), "--of",  std::to_string(o.shards),
            "--cache-dir",     merged.config.run_cache_dir};
        a.insert(a.end(), o.nested.begin(), o.nested.end());
        return a;
    };
    const core::SupervisorReport report =
        core::superviseWorkers(o.shards, scfg, argvFor, std::cerr);
    report.print(std::cerr);

    // Merge in-process: with every point a cache hit, this renders the
    // exact bytes a single-process run would produce.
    const int rc = runAccounted(merged, "campaign merge");
    if (rc != 0)
        return rc;
    const std::uint64_t missing = core::campaignPointStats().missing;
    if (missing > 0) {
        std::cerr << "campaign: " << missing
                  << " point(s) still missing after "
                  << report.totalAttempts()
                  << " attempt(s) — partial result set\n";
        return 3;
    }
    return 0;
}

int
cmdSupervise(const CliOptions &o)
{
    const auto argvFor = [&](std::uint32_t) { return o.nested; };
    const core::SupervisorReport report =
        core::superviseWorkers(1, o.supervisor, argvFor, std::cerr);
    report.print(std::cerr);
    const core::WorkerOutcome &w = report.workers.front();
    if (w.succeeded)
        return 0;
    const core::WorkerAttempt *last = w.last();
    if (last != nullptr &&
        last->failure == core::FailureClass::Deterministic)
        return last->exit_code; // pass the command's own verdict through
    return 3; // crash/timeout persisted through the retry budget
}

} // namespace

const std::vector<Command> &
commandTable()
{
    using Operand = Command::Operand;
    static const std::vector<Command> table = {
        {"apps", "list the modeled applications", cmdApps},
        {"run", "one application run with a full summary", cmdRun},
        {"sweep", "thread sweep of one application", cmdSweep, true},
        {"study", "the six-app study (all paper tables)", cmdStudy, true},
        {"lifespan", "lifespan CDF vs. threads (Fig. 1c/1d)", cmdLifespan,
         true},
        {"locks", "per-monitor lock profile (DTrace-style)", cmdLocks},
        {"trace", "record a binary object trace (Elephant Tracks)", cmdTrace},
        {"analyze", "lifespan/site analysis of a trace file", cmdAnalyze},
        {"usl", "fit the USL model to a sweep CSV, no simulation", cmdUsl},
        {"faults", "print a --faults schedule (dry run)", cmdFaults},
        {"resilience", "E18: throughput and GC/lock shares vs. fault "
         "intensity, governed vs. ungoverned", cmdResilience, true},
        {"profile", "E20: wait-state blame vs. threads, tail histograms, "
         "USL knee", cmdProfile},
        {"fuzz", "seeded random workloads with the oracles armed; failures "
         "shrink to a replayable reproducer", cmdFuzz, true},
        {"golden", "record a sweep snapshot, or verify it has not drifted",
         cmdGolden, true, Operand::Action},
        {"traffic", "E21: open-system p99 sojourn vs. offered load vs. "
         "threads, with knee detection", cmdTraffic, true},
        {"collapse", "E19: throughput vs. threads of a lock-saturated "
         "workload per admission policy", cmdCollapse, true},
        {"shard", "run one deterministic slice of a campaign into "
         "--cache-dir", cmdShard, false, Operand::Command},
        {"merge", "reassemble a sharded campaign from --cache-dir; missing "
         "points exit 3 unless --fill", cmdMerge, false, Operand::Command},
        {"campaign", "fork, supervise, retry and merge --shards workers",
         cmdCampaign, false, Operand::Command},
        {"supervise", "run one command with retries on crash or timeout "
         "(deterministic failures are final)", cmdSupervise, false,
         Operand::Program},
    };
    return table;
}

int
jscaleMain(const std::vector<std::string> &args)
{
    CliOptions o;
    const std::string err = parseCommandLine(args, o);
    if (!err.empty()) {
        std::cerr << err << "\n";
        return 2;
    }
    if (o.help) {
        printHelp(std::cout, findCommand(o.command));
        return 0;
    }
    // Re-running over the same cache is the resume: report how each
    // point was satisfied (the wrappers account for their own).
    if (o.config.run_cache_dir.empty() || !o.nested.empty())
        return dispatch(o);
    return runAccounted(o, o.command);
}

} // namespace jscale::cli
