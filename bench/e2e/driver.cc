/**
 * @file
 * End-to-end host-speed benchmark driver: runs one workload of the
 * simulator in a closed loop for a fixed host-time budget and prints
 * one JSON line with what it measured.
 *
 * Everything is measured from outside the simulator, through public
 * functions only: core::ExperimentRunner (minHeapRequirement, runApp
 * with its VmAttachHook, sweepApps), core::RunCache, the run-record
 * codec, runStatSnapshot and the two probe chains. Host timing never
 * feeds simulated state, so every point's stat snapshot is checked
 * against a digest: the committed one for seed 42, and for any seed
 * against every other path that produced the same point.
 *
 * Usage:
 *   e2e_driver --workload W --seed N --seconds S --trace 0|1 --tmp DIR
 *              [--size full|smoke] [--expected FILE] [--record-expected]
 *
 * bench/e2e/run.py builds the driver, isolates each workload in its own
 * process and turns the JSON line into the benchmark's output; see
 * bench/e2e/README.md for the workloads and metric definitions.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "base/thread_pool.hh"
#include "check/oracle.hh"
#include "core/experiment.hh"
#include "core/report.hh"
#include "core/run_record.hh"
#include "core/shard.hh"
#include "jvm/runtime/listener.hh"
#include "os/sched_listener.hh"
#include "profile/profiler.hh"
#include "telemetry/recorder.hh"
#include "workload/dacapo.hh"

namespace {

using namespace jscale;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

constexpr char kVersion[] = "e2e-bench v4";

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::int64_t
nsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a)
        .count();
}

/** Nearest-rank quantile of @p v (0 for an empty sample). */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

/** Host worker threads for parallel batches: at most four. */
std::uint32_t
hostJobs()
{
    return static_cast<std::uint32_t>(
        std::min<std::size_t>(4, ThreadPool::hardwareConcurrency()));
}

// ------------------------------------------------------------ workloads

/** One configuration of a workload; its points are apps x threads. */
struct Arm
{
    std::string label;
    std::vector<std::string> apps;
    std::vector<std::uint32_t> threads;
    /**
     * Small enough that a point takes 3-35 ms, so a run times each point
     * 140 times or more and its fastest sample is steady (see measure()).
     */
    double scale = 0.25;
    jvm::LockPolicyConfig locks = {};
    /** Oracles, the wait-state profiler and a 1 ms metric sampler. */
    bool observed = false;
    /** A Perfetto timeline per run. */
    bool timeline = false;
};

struct Workload
{
    std::string name;
    /** Replica r of a point runs with seed base + (r mod replicas). */
    std::uint32_t replicas = 1;
    std::vector<Arm> arms;
};

/** E19's coherence handoff costs, which make the hot lock collapse. */
jvm::LockPolicyConfig
e19Locks(jvm::LockPolicy policy)
{
    jvm::LockPolicyConfig c;
    c.policy = policy;
    c.handoff_base = 250;
    c.coherence_cost = 500;
    return c;
}

std::optional<Workload>
makeWorkload(const std::string &name, bool smoke)
{
    const std::vector<std::string> &six = workload::dacapoAppNames();
    Workload w;
    w.name = name;
    if (name == "narrow") {
        w.replicas = 12;
        w.arms = {{.label = "base", .apps = six, .threads = {1, 2}}};
    } else if (name == "wide-alloc") {
        w.replicas = 24;
        w.arms = {{.label = "base",
                   .apps = {"sunflow", "lusearch", "xalan"},
                   .threads = {48}}};
    } else if (name == "wide-lock") {
        w.replicas = 16;
        w.arms = {{.label = "fifo",
                   .apps = {"h2", "jython", "hotlock"},
                   .threads = {48},
                   .locks = e19Locks(jvm::LockPolicy::Fifo)},
                  {.label = "lcr",
                   .apps = {"hotlock"},
                   .threads = {48},
                   .locks = e19Locks(jvm::LockPolicy::Lcr)}};
    } else if (name == "observed") {
        // The timeline costs about six times the other observers per
        // event; its smaller scale gives the two arms similar host time,
        // so neither masks the other.
        w.replicas = 24;
        w.arms = {{.label = "observed",
                   .apps = {"xalan", "h2"},
                   .threads = {16},
                   .observed = true},
                  {.label = "timeline",
                   .apps = {"xalan", "h2"},
                   .threads = {16},
                   .scale = 0.04,
                   .timeline = true}};
    } else {
        return std::nullopt;
    }
    if (smoke)
        w.replicas = 1;
    return w;
}

/** The runner configuration of one arm; artifacts go under @p tmp. */
core::ExperimentConfig
armConfig(const Arm &arm, std::uint64_t seed, const std::string &tmp)
{
    core::ExperimentConfig cfg;
    cfg.seed = seed;
    cfg.workload_scale = arm.scale;
    cfg.jobs = 1;
    cfg.error_path.clear();
    cfg.vm.locks = arm.locks;
    if (arm.observed) {
        cfg.oracles = true;
        cfg.profile = true;
        cfg.metrics_interval = units::MS;
        cfg.metrics_path = tmp + "/metrics-{app}-t{threads}.csv";
    }
    if (arm.timeline)
        cfg.timeline_path = tmp + "/timeline-{app}-t{threads}.json";
    return cfg;
}

/** One simulation point of a workload (replica chosen at run time). */
struct Point
{
    std::size_t arm = 0;
    std::string app;
    std::uint32_t threads = 0;
};

std::vector<Point>
workloadPoints(const Workload &w)
{
    std::vector<Point> points;
    for (std::size_t a = 0; a < w.arms.size(); ++a) {
        for (const std::string &app : w.arms[a].apps) {
            for (const std::uint32_t t : w.arms[a].threads)
                points.push_back({a, app, t});
        }
    }
    return points;
}

std::string
pointKey(const Workload &w, const Point &p, std::uint32_t replica)
{
    return w.arms[p.arm].label + "/" + p.app + "/t" +
           std::to_string(p.threads) + "/r" + std::to_string(replica);
}

/** Delete a run's timeline and metric files; returns the timeline size. */
std::uintmax_t
dropArtifacts(const jvm::RunResult &r)
{
    std::error_code ec;
    std::uintmax_t bytes = 0;
    if (!r.timeline_file.empty()) {
        bytes = fs::file_size(r.timeline_file, ec);
        if (ec)
            bytes = 0;
        fs::remove(r.timeline_file, ec);
    }
    if (!r.metrics_file.empty())
        fs::remove(r.metrics_file, ec);
    return bytes;
}

// ---------------------------------------------------------- correctness

/** FNV-1a-64 over a run's stat snapshot: names, exact values, units. */
std::uint64_t
digest(const jvm::RunResult &r)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    const auto mix = [&h](const void *data, std::size_t n) {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= p[i];
            h *= 0x100000001b3ULL;
        }
    };
    const stats::StatSnapshot snap = core::runStatSnapshot(r);
    for (const stats::StatValue &v : snap.values()) {
        mix(v.name.data(), v.name.size() + 1);
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v.value, sizeof bits);
        for (int i = 0; i < 8; ++i) {
            const auto byte = static_cast<unsigned char>(bits >> (8 * i));
            mix(&byte, 1);
        }
        mix(v.unit.data(), v.unit.size() + 1);
    }
    return h;
}

std::string
hex(std::uint64_t v)
{
    std::ostringstream os;
    os << std::hex;
    os.width(16);
    os.fill('0');
    os << v;
    return os.str();
}

/**
 * Attempted and failed points, plus every point's digest. A point that
 * threw, or whose digest differs from the committed expectation or from
 * any other path that produced the same key, counts as failed.
 */
class Ledger
{
  public:
    explicit Ledger(std::map<std::string, std::uint64_t> expected)
        : expected_(std::move(expected))
    {}

    /** A simulation of @p key finished (possibly as a failed marker). */
    void
    point(const std::string &key, const jvm::RunResult &r,
          const std::string &source)
    {
        ++attempted_;
        if (r.failed()) {
            fail(key + " (" + source + "): " + r.run_error);
            return;
        }
        verify(key, r, source);
    }

    /** A simulation of @p key threw. */
    void
    thrown(const std::string &key, const std::string &what)
    {
        ++attempted_;
        fail(key + ": " + what);
    }

    /** Check a result that was not simulated again (a cache load, a
     *  decoded record) against everything seen for @p key. */
    void
    verify(const std::string &key, const jvm::RunResult &r,
           const std::string &source)
    {
        const std::uint64_t d = digest(r);
        const auto exp = expected_.find(key);
        if (exp != expected_.end() && exp->second != d) {
            fail(key + " (" + source + "): digest " + hex(d) +
                 " != expected " + hex(exp->second));
            return;
        }
        const auto [it, fresh] = seen_.try_emplace(key, d, source);
        if (!fresh && it->second.first != d) {
            fail(key + " (" + source + "): digest " + hex(d) + " != " +
                 hex(it->second.first) + " (" + it->second.second + ")");
        }
    }

    /** A check that simulated nothing itself failed. */
    void
    fail(std::string what)
    {
        ++failed_;
        if (errors_.size() < 20)
            errors_.push_back(std::move(what));
    }

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }
    const std::vector<std::string> &errors() const { return errors_; }

  private:

    std::map<std::string, std::uint64_t> expected_;
    std::map<std::string, std::pair<std::uint64_t, std::string>> seen_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::vector<std::string> errors_;
};

/** Lines "<workload> <key> <digest>" of @p path for workload @p name. */
std::map<std::string, std::uint64_t>
loadExpected(const std::string &path, const std::string &name)
{
    std::map<std::string, std::uint64_t> out;
    if (path.empty())
        return out;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string w, key, d;
        if (ls >> w >> key >> d && w == name)
            out[key] = std::stoull(d, nullptr, 16);
    }
    return out;
}

// -------------------------------------------------------------- set-up

struct Setup
{
    /** Heap capacity per arm and app: heap_factor x the calibration. */
    std::vector<std::map<std::string, Bytes>> heap;
};

/**
 * Calibration seed of every workload. Heap sizes are part of the
 * workload's definition, not of its input, so every --seed simulates
 * the same heaps and only the replica seeds vary.
 */
constexpr std::uint64_t kCalibrationSeed = 42;

/**
 * Calibrate every app of every arm and build its model once. The host
 * time of each (arm, app), in that order, is appended to @p took.
 */
Setup
runSetup(const Workload &w, const std::string &tmp,
         std::vector<double> *took = nullptr)
{
    Setup s;
    for (const Arm &arm : w.arms) {
        core::ExperimentConfig cfg = armConfig(arm, kCalibrationSeed, tmp);
        const double factor = cfg.heap_factor;
        core::ExperimentRunner runner(std::move(cfg));
        std::map<std::string, Bytes> &heaps = s.heap.emplace_back();
        for (const std::string &app : arm.apps) {
            const Clock::time_point t0 = Clock::now();
            const Bytes min = runner.minHeapRequirement(app);
            heaps[app] =
                static_cast<Bytes>(factor * static_cast<double>(min));
            workload::makeDacapoApp(app, arm.scale);
            if (took)
                took->push_back(secondsSince(t0));
        }
    }
    return s;
}

/** One point on a fresh runner; the heap comes from set-up. */
jvm::RunResult
runPoint(const Workload &w, const Setup &s, const Point &p,
         std::uint32_t replica, std::uint64_t seed, const std::string &tmp,
         const core::VmAttachHook &hook = {})
{
    const Arm &arm = w.arms[p.arm];
    core::ExperimentConfig cfg = armConfig(arm, seed + replica, tmp);
    cfg.heap_override = s.heap[p.arm].at(p.app);
    core::ExperimentRunner runner(std::move(cfg));
    return runner.runApp(p.app, p.threads, hook);
}

// -------------------------------------------------------------- output

struct Metric
{
    std::string name;
    std::string unit;
    double value = 0.0;
};

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out + "\"";
}

void
printReport(const Workload &w, std::uint64_t seed, bool trace,
            const Ledger &ledger, const std::vector<Metric> &metrics,
            const std::vector<Metric> &raw)
{
    std::ostringstream os;
    os.precision(17);
    const auto array = [&os](const std::vector<Metric> &ms) {
        os << '[';
        for (std::size_t i = 0; i < ms.size(); ++i) {
            const Metric &m = ms[i];
            os << (i ? "," : "") << "{\"name\":" << jsonString(m.name)
               << ",\"unit\":" << jsonString(m.unit) << ",\"value\":"
               << (std::isfinite(m.value) ? m.value : 0.0) << "}";
        }
        os << ']';
    };
    os << "{\"version\":" << jsonString(kVersion)
       << ",\"workload\":" << jsonString(w.name) << ",\"seed\":" << seed
       << ",\"trace\":" << (trace ? 1 : 0)
       << ",\"correct\":" << (ledger.failed() == 0 ? "true" : "false")
       << ",\"attempted\":" << ledger.attempted()
       << ",\"failed\":" << ledger.failed() << ",\"errors\":[";
    for (std::size_t i = 0; i < ledger.errors().size(); ++i)
        os << (i ? "," : "") << jsonString(ledger.errors()[i]);
    os << "],\"host\":{\"compiler\":" << jsonString(E2E_COMPILER)
       << ",\"build\":" << jsonString(E2E_BUILD_TYPE)
       << ",\"jobs\":" << hostJobs() << "},\"metrics\":";
    array(metrics);
    os << ",\"raw\":";
    array(raw);
    os << '}';
    std::cout << os.str() << std::endl;
}

/** One line per finished point, so a crash still shows what completed. */
void
printProgress(const Ledger &ledger)
{
    std::cout << "progress " << ledger.attempted() << ' ' << ledger.failed()
              << std::endl;
}

// --------------------------------------------------- untraced end to end

/** Set-up repetitions of an untraced run, spread over its budget. */
constexpr std::size_t kSetupRuns = 20;

/**
 * The host's speed during a run, from a fixed reference kernel: a chain
 * of dependent loads through 256 KiB, one per 64-byte line in a fixed
 * random order, which stays in a core's L2. An L2 hit takes a fixed
 * number of core cycles, so the chain's time follows the core clock,
 * which a shared host moves in steps for minutes at a time. The kernel's
 * code never changes, so scaling the simulator's host times by it
 * cancels those steps but keeps every change to the simulator.
 */
class HostSpeed
{
  public:
    HostSpeed() : next_(kLines * kStride)
    {
        std::vector<std::uint32_t> order(kLines);
        for (std::uint32_t i = 0; i < kLines; ++i)
            order[i] = i;
        std::mt19937_64 rng(0x5eed);
        for (std::size_t i = kLines; i > 1; --i)
            std::swap(order[i - 1], order[rng() % i]);
        for (std::size_t i = 0; i < kLines; ++i)
            next_[order[i] * kStride] = order[(i + 1) % kLines] * kStride;
    }

    /** Time the chain once, after an untimed lap that reloads it. */
    void
    sample()
    {
        std::uint32_t p = 0;
        for (std::size_t i = 0; i < kLines; ++i)
            p = next_[p];
        const Clock::time_point t0 = Clock::now();
        for (std::size_t i = 0; i < kLoads; ++i)
            p = next_[p];
        best_s_ = std::min(best_s_, secondsSince(t0));
        sink_ = p;
    }

    /** The fastest chain seen, in seconds. */
    double best() const { return best_s_; }

    /**
     * Host seconds of this run times this factor are seconds on a host
     * where a load of the chain takes kNominalNs; a run's fastest chain
     * is the steadiest reading for the reason given in measure().
     */
    double factor() const { return kNominalNs * 1e-9 * kLoads / best_s_; }

  private:
    static constexpr std::uint32_t kLines = (256 << 10) / 64;
    static constexpr std::uint32_t kStride = 64 / sizeof(std::uint32_t);
    static constexpr std::size_t kLoads = 100000;
    static constexpr double kNominalNs = 6.0;

    std::vector<std::uint32_t> next_;
    double best_s_ = std::numeric_limits<double>::infinity();
    volatile std::uint32_t sink_ = 0;
};

/** How often an untraced run times the reference kernel. */
constexpr std::chrono::milliseconds kSpeedSampleEvery{100};

/** The vCPUs this process may run on. */
std::vector<int>
allowedCpus()
{
    std::vector<int> cpus;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
        for (int c = 0; c < CPU_SETSIZE; ++c) {
            if (CPU_ISSET(c, &set))
                cpus.push_back(c);
        }
    }
    return cpus;
}

/** Run the calling thread on @p cpu only (best effort). */
void
pinTo(int cpu)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    sched_setaffinity(0, sizeof set, &set);
}

/**
 * The timed closed loop: every point once per pass, replica-major, until
 * the budget is spent. The first pass warms the process up and is not
 * timed; at least one timed pass follows. End-to-end metrics only; the
 * unscaled host times and the reference kernel's time go to @p raw.
 */
std::vector<Metric>
measure(const Workload &w, std::uint64_t seed, double seconds,
        const std::string &tmp, Ledger &ledger, std::vector<Metric> &raw)
{
    const Clock::time_point start = Clock::now();
    HostSpeed speed;
    Clock::time_point next_speed_sample = start;
    // Other tenants of a shared host slow each vCPU at different times,
    // so every set-up and point runs on the next vCPU in turn, and a
    // point's samples catch the quiet moments of all of them.
    const std::vector<int> cpus = allowedCpus();
    const auto moveOn = [&cpus](std::size_t turn) {
        if (cpus.size() > 1)
            pinTo(cpus[turn % cpus.size()]);
    };
    // Set-up is repeated so work moved into it shows against the bound.
    // The repeats are spread evenly over the budget, and each app's
    // fastest set-up counts, for the reason given for the points below.
    std::vector<std::vector<double>> setup_s;
    std::size_t setups = 0;
    Setup setup;
    const auto timeSetup = [&] {
        moveOn(setups);
        std::vector<double> took;
        Setup s = runSetup(w, tmp, &took);
        setup_s.resize(took.size());
        for (std::size_t i = 0; i < took.size(); ++i)
            setup_s[i].push_back(took[i]);
        if (setups++ == 0)
            setup = std::move(s);
        else if (s.heap != setup.heap)
            ledger.fail("setup: calibration is not deterministic");
    };
    timeSetup();

    const std::vector<Point> points = workloadPoints(w);
    std::vector<std::vector<double>> s_per_event(points.size());
    std::vector<std::vector<double>> events(points.size());
    bool done = false;
    for (std::uint32_t pass = 0; !done; ++pass) {
        const std::uint32_t replica = pass % w.replicas;
        for (std::size_t u = 0; u < points.size() && !done; ++u) {
            const Point &p = points[u];
            const std::string key = pointKey(w, p, replica);
            moveOn(pass + u);
            try {
                const Clock::time_point t0 = Clock::now();
                const jvm::RunResult r =
                    runPoint(w, setup, p, replica, seed, tmp);
                const double took = secondsSince(t0);
                dropArtifacts(r);
                ledger.point(key, r, "untraced");
                if (pass > 0 && !r.failed()) {
                    const auto n = static_cast<double>(r.sim_events);
                    s_per_event[u].push_back(ratio(took, n));
                    events[u].push_back(n);
                }
            } catch (const std::exception &e) {
                ledger.thrown(key, e.what());
            }
            printProgress(ledger);
            if (Clock::now() >= next_speed_sample) {
                speed.sample();
                next_speed_sample = Clock::now() + kSpeedSampleEvery;
            }
            const double elapsed = secondsSince(start);
            if (setups < kSetupRuns &&
                elapsed >= seconds * static_cast<double>(setups) /
                               static_cast<double>(kSetupRuns))
                timeSetup();
            done = (pass > 1 || (pass == 1 && u + 1 == points.size())) &&
                   setups == kSetupRuns && elapsed >= seconds;
        }
    }

    // A point's cost is its median event count times its least host time
    // per event; per event, replicas with more or less work compare
    // alike. Other tenants of the host slow the same simulation by up to
    // 2x, in busy spells that fill stretches of 10-70 s but leave short
    // gaps. That noise only ever adds time, so the fastest of a point's
    // 140 or more short samples is the steadiest estimate of the
    // simulator's own cost. The host's clock steps outlast a run and move
    // the fastest samples too; the reference kernel's fastest chain moves
    // with them, so the host times are scaled by HostSpeed::factor().
    double pass_s = 0.0;
    double pass_events = 0.0;
    for (std::size_t u = 0; u < points.size(); ++u) {
        const double n = quantile(events[u], 0.5);
        pass_events += n;
        pass_s += n * quantile(s_per_event[u], 0.0);
    }
    double setup_total = 0.0;
    for (const std::vector<double> &took : setup_s)
        setup_total += quantile(took, 0.0);
    raw = {
        {"setup_s", "s", setup_total},
        {"pass_s", "s", pass_s},
        {"reference_ms", "ms", speed.best() * 1e3},
    };
    const double scaled_pass_s = pass_s * speed.factor();
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return {
        {"setup_s", "s", setup_total * speed.factor()},
        {"pass_s", "s", scaled_pass_s},
        {"events_per_s", "Mevents/s", ratio(pass_events / 1e6, scaled_pass_s)},
        {"peak_rss_mb", "MiB", static_cast<double>(ru.ru_maxrss) / 1024.0},
    };
}

// ------------------------------------------------------ traced per layer

/** The layer a probe belongs to. */
enum Layer : std::size_t { kOs, kHeap, kGc, kLocks, kThreads, kLayers };
constexpr const char *kLayerNames[kLayers] = {"os", "jvm.heap", "jvm.gc",
                                              "jvm.locks", "jvm.threads"};

/** The observer tools the runner can put on the probe chains. */
enum Observer : std::size_t { kCheck, kProfile, kTelemetry, kObservers };
constexpr const char *kObserverNames[kObservers] = {"check", "profile",
                                                    "telemetry"};

/** Host time inside observer callbacks, accumulated over traced runs. */
struct ObserverTime
{
    std::int64_t ns[kObservers] = {};
    std::int64_t total_ns = 0;
};

/** Probe-boundary attribution accumulated over traced runs. */
struct LayerTime
{
    std::int64_t ns[kLayers] = {};
    std::uint64_t probes[kLayers] = {};
    /** depth_counts[d] = probes that saw d pending events. */
    std::vector<std::uint64_t> depth_counts;
    std::uint64_t rebuckets = 0;

    double
    depthQuantile(double q) const
    {
        std::uint64_t total = 0;
        for (const std::uint64_t c : depth_counts)
            total += c;
        const auto rank = static_cast<std::uint64_t>(
            std::ceil(q * static_cast<double>(total)));
        std::uint64_t seen = 0;
        for (std::size_t d = 0; d < depth_counts.size(); ++d) {
            seen += depth_counts[d];
            if (seen >= std::max<std::uint64_t>(rank, 1))
                return static_cast<double>(d);
        }
        return 0.0;
    }
};

/** Charges the callbacks a proxy forwards to its observer's self time. */
class SelfTimer
{
  protected:
    SelfTimer(Observer kind, ObserverTime &time) : kind_(kind), time_(time)
    {}

    void
    charge(Clock::time_point t0)
    {
        const std::int64_t ns = nsBetween(t0, Clock::now());
        time_.ns[kind_] += ns;
        time_.total_ns += ns;
    }

  private:
    Observer kind_;
    ObserverTime &time_;
};

#define E2E_FORWARD(method, params, args)                                   \
    void method params override                                             \
    {                                                                       \
        const Clock::time_point t0 = Clock::now();                          \
        target_.method args;                                                \
        charge(t0);                                                         \
    }

/**
 * Stands in for one observer on the runtime probe chain and times each
 * callback it forwards, so an observer's self time is measured without
 * touching the observer.
 */
class RuntimeProxy final : public jvm::RuntimeListener, private SelfTimer
{
  public:
    RuntimeProxy(jvm::RuntimeListener &target, Observer kind,
                 ObserverTime &time)
        : SelfTimer(kind, time), target_(target)
    {}

    E2E_FORWARD(onObjectAlloc, (const jvm::ObjectRecord &o, Ticks now),
                (o, now))
    E2E_FORWARD(onObjectDeath,
                (const jvm::ObjectRecord &o, Bytes lifespan, Ticks now),
                (o, lifespan, now))
    E2E_FORWARD(onMonitorAcquire,
                (jvm::MutatorIndex t, jvm::MonitorId m, bool contended,
                 Ticks now),
                (t, m, contended, now))
    E2E_FORWARD(onMonitorContended,
                (jvm::MutatorIndex t, jvm::MonitorId m, Ticks now),
                (t, m, now))
    E2E_FORWARD(onMonitorRelease,
                (jvm::MutatorIndex t, jvm::MonitorId m, Ticks now),
                (t, m, now))
    E2E_FORWARD(onMonitorWaiterCancelled,
                (jvm::MutatorIndex t, jvm::MonitorId m, Ticks now),
                (t, m, now))
    E2E_FORWARD(onMonitorWaiterPassivated,
                (jvm::MutatorIndex t, jvm::MonitorId m, Ticks now),
                (t, m, now))
    E2E_FORWARD(onMonitorWaiterReactivated,
                (jvm::MutatorIndex t, jvm::MonitorId m, Ticks now),
                (t, m, now))
    E2E_FORWARD(onSafepointBegin, (std::uint64_t seq, Ticks now),
                (seq, now))
    E2E_FORWARD(onSafepointReached,
                (std::uint64_t seq, Ticks ttsp, Ticks now),
                (seq, ttsp, now))
    E2E_FORWARD(onGcStart, (jvm::GcKind k, std::uint64_t seq, Ticks now),
                (k, seq, now))
    E2E_FORWARD(onGcPhase,
                (std::uint64_t seq, jvm::GcKind k, const char *phase,
                 Ticks begin, Ticks end),
                (seq, k, phase, begin, end))
    E2E_FORWARD(onGcEnd, (const jvm::GcEvent &e, Ticks now), (e, now))
    E2E_FORWARD(onConcurrentMarkBegin, (std::uint64_t cycle, Ticks now),
                (cycle, now))
    E2E_FORWARD(onConcurrentMarkEnd,
                (std::uint64_t cycle, bool aborted, Ticks now),
                (cycle, aborted, now))
    E2E_FORWARD(onThreadStart, (jvm::MutatorIndex t, Ticks now), (t, now))
    E2E_FORWARD(onThreadFinish, (jvm::MutatorIndex t, Ticks now), (t, now))
    E2E_FORWARD(onTaskEnd,
                (jvm::MutatorIndex t, std::uint64_t task, Ticks now),
                (t, task, now))
    E2E_FORWARD(onGcWaitBegin, (jvm::MutatorIndex t, bool local, Ticks now),
                (t, local, now))
    E2E_FORWARD(onMonitorWaitParked,
                (jvm::MutatorIndex t, jvm::MonitorId m, Ticks now),
                (t, m, now))
    E2E_FORWARD(onChannelBlocked,
                (jvm::MutatorIndex t, jvm::ChannelId c, Ticks now),
                (t, c, now))
    E2E_FORWARD(onAdmissionParked, (jvm::MutatorIndex t, Ticks now),
                (t, now))
    E2E_FORWARD(onGovernorDecision,
                (std::uint32_t target, std::uint32_t active,
                 std::uint32_t parked, std::uint64_t delta, Ticks now),
                (target, active, parked, delta, now))
    E2E_FORWARD(onRequestArrival,
                (std::uint32_t tenant, std::uint64_t req, Ticks now),
                (tenant, req, now))
    E2E_FORWARD(onRequestShed,
                (std::uint32_t tenant, std::uint64_t req, Ticks now),
                (tenant, req, now))
    E2E_FORWARD(onRequestDispatched,
                (std::uint32_t tenant, std::uint64_t req,
                 jvm::MutatorIndex t, Ticks now),
                (tenant, req, t, now))
    E2E_FORWARD(onRequestCompleted,
                (std::uint32_t tenant, std::uint64_t req,
                 jvm::MutatorIndex t, Ticks now),
                (tenant, req, t, now))

  private:
    jvm::RuntimeListener &target_;
};

/** The scheduler-chain counterpart of RuntimeProxy. */
class SchedProxy final : public os::SchedulerListener, private SelfTimer
{
  public:
    SchedProxy(os::SchedulerListener &target, Observer kind,
               ObserverTime &time)
        : SelfTimer(kind, time), target_(target)
    {}

    E2E_FORWARD(onDispatch,
                (const os::OsThread &t, machine::CoreId core, Ticks overhead,
                 bool stolen, Ticks now),
                (t, core, overhead, stolen, now))
    E2E_FORWARD(onBurstEnd,
                (const os::OsThread &t, machine::CoreId core, Ticks started,
                 bool preempted, Ticks now),
                (t, core, started, preempted, now))
    E2E_FORWARD(onMigrate,
                (const os::OsThread &t, machine::CoreId from,
                 machine::CoreId to, Ticks now),
                (t, from, to, now))
    E2E_FORWARD(onThreadState,
                (const os::OsThread &t, os::ThreadState prev, Ticks now),
                (t, prev, now))
    E2E_FORWARD(onWorldStopRequested, (Ticks now), (now))
    E2E_FORWARD(onWorldResumed, (Ticks now), (now))
    E2E_FORWARD(onWorldStopRequested, (std::uint32_t group, Ticks now),
                (group, now))
    E2E_FORWARD(onWorldResumed, (std::uint32_t group, Ticks now),
                (group, now))

  private:
    os::SchedulerListener &target_;
};

#undef E2E_FORWARD

#define E2E_TICK(method, params, layer)                                     \
    void method params override { tick(layer); }

/**
 * Appended last to both probe chains. At every probe it reads the host
 * clock and charges the interval since the previous probe, minus the
 * observer callbacks timed inside that interval, to the layer of the
 * probe that closes it. It also samples the event queue's depth.
 */
class LayerClock final : public jvm::RuntimeListener,
                         public os::SchedulerListener
{
  public:
    LayerClock(const sim::EventQueue &queue, const ObserverTime &observers,
               LayerTime &layers)
        : queue_(queue), observers_(observers), layers_(layers)
    {}

    /** Queue rebuckets of this run (read at its last probe). */
    std::uint64_t rebuckets() const { return rebuckets_; }

    E2E_TICK(onObjectAlloc, (const jvm::ObjectRecord &, Ticks), kHeap)
    E2E_TICK(onObjectDeath, (const jvm::ObjectRecord &, Bytes, Ticks), kHeap)

    E2E_TICK(onMonitorAcquire,
             (jvm::MutatorIndex, jvm::MonitorId, bool, Ticks), kLocks)
    E2E_TICK(onMonitorContended, (jvm::MutatorIndex, jvm::MonitorId, Ticks),
             kLocks)
    E2E_TICK(onMonitorRelease, (jvm::MutatorIndex, jvm::MonitorId, Ticks),
             kLocks)
    E2E_TICK(onMonitorWaiterCancelled,
             (jvm::MutatorIndex, jvm::MonitorId, Ticks), kLocks)
    E2E_TICK(onMonitorWaiterPassivated,
             (jvm::MutatorIndex, jvm::MonitorId, Ticks), kLocks)
    E2E_TICK(onMonitorWaiterReactivated,
             (jvm::MutatorIndex, jvm::MonitorId, Ticks), kLocks)
    E2E_TICK(onMonitorWaitParked, (jvm::MutatorIndex, jvm::MonitorId, Ticks),
             kLocks)
    E2E_TICK(onChannelBlocked, (jvm::MutatorIndex, jvm::ChannelId, Ticks),
             kLocks)

    E2E_TICK(onSafepointBegin, (std::uint64_t, Ticks), kGc)
    E2E_TICK(onSafepointReached, (std::uint64_t, Ticks, Ticks), kGc)
    E2E_TICK(onGcStart, (jvm::GcKind, std::uint64_t, Ticks), kGc)
    E2E_TICK(onGcPhase,
             (std::uint64_t, jvm::GcKind, const char *, Ticks, Ticks), kGc)
    E2E_TICK(onGcEnd, (const jvm::GcEvent &, Ticks), kGc)
    E2E_TICK(onConcurrentMarkBegin, (std::uint64_t, Ticks), kGc)
    E2E_TICK(onConcurrentMarkEnd, (std::uint64_t, bool, Ticks), kGc)
    E2E_TICK(onGcWaitBegin, (jvm::MutatorIndex, bool, Ticks), kGc)

    E2E_TICK(onThreadStart, (jvm::MutatorIndex, Ticks), kThreads)
    E2E_TICK(onThreadFinish, (jvm::MutatorIndex, Ticks), kThreads)
    E2E_TICK(onTaskEnd, (jvm::MutatorIndex, std::uint64_t, Ticks), kThreads)
    E2E_TICK(onAdmissionParked, (jvm::MutatorIndex, Ticks), kThreads)
    E2E_TICK(onGovernorDecision,
             (std::uint32_t, std::uint32_t, std::uint32_t, std::uint64_t,
              Ticks),
             kThreads)
    E2E_TICK(onRequestArrival, (std::uint32_t, std::uint64_t, Ticks),
             kThreads)
    E2E_TICK(onRequestShed, (std::uint32_t, std::uint64_t, Ticks), kThreads)
    E2E_TICK(onRequestDispatched,
             (std::uint32_t, std::uint64_t, jvm::MutatorIndex, Ticks),
             kThreads)
    E2E_TICK(onRequestCompleted,
             (std::uint32_t, std::uint64_t, jvm::MutatorIndex, Ticks),
             kThreads)

    E2E_TICK(onDispatch,
             (const os::OsThread &, machine::CoreId, Ticks, bool, Ticks), kOs)
    E2E_TICK(onBurstEnd,
             (const os::OsThread &, machine::CoreId, Ticks, bool, Ticks), kOs)
    E2E_TICK(onMigrate,
             (const os::OsThread &, machine::CoreId, machine::CoreId, Ticks),
             kOs)
    E2E_TICK(onThreadState, (const os::OsThread &, os::ThreadState, Ticks),
             kOs)
    // The scheduler announces world stops through the group-aware
    // probes; not forwarding to the single-world ones counts each once.
    E2E_TICK(onWorldStopRequested, (std::uint32_t, Ticks), kOs)
    E2E_TICK(onWorldResumed, (std::uint32_t, Ticks), kOs)

  private:
    void
    tick(Layer layer)
    {
        const Clock::time_point now = Clock::now();
        if (started_) {
            layers_.ns[layer] += nsBetween(last_, now) -
                                 (observers_.total_ns - last_observer_ns_);
        }
        started_ = true;
        last_ = now;
        last_observer_ns_ = observers_.total_ns;
        ++layers_.probes[layer];
        const std::size_t depth = queue_.size();
        if (depth >= layers_.depth_counts.size())
            layers_.depth_counts.resize(depth + 1);
        ++layers_.depth_counts[depth];
        rebuckets_ = queue_.rebucketCount();
    }

    const sim::EventQueue &queue_;
    const ObserverTime &observers_;
    LayerTime &layers_;
    bool started_ = false;
    Clock::time_point last_;
    std::int64_t last_observer_ns_ = 0;
    std::uint64_t rebuckets_ = 0;
};

#undef E2E_TICK

/**
 * Which observer tool @p l is, if any. The oracle suite's latency
 * profiler is a TaskProfiler member of the suite, so a profiler that
 * lives inside the last seen suite object is charged to the oracles.
 */
template <typename Listener>
std::optional<Observer>
classify(Listener *l, std::uintptr_t &oracle)
{
    if (auto *suite = dynamic_cast<check::OracleSuite *>(l)) {
        oracle = reinterpret_cast<std::uintptr_t>(suite);
        return kCheck;
    }
    if (dynamic_cast<profile::TaskProfiler *>(l)) {
        const auto self = reinterpret_cast<std::uintptr_t>(
            dynamic_cast<const void *>(l));
        if (oracle != 0 && self >= oracle &&
            self < oracle + sizeof(check::OracleSuite))
            return kCheck;
        return kProfile;
    }
    if (dynamic_cast<telemetry::TelemetryRecorder *>(l))
        return kTelemetry;
    return std::nullopt;
}

/** Replace every known observer on @p chain by a timing proxy, in place. */
template <typename Proxy, typename Chain>
void
proxyChain(Chain &chain, std::vector<std::unique_ptr<Proxy>> &proxies,
           ObserverTime &time)
{
    const auto original = chain.all();
    for (auto *l : original)
        chain.remove(l);
    std::uintptr_t oracle = 0;
    for (auto *l : original) {
        const std::optional<Observer> kind = classify(l, oracle);
        if (!kind) {
            chain.add(l);
            continue;
        }
        proxies.push_back(std::make_unique<Proxy>(*l, *kind, time));
        chain.add(proxies.back().get());
    }
}

/** One traced run's instrumentation; install() is its attach hook. */
class TraceProbe
{
  public:
    TraceProbe(LayerTime &layers, ObserverTime &observers)
        : layers_(layers), observers_(observers)
    {}

    void
    install(jvm::JavaVm &vm)
    {
        clock_.emplace(vm.sim().queue(), observers_, layers_);
        proxyChain(vm.listeners(), runtime_proxies_, observers_);
        proxyChain(vm.scheduler().listeners(), sched_proxies_, observers_);
        vm.listeners().add(&*clock_);
        vm.scheduler().listeners().add(&*clock_);
    }

    std::uint64_t
    rebuckets() const
    {
        return clock_ ? clock_->rebuckets() : 0;
    }

  private:
    LayerTime &layers_;
    ObserverTime &observers_;
    std::optional<LayerClock> clock_;
    std::vector<std::unique_ptr<RuntimeProxy>> runtime_proxies_;
    std::vector<std::unique_ptr<SchedProxy>> sched_proxies_;
};

/** Exact simulated counts and host times over the traced loop. */
struct TraceTotals
{
    LayerTime layers;
    ObserverTime observers;
    double traced_s = 0.0;
    double untraced_s = 0.0;
    std::vector<double> untraced_ms;
    std::uint64_t points = 0;
    std::uint64_t events = 0;
    std::uint64_t ctx_switches = 0;
    std::uint64_t migrations = 0;
    std::uint64_t allocs = 0;
    std::uint64_t deaths = 0;
    std::uint64_t collections = 0;
    std::uint64_t acquisitions = 0;
    std::uint64_t contentions = 0;
    std::uint64_t tasks = 0;
    double gc_ticks = 0.0;
    double wall_ticks = 0.0;
    double timeline_bytes = 0.0;

    void
    add(const jvm::RunResult &r)
    {
        ++points;
        events += r.sim_events;
        ctx_switches += r.sched.context_switches;
        migrations += r.sched.migrations;
        allocs += r.heap.objects_allocated;
        deaths += r.heap.objects_died;
        collections += r.gc.events.size();
        acquisitions += r.locks.acquisitions;
        contentions += r.locks.contentions;
        tasks += r.total_tasks;
        gc_ticks += static_cast<double>(r.gc_time);
        wall_ticks += static_cast<double>(r.wall_time);
    }
};

/** Harness costs of one batch through the campaign path (sweepApps). */
struct HarnessTotals
{
    double jobs1_s = 0.0;
    double jobsn_s = 0.0;
    double merge_s = 0.0;
    double render_ms = 0.0;
    std::vector<double> encode_us;
    std::vector<double> decode_us;
    std::vector<double> snapshot_us;
    std::vector<double> store_ms;
    std::vector<double> load_ms;
    double record_bytes = 0.0;
};

/** Render every E1 table and CSV of @p sweeps into one string. */
std::string
renderE1(const core::SweepSet &sweeps)
{
    std::ostringstream os;
    core::printScalabilityTable(os, sweeps);
    core::printWorkloadDistributionTable(os, sweeps);
    core::printLockAcquisitionTable(os, sweeps);
    core::printLockContentionTable(os, sweeps);
    core::printMutatorGcTable(os, sweeps);
    core::printUslTable(os, sweeps);
    core::writeScalabilityCsv(os, sweeps);
    core::writeWorkloadDistributionCsv(os, sweeps);
    core::writeLockAcquisitionCsv(os, sweeps);
    core::writeLockContentionCsv(os, sweeps);
    core::writeMutatorGcCsv(os, sweeps);
    core::writeUslCsv(os, sweeps);
    return os.str();
}

/**
 * One run of every point of every arm, at the base seed,
 * through the campaign path: a jobs=1 and a jobs=N sweepApps batch into
 * result caches, a merge_strict pass over the warm cache (calibrations
 * included, as a merge pays them), E1 rendering, and the record codec,
 * stat snapshot and cache calls timed one by one.
 */
HarnessTotals
runHarness(const Workload &w, std::uint64_t seed, const std::string &tmp,
           Ledger &ledger)
{
    HarnessTotals h;
    const auto config = [&](const Arm &arm, std::uint32_t jobs,
                            const std::string &cache) {
        core::ExperimentConfig cfg = armConfig(arm, seed, tmp);
        cfg.jobs = jobs;
        cfg.run_cache_dir = cache;
        return cfg;
    };
    const auto cacheDir = [&](int pass, const Arm &arm) {
        return tmp + "/harness-" + std::to_string(pass) + "-" + arm.label;
    };
    // The runners calibrate under the base seed, so these points have
    // keys of their own rather than the loop's replica 0.
    const auto keyOf = [&](std::size_t a, const jvm::RunResult &r) {
        return "harness/" + pointKey(w, Point{a, r.app_name, r.threads}, 0);
    };
    const auto record = [&](std::size_t a, const core::SweepSet &sweeps,
                            const std::string &source, bool simulated) {
        for (const auto &[app, runs] : sweeps) {
            for (const jvm::RunResult &r : runs) {
                const std::string key = keyOf(a, r);
                if (simulated)
                    ledger.point(key, r, source);
                else
                    ledger.verify(key, r, source);
                dropArtifacts(r);
            }
        }
    };

    // Pass 0 runs at jobs=1, pass 1 at jobs=N, each into its own cache.
    std::vector<core::SweepSet> merged(w.arms.size());
    for (int pass = 0; pass < 2; ++pass) {
        const std::uint32_t jobs = pass == 0 ? 1 : hostJobs();
        for (std::size_t a = 0; a < w.arms.size(); ++a) {
            const Arm &arm = w.arms[a];
            core::ExperimentRunner runner(
                config(arm, jobs, cacheDir(pass, arm)));
            for (const std::string &app : arm.apps)
                runner.minHeapRequirement(app);
            const Clock::time_point t0 = Clock::now();
            const core::SweepSet sweeps =
                runner.sweepApps(arm.apps, arm.threads);
            (pass == 0 ? h.jobs1_s : h.jobsn_s) += secondsSince(t0);
            record(a, sweeps, "jobs=" + std::to_string(jobs), true);
        }
    }

    for (std::size_t a = 0; a < w.arms.size(); ++a) {
        const Arm &arm = w.arms[a];
        core::ExperimentConfig cfg =
            config(arm, hostJobs(), cacheDir(1, arm));
        cfg.merge_strict = true;
        core::ExperimentRunner runner(std::move(cfg));
        const Clock::time_point t0 = Clock::now();
        merged[a] = runner.sweepApps(arm.apps, arm.threads);
        h.merge_s += secondsSince(t0);
        record(a, merged[a], "merge", false);

        const Clock::time_point r0 = Clock::now();
        const std::string text = renderE1(merged[a]);
        h.render_ms += secondsSince(r0) * 1e3;
        if (text.empty())
            ledger.fail(arm.label + ": E1 rendering produced nothing");
    }

    const std::string fingerprint = std::string(kVersion) + " " + w.name;
    const core::RunCache cache(tmp + "/harness-cache", fingerprint);
    fs::create_directories(cache.dir());
    for (std::size_t a = 0; a < merged.size(); ++a) {
        for (const auto &[app, runs] : merged[a]) {
            for (const jvm::RunResult &r : runs) {
                const std::string key = keyOf(a, r);

                Clock::time_point t0 = Clock::now();
                std::ostringstream enc;
                core::writeRunRecord(enc, key, fingerprint, r);
                const std::string bytes = enc.str();
                h.encode_us.push_back(secondsSince(t0) * 1e6);
                h.record_bytes += static_cast<double>(bytes.size());

                t0 = Clock::now();
                std::istringstream in(bytes);
                jvm::RunResult decoded;
                std::string err;
                const bool ok =
                    core::readRunRecord(in, key, fingerprint, decoded, err);
                h.decode_us.push_back(secondsSince(t0) * 1e6);
                if (ok)
                    ledger.verify(key, decoded, "record");
                else
                    ledger.fail(key + ": record round trip: " + err);

                t0 = Clock::now();
                const stats::StatSnapshot snap = core::runStatSnapshot(r);
                h.snapshot_us.push_back(secondsSince(t0) * 1e6);
                if (snap.values().empty())
                    ledger.fail(key + ": empty stat snapshot");

                t0 = Clock::now();
                cache.store(key, r);
                h.store_ms.push_back(secondsSince(t0) * 1e3);
                t0 = Clock::now();
                jvm::RunResult loaded;
                const bool hit = cache.load(key, loaded);
                h.load_ms.push_back(secondsSince(t0) * 1e3);
                if (hit)
                    ledger.verify(key, loaded, "cache");
                else
                    ledger.fail(key + ": cache load missed a stored point");
            }
        }
    }
    return h;
}

/**
 * The traced run: set-up once, the harness batch, then pairs of an
 * untraced and a traced run of the same point for the rest of the
 * budget (at least one pair). Per-layer metrics only.
 */
std::vector<Metric>
traceRun(const Workload &w, std::uint64_t seed, double seconds,
         const std::string &tmp, Ledger &ledger)
{
    const Clock::time_point start = Clock::now();
    const Setup setup = runSetup(w, tmp);
    const HarnessTotals h = runHarness(w, seed, tmp, ledger);

    // A fixed shuffle spreads a short traced loop over apps and thread
    // counts instead of the first few points of the list.
    std::vector<Point> points = workloadPoints(w);
    std::mt19937_64 rng(0x7ace);
    for (std::size_t i = points.size(); i > 1; --i)
        std::swap(points[i - 1], points[rng() % i]);

    TraceTotals t;
    bool done = false;
    for (std::uint32_t pass = 0; !done; ++pass) {
        const std::uint32_t replica = pass % w.replicas;
        for (std::size_t u = 0; u < points.size() && !done; ++u) {
            const Point &p = points[u];
            const std::string key = pointKey(w, p, replica);
            try {
                Clock::time_point t0 = Clock::now();
                const jvm::RunResult plain =
                    runPoint(w, setup, p, replica, seed, tmp);
                const double plain_s = secondsSince(t0);
                dropArtifacts(plain);
                ledger.point(key, plain, "untraced");

                TraceProbe probe(t.layers, t.observers);
                t0 = Clock::now();
                const jvm::RunResult traced = runPoint(
                    w, setup, p, replica, seed, tmp,
                    [&probe](jvm::JavaVm &vm) { probe.install(vm); });
                const double traced_s = secondsSince(t0);
                t.timeline_bytes += static_cast<double>(dropArtifacts(traced));
                ledger.point(key, traced, "traced");

                t.untraced_s += plain_s;
                t.untraced_ms.push_back(plain_s * 1e3);
                t.traced_s += traced_s;
                t.layers.rebuckets += probe.rebuckets();
                t.add(traced);
            } catch (const std::exception &e) {
                ledger.thrown(key, e.what());
            }
            printProgress(ledger);
            done = secondsSince(start) >= seconds;
        }
    }

    const double traced_ns = t.traced_s * 1e9;
    const double n = static_cast<double>(std::max<std::uint64_t>(t.points, 1));
    std::vector<Metric> m = {
        {"run.points", "count", static_cast<double>(t.points)},
        {"run.point_ms_p50", "ms", quantile(t.untraced_ms, 0.5)},
        {"run.point_ms_p90", "ms", quantile(t.untraced_ms, 0.9)},
        {"sim.ns_per_event", "ns",
         ratio(t.untraced_s * 1e9, static_cast<double>(t.events))},
        {"sim.queue_depth_p50", "count", t.layers.depthQuantile(0.5)},
        {"sim.queue_depth_p99", "count", t.layers.depthQuantile(0.99)},
        {"sim.rebuckets", "count",
         static_cast<double>(t.layers.rebuckets) / n},
    };
    double attributed = 0.0;
    for (std::size_t l = 0; l < kLayers; ++l)
        attributed += static_cast<double>(t.layers.ns[l]);
    for (std::size_t o = 0; o < kObservers; ++o)
        attributed += static_cast<double>(t.observers.ns[o]);
    m.push_back({"sim.residual_share", "fraction",
                 ratio(traced_ns - attributed, traced_ns)});

    const auto layer = [&](Layer l, const char *suffix, const char *unit,
                           double value) {
        m.push_back({std::string(kLayerNames[l]) + suffix, unit, value});
    };
    const auto share = [&](Layer l) {
        layer(l, ".attr_share", "fraction",
              ratio(static_cast<double>(t.layers.ns[l]), traced_ns));
    };
    const auto nsPer = [&](Layer l, const char *suffix, double count) {
        layer(l, suffix, "ns",
              ratio(static_cast<double>(t.layers.ns[l]), count));
    };
    share(kOs);
    nsPer(kOs, ".ns_per_probe", static_cast<double>(t.layers.probes[kOs]));
    layer(kOs, ".ctx_switches", "count",
          static_cast<double>(t.ctx_switches) / n);
    layer(kOs, ".migrations", "count", static_cast<double>(t.migrations) / n);
    share(kHeap);
    layer(kHeap, ".allocs", "count", static_cast<double>(t.allocs) / n);
    layer(kHeap, ".deaths", "count", static_cast<double>(t.deaths) / n);
    nsPer(kHeap, ".ns_per_alloc", static_cast<double>(t.allocs));
    share(kGc);
    layer(kGc, ".collections", "count",
          static_cast<double>(t.collections) / n);
    nsPer(kGc, ".ns_per_collection", static_cast<double>(t.collections));
    layer(kGc, ".sim_share", "fraction", ratio(t.gc_ticks, t.wall_ticks));
    share(kLocks);
    layer(kLocks, ".acquisitions", "count",
          static_cast<double>(t.acquisitions) / n);
    layer(kLocks, ".contentions", "count",
          static_cast<double>(t.contentions) / n);
    nsPer(kLocks, ".ns_per_acquire", static_cast<double>(t.acquisitions));
    share(kThreads);
    layer(kThreads, ".tasks", "count", static_cast<double>(t.tasks) / n);
    for (std::size_t o = 0; o < kObservers; ++o) {
        m.push_back({std::string(kObserverNames[o]) + ".self_share",
                     "fraction",
                     ratio(static_cast<double>(t.observers.ns[o]),
                           traced_ns)});
    }
    m.push_back({"telemetry.timeline_mb", "MiB",
                 t.timeline_bytes / n / (1024.0 * 1024.0)});

    const double records = static_cast<double>(h.encode_us.size());
    m.insert(m.end(), {
        {"core.jobs_speedup", "ratio", ratio(h.jobs1_s, h.jobsn_s)},
        {"core.record_encode_us_p50", "us", quantile(h.encode_us, 0.5)},
        {"core.record_encode_us_p99", "us", quantile(h.encode_us, 0.99)},
        {"core.record_decode_us_p50", "us", quantile(h.decode_us, 0.5)},
        {"core.record_decode_us_p99", "us", quantile(h.decode_us, 0.99)},
        {"core.record_kb", "KiB", ratio(h.record_bytes / 1024.0, records)},
        {"core.cache_store_ms", "ms", quantile(h.store_ms, 0.5)},
        {"core.cache_load_ms", "ms", quantile(h.load_ms, 0.5)},
        {"core.snapshot_us_p50", "us", quantile(h.snapshot_us, 0.5)},
        {"core.render_ms", "ms", h.render_ms},
        {"core.merge_s", "s", h.merge_s},
        {"trace.overhead", "fraction", ratio(t.traced_s, t.untraced_s) - 1.0},
    });
    return m;
}

/** Every (point, replica) once, untimed: the expected-digest file. */
int
recordExpected(const Workload &w, std::uint64_t seed, const std::string &tmp)
{
    const Setup setup = runSetup(w, tmp);
    for (std::uint32_t r = 0; r < w.replicas; ++r) {
        for (const Point &p : workloadPoints(w)) {
            const jvm::RunResult res = runPoint(w, setup, p, r, seed, tmp);
            dropArtifacts(res);
            if (res.failed()) {
                std::cerr << "e2e_driver: " << pointKey(w, p, r)
                          << " failed: " << res.run_error << "\n";
                return 1;
            }
            std::cout << w.name << ' ' << pointKey(w, p, r) << ' '
                      << hex(digest(res)) << std::endl;
        }
    }
    return 0;
}

// ---------------------------------------------------------------- main

struct Options
{
    std::string workload;
    std::uint64_t seed = 42;
    double seconds = 10.0;
    bool trace = false;
    bool smoke = false;
    bool record = false;
    std::string expected;
    std::string tmp;
};

bool
parseOptions(int argc, char **argv, Options &o)
{
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--record-expected") {
            o.record = true;
            continue;
        }
        if (i + 1 >= argc) {
            std::cerr << "e2e_driver: " << flag << " needs a value\n";
            return false;
        }
        const std::string v = argv[++i];
        try {
            if (flag == "--workload") {
                o.workload = v;
            } else if (flag == "--seed") {
                o.seed = std::stoull(v);
            } else if (flag == "--seconds") {
                o.seconds = std::stod(v);
            } else if (flag == "--trace" && (v == "0" || v == "1")) {
                o.trace = v == "1";
            } else if (flag == "--size" && (v == "full" || v == "smoke")) {
                o.smoke = v == "smoke";
            } else if (flag == "--expected") {
                o.expected = v;
            } else if (flag == "--tmp") {
                o.tmp = v;
            } else {
                std::cerr << "e2e_driver: bad flag " << flag << " " << v
                          << "\n";
                return false;
            }
        } catch (const std::exception &) {
            std::cerr << "e2e_driver: bad value for " << flag << ": " << v
                      << "\n";
            return false;
        }
    }
    if (o.workload.empty() || o.tmp.empty()) {
        std::cerr << "e2e_driver: --workload and --tmp are required\n";
        return false;
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    if (!parseOptions(argc, argv, o))
        return 2;
    if (!kOptimized) {
        std::cerr << "e2e_driver: refusing to time an unoptimized build "
                     "(configure with -DCMAKE_BUILD_TYPE=Release)\n";
        return 2;
    }
    const std::optional<Workload> w = makeWorkload(o.workload, o.smoke);
    if (!w) {
        std::cerr << "e2e_driver: unknown workload '" << o.workload << "'\n";
        return 2;
    }
    fs::create_directories(o.tmp);
    if (o.record)
        return recordExpected(*w, o.seed, o.tmp);

    Ledger ledger(loadExpected(o.expected, w->name));
    std::vector<Metric> raw;
    const std::vector<Metric> metrics =
        o.trace ? traceRun(*w, o.seed, o.seconds, o.tmp, ledger)
                : measure(*w, o.seed, o.seconds, o.tmp, ledger, raw);
    printReport(*w, o.seed, o.trace, ledger, metrics, raw);
    return 0;
}
