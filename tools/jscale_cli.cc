/**
 * @file
 * jscale — command-line driver for the simulation framework.
 *
 * Subcommands:
 *   apps                         list the modeled applications
 *   run      one application run with a full summary
 *   sweep    thread sweep of one application (E1-style rows)
 *   study    the complete six-app study (all paper tables)
 *   lifespan lifespan CDF across thread counts (Fig. 1c/1d)
 *   locks    per-monitor DTrace-style lock profile
 *   usl      fit the USL model to an existing sweep CSV
 *   faults   parse and print a fault-injection schedule
 *   resilience  E18: throughput vs. fault intensity, gov vs. ungov
 *   traffic  E21: open-system tail latency vs. offered load
 *   collapse E19: scalability collapse by monitor admission policy
 *
 * Common flags: --app <name> --threads <list> --scale <f> --seed <n>
 *               --heap-factor <f> --compartments --biased [--groups g]
 *               --adaptive --governor <policy> --gclog <path> --csv
 *               --faults <spec> --watchdog --cache-dir <dir>
 */

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "base/atomic_file.hh"
#include "base/error.hh"
#include "base/output.hh"
#include "check/fuzz.hh"
#include "check/golden.hh"
#include "control/governor.hh"
#include "core/analyze.hh"
#include "core/blame.hh"
#include "core/experiment.hh"
#include "core/plots.hh"
#include "core/report.hh"
#include "core/resilience.hh"
#include "core/shard.hh"
#include "core/supervisor.hh"
#include "core/traffic_study.hh"
#include "core/collapse.hh"
#include "fault/fault.hh"
#include "traffic/arrival.hh"
#include "traffic/tenancy.hh"
#include "jvm/gc/gclog.hh"
#include "jvm/locks/policy.hh"
#include "lockprof/lockprof.hh"
#include "trace/trace.hh"
#include "workload/dacapo.hh"

namespace {

using namespace jscale;

struct CliOptions
{
    std::string command;
    std::string app = "xalan";
    /** True when --app was passed (the profile study defaults to the
     *  full six-app set unless narrowed explicitly). */
    bool app_set = false;
    std::vector<std::uint32_t> threads = {8};
    /** True when --threads was passed (the profile study defaults to
     *  the paper ladder unless overridden explicitly). */
    bool threads_set = false;
    double scale = 1.0;
    std::uint64_t seed = 42;
    double heap_factor = 3.0;
    bool compartments = false;
    bool biased = false;
    std::uint32_t groups = 4;
    bool adaptive = false;
    bool concurrent = false;
    bool scatter = false;
    std::uint32_t replicas = 1;
    bool per_thread = false;
    std::string gclog_path;
    std::string trace_out = "jscale.trace";
    std::string plots_dir;
    std::string trace_in;
    bool csv = false;
    std::string timeline_path;
    std::string metrics_path;
    std::uint64_t metrics_interval_ms = 0;
    std::uint32_t jobs = 0;
    control::GovernorMode governor = control::GovernorMode::Off;
    std::uint64_t governor_interval_ms = 5;
    std::string faults_spec;
    fault::FaultPlan fault_plan;
    bool watchdog = false;
    std::uint64_t watchdog_interval_ms = 1000;
    std::vector<double> intensities = {0.0, 0.25, 0.5, 0.75, 1.0};
    std::uint64_t horizon_ms = 0; // 0 = auto (3/4 of probe run)
    /** Arm the invariant oracle suite on every run. */
    bool oracles = false;
    /** Attach the wait-state attribution profiler on every run. */
    bool profile = false;
    /** Slowest-task records kept per profiled run. */
    std::uint32_t profile_topk = 5;
    /** Generic --out path (fuzz reproducer, golden store). */
    std::string out_path;
    /** "record" or "verify" (golden command). */
    std::string golden_action;
    std::uint64_t fuzz_seeds = 20;
    std::uint64_t shrink_budget = 64;
    check::Sabotage sabotage = check::Sabotage::None;
    std::string replay_path;
    /** Open-loop arrival spec (validated at parse time). */
    std::string arrivals;
    /** Multi-tenant host spec (validated at parse time). */
    std::string tenants_spec;
    std::vector<traffic::TenantSpec> tenants;
    /** Monitor admission policy + knobs (run/sweep/study/collapse). */
    jvm::LockPolicyConfig locks;
    /** True when --lock-policy was passed (collapse sweeps every
     *  policy unless narrowed explicitly). */
    bool lock_policy_set = false;
    /** Offered-load ladder of the traffic study. */
    std::vector<double> loads = {0.25, 0.5, 1.0, 2.0};
    /** Requests per open-loop rung of the traffic study. */
    std::uint64_t requests = 2000;
    /** @name Sharded campaigns (set by the shard/merge wrappers) */
    /** @{ */
    std::uint32_t shard_index = 0;
    std::uint32_t shard_count = 1;
    /** Shared per-point result cache directory (empty = disabled);
     *  --cache-dir on a plain command, or set by the wrappers. */
    std::string cache_dir;
    /** Merge mode: cache misses become honest failure rows. */
    bool merge_strict = false;
    /** @} */
};

[[noreturn]] void
usage(int code)
{
    std::cout <<
        "usage: jscale <command> [flags]\n"
        "\n"
        "commands:\n"
        "  apps      list the modeled applications\n"
        "  run       one application run with a full summary\n"
        "  sweep     thread sweep of one application\n"
        "  study     the complete six-app study (all paper tables)\n"
        "  lifespan  lifespan CDF across thread counts (Fig. 1c/1d)\n"
        "  locks     per-monitor lock profile (DTrace-style)\n"
        "  trace     record a binary object trace (Elephant-Tracks "
        "style)\n"
        "  analyze   lifespan/site analysis of a recorded trace file\n"
        "  usl       fit the USL model to a sweep CSV (--in) without\n"
        "            re-running any simulation\n"
        "  faults    parse a --faults schedule and print it (dry run)\n"
        "  resilience  E18: throughput and GC/lock shares vs. fault\n"
        "            intensity, governed vs. ungoverned\n"
        "  profile   E20: wait-state blame decomposition vs. threads\n"
        "            per app, with tail histograms and the USL knee\n"
        "            cross-reference\n"
        "  fuzz      seeded random workloads x faults x governors with\n"
        "            the invariant oracles armed; failures are shrunk\n"
        "            to a minimal replayable reproducer (--out)\n"
        "  golden    record: snapshot a sweep into a golden file;\n"
        "            verify: re-run and fail on any field-level drift\n"
        "  traffic   E21: open-system tail latency — p99 sojourn vs.\n"
        "            offered load vs. threads, knee detection, and the\n"
        "            governed/biased remedies re-scored on the tail\n"
        "  collapse  E19: scalability collapse on a lock-saturated\n"
        "            workload — throughput vs. threads per admission\n"
        "            policy (fifo, barging, malthusian, lcr), with\n"
        "            circulation width and handoff-tail columns\n"
        "  shard     run one deterministic slice of a campaign: plans\n"
        "            every point, executes only those hashing to\n"
        "            --index, persists each finished point durably in\n"
        "            --cache-dir (nested: sweep, study, lifespan,\n"
        "            golden, resilience, fuzz)\n"
        "  merge     reassemble a sharded campaign from --cache-dir;\n"
        "            the output is byte-identical to a single-process\n"
        "            run, and missing points become honest failure\n"
        "            rows (exit 3) unless --fill re-runs them locally\n"
        "  campaign  fork --shards workers, supervise them with a\n"
        "            wall-clock watchdog and crash/timeout retries\n"
        "            (exponential backoff, bounded budget), then merge\n"
        "  supervise run one command (after --) under the same retry\n"
        "            policy; crashes and timeouts retry, deterministic\n"
        "            failures do not\n"
        "\n"
        "flags:\n"
        "  --app <name>        application (default xalan); see 'apps'\n"
        "  --threads <list>    comma-separated thread counts "
        "(default 8)\n"
        "  --scale <f>         work-volume multiplier (default 1.0)\n"
        "  --seed <n>          experiment seed (default 42)\n"
        "  --heap-factor <f>   heap = f x min requirement (default 3)\n"
        "  --compartments      compartmentalized heap (Sec. IV (ii))\n"
        "  --biased            biased scheduling (Sec. IV (i))\n"
        "  --groups <g>        bias phase groups (default 4)\n"
        "  --adaptive          adaptive young-gen sizing\n"
        "  --concurrent        CMS-style concurrent old-gen collector\n"
        "  --scatter           spread enabled cores across sockets\n"
        "  --replicas <n>      repetitions with derived seeds (sweep)\n"
        "  --jobs <n>          host worker threads for sweep/study\n"
        "                      (0 = one per host core, 1 = sequential;\n"
        "                      results are identical for any value)\n"
        "  --governor <p>      concurrency governor policy: off, hill\n"
        "                      (throughput hill climbing) or usl\n"
        "                      (calibrate, fit, clamp to n*)\n"
        "  --governor-interval-ms <n>  governor decision interval\n"
        "                      (default 5)\n"
        "  --per-thread        per-thread breakdown (run command)\n"
        "  --gclog <path>      write a HotSpot-style GC log\n"
        "  --timeline <path>   write a Chrome-trace/Perfetto timeline\n"
        "                      ({app}/{threads} placeholders allowed)\n"
        "  --metrics-interval-ms <n>  sample heap/runqueue/lock gauges\n"
        "                      every n ms into a CSV time series\n"
        "  --metrics <path>    metrics CSV path (default derives from\n"
        "                      --timeline)\n"
        "  --faults <spec>     deterministic fault schedule, e.g.\n"
        "                      \"coreoff@100:n=2:for=200,kill@250\" or\n"
        "                      \"intensity=0.5:horizon=300\"; see "
        "'faults'\n"
        "  --watchdog          arm the sim-time livelock watchdog\n"
        "  --watchdog-interval-ms <n>  watchdog check interval\n"
        "                      (default 1000 simulated ms)\n"
        "  --intensities <l>   resilience x-axis, comma-separated\n"
        "                      fractions (default 0,0.25,0.5,0.75,1)\n"
        "  --horizon-ms <n>    resilience fault window in simulated ms\n"
        "                      (default: auto, 3/4 of an unfaulted run)\n"
        "  --oracles           arm the invariant oracle suite on every\n"
        "                      run; a violation aborts that run with a\n"
        "                      diagnosed message\n"
        "  --profile           attach the wait-state attribution\n"
        "                      profiler (blame buckets + latency\n"
        "                      histograms); primary stats stay\n"
        "                      byte-identical to unprofiled runs\n"
        "  --profile-topk <n>  slowest-task records kept per run\n"
        "                      (default 5; alias --topk)\n"
        "  --seeds <n>         fuzz campaign size (default 20)\n"
        "  --shrink-budget <n> max re-runs spent shrinking a fuzz\n"
        "                      failure (default 64, range 1..10000)\n"
        "  --sabotage <kind>   seed a bug into the fuzz event stream:\n"
        "                      none, dup-alloc, phantom-death,\n"
        "                      double-release or illegal-handoff\n"
        "                      (oracle self-test)\n"
        "  --lock-policy <p>   monitor admission policy: fifo (strict\n"
        "                      queue order, default), barging (bounded\n"
        "                      unfair window), malthusian (cull excess\n"
        "                      waiters to a passive list) or lcr\n"
        "                      (concurrency restriction at measured\n"
        "                      capacity); collapse sweeps all four\n"
        "                      unless narrowed\n"
        "  --barge-window <n>  barging grant window (default 4)\n"
        "  --active-target <n> malthusian active-set bound (default 2)\n"
        "  --rotation-period <n>  passive-list rotation period in\n"
        "                      handoffs, 0 = never (default 32)\n"
        "  --lcr-max <n>       LCR active-set clamp maximum (default 8)\n"
        "  --handoff-base <t>  fixed ticks charged per contended\n"
        "                      handoff (default 0; collapse default "
        "250)\n"
        "  --coherence-cost <t>  ticks per distinct recent lock owner\n"
        "                      charged at handoff (default 0; collapse\n"
        "                      default 500)\n"
        "  --replay <path>     re-run a fuzz reproducer file\n"
        "  --out <path>        output file (trace, fuzz reproducer,\n"
        "                      golden store)\n"
        "  --in <path>         trace input file (analyze command)\n"
        "  --plots <dir>       write gnuplot figures (study command)\n"
        "  --csv               emit CSV after the tables\n"
        "  --arrivals <spec>   open-loop arrival stream (run/sweep):\n"
        "                      poisson:rate=<r>[:requests=<n>]\n"
        "                      [:queue=<cap>][:shed=drop|oldest],\n"
        "                      burst:rate=<r>:factor=<f>[:on_ms=..]\n"
        "                      [:off_ms=..], or diurnal:rate=<r>:\n"
        "                      peak=<f>[:period_ms=..]\n"
        "  --tenants <list>    co-located JVMs on one machine (run):\n"
        "                      ';'-separated \"<app>:threads=<n>:\n"
        "                      rate=<r>[...]\" tenant specs\n"
        "  --loads <list>      traffic-study offered-load ladder as\n"
        "                      fractions of capacity (default\n"
        "                      0.25,0.5,1,2)\n"
        "  --requests <n>      requests per open-loop rung of the\n"
        "                      traffic study (default 2000)\n"
        "  --index <i> --of <N>  shard identity (shard command)\n"
        "  --shards <n>        campaign worker count (default 2)\n"
        "  --cache-dir <dir>   per-point result cache: every finished\n"
        "                      point is stored, and re-running the\n"
        "                      same command with the same dir salvages\n"
        "                      it instead of re-simulating (resume).\n"
        "                      Off for plain commands unless given;\n"
        "                      shard/merge default jscale-cache,\n"
        "                      campaign default jscale-campaign/cache\n"
        "  --fill              merge: re-run missing points locally\n"
        "                      instead of marking them failed\n"
        "  --retries <n>       extra attempts per worker after a crash\n"
        "                      or timeout (default 2; deterministic\n"
        "                      nonzero exits are never retried)\n"
        "  --backoff-ms <n>    base of the exponential retry backoff\n"
        "                      (default 250)\n"
        "  --timeout-s <n>     wall-clock limit per worker attempt\n"
        "                      (0 = none)\n"
        "  --log-dir <dir>     per-attempt worker logs (campaign\n"
        "                      default jscale-campaign/logs)\n"
        "  --chaos             SIGKILL one worker mid-campaign after a\n"
        "                      few durable records (supervisor\n"
        "                      self-test: retry salvages and resumes)\n"
        "  --chaos-seed <n>    picks the chaos victim shard (default "
        "1)\n"
        "  --chaos-kill-after <n>  durable records committed before\n"
        "                      the kill (default 2)\n"
        "\n"
        "exit codes: 0 success; 1 runtime/domain failure; 2 usage\n"
        "error; 3 partial campaign (missing points after the retry\n"
        "budget). See docs/operations.md.\n";
    std::exit(code);
}

std::vector<std::uint32_t>
parseThreadList(const std::string &arg)
{
    std::vector<std::uint32_t> out;
    std::stringstream ss(arg);
    std::string item;
    while (std::getline(ss, item, ',')) {
        const int v = std::atoi(item.c_str());
        if (v <= 0) {
            std::cerr << "bad thread count '" << item << "'\n";
            std::exit(2);
        }
        out.push_back(static_cast<std::uint32_t>(v));
    }
    if (out.empty()) {
        std::cerr << "empty thread list\n";
        std::exit(2);
    }
    return out;
}

CliOptions
parse(int argc, char **argv)
{
    if (argc < 2)
        usage(2);
    CliOptions o;
    o.command = argv[1];
    if (o.command == "--help" || o.command == "-h")
        usage(0);
    int first_flag = 2;
    if (o.command == "golden" && argc > 2 && argv[2][0] != '-') {
        o.golden_action = argv[2];
        first_flag = 3;
    }
    for (int i = first_flag; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::cerr << "missing value for " << arg << "\n";
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--app") {
            o.app = value();
            o.app_set = true;
        } else if (arg == "--threads") {
            o.threads = parseThreadList(value());
            o.threads_set = true;
        } else if (arg == "--scale") {
            o.scale = std::atof(value());
        } else if (arg == "--seed") {
            o.seed = static_cast<std::uint64_t>(std::atoll(value()));
        } else if (arg == "--heap-factor") {
            o.heap_factor = std::atof(value());
        } else if (arg == "--compartments") {
            o.compartments = true;
        } else if (arg == "--biased") {
            o.biased = true;
        } else if (arg == "--groups") {
            o.groups = static_cast<std::uint32_t>(std::atoi(value()));
        } else if (arg == "--adaptive") {
            o.adaptive = true;
        } else if (arg == "--concurrent") {
            o.concurrent = true;
        } else if (arg == "--scatter") {
            o.scatter = true;
        } else if (arg == "--replicas") {
            o.replicas = static_cast<std::uint32_t>(
                std::atoi(value()));
        } else if (arg == "--jobs") {
            // 0 legitimately means "one worker per host core", so a
            // mistyped value must not alias to it via atoi.
            const std::string v = value();
            if (v.empty() ||
                v.find_first_not_of("0123456789") != std::string::npos) {
                std::cerr << "bad --jobs value '" << v << "'\n";
                std::exit(2);
            }
            o.jobs = static_cast<std::uint32_t>(std::stoul(v));
        } else if (arg == "--governor") {
            const std::string v = value();
            if (!control::parseGovernorMode(v, o.governor)) {
                std::cerr << "bad --governor policy '" << v
                          << "' (expect off, hill or usl)\n";
                std::exit(2);
            }
        } else if (arg == "--governor-interval-ms") {
            // Strict digits: "5x" or "" must not alias to a number.
            const std::string v = value();
            if (v.empty() ||
                v.find_first_not_of("0123456789") != std::string::npos) {
                std::cerr << "bad --governor-interval-ms value '" << v
                          << "'\n";
                std::exit(2);
            }
            o.governor_interval_ms = std::stoull(v);
            if (o.governor_interval_ms == 0) {
                std::cerr << "--governor-interval-ms must be positive\n";
                std::exit(2);
            }
        } else if (arg == "--faults") {
            o.faults_spec = value();
            std::string err;
            if (!fault::FaultPlan::parse(o.faults_spec, o.fault_plan,
                                         err)) {
                std::cerr << "bad --faults spec: " << err << "\n";
                std::exit(2);
            }
        } else if (arg == "--watchdog") {
            o.watchdog = true;
        } else if (arg == "--watchdog-interval-ms") {
            const std::string v = value();
            if (v.empty() ||
                v.find_first_not_of("0123456789") != std::string::npos) {
                std::cerr << "bad --watchdog-interval-ms value '" << v
                          << "'\n";
                std::exit(2);
            }
            o.watchdog_interval_ms = std::stoull(v);
            if (o.watchdog_interval_ms == 0) {
                std::cerr << "--watchdog-interval-ms must be positive\n";
                std::exit(2);
            }
        } else if (arg == "--cache-dir") {
            o.cache_dir = value();
        } else if (arg == "--intensities") {
            o.intensities.clear();
            std::stringstream ss(value());
            std::string item;
            while (std::getline(ss, item, ',')) {
                char *end = nullptr;
                const double v = std::strtod(item.c_str(), &end);
                if (item.empty() || end != item.c_str() + item.size() ||
                    v < 0.0 || v > 1.0) {
                    std::cerr << "bad intensity '" << item
                              << "' (expect fractions in [0, 1])\n";
                    std::exit(2);
                }
                o.intensities.push_back(v);
            }
            if (o.intensities.empty()) {
                std::cerr << "empty --intensities list\n";
                std::exit(2);
            }
        } else if (arg == "--horizon-ms") {
            const std::string v = value();
            if (v.empty() ||
                v.find_first_not_of("0123456789") != std::string::npos) {
                std::cerr << "bad --horizon-ms value '" << v << "'\n";
                std::exit(2);
            }
            o.horizon_ms = std::stoull(v);
            if (o.horizon_ms == 0) {
                std::cerr << "--horizon-ms must be positive\n";
                std::exit(2);
            }
        } else if (arg == "--per-thread") {
            o.per_thread = true;
        } else if (arg == "--gclog") {
            o.gclog_path = value();
        } else if (arg == "--timeline") {
            o.timeline_path = value();
        } else if (arg == "--metrics") {
            o.metrics_path = value();
        } else if (arg == "--metrics-interval-ms") {
            o.metrics_interval_ms =
                static_cast<std::uint64_t>(std::atoll(value()));
        } else if (arg == "--oracles") {
            o.oracles = true;
        } else if (arg == "--profile") {
            o.profile = true;
        } else if (arg == "--profile-topk" || arg == "--topk") {
            // Strict digits: "5x" or "" must not alias to a number.
            const std::string v = value();
            if (v.empty() ||
                v.find_first_not_of("0123456789") != std::string::npos) {
                std::cerr << "bad " << arg << " value '" << v << "'\n";
                std::exit(2);
            }
            o.profile_topk =
                static_cast<std::uint32_t>(std::stoul(v));
            if (o.profile_topk == 0) {
                std::cerr << arg << " must be positive\n";
                std::exit(2);
            }
        } else if (arg == "--seeds") {
            const std::string v = value();
            if (v.empty() ||
                v.find_first_not_of("0123456789") != std::string::npos) {
                std::cerr << "bad --seeds value '" << v << "'\n";
                std::exit(2);
            }
            o.fuzz_seeds = std::stoull(v);
            if (o.fuzz_seeds == 0) {
                std::cerr << "--seeds must be positive\n";
                std::exit(2);
            }
        } else if (arg == "--shrink-budget") {
            const std::string v = value();
            if (v.empty() ||
                v.find_first_not_of("0123456789") != std::string::npos) {
                std::cerr << "bad --shrink-budget value '" << v << "'\n";
                std::exit(2);
            }
            o.shrink_budget = std::stoull(v);
            if (o.shrink_budget < 1 || o.shrink_budget > 10000) {
                std::cerr << "--shrink-budget " << o.shrink_budget
                          << " out of range (expect 1..10000 re-runs)\n";
                std::exit(2);
            }
        } else if (arg == "--sabotage") {
            const std::string v = value();
            if (!check::parseSabotage(v, o.sabotage)) {
                std::cerr << "bad --sabotage kind '" << v
                          << "' (expect none, dup-alloc, phantom-death, "
                             "double-release or illegal-handoff)\n";
                std::exit(2);
            }
        } else if (arg == "--lock-policy") {
            const std::string v = value();
            if (!jvm::parseLockPolicy(v, o.locks.policy)) {
                std::cerr << "bad --lock-policy '" << v
                          << "' (expect fifo, barging, malthusian or "
                             "lcr)\n";
                std::exit(2);
            }
            o.lock_policy_set = true;
        } else if (arg == "--barge-window" || arg == "--active-target" ||
                   arg == "--rotation-period" || arg == "--lcr-max" ||
                   arg == "--handoff-base" || arg == "--coherence-cost" ||
                   arg == "--circulation-window") {
            // Strict digits: "5x" or "" must not alias to a number.
            const std::string v = value();
            if (v.empty() ||
                v.find_first_not_of("0123456789") != std::string::npos) {
                std::cerr << "bad " << arg << " value '" << v << "'\n";
                std::exit(2);
            }
            const std::uint64_t n = std::stoull(v);
            if (n == 0 && arg != "--rotation-period" &&
                arg != "--handoff-base" && arg != "--coherence-cost") {
                std::cerr << arg << " must be positive\n";
                std::exit(2);
            }
            if (arg == "--barge-window")
                o.locks.barge_window = static_cast<std::uint32_t>(n);
            else if (arg == "--active-target")
                o.locks.active_target = static_cast<std::uint32_t>(n);
            else if (arg == "--rotation-period")
                o.locks.rotation_period = static_cast<std::uint32_t>(n);
            else if (arg == "--lcr-max")
                o.locks.lcr_max_active = static_cast<std::uint32_t>(n);
            else if (arg == "--handoff-base")
                o.locks.handoff_base = n;
            else if (arg == "--coherence-cost")
                o.locks.coherence_cost = n;
            else
                o.locks.circulation_window =
                    static_cast<std::uint32_t>(n);
        } else if (arg == "--arrivals") {
            o.arrivals = value();
            traffic::ArrivalSpec spec;
            std::string err;
            if (!traffic::ArrivalSpec::parse(o.arrivals, spec, err)) {
                std::cerr << "bad --arrivals spec: " << err << "\n";
                std::exit(2);
            }
        } else if (arg == "--tenants") {
            o.tenants_spec = value();
            std::string err;
            if (!traffic::TenantSpec::parseList(o.tenants_spec,
                                                o.tenants, err)) {
                std::cerr << "bad --tenants spec: " << err << "\n";
                std::exit(2);
            }
        } else if (arg == "--loads") {
            o.loads.clear();
            std::stringstream ss(value());
            std::string item;
            while (std::getline(ss, item, ',')) {
                char *end = nullptr;
                const double v = std::strtod(item.c_str(), &end);
                if (item.empty() || end != item.c_str() + item.size() ||
                    v <= 0.0) {
                    std::cerr << "bad load factor '" << item
                              << "' (expect positive fractions of "
                                 "capacity)\n";
                    std::exit(2);
                }
                o.loads.push_back(v);
            }
            if (o.loads.empty()) {
                std::cerr << "empty --loads list\n";
                std::exit(2);
            }
        } else if (arg == "--requests") {
            const std::string v = value();
            if (v.empty() ||
                v.find_first_not_of("0123456789") != std::string::npos) {
                std::cerr << "bad --requests value '" << v << "'\n";
                std::exit(2);
            }
            o.requests = std::stoull(v);
            if (o.requests == 0) {
                std::cerr << "--requests must be positive\n";
                std::exit(2);
            }
        } else if (arg == "--replay") {
            o.replay_path = value();
        } else if (arg == "--out") {
            o.trace_out = value();
            o.out_path = o.trace_out;
        } else if (arg == "--plots") {
            o.plots_dir = value();
        } else if (arg == "--in") {
            o.trace_in = value();
        } else if (arg == "--csv") {
            o.csv = true;
        } else if (arg == "--help" || arg == "-h") {
            usage(0);
        } else {
            std::cerr << "unknown flag '" << arg << "'\n";
            usage(2);
        }
    }
    return o;
}

/** Exit 2 unless @p app names a modeled application. */
void
requireValidApp(const std::string &app)
{
    // "hotlock" is the synthetic lock-saturation workload behind the
    // E19 collapse study; it stays out of dacapoAppNames() so the
    // paper-suite commands don't sweep it, but any single-app command
    // may ask for it by name.
    if (app == "hotlock")
        return;
    const auto names = workload::dacapoAppNames();
    if (std::find(names.begin(), names.end(), app) != names.end())
        return;
    std::cerr << "unknown app '" << app << "'; modeled apps:";
    for (const auto &name : names)
        std::cerr << " " << name;
    std::cerr << " hotlock\n";
    std::exit(2);
}

core::ExperimentConfig
experimentConfig(const CliOptions &o)
{
    core::ExperimentConfig cfg;
    cfg.seed = o.seed;
    cfg.workload_scale = o.scale;
    cfg.heap_factor = o.heap_factor;
    cfg.vm.heap.compartmentalized = o.compartments;
    cfg.biased_scheduling = o.biased;
    cfg.bias_groups = o.groups;
    cfg.vm.adaptive.enabled = o.adaptive;
    if (o.concurrent)
        cfg.vm.collector = jvm::CollectorKind::ConcurrentOld;
    if (o.scatter)
        cfg.placement = machine::Machine::EnablePolicy::Scatter;
    cfg.timeline_path = o.timeline_path;
    cfg.metrics_path = o.metrics_path;
    cfg.metrics_interval = o.metrics_interval_ms * units::MS;
    cfg.jobs = o.jobs;
    cfg.governor.mode = o.governor;
    cfg.governor.interval = o.governor_interval_ms * units::MS;
    cfg.faults = o.fault_plan;
    cfg.watchdog = o.watchdog;
    cfg.watchdog_config.interval = o.watchdog_interval_ms * units::MS;
    cfg.vm.locks = o.locks;
    cfg.oracles = o.oracles;
    cfg.profile = o.profile;
    cfg.profile_topk = o.profile_topk;
    cfg.arrivals = o.arrivals;
    cfg.shard_index = o.shard_index;
    cfg.shard_count = o.shard_count;
    cfg.run_cache_dir = o.cache_dir;
    cfg.merge_strict = o.merge_strict;
    return cfg;
}

/** Multi-tenant run: N JVMs co-located on one simulated machine. */
int
runTenantHost(const CliOptions &o)
{
    for (const auto &spec : o.tenants)
        requireValidApp(spec.app);
    core::ExperimentRunner runner(experimentConfig(o));
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
    if (o.csv) {
        std::cout << "\n";
        core::writeTrafficCsv(std::cout, results);
    }
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
cmdApps()
{
    TextTable t;
    t.header({"app", "class", "model"});
    t.align(2, TextTable::Align::Left);
    for (const auto &name : workload::dacapoAppNames()) {
        std::string model;
        if (name == "sunflow")
            model = "task queue, compute-heavy (raytracer)";
        else if (name == "lusearch")
            model = "task queue, striped index cache (search)";
        else if (name == "xalan")
            model = "task queue, hot output buffer (XSLT)";
        else if (name == "h2")
            model = "coarse database lock (transactions)";
        else if (name == "eclipse")
            model = "fixed-width compile pipeline";
        else
            model = "interpreter lock, <=4 workers";
        t.row({name,
               workload::dacapoExpectedScalable(name) ? "scalable"
                                                      : "non-scalable",
               model});
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
        return runTenantHost(o);
    requireValidApp(o.app);
    core::ExperimentRunner runner(experimentConfig(o));
    std::unique_ptr<std::ofstream> log_stream;
    std::unique_ptr<jvm::GcLogWriter> writer;
    const jvm::RunResult r = runner.runApp(
        o.app, o.threads.front(), gcLogHook(o, log_stream, writer));
    core::printRunSummary(std::cout, r);
    if (r.traffic.enabled) {
        std::cout << "\n";
        core::printTrafficTable(std::cout, {r});
        if (o.csv) {
            std::cout << "\n";
            core::writeTrafficCsv(std::cout, {r});
        }
    }
    if (o.per_thread) {
        std::cout << "\n";
        core::printThreadTable(std::cout, r);
    }
    if (r.profile.enabled) {
        std::cout << "\n";
        core::printBlameTable(std::cout, r);
        if (o.csv) {
            std::cout << "\n";
            core::writeBlameCsv(std::cout, r);
            std::cout << "\n";
            core::writeProfileHistogramCsv(std::cout, r);
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
                  << jvm::describeLockPolicyConfig(o.locks) << "]: "
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
    requireValidApp(o.app);
    core::ExperimentRunner runner(experimentConfig(o));
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
    if (!o.arrivals.empty()) {
        std::cout << "\n";
        core::printTrafficTable(std::cout, sweeps[o.app]);
        if (o.csv) {
            std::cout << "\n";
            core::writeTrafficCsv(std::cout, sweeps[o.app]);
        }
    }
    for (const auto &r : sweeps[o.app]) {
        if (!r.timeline_file.empty()) {
            std::cout << "timeline (" << r.threads << " threads): "
                      << r.timeline_events << " events -> "
                      << r.timeline_file << "\n";
        }
    }
    if (o.csv) {
        std::cout << "\n";
        core::writeScalabilityCsv(std::cout, sweeps);
    }
    return 0;
}

int
cmdStudy(const CliOptions &o)
{
    core::ExperimentRunner runner(experimentConfig(o));
    const auto threads = runner.paperThreadCounts();
    // One batch for the whole (app x threads) cross product, so --jobs
    // parallelism spans apps instead of draining one sweep at a time.
    core::SweepSet sweeps = runner.sweepApps(
        workload::dacapoAppNames(), threads, [](const std::string &app) {
            std::cerr << "sweeping " << app << "...\n";
        });
    core::printScalabilityTable(std::cout, sweeps);
    std::cout << '\n';
    core::printWorkloadDistributionTable(std::cout, sweeps);
    std::cout << '\n';
    core::printLockAcquisitionTable(std::cout, sweeps);
    std::cout << '\n';
    core::printLockContentionTable(std::cout, sweeps);
    std::cout << '\n';
    core::printMutatorGcTable(std::cout, sweeps);
    std::cout << '\n';
    core::printUslTable(std::cout, sweeps);
    if (o.csv) {
        std::cout << "\n";
        core::writeScalabilityCsv(std::cout, sweeps);
        std::cout << "\n";
        core::writeUslCsv(std::cout, sweeps);
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
    requireValidApp(o.app);
    core::ExperimentRunner runner(experimentConfig(o));
    std::vector<jvm::RunResult> sweep = runner.sweep(o.app, o.threads);
    core::printLifespanCdfTable(std::cout, o.app, sweep);
    if (o.csv) {
        std::cout << "\n";
        core::writeLifespanCdfCsv(std::cout, o.app, sweep);
    }
    return 0;
}

int
cmdLocks(const CliOptions &o)
{
    requireValidApp(o.app);
    core::ExperimentRunner runner(experimentConfig(o));
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
    requireValidApp(o.app);
    std::ofstream out(o.trace_out, std::ios::binary);
    if (!out) {
        std::cerr << "cannot open '" << o.trace_out << "'\n";
        return 2;
    }
    trace::BinaryTraceWriter writer(out);
    trace::ObjectTracer tracer(writer);
    core::ExperimentRunner runner(experimentConfig(o));
    const jvm::RunResult r = runner.runApp(
        o.app, o.threads.front(),
        [&tracer](jvm::JavaVm &vm) { vm.listeners().add(&tracer); });
    writer.flush();
    std::cout << "traced " << o.app << " @ " << r.threads << " threads: "
              << writer.recordCount() << " events ("
              << r.heap.objects_allocated << " allocations) -> "
              << o.trace_out << "\n";
    return 0;
}

int
cmdAnalyze(const CliOptions &o)
{
    if (o.trace_in.empty()) {
        std::cerr << "analyze requires --in <trace-file>\n";
        return 2;
    }
    std::ifstream in(o.trace_in, std::ios::binary);
    if (!in) {
        std::cerr << "cannot open '" << o.trace_in << "'\n";
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
    std::cout << "trace '" << o.trace_in << "': " << events
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

/** Split one CSV line on commas (no quoting in our CSVs). */
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

/** Parse a strictly-numeric field; exit(2) with context on garbage. */
double
parseCsvNumber(const std::string &field, const char *what,
               std::size_t line_no)
{
    const char *begin = field.c_str();
    char *end = nullptr;
    const double v = std::strtod(begin, &end);
    if (field.empty() || end != begin + field.size()) {
        std::cerr << "bad " << what << " '" << field << "' on line "
                  << line_no << "\n";
        std::exit(2);
    }
    return v;
}

int
cmdUsl(const CliOptions &o)
{
    if (o.trace_in.empty()) {
        std::cerr << "usl requires --in <scalability-csv>\n";
        return 2;
    }
    std::ifstream in(o.trace_in);
    if (!in) {
        std::cerr << "cannot open '" << o.trace_in << "'\n";
        return 2;
    }

    // Locate the needed columns by name, so both writeScalabilityCsv
    // output and hand-made measurement files fit.
    std::string line;
    if (!std::getline(in, line)) {
        std::cerr << "'" << o.trace_in << "' is empty\n";
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
        std::cerr << "'" << o.trace_in
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
                      << o.trace_in << "'\n";
            return 2;
        }
        const std::string &app = fields[app_col];
        const double threads = parseCsvNumber(fields[threads_col],
                                              "thread count", line_no);
        const double speedup =
            parseCsvNumber(fields[speedup_col], "speedup", line_no);
        if (threads < 1.0 || speedup <= 0.0) {
            std::cerr << "non-positive measurement on line " << line_no
                      << " of '" << o.trace_in << "'\n";
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
        std::cerr << "'" << o.trace_in << "' has no data rows\n";
        return 2;
    }
    core::printUslSeriesTable(std::cout, series);
    return 0;
}

int
cmdFaults(const CliOptions &o)
{
    if (o.faults_spec.empty()) {
        std::cerr << "faults requires --faults <spec>\n";
        return 2;
    }
    // Already validated by parse(); print the expanded schedule.
    std::cout << o.fault_plan.describe() << "\n";
    return 0;
}

int
cmdResilience(const CliOptions &o)
{
    requireValidApp(o.app);
    core::ResilienceConfig cfg;
    cfg.app = o.app;
    cfg.threads = o.threads.front();
    cfg.intensities = o.intensities;
    cfg.horizon = o.horizon_ms * units::MS;
    // --governor selects the governed arm's policy; the study itself
    // toggles governed vs. ungoverned, so off falls back to hill.
    cfg.governed_mode = o.governor != control::GovernorMode::Off
                            ? o.governor
                            : control::GovernorMode::HillClimb;
    cfg.base = experimentConfig(o);
    cfg.base.faults = {};
    cfg.base.governor.mode = control::GovernorMode::Off;

    const auto points = core::runResilienceStudy(cfg);
    core::printResilienceTable(std::cout, points);
    if (o.csv) {
        std::cout << "\n";
        core::writeResilienceCsv(std::cout, points);
    }
    return 0;
}

int
cmdProfile(const CliOptions &o)
{
    core::BlameConfig cfg;
    // Default: the full six-app study over the paper thread ladder;
    // --app / --threads narrow it explicitly.
    if (o.app_set) {
        requireValidApp(o.app);
        cfg.apps = {o.app};
    }
    if (o.threads_set)
        cfg.threads = o.threads;
    cfg.topk = o.profile_topk;
    cfg.base = experimentConfig(o);

    const core::BlameStudy study = core::runBlameStudy(cfg);
    core::printBlameStudyTable(std::cout, study);
    if (o.csv) {
        std::cout << "\n";
        core::writeBlameStudyCsv(std::cout, study);
    }
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
        check::FuzzCase c;
        std::string err;
        if (!check::readReproducer(o.replay_path, c, err)) {
            std::cerr << "bad reproducer: " << err << "\n";
            return 2;
        }
        std::cout << "replaying " << c.describe() << "\n";
        const check::FuzzOutcome out = check::runFuzzCase(c);
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
        seeds.push_back(o.seed + i);
    check::FuzzCampaignIo io;
    io.shard_index = o.shard_index;
    io.shard_count = o.shard_count;
    if (!o.cache_dir.empty()) {
        io.cache_dir = o.cache_dir;
        std::ostringstream fp;
        fp << "fuzz seeds=" << o.fuzz_seeds << " base=" << o.seed
           << " sabotage=" << check::sabotageName(o.sabotage);
        io.fingerprint = fp.str();
    }
    const check::FuzzReport report = check::runFuzzCampaign(
        seeds, o.sabotage, static_cast<std::uint32_t>(o.shrink_budget),
        &std::cerr, io);
    std::cout << report.cases_run << " case(s), " << report.total_checks
              << " invariant checks, " << report.failures.size()
              << " failure(s)\n";
    if (!report.failed())
        return 0;

    const check::FuzzOutcome &first = report.failures.front();
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
        check::writeReproducer(repro.stream(), report);
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
    if (o.app_set) {
        requireValidApp(o.app);
        cfg.apps = {o.app};
    }
    if (o.threads_set)
        cfg.threads = o.threads;
    cfg.load_factors = o.loads;
    std::sort(cfg.load_factors.begin(), cfg.load_factors.end());
    cfg.requests = o.requests;
    cfg.base = experimentConfig(o);
    // The study drives the arrival spec itself, rung by rung.
    cfg.base.arrivals.clear();

    const core::TrafficStudy study = core::runTrafficStudy(cfg);
    core::printTrafficStudyTable(std::cout, study);
    if (o.csv) {
        std::cout << "\n";
        core::writeTrafficStudyCsv(std::cout, study);
    }
    return 0;
}

int
cmdCollapse(const CliOptions &o)
{
    core::CollapseConfig cfg;
    // Default: the E19 lock-saturated microbenchmark over the paper
    // thread ladder, all four policies; --app / --threads /
    // --lock-policy narrow explicitly.
    if (o.app_set) {
        requireValidApp(o.app);
        cfg.app = o.app;
    }
    if (o.threads_set)
        cfg.threads = o.threads;
    if (o.lock_policy_set)
        cfg.policies = {o.locks.policy};
    // --governor adds an E17-governed arm per policy.
    cfg.governed_arms = o.governor != control::GovernorMode::Off;
    cfg.base = experimentConfig(o);
    cfg.base.governor.mode = control::GovernorMode::Off;

    const core::CollapseStudy study = core::runCollapseStudy(cfg);
    core::printCollapseTable(std::cout, study);
    if (o.csv) {
        std::cout << "\n";
        core::writeCollapseCsv(std::cout, study);
    }
    return 0;
}

int
cmdGolden(const CliOptions &o)
{
    const std::string path =
        o.out_path.empty() ? "jscale.golden" : o.out_path;
    if (o.golden_action == "record") {
        requireValidApp(o.app);
        core::ExperimentRunner runner(experimentConfig(o));
        check::GoldenFile file;
        std::ostringstream threads_csv;
        for (std::size_t i = 0; i < o.threads.size(); ++i)
            threads_csv << (i ? "," : "") << o.threads[i];
        file.config.emplace_back("app", o.app);
        file.config.emplace_back("threads", threads_csv.str());
        file.config.emplace_back("seed", std::to_string(o.seed));
        {
            std::ostringstream scale;
            scale.precision(17);
            scale << o.scale;
            file.config.emplace_back("scale", scale.str());
        }
        file.config.emplace_back("fingerprint",
                                 runner.campaignFingerprint());
        if (o.shard_count > 1) {
            // A shard worker executes (and caches) only its slice; the
            // other points come back as skipped markers. Writing a
            // snapshot from that would publish a scratch partial file
            // the merge step then has to race against — so shard
            // workers only populate the cache and the merge's rewrite
            // (shard_count == 1, every point salvaged) is the one
            // authoritative snapshot.
            for (const jvm::RunResult &r :
                 runner.sweep(o.app, o.threads)) {
                if (r.failed()) {
                    std::cerr << "cannot record: run at " << r.threads
                              << " threads failed: " << r.run_error
                              << "\n";
                    return 1;
                }
            }
            std::cout << "shard slice cached; snapshot deferred to "
                         "merge\n";
            return 0;
        }
        for (const jvm::RunResult &r : runner.sweep(o.app, o.threads)) {
            if (r.failed()) {
                std::cerr << "cannot record: run at " << r.threads
                          << " threads failed: " << r.run_error << "\n";
                return 1;
            }
            check::GoldenRun run;
            run.app = r.app_name;
            run.threads = r.threads;
            run.stats = core::runStatSnapshot(r);
            file.runs.push_back(std::move(run));
        }
        std::ofstream out(path);
        if (!out) {
            std::cerr << "cannot open '" << path << "'\n";
            return 2;
        }
        check::writeGolden(out, file);
        std::cout << "recorded " << file.runs.size() << " run(s) -> "
                  << path << "\n";
        return 0;
    }
    if (o.golden_action == "verify") {
        check::GoldenFile file;
        std::string err;
        if (!check::readGoldenFile(path, file, err)) {
            std::cerr << "bad golden file: " << err << "\n";
            return 2;
        }
        // The sweep definition comes from the file; remaining knobs
        // (compartments, governor, ...) come from the CLI and are
        // cross-checked through the recorded fingerprint.
        CliOptions ro = o;
        ro.app = file.configValue("app");
        const std::string threads_s = file.configValue("threads");
        const std::string seed_s = file.configValue("seed");
        const std::string scale_s = file.configValue("scale");
        if (ro.app.empty() || threads_s.empty() || seed_s.empty() ||
            scale_s.empty()) {
            std::cerr << "bad golden file: missing app/threads/seed/"
                         "scale config entries\n";
            return 2;
        }
        requireValidApp(ro.app);
        ro.threads = parseThreadList(threads_s);
        try {
            ro.seed = std::stoull(seed_s);
            ro.scale = std::stod(scale_s);
        } catch (const std::exception &) {
            std::cerr << "bad golden file: malformed seed/scale\n";
            return 2;
        }
        core::ExperimentRunner runner(experimentConfig(ro));
        const std::string recorded = file.configValue("fingerprint");
        if (recorded != runner.campaignFingerprint()) {
            std::cerr << "configuration drift:\n  recorded: " << recorded
                      << "\n  current:  " << runner.campaignFingerprint()
                      << "\n(pass the flags the file was recorded with)\n";
            return 1;
        }
        std::vector<check::GoldenRun> fresh;
        for (const jvm::RunResult &r : runner.sweep(ro.app, ro.threads)) {
            if (r.failed()) {
                std::cerr << "verify run at " << r.threads
                          << " threads failed: " << r.run_error << "\n";
                return 1;
            }
            check::GoldenRun run;
            run.app = r.app_name;
            run.threads = r.threads;
            run.stats = core::runStatSnapshot(r);
            fresh.push_back(std::move(run));
        }
        const auto diffs = check::diffGolden(file, fresh);
        if (diffs.empty()) {
            std::cout << "golden verify OK: " << file.runs.size()
                      << " run(s) bit-identical (" << path << ")\n";
            return 0;
        }
        std::cout << "golden verify FAILED: " << diffs.size()
                  << " field(s) drifted (" << path << ")\n";
        const std::size_t shown =
            std::min<std::size_t>(diffs.size(), 20);
        for (std::size_t i = 0; i < shown; ++i)
            std::cout << "  " << diffs[i].format() << "\n";
        if (shown < diffs.size()) {
            std::cout << "  ... and " << diffs.size() - shown
                      << " more\n";
        }
        return 1;
    }
    std::cerr << "golden requires an action: jscale golden "
                 "record|verify [flags]\n";
    return 2;
}

int
guardedDispatch(const CliOptions &o)
{
    try {
        if (o.command == "apps")
            return cmdApps();
        if (o.command == "run")
            return cmdRun(o);
        if (o.command == "sweep")
            return cmdSweep(o);
        if (o.command == "study")
            return cmdStudy(o);
        if (o.command == "lifespan")
            return cmdLifespan(o);
        if (o.command == "locks")
            return cmdLocks(o);
        if (o.command == "trace")
            return cmdTrace(o);
        if (o.command == "analyze")
            return cmdAnalyze(o);
        if (o.command == "usl")
            return cmdUsl(o);
        if (o.command == "faults")
            return cmdFaults(o);
        if (o.command == "resilience")
            return cmdResilience(o);
        if (o.command == "profile")
            return cmdProfile(o);
        if (o.command == "fuzz")
            return cmdFuzz(o);
        if (o.command == "golden")
            return cmdGolden(o);
        if (o.command == "traffic")
            return cmdTraffic(o);
        if (o.command == "collapse")
            return cmdCollapse(o);
    } catch (const AbortError &e) {
        // A single-run command hit the watchdog or the sim-time guard.
        // Batch commands isolate these per run and never get here.
        std::cerr << "aborted: " << e.what() << "\n";
        return 1;
    }
    std::cerr << "unknown command '" << o.command << "'\n";
    usage(2);
}

/** Parse a token list (no program name) through the normal parser. */
CliOptions
parseArgs(const std::vector<std::string> &args)
{
    std::vector<std::string> storage;
    storage.reserve(args.size() + 1);
    storage.push_back("jscale");
    storage.insert(storage.end(), args.begin(), args.end());
    std::vector<char *> argv;
    argv.reserve(storage.size());
    for (std::string &s : storage)
        argv.push_back(s.data());
    return parse(static_cast<int>(argv.size()), argv.data());
}

/** Strictly-numeric flag value; exit(2) on anything else. */
std::uint64_t
parseDigits(const std::string &v, const std::string &what)
{
    if (v.empty() ||
        v.find_first_not_of("0123456789") != std::string::npos) {
        std::cerr << "bad " << what << " value '" << v << "'\n";
        std::exit(2);
    }
    return std::stoull(v);
}

/**
 * Exit 2 unless @p cmd can run sharded. Shardable commands route every
 * run through the planned sweep executor (where the slice filter and
 * result cache live); run/locks/trace/traffic execute plans directly
 * and would silently ignore the shard arithmetic.
 */
void
requireShardable(const std::string &cmd)
{
    for (const char *ok : {"sweep", "study", "lifespan", "golden",
                           "resilience", "fuzz", "collapse"}) {
        if (cmd == ok)
            return;
    }
    std::cerr << "'" << cmd
              << "' cannot run sharded (supported: sweep, study, "
                 "lifespan, golden, resilience, fuzz, collapse)\n";
    std::exit(2);
}

/** Per-point accounting line: every planned point lands in exactly one
 *  bucket, so a campaign can never lose work silently. */
void
printPointSummary(const char *what)
{
    const core::CampaignPointStats &p = core::campaignPointStats();
    std::cerr << what << ": " << p.executed.load() << " executed, "
              << p.salvaged.load() << " salvaged, " << p.skipped.load()
              << " skipped, " << p.failed.load() << " failed, "
              << p.missing.load() << " missing\n";
}

/** jscale shard --index i --of N [--cache-dir d] <command> [flags] */
int
cmdShard(int argc, char **argv)
{
    std::uint32_t index = 0;
    std::uint32_t of = 0;
    bool of_set = false;
    std::string cache_dir = "jscale-cache";
    int i = 2;
    for (; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::cerr << "missing value for " << arg << "\n";
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--index") {
            index = static_cast<std::uint32_t>(
                parseDigits(value(), "--index"));
        } else if (arg == "--of") {
            of = static_cast<std::uint32_t>(parseDigits(value(), "--of"));
            of_set = true;
        } else if (arg == "--cache-dir") {
            cache_dir = value();
        } else {
            if (arg == "--")
                ++i; // optional separator before the nested command
            break; // nested command starts here
        }
    }
    if (!of_set || of == 0) {
        std::cerr << "shard requires --of <N> with N >= 1\n";
        std::exit(2);
    }
    if (index >= of) {
        std::cerr << "shard --index " << index << " out of range for --of "
                  << of << "\n";
        std::exit(2);
    }
    if (i >= argc) {
        std::cerr << "shard requires a nested command\n";
        std::exit(2);
    }
    requireShardable(argv[i]);
    CliOptions o =
        parseArgs(std::vector<std::string>(argv + i, argv + argc));
    o.shard_index = index;
    o.shard_count = of;
    o.cache_dir = cache_dir;
    core::resetCampaignPointStats();
    const int rc = guardedDispatch(o);
    printPointSummary(
        ("shard " + std::to_string(index) + "/" + std::to_string(of))
            .c_str());
    return rc;
}

/** jscale merge [--cache-dir d] [--fill] <command> [flags] */
int
cmdMerge(int argc, char **argv)
{
    std::string cache_dir = "jscale-cache";
    bool fill = false;
    int i = 2;
    for (; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--cache-dir") {
            if (i + 1 >= argc) {
                std::cerr << "missing value for --cache-dir\n";
                std::exit(2);
            }
            cache_dir = argv[++i];
        } else if (arg == "--fill") {
            fill = true;
        } else {
            if (arg == "--")
                ++i; // optional separator before the nested command
            break;
        }
    }
    if (i >= argc) {
        std::cerr << "merge requires a nested command\n";
        std::exit(2);
    }
    requireShardable(argv[i]);
    CliOptions o =
        parseArgs(std::vector<std::string>(argv + i, argv + argc));
    o.cache_dir = cache_dir;
    o.merge_strict = !fill;
    core::resetCampaignPointStats();
    const int rc = guardedDispatch(o);
    printPointSummary("merge");
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
 * jscale campaign --shards N [supervisor flags] <command> [flags]
 *
 * Forks N shard workers of this binary, supervises them (watchdog,
 * classify, retry with backoff), then merges in-process. The final
 * exit code comes from the merged data, not the worker exits: a shard
 * that crashed but whose points were salvaged is a success; points
 * still missing after the retry budget make the campaign partial (3).
 */
int
cmdCampaign(int argc, char **argv)
{
    std::uint32_t shards = 2;
    std::string cache_dir = "jscale-campaign/cache";
    std::string log_dir = "jscale-campaign/logs";
    core::SupervisorConfig scfg;
    bool chaos = false;
    std::uint64_t chaos_seed = 1;
    std::uint64_t chaos_kill_after = 2;
    int i = 2;
    for (; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::cerr << "missing value for " << arg << "\n";
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--shards") {
            shards =
                static_cast<std::uint32_t>(parseDigits(value(), arg));
        } else if (arg == "--cache-dir") {
            cache_dir = value();
        } else if (arg == "--log-dir") {
            log_dir = value();
        } else if (arg == "--retries") {
            scfg.retries =
                static_cast<unsigned>(parseDigits(value(), arg));
        } else if (arg == "--backoff-ms") {
            scfg.backoff_ms = parseDigits(value(), arg);
        } else if (arg == "--timeout-s") {
            scfg.timeout_s = parseDigits(value(), arg);
        } else if (arg == "--chaos") {
            chaos = true;
        } else if (arg == "--chaos-seed") {
            chaos_seed = parseDigits(value(), arg);
        } else if (arg == "--chaos-kill-after") {
            chaos_kill_after = parseDigits(value(), arg);
            if (chaos_kill_after == 0) {
                std::cerr << "--chaos-kill-after must be positive\n";
                std::exit(2);
            }
        } else {
            if (arg == "--")
                ++i; // optional separator before the nested command
            break;
        }
    }
    if (shards == 0) {
        std::cerr << "campaign requires --shards >= 1\n";
        std::exit(2);
    }
    if (i >= argc) {
        std::cerr << "campaign requires a nested command\n";
        std::exit(2);
    }
    requireShardable(argv[i]);
    const std::vector<std::string> nested(argv + i, argv + argc);

    scfg.log_dir = log_dir;
    if (chaos) {
        scfg.chaos_kill_after = chaos_kill_after;
        scfg.chaos_victim =
            static_cast<std::uint32_t>(chaos_seed % shards);
        std::cerr << "chaos: shard " << scfg.chaos_victim
                  << " dies after " << chaos_kill_after
                  << " durable record(s) on its first attempt\n";
    }
    const auto argvFor = [&](std::uint32_t s) {
        std::vector<std::string> a = {
            "/proc/self/exe", "shard",       "--index",
            std::to_string(s), "--of",       std::to_string(shards),
            "--cache-dir",     cache_dir};
        a.insert(a.end(), nested.begin(), nested.end());
        return a;
    };
    const core::SupervisorReport report =
        core::superviseWorkers(shards, scfg, argvFor, std::cerr);
    report.print(std::cerr);

    // Merge in-process: with every point a cache hit, this renders the
    // exact bytes a single-process run would produce.
    CliOptions o = parseArgs(nested);
    o.cache_dir = cache_dir;
    o.merge_strict = true;
    core::resetCampaignPointStats();
    const int rc = guardedDispatch(o);
    printPointSummary("campaign merge");
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

/** jscale supervise [retry flags] -- <command> [args] */
int
cmdSupervise(int argc, char **argv)
{
    core::SupervisorConfig scfg;
    int i = 2;
    for (; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::cerr << "missing value for " << arg << "\n";
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--retries") {
            scfg.retries =
                static_cast<unsigned>(parseDigits(value(), arg));
        } else if (arg == "--backoff-ms") {
            scfg.backoff_ms = parseDigits(value(), arg);
        } else if (arg == "--timeout-s") {
            scfg.timeout_s = parseDigits(value(), arg);
        } else if (arg == "--log-dir") {
            scfg.log_dir = value();
        } else if (arg == "--") {
            ++i;
            break;
        } else {
            std::cerr << "unknown supervise flag '" << arg
                      << "' (command goes after --)\n";
            std::exit(2);
        }
    }
    if (i >= argc) {
        std::cerr << "supervise requires a command after --\n";
        std::exit(2);
    }
    const std::vector<std::string> child(argv + i, argv + argc);
    const auto argvFor = [&](std::uint32_t) { return child; };
    const core::SupervisorReport report =
        core::superviseWorkers(1, scfg, argvFor, std::cerr);
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

int
main(int argc, char **argv)
{
    if (argc >= 2) {
        const std::string cmd = argv[1];
        if (cmd == "shard")
            return cmdShard(argc, argv);
        if (cmd == "merge")
            return cmdMerge(argc, argv);
        if (cmd == "campaign")
            return cmdCampaign(argc, argv);
        if (cmd == "supervise")
            return cmdSupervise(argc, argv);
    }
    const CliOptions o = parse(argc, argv);
    if (o.cache_dir.empty())
        return guardedDispatch(o);
    // Re-running over the same cache is the resume: report how each
    // point was satisfied.
    core::resetCampaignPointStats();
    const int rc = guardedDispatch(o);
    printPointSummary(o.command.c_str());
    return rc;
}
