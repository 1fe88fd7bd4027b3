#include "cli.hh"

#include <algorithm>
#include <functional>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "core/experiment.hh"
#include "traffic/arrival.hh"
#include "workload/dacapo.hh"

namespace jscale::cli {

namespace {

using F = Field<CliOptions>;

/** Comma-separated numbers, each in [lo, hi]. */
template <class N>
F
listRow(std::string key, std::vector<N> CliOptions::*list,
        std::type_identity_t<N> lo, std::type_identity_t<N> hi)
{
    return {std::move(key), "comma-separated numbers in " + rangeText(lo, hi),
            beyondRange(lo, hi),
            [=](CliOptions &o, const std::string &text) {
                std::vector<N> items;
                for (const std::string &item : splitFields(text, ',')) {
                    if (!readBounded(item, lo, hi, items.emplace_back()))
                        return false;
                }
                o.*list = std::move(items);
                return true;
            },
            [=](std::ostream &os, const CliOptions &o) {
                const char *sep = "";
                for (const N x : o.*list)
                    os << std::exchange(sep, ",") << formatValue(x);
            }};
}

/** A modeled application name. */
F
appRow()
{
    // "hotlock" is the synthetic lock-saturation workload behind the
    // E19 collapse study; it stays out of dacapoAppNames() so the
    // paper-suite commands don't sweep it, but any single-app command
    // may ask for it by name.
    std::vector<std::string> apps = workload::dacapoAppNames();
    apps.push_back("hotlock");
    std::string expects = "a modeled app:";
    for (const std::string &app : apps)
        expects += " " + app;
    return {"--app", expects, {},
            [=](CliOptions &o, const std::string &text) {
                const bool ok = std::ranges::find(apps, text) != apps.end();
                if (ok)
                    o.app = text;
                return ok;
            },
            [](std::ostream &os, const CliOptions &o) { os << o.app; }};
}

/**
 * A spec in a grammar of its own: @p store returns "" or the grammar's
 * diagnosis, which read() throws as std::invalid_argument for setFlag()
 * to report in place of an expectation.
 */
F
specRow(std::string key,
        std::string (*store)(CliOptions &, const std::string &))
{
    return {std::move(key), "", {},
            [=](CliOptions &o, const std::string &text) {
                const std::string err = store(o, text);
                if (!err.empty())
                    throw std::invalid_argument(err);
                return true;
            },
            nullptr};
}

/** Any text, stored as given. */
template <class Acc>
F
textRow(std::string key, Acc acc)
{
    return {std::move(key), "", {},
            [=](CliOptions &o, const std::string &text) {
                std::invoke(acc, o) = text;
                return true;
            },
            [=](std::ostream &os, const CliOptions &o) {
                os << std::invoke(acc, o);
            }};
}

/** A switch: its presence stores @p value; no default is shown. */
template <class Acc, class V = std::remove_cvref_t<
                         std::invoke_result_t<Acc, CliOptions &>>>
F
switchRow(std::string key, Acc acc, std::type_identity_t<V> value = V{true})
{
    return {std::move(key), "", {},
            [=](CliOptions &o, const std::string &) {
                std::invoke(acc, o) = value;
                return true;
            },
            nullptr};
}

constexpr std::size_t kWidth = 78;

/** "  label" then @p text word-wrapped from column @p col. */
void
printEntry(std::ostream &os, const std::string &label,
           const std::string &text, std::size_t col)
{
    std::string line = label.empty() ? "" : "  " + label;
    if (line.size() >= col) {
        os << line << "\n";
        line.clear();
    }
    line.resize(col, ' ');
    std::istringstream words(text);
    std::string word;
    while (words >> word) {
        if (line.size() > col && line.size() + 1 + word.size() > kWidth) {
            os << line << "\n";
            line.assign(col, ' ');
        }
        line += (line.size() > col ? " " : "") + word;
    }
    os << line << "\n";
}

void
printFlags(std::ostream &os, const Command *cmd)
{
    const CliOptions defaults;
    bool any = false;
    for (const Flag &f : flagTable()) {
        if (cmd != nullptr && !f.readBy(cmd->name))
            continue;
        std::string label;
        for (const std::string &name : f.names())
            label += (label.empty() ? "" : ", ") + name;
        if (f.arg != nullptr)
            label += std::string(" ") + f.arg;
        std::string text = f.help;
        const std::string def = f.show(defaults);
        if (!def.empty())
            text += " (default " + def + ")";
        for (std::size_t i = 0; i < f.excludes.size(); ++i)
            text += (i == 0 ? "; not with " : ", ") + f.excludes[i].first;
        printEntry(os, label, text, 28);
        any = true;
    }
    if (!any)
        os << "  (none)\n";
}

std::string
shardableNames()
{
    std::string out;
    for (const Command &c : commandTable()) {
        if (c.shardable)
            out += (out.empty() ? "" : ", ") + std::string(c.name);
    }
    return out;
}

/** Accessor for any option, however deeply nested. */
#define OPT(path) [](auto &o) -> auto & { return o.path; }

/** A --*-ms value must survive the conversion to ticks. */
constexpr Ticks kMaxMs = std::numeric_limits<Ticks>::max() / units::MS;

/** campaign forks every shard at once: over 5x the paper's 48 cores is
 *  plenty, since workers beyond the host's cores only queue. */
constexpr std::uint32_t kMaxShards = 256;

// Which commands read a flag. kSim: every command that builds an
// ExperimentConfig; kBatch: those that run planned, cached batches.
const std::string kSim = "run sweep study lifespan locks trace resilience "
                         "profile traffic collapse golden";
const std::string kOneApp = "run sweep lifespan locks trace resilience "
                            "profile traffic collapse golden";
const std::string kBatch = "sweep study lifespan resilience profile "
                           "traffic collapse golden fuzz";

} // namespace

const std::vector<Flag> &
flagTable()
{
    static const std::uint32_t cores =
        core::ExperimentConfig{}.machine.totalCores();
    constexpr Ticks ms = units::MS;
    static const std::vector<Flag> table = {
        {appRow(), "<name>", "application; see 'apps'", kOneApp},
        {listRow("--threads", &CliOptions::threads, 1, cores), "<list>",
         "thread counts (profile/traffic/collapse: their own ladder)",
         kOneApp},
        {F::number("--scale", OPT(config.workload_scale), kPositive, 1000),
         "<f>", "work-volume multiplier", kSim},
        {F::number("--seed", OPT(config.seed), 0), "<n>",
         "experiment seed (fuzz: first case seed)", kSim + " fuzz"},
        {F::number("--heap-factor", OPT(config.heap_factor), 1, 1000), "<f>",
         "heap = f x min requirement", kSim},
        {switchRow("--compartments", OPT(config.vm.heap.compartmentalized)),
         nullptr, "compartmentalized heap (Sec. IV (ii))", kSim},
        {switchRow("--biased", OPT(config.biased_scheduling)), nullptr,
         "biased scheduling (Sec. IV (i))", kSim},
        {F::number("--groups", OPT(config.bias_groups), 1), "<n>",
         "bias phase groups", kSim},
        {switchRow("--adaptive", OPT(config.vm.adaptive.enabled)), nullptr,
         "adaptive young-gen sizing", kSim},
        {switchRow("--concurrent", OPT(config.vm.collector),
                   jvm::CollectorKind::ConcurrentOld),
         nullptr, "CMS-style concurrent old-gen collector", kSim},
        {switchRow("--scatter", OPT(config.placement),
                   machine::Machine::EnablePolicy::Scatter),
         nullptr, "spread enabled cores across sockets", kSim},
        {F::number("--replicas", OPT(replicas), 1), "<n>",
         "repetitions with derived seeds", "sweep"},
        {F::number("--jobs", OPT(config.jobs), 0), "<n>",
         "host worker threads (0 = one per host core); any value gives "
         "identical results", kBatch},
        {F::choice("--governor", OPT(config.governor.mode),
                   control::governorModeName, control::kGovernorModes),
         "<name>",
         "concurrency governor: off, hill (throughput hill climbing) or "
         "usl (calibrate, fit, clamp to n*)", kSim},
        {F::number("--governor-interval-ms", OPT(config.governor.interval), 1,
                   kMaxMs, ms),
         "<n>", "governor decision interval", kSim},
        {switchRow("--per-thread", OPT(per_thread)), nullptr,
         "per-thread breakdown", "run"},
        {textRow("--gclog", OPT(gclog_path)), "<path>",
         "write a HotSpot-style GC log", "run"},
        {textRow("--timeline", OPT(config.timeline_path)), "<path>",
         "write a Perfetto timeline ({app}/{threads} placeholders)", kSim},
        {F::number("--metrics-interval-ms", OPT(config.metrics_interval), 0,
                   kMaxMs, ms),
         "<n>", "sample heap/runqueue/lock gauges into a CSV (0 = off)", kSim},
        {textRow("--metrics", OPT(config.metrics_path)), "<path>",
         "metrics CSV path (default derives from --timeline)", kSim},
        {specRow("--faults",
                 [](CliOptions &o, const std::string &text) {
                     if (text.empty())
                         return std::string("expect a fault schedule");
                     std::string err;
                     fault::FaultPlan::parse(text, o.config.faults, err);
                     return err;
                 }),
         "<spec>",
         "fault schedule, e.g. \"coreoff@100:n=2:for=200,kill@250\" or "
         "\"intensity=0.5:horizon=300\"; see 'faults'",
         "run sweep study lifespan locks trace profile traffic collapse "
         "golden faults"},
        {switchRow("--watchdog", OPT(config.watchdog)), nullptr,
         "arm the sim-time livelock watchdog", kSim},
        {F::number("--watchdog-interval-ms",
                   OPT(config.watchdog_config.interval), 1, kMaxMs, ms),
         "<n>", "watchdog check interval in simulated ms", kSim},
        {listRow("--intensities", &CliOptions::intensities, 0, 1), "<list>",
         "fault intensities of the x-axis", "resilience"},
        {F::number("--horizon-ms", OPT(horizon), 0, kMaxMs, ms), "<n>",
         "fault window (0 = 3/4 of an unfaulted run)", "resilience"},
        {switchRow("--oracles", OPT(config.oracles)), nullptr,
         "arm the invariant oracles; a violation aborts that run", kSim},
        {switchRow("--profile", OPT(config.profile)), nullptr,
         "attach the wait-state attribution profiler",
         "run sweep study lifespan locks trace resilience traffic collapse "
         "golden"},
        {F::number("--profile-topk", OPT(config.profile_topk), 1), "<n>",
         "slowest-task records kept per profiled run", kSim, {"--topk"}},
        {F::number("--seeds", OPT(fuzz_seeds), 1, 1000000), "<n>",
         "fuzz campaign size", "fuzz"},
        {F::number("--shrink-budget", OPT(shrink_budget), 1, 10000), "<n>",
         "max re-runs spent shrinking a fuzz failure", "fuzz"},
        {F::choice("--sabotage", OPT(sabotage), core::sabotageName,
                   core::kSabotages),
         "<name>", "seed a bug into the fuzz event stream (oracle self-test)",
         "fuzz"},
        {F::choice("--lock-policy", OPT(config.vm.locks.policy),
                   jvm::lockPolicyName, std::size(jvm::kAllLockPolicies)),
         "<name>",
         "monitor admission: fifo, barging, malthusian or lcr (collapse "
         "sweeps all four unless given)", kSim},
        {F::number("--barge-window", OPT(config.vm.locks.barge_window), 1),
         "<n>", "barging grant window", kSim},
        {F::number("--active-target", OPT(config.vm.locks.active_target), 1),
         "<n>", "malthusian active-set bound", kSim},
        {F::number("--rotation-period", OPT(config.vm.locks.rotation_period),
                   0),
         "<n>", "passive-list rotation period in handoffs (0 = never)", kSim},
        {F::number("--lcr-max", OPT(config.vm.locks.lcr_max_active), 1), "<n>",
         "LCR active-set clamp maximum", kSim},
        {F::number("--circulation-window",
                   OPT(config.vm.locks.circulation_window), 1),
         "<n>", "handoffs per lock-circulation width sample", kSim},
        {F::number("--handoff-base", OPT(config.vm.locks.handoff_base), 0),
         "<n>", "ticks per contended handoff (collapse: 250)", kSim},
        {F::number("--coherence-cost", OPT(config.vm.locks.coherence_cost), 0),
         "<n>", "ticks per distinct recent owner (collapse: 500)", kSim},
        {textRow("--replay", OPT(replay_path)), "<path>",
         "re-run a fuzz reproducer file", "fuzz"},
        {textRow("--out", OPT(out_path)), "<path>",
         "output: trace (default jscale.trace), fuzz reproducer "
         "(jscale-fuzz.repro) or golden store (jscale.golden)",
         "trace fuzz golden"},
        {textRow("--in", OPT(in_path)), "<path>",
         "input: recorded trace (analyze) or sweep CSV (usl)", "analyze usl"},
        {textRow("--plots", OPT(plots_dir)), "<dir>",
         "write gnuplot figures", "study profile"},
        {switchRow("--csv", OPT(csv)), nullptr, "emit CSV after the tables",
         "run sweep study lifespan resilience profile traffic collapse"},
        {specRow("--arrivals",
                 [](CliOptions &o, const std::string &text) {
                     traffic::ArrivalSpec spec;
                     std::string err;
                     if (traffic::ArrivalSpec::parse(text, spec, err))
                         o.config.arrivals = text;
                     return err;
                 }),
         "<spec>",
         "open-loop arrivals: poisson:rate=<r>[:requests=<n>][:queue=<cap>]"
         "[:shed=drop|oldest], burst:rate=<r>:factor=<f>[:on_ms=..]"
         "[:off_ms=..] or diurnal:rate=<r>:peak=<f>[:period_ms=..]",
         "run sweep study lifespan locks trace resilience profile collapse "
         "golden"},
        {specRow("--tenants",
                 [](CliOptions &o, const std::string &text) {
                     std::string err;
                     traffic::TenantSpec::parseList(text, o.tenants, err);
                     return err;
                 }),
         "<spec>", "co-located JVMs: \"<app>:threads=<n>:rate=<r>[...];...\"",
         "run",
         {},
         {{"--biased", "one bias rotation cannot be split between tenants"},
          {"--faults", "one fault plan cannot be split between tenants"},
          {"--timeline", "one timeline cannot be split between tenants"},
          {"--gclog", "the GC log has one writer"},
          {"--per-thread", "the per-thread table covers one VM"},
          {"--arrivals", "each tenant carries its own arrivals"}}},
        {listRow("--loads", &CliOptions::loads, kPositive, 1000), "<list>",
         "offered loads as fractions of capacity", "traffic"},
        {F::number("--requests", OPT(requests), 1), "<n>",
         "requests per open-loop rung", "traffic"},
        {textRow("--cache-dir", OPT(config.run_cache_dir)), "<dir>",
         "per-point result cache; re-running over it resumes (shard/merge: "
         "jscale-cache, campaign: jscale-campaign/cache)",
         kBatch + " shard merge campaign"},
        {F::number("--index", OPT(config.shard_index), 0), "<n>",
         "this worker's shard, below --of", "shard"},
        {F::number("--of", OPT(config.shard_count), 1), "<n>",
         "shard count of the campaign", "shard"},
        {switchRow("--fill", OPT(fill)), nullptr,
         "re-run missing points here instead of failing them", "merge"},
        {F::number("--shards", OPT(shards), 1, kMaxShards), "<n>",
         "campaign workers", "campaign"},
        {F::number("--retries", OPT(supervisor.retries), 0), "<n>",
         "extra attempts after a crash or timeout", "campaign supervise"},
        {F::number("--backoff-ms", OPT(supervisor.backoff_ms), 0, kMaxMs),
         "<n>", "base of the exponential retry backoff", "campaign supervise"},
        {F::number("--timeout-s", OPT(supervisor.timeout_s), 0, 1000000000),
         "<n>", "wall-clock limit per attempt (0 = none)",
         "campaign supervise"},
        {textRow("--log-dir", OPT(supervisor.log_dir)), "<dir>",
         "per-attempt worker logs (campaign: jscale-campaign/logs)",
         "campaign supervise"},
        {switchRow("--chaos", OPT(chaos)), nullptr,
         "SIGKILL one worker mid-campaign (supervisor self-test)",
         "campaign"},
        {F::number("--chaos-seed", OPT(chaos_seed), 0), "<n>",
         "picks the chaos victim shard", "campaign"},
        {F::number("--chaos-kill-after", OPT(chaos_kill_after), 1), "<n>",
         "durable records committed before the kill", "campaign"},
    };
    return table;
}

#undef OPT

bool
CliOptions::given(std::string_view flag) const
{
    return std::find(given_flags.begin(), given_flags.end(), flag) !=
           given_flags.end();
}

std::vector<std::string>
Flag::names() const
{
    std::vector<std::string> out = {row.key};
    out.insert(out.end(), aliases.begin(), aliases.end());
    return out;
}

bool
Flag::readBy(std::string_view command) const
{
    // Whether @p command is a word of the space-separated list.
    std::string_view rest = commands;
    for (;;) {
        const std::size_t space = rest.find(' ');
        if (rest.substr(0, space) == command)
            return true;
        if (space == std::string_view::npos)
            return false;
        rest.remove_prefix(space + 1);
    }
}

std::string
Flag::show(const CliOptions &o) const
{
    std::ostringstream os;
    if (row.write)
        row.write(os, o);
    return os.str();
}

const Command *
findCommand(std::string_view name)
{
    for (const Command &c : commandTable()) {
        if (name == c.name)
            return &c;
    }
    return nullptr;
}

const Flag *
findFlag(std::string_view name)
{
    for (const Flag &f : flagTable()) {
        if (std::ranges::count(f.names(), name) > 0)
            return &f;
    }
    return nullptr;
}

std::string
setFlag(CliOptions &o, const std::string &name, const std::string &value)
{
    const Flag *flag = findFlag(name);
    if (flag == nullptr)
        return "unknown flag '" + name + "'";
    std::string why = "expect " + flag->row.expects;
    try {
        if (flag->row.read(o, value))
            return "";
    } catch (const std::invalid_argument &e) {
        why = e.what(); // a spec row's grammar diagnosis
    }
    return "bad " + name + " value '" + value + "': " + why;
}

std::string
parseCommandLine(const std::vector<std::string> &args, CliOptions &o)
{
    if (args.empty())
        return "jscale: missing command (see jscale --help)";
    if (args[0] == "--help" || args[0] == "-h") {
        o.help = true;
        return "";
    }
    const Command *cmd = findCommand(args[0]);
    if (cmd == nullptr)
        return "jscale: unknown command '" + args[0] + "' (see jscale --help)";
    o.command = cmd->name;
    const std::string where = "jscale " + o.command + ": ";
    const auto nesting = cmd->operand;
    const bool nests = nesting == Command::Operand::Command ||
                       nesting == Command::Operand::Program;
    std::size_t i = 1;
    if (nesting == Command::Operand::Action && i < args.size() &&
        !args[i].starts_with("-"))
        o.action = args[i++];
    for (; i < args.size(); ++i) {
        const std::string &arg = args[i];
        if (arg == "--help" || arg == "-h") {
            o.help = true;
            continue;
        }
        if (nests && (arg == "--" || !arg.starts_with("-"))) {
            o.nested.assign(args.begin() + i + (arg == "--"), args.end());
            break;
        }
        if (!arg.starts_with("-"))
            return where + "unexpected argument '" + arg + "'";
        const Flag *flag = findFlag(arg);
        if (flag == nullptr) {
            return where + "unknown flag '" + arg + "' (see jscale " +
                   o.command + " --help)";
        }
        if (!flag->readBy(o.command)) {
            return where + arg + " is not read by " + o.command +
                   " (read by: " + flag->commands + ")";
        }
        if (flag->arg != nullptr && ++i == args.size())
            return where + "missing value for " + arg;
        const std::string err =
            setFlag(o, arg, flag->arg != nullptr ? args[i] : "");
        if (!err.empty())
            return where + err;
        o.given_flags.push_back(flag->row.key);
    }
    for (const std::string &name : o.given_flags) {
        for (const auto &[other, why] : findFlag(name)->excludes) {
            if (o.given(other))
                return where + other + " cannot combine with " + name +
                       ": " + why;
        }
    }
    if (nests && o.nested.empty() && !o.help)
        return where + "missing the command to run";
    if (nesting == Command::Operand::Command && !o.nested.empty()) {
        const Command *inner = findCommand(o.nested.front());
        if (inner == nullptr || !inner->shardable) {
            return where + "'" + o.nested.front() +
                   "' cannot run sharded (supported: " + shardableNames() +
                   ")";
        }
        CliOptions check;
        const std::string err = parseCommandLine(o.nested, check);
        if (!err.empty())
            return where + err;
    }
    return "";
}

void
printHelp(std::ostream &os, const Command *cmd)
{
    if (cmd != nullptr) {
        const char *const synopsis[] = {
            "[flags]", "record|verify [flags]",
            "[flags] [--] <command> [flags]", "[flags] [--] <program> [args]"};
        os << "usage: jscale " << cmd->name << " "
           << synopsis[static_cast<int>(cmd->operand)] << "\n\n";
        printEntry(os, "", cmd->summary, 2);
        if (cmd->operand == Command::Operand::Command)
            printEntry(os, "", "<command>: " + shardableNames(), 2);
        os << "\nflags:\n";
        printFlags(os, cmd);
        return;
    }
    os << "usage: jscale <command> [flags]\n"
          "       jscale <command> --help    (that command's flags)\n"
          "\ncommands:\n";
    for (const Command &c : commandTable())
        printEntry(os, c.name, c.summary, 14);
    os << "\nflags:\n";
    printFlags(os, nullptr);
    os << "\nexit codes: 0 success; 1 runtime failure; 2 usage error, found "
          "before any\nsimulation; 3 partial campaign (docs/operations.md)\n";
}

} // namespace jscale::cli
