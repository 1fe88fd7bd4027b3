#include "cli.hh"

#include <algorithm>
#include <functional>
#include <limits>
#include <ostream>
#include <sstream>

#include "base/fields.hh"
#include "core/experiment.hh"
#include "traffic/arrival.hh"
#include "workload/dacapo.hh"

namespace jscale::cli {

namespace {

template <class Field>
using FieldOf = std::remove_cvref_t<std::invoke_result_t<Field, CliOptions &>>;

/** One number in [lo, hi], stored times @p unit (ms flags, tick fields). */
template <class Field, class T = FieldOf<Field>>
FlagValue
numberValue(Field field, std::type_identity_t<T> lo,
            std::type_identity_t<T> hi = std::numeric_limits<T>::max(),
            std::type_identity_t<T> unit = 1)
{
    const std::string expect = "expect a number in " + rangeText(lo, hi);
    FlagValue v;
    v.arg = std::is_integral_v<T> ? "<n>" : "<f>";
    v.set = [=](CliOptions &o, const std::string &text) {
        T x{};
        if (!readBounded(text, lo, hi, x))
            return expect;
        std::invoke(field, o) = x * unit;
        return std::string();
    };
    v.show = [=](const CliOptions &o) {
        return formatValue(std::invoke(field, o) / unit);
    };
    v.beyond = beyondRange(lo, hi);
    return v;
}

/** Comma-separated numbers, each in [lo, hi]. */
template <class Field, class T = typename FieldOf<Field>::value_type>
FlagValue
listValue(Field field, std::type_identity_t<T> lo, std::type_identity_t<T> hi)
{
    const std::string expect =
        "expect comma-separated numbers in " + rangeText(lo, hi);
    FlagValue v;
    v.arg = "<list>";
    v.set = [=](CliOptions &o, const std::string &text) {
        std::vector<T> items;
        for (const std::string &item : splitFields(text, ',')) {
            T x{};
            if (!readBounded(item, lo, hi, x))
                return expect;
            items.push_back(x);
        }
        std::invoke(field, o) = std::move(items);
        return std::string();
    };
    v.show = [=](const CliOptions &o) {
        std::string out;
        for (const T x : std::invoke(field, o))
            out += (out.empty() ? "" : ",") + formatValue(x);
        return out;
    };
    v.beyond = beyondRange(lo, hi);
    return v;
}

template <class Field, class E>
FlagValue
enumValue(Field field, bool (*parse)(const std::string &, E &),
          const char *(*name)(E), const char *expect)
{
    FlagValue v;
    v.arg = "<name>";
    v.set = [=](CliOptions &o, const std::string &text) {
        return parse(text, std::invoke(field, o)) ? std::string() : expect;
    };
    v.show = [=](const CliOptions &o) { return name(std::invoke(field, o)); };
    return v;
}

/** A modeled application name. */
FlagValue
appValue()
{
    // "hotlock" is the synthetic lock-saturation workload behind the
    // E19 collapse study; it stays out of dacapoAppNames() so the
    // paper-suite commands don't sweep it, but any single-app command
    // may ask for it by name.
    std::vector<std::string> apps = workload::dacapoAppNames();
    apps.push_back("hotlock");
    std::string expect = "expect a modeled app:";
    for (const std::string &app : apps)
        expect += " " + app;
    FlagValue v;
    v.arg = "<name>";
    v.set = [=](CliOptions &o, const std::string &text) {
        if (std::find(apps.begin(), apps.end(), text) == apps.end())
            return expect;
        o.app = text;
        return std::string();
    };
    v.show = [](const CliOptions &o) { return o.app; };
    return v;
}

/** A grammar-checked spec; @p parse returns "" or the parser's error. */
FlagValue
specValue(std::function<std::string(CliOptions &, const std::string &)> parse)
{
    FlagValue v;
    v.arg = "<spec>";
    v.set = std::move(parse);
    return v;
}

template <class Field>
FlagValue
textValue(Field field, const char *arg)
{
    FlagValue v;
    v.arg = arg;
    v.set = [=](CliOptions &o, const std::string &text) {
        std::invoke(field, o) = text;
        return std::string();
    };
    v.show = [=](const CliOptions &o) { return std::invoke(field, o); };
    return v;
}

/** A switch: its presence stores @p value. */
template <class Field, class T = FieldOf<Field>>
FlagValue
switchValue(Field field, std::type_identity_t<T> value = T{true})
{
    FlagValue v;
    v.set = [=](CliOptions &o, const std::string &) {
        std::invoke(field, o) = value;
        return std::string();
    };
    return v;
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
        for (const std::string &name : f.names)
            label += (label.empty() ? "" : ", ") + name;
        if (f.value.arg != nullptr)
            label += std::string(" ") + f.value.arg;
        std::string text = f.help;
        const std::string def = f.value.show ? f.value.show(defaults) : "";
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

// Which commands read a flag. kSim: every command that builds an
// ExperimentConfig; kBatch: those that run planned, cached batches.
const std::string kSim = "run sweep study lifespan locks trace resilience "
                         "profile traffic collapse golden";
const std::string kOneApp = "run sweep lifespan locks trace resilience "
                            "profile traffic collapse golden";
const std::string kBatch = "sweep study lifespan resilience profile "
                           "traffic collapse golden";

} // namespace

const std::vector<Flag> &
flagTable()
{
    static const std::uint32_t cores =
        core::ExperimentConfig{}.machine.totalCores();
    constexpr Ticks ms = units::MS;
    static const std::vector<Flag> table = {
        {{"--app"}, appValue(), "application; see 'apps'", kOneApp},
        {{"--threads"}, listValue(OPT(threads), 1, cores),
         "thread counts (profile/traffic/collapse: their own ladder)",
         kOneApp},
        {{"--scale"}, numberValue(OPT(config.workload_scale), kPositive, 1000),
         "work-volume multiplier", kSim},
        {{"--seed"}, numberValue(OPT(config.seed), 0),
         "experiment seed (fuzz: first case seed)", kSim + " fuzz"},
        {{"--heap-factor"}, numberValue(OPT(config.heap_factor), 1, 1000),
         "heap = f x min requirement", kSim},
        {{"--compartments"}, switchValue(OPT(config.vm.heap.compartmentalized)),
         "compartmentalized heap (Sec. IV (ii))", kSim},
        {{"--biased"}, switchValue(OPT(config.biased_scheduling)),
         "biased scheduling (Sec. IV (i))", kSim},
        {{"--groups"}, numberValue(OPT(config.bias_groups), 1),
         "bias phase groups", kSim},
        {{"--adaptive"}, switchValue(OPT(config.vm.adaptive.enabled)),
         "adaptive young-gen sizing", kSim},
        {{"--concurrent"},
         switchValue(OPT(config.vm.collector),
                     jvm::CollectorKind::ConcurrentOld),
         "CMS-style concurrent old-gen collector", kSim},
        {{"--scatter"},
         switchValue(OPT(config.placement),
                     machine::Machine::EnablePolicy::Scatter),
         "spread enabled cores across sockets", kSim},
        {{"--replicas"}, numberValue(OPT(replicas), 1),
         "repetitions with derived seeds", "sweep"},
        {{"--jobs"}, numberValue(OPT(config.jobs), 0),
         "host worker threads (0 = one per host core); any value gives "
         "identical results", kBatch},
        {{"--governor"},
         enumValue(OPT(config.governor.mode), control::parseGovernorMode,
                   control::governorModeName, "expect off, hill or usl"),
         "concurrency governor: off, hill (throughput hill climbing) or "
         "usl (calibrate, fit, clamp to n*)", kSim},
        {{"--governor-interval-ms"},
         numberValue(OPT(config.governor.interval), 1, kMaxMs, ms),
         "governor decision interval", kSim},
        {{"--per-thread"}, switchValue(OPT(per_thread)),
         "per-thread breakdown", "run"},
        {{"--gclog"}, textValue(OPT(gclog_path), "<path>"),
         "write a HotSpot-style GC log", "run"},
        {{"--timeline"}, textValue(OPT(config.timeline_path), "<path>"),
         "write a Perfetto timeline ({app}/{threads} placeholders)", kSim},
        {{"--metrics-interval-ms"},
         numberValue(OPT(config.metrics_interval), 0, kMaxMs, ms),
         "sample heap/runqueue/lock gauges into a CSV (0 = off)", kSim},
        {{"--metrics"}, textValue(OPT(config.metrics_path), "<path>"),
         "metrics CSV path (default derives from --timeline)", kSim},
        {{"--faults"}, specValue([](CliOptions &o, const std::string &text) {
            if (text.empty())
                return std::string("expect a fault schedule");
            std::string err;
            fault::FaultPlan::parse(text, o.config.faults, err);
            return err;
        }),
         "fault schedule, e.g. \"coreoff@100:n=2:for=200,kill@250\" or "
         "\"intensity=0.5:horizon=300\"; see 'faults'",
         "run sweep study lifespan locks trace profile traffic collapse "
         "golden faults"},
        {{"--watchdog"}, switchValue(OPT(config.watchdog)),
         "arm the sim-time livelock watchdog", kSim},
        {{"--watchdog-interval-ms"},
         numberValue(OPT(config.watchdog_config.interval), 1,
                     kMaxMs, ms),
         "watchdog check interval in simulated ms", kSim},
        {{"--intensities"}, listValue(OPT(intensities), 0, 1),
         "fault intensities of the x-axis", "resilience"},
        {{"--horizon-ms"}, numberValue(OPT(horizon), 0, kMaxMs, ms),
         "fault window (0 = 3/4 of an unfaulted run)", "resilience"},
        {{"--oracles"}, switchValue(OPT(config.oracles)),
         "arm the invariant oracles; a violation aborts that run", kSim},
        {{"--profile"}, switchValue(OPT(config.profile)),
         "attach the wait-state attribution profiler",
         "run sweep study lifespan locks trace resilience traffic collapse "
         "golden"},
        {{"--profile-topk", "--topk"}, numberValue(OPT(config.profile_topk), 1),
         "slowest-task records kept per profiled run", kSim},
        {{"--seeds"}, numberValue(OPT(fuzz_seeds), 1, 1000000),
         "fuzz campaign size", "fuzz"},
        {{"--shrink-budget"}, numberValue(OPT(shrink_budget), 1, 10000),
         "max re-runs spent shrinking a fuzz failure", "fuzz"},
        {{"--sabotage"},
         enumValue(OPT(sabotage), core::parseSabotage, core::sabotageName,
                   "expect none, dup-alloc, phantom-death, double-release "
                   "or illegal-handoff"),
         "seed a bug into the fuzz event stream (oracle self-test)", "fuzz"},
        {{"--lock-policy"},
         enumValue(OPT(config.vm.locks.policy), jvm::parseLockPolicy,
                   jvm::lockPolicyName,
                   "expect fifo, barging, malthusian or lcr"),
         "monitor admission: fifo, barging, malthusian or lcr (collapse "
         "sweeps all four unless given)", kSim},
        {{"--barge-window"}, numberValue(OPT(config.vm.locks.barge_window), 1),
         "barging grant window", kSim},
        {{"--active-target"},
         numberValue(OPT(config.vm.locks.active_target), 1),
         "malthusian active-set bound", kSim},
        {{"--rotation-period"},
         numberValue(OPT(config.vm.locks.rotation_period), 0),
         "passive-list rotation period in handoffs (0 = never)", kSim},
        {{"--lcr-max"}, numberValue(OPT(config.vm.locks.lcr_max_active), 1),
         "LCR active-set clamp maximum", kSim},
        {{"--circulation-window"},
         numberValue(OPT(config.vm.locks.circulation_window), 1),
         "handoffs per lock-circulation width sample", kSim},
        {{"--handoff-base"}, numberValue(OPT(config.vm.locks.handoff_base), 0),
         "ticks per contended handoff (collapse: 250)", kSim},
        {{"--coherence-cost"},
         numberValue(OPT(config.vm.locks.coherence_cost), 0),
         "ticks per distinct recent owner (collapse: 500)", kSim},
        {{"--replay"}, textValue(OPT(replay_path), "<path>"),
         "re-run a fuzz reproducer file", "fuzz"},
        {{"--out"}, textValue(OPT(out_path), "<path>"),
         "output: trace (default jscale.trace), fuzz reproducer "
         "(jscale-fuzz.repro) or golden store (jscale.golden)",
         "trace fuzz golden"},
        {{"--in"}, textValue(OPT(in_path), "<path>"),
         "input: recorded trace (analyze) or sweep CSV (usl)", "analyze usl"},
        {{"--plots"}, textValue(OPT(plots_dir), "<dir>"),
         "write gnuplot figures", "study profile"},
        {{"--csv"}, switchValue(OPT(csv)), "emit CSV after the tables",
         "run sweep study lifespan resilience profile traffic collapse"},
        {{"--arrivals"}, specValue([](CliOptions &o, const std::string &text) {
            traffic::ArrivalSpec spec;
            std::string err;
            if (traffic::ArrivalSpec::parse(text, spec, err))
                o.config.arrivals = text;
            return err;
        }),
         "open-loop arrivals: poisson:rate=<r>[:requests=<n>][:queue=<cap>]"
         "[:shed=drop|oldest], burst:rate=<r>:factor=<f>[:on_ms=..]"
         "[:off_ms=..] or diurnal:rate=<r>:peak=<f>[:period_ms=..]",
         "run sweep study lifespan locks trace resilience profile collapse "
         "golden"},
        {{"--tenants"}, specValue([](CliOptions &o, const std::string &text) {
            std::string err;
            traffic::TenantSpec::parseList(text, o.tenants, err);
            return err;
        }),
         "co-located JVMs: \"<app>:threads=<n>:rate=<r>[...];...\"", "run",
         {{"--biased", "one bias rotation cannot be split between tenants"},
          {"--faults", "one fault plan cannot be split between tenants"},
          {"--timeline", "one timeline cannot be split between tenants"},
          {"--gclog", "the GC log has one writer"},
          {"--per-thread", "the per-thread table covers one VM"},
          {"--arrivals", "each tenant carries its own arrivals"}}},
        {{"--loads"}, listValue(OPT(loads), kPositive, 1000),
         "offered loads as fractions of capacity", "traffic"},
        {{"--requests"}, numberValue(OPT(requests), 1),
         "requests per open-loop rung", "traffic"},
        {{"--cache-dir"}, textValue(OPT(config.run_cache_dir), "<dir>"),
         "per-point result cache; re-running over it resumes (shard/merge: "
         "jscale-cache, campaign: jscale-campaign/cache)",
         kBatch + " fuzz shard merge campaign"},
        {{"--index"}, numberValue(OPT(config.shard_index), 0),
         "this worker's shard, below --of", "shard"},
        {{"--of"}, numberValue(OPT(config.shard_count), 1),
         "shard count of the campaign", "shard"},
        {{"--fill"}, switchValue(OPT(fill)),
         "re-run missing points here instead of failing them", "merge"},
        {{"--shards"}, numberValue(OPT(shards), 1), "campaign workers",
         "campaign"},
        {{"--retries"}, numberValue(OPT(supervisor.retries), 0),
         "extra attempts after a crash or timeout", "campaign supervise"},
        {{"--backoff-ms"}, numberValue(OPT(supervisor.backoff_ms), 0, kMaxMs),
         "base of the exponential retry backoff", "campaign supervise"},
        {{"--timeout-s"}, numberValue(OPT(supervisor.timeout_s), 0, 1000000000),
         "wall-clock limit per attempt (0 = none)", "campaign supervise"},
        {{"--log-dir"}, textValue(OPT(supervisor.log_dir), "<dir>"),
         "per-attempt worker logs (campaign: jscale-campaign/logs)",
         "campaign supervise"},
        {{"--chaos"}, switchValue(OPT(chaos)),
         "SIGKILL one worker mid-campaign (supervisor self-test)",
         "campaign"},
        {{"--chaos-seed"}, numberValue(OPT(chaos_seed), 0),
         "picks the chaos victim shard", "campaign"},
        {{"--chaos-kill-after"}, numberValue(OPT(chaos_kill_after), 1),
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

bool
Flag::readBy(std::string_view command) const
{
    return (" " + commands + " ").find(" " + std::string(command) + " ") !=
           std::string::npos;
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
        if (std::find(f.names.begin(), f.names.end(), name) != f.names.end())
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
    const std::string why = flag->value.set(o, value);
    if (why.empty())
        return "";
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
        if (flag->value.arg != nullptr && ++i == args.size())
            return where + "missing value for " + arg;
        const std::string err =
            setFlag(o, arg, flag->value.arg != nullptr ? args[i] : "");
        if (!err.empty())
            return where + err;
        o.given_flags.push_back(flag->names.front());
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
