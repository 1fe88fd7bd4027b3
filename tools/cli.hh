/**
 * @file
 * The jscale command line as data: a command table, a flag table of
 * Field rows (base/fields.hh), and the one parse loop and help
 * generator built on them.
 */

#ifndef JSCALE_TOOLS_CLI_HH
#define JSCALE_TOOLS_CLI_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "base/fields.hh"
#include "core/experiment.hh"
#include "core/fuzz.hh"
#include "core/supervisor.hh"

namespace jscale::cli {

/** Everything a command line can say; defaults are the CLI defaults. */
struct CliOptions
{
    std::string command;
    /** golden's record|verify operand. */
    std::string action;
    /** A wrapper's nested command line (after its own flags). */
    std::vector<std::string> nested;
    bool help = false;
    /** Canonical names of the flags given, in order. */
    std::vector<std::string> given_flags;

    /** The experiment every simulating command runs. */
    core::ExperimentConfig config;
    std::string app = "xalan";
    std::vector<std::uint32_t> threads = {8};
    std::uint32_t replicas = 1;
    bool per_thread = false;
    std::string gclog_path;
    /** Trace file, fuzz reproducer or golden store. */
    std::string out_path;
    std::string plots_dir;
    std::string in_path;
    bool csv = false;
    std::vector<double> intensities = {0.0, 0.25, 0.5, 0.75, 1.0};
    Ticks horizon = 0; // 0 = auto (3/4 of probe run)
    std::uint64_t fuzz_seeds = 20;
    std::uint64_t shrink_budget = 64;
    core::Sabotage sabotage = core::Sabotage::None;
    std::string replay_path;
    std::vector<traffic::TenantSpec> tenants;
    std::vector<double> loads = {0.25, 0.5, 1.0, 2.0};
    std::uint64_t requests = 2000;
    // Campaign wrappers.
    bool fill = false;
    std::uint32_t shards = 2;
    core::SupervisorConfig supervisor;
    bool chaos = false;
    std::uint64_t chaos_seed = 1;
    std::uint64_t chaos_kill_after = 2;

    /** True when @p flag (canonical name) was on the command line. */
    bool given(std::string_view flag) const;
};

/** One subcommand: `jscale <name> ...`. */
struct Command
{
    /** What follows the command word besides its flags. */
    enum class Operand { None, Action, Command, Program };

    const char *name;
    const char *summary;
    int (*run)(const CliOptions &);
    /** Routes every run through the planned, cached sweep executor. */
    bool shardable = false;
    Operand operand = Operand::None;
};

struct Flag
{
    /** Reads and prints the value; its key is the canonical name. */
    Field<CliOptions> row;
    /** Help placeholder ("<n>"); nullptr for a switch. */
    const char *arg;
    const char *help;
    /** Space-separated names of the commands whose code reads it. */
    std::string commands;
    std::vector<std::string> aliases = {};
    /** Flags it cannot combine with, each with the reason why. */
    std::vector<std::pair<std::string, std::string>> excludes = {};

    /** The canonical name, then the aliases. */
    std::vector<std::string> names() const;
    bool readBy(std::string_view command) const;
    /** The value as the flag would spell it ("" = no default shown). */
    std::string show(const CliOptions &o) const;
};

/** Defined next to the command entry points (jscale_cli.cc). */
const std::vector<Command> &commandTable();
const std::vector<Flag> &flagTable();
const Command *findCommand(std::string_view name);
const Flag *findFlag(std::string_view name);

/**
 * Parse a command line (no program name) into @p o. Returns "" or a
 * one-line diagnosis; never throws, never exits. A wrapper's nested
 * command line is checked here too, but left in o.nested.
 */
std::string parseCommandLine(const std::vector<std::string> &args,
                             CliOptions &o);

/** Parse @p value as flag @p name would (golden file entries). */
std::string setFlag(CliOptions &o, const std::string &name,
                    const std::string &value);

/** `jscale --help` (@p cmd null) or `jscale <cmd> --help`. */
void printHelp(std::ostream &os, const Command *cmd);

/** The whole CLI: parse (exit 2 on any usage error), then dispatch. */
int jscaleMain(const std::vector<std::string> &args);

} // namespace jscale::cli

#endif // JSCALE_TOOLS_CLI_HH
