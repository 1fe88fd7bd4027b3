/**
 * @file
 * The jscale flag and command tables: consistent rows, bad values
 * diagnosed (never thrown), defaults that parse back, and the parse
 * loop's per-command rules.
 */

#include <cstring>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cli.hh"

using namespace jscale::cli;

namespace {

constexpr auto npos = std::string::npos;

/** True when @p help has a flag line for @p name. */
bool
listsFlag(const std::string &help, const std::string &name)
{
    for (std::size_t at = help.find("\n  " + name); at != npos;
         at = help.find("\n  " + name, at + 1)) {
        const char next = help[at + 3 + name.size()];
        if (next == ' ' || next == ',' || next == '\n')
            return true;
    }
    return false;
}

} // namespace

TEST(CliTables, RowsAreUniqueAndComplete)
{
    std::set<std::string> commands;
    for (const Command &c : commandTable()) {
        EXPECT_TRUE(commands.insert(c.name).second) << c.name;
        EXPECT_NE(c.run, nullptr) << c.name;
        EXPECT_GT(std::strlen(c.summary), 0u) << c.name;
    }
    std::set<std::string> names;
    for (const Flag &f : flagTable()) {
        ASSERT_FALSE(f.names.empty());
        const std::string &flag = f.names.front();
        for (const std::string &name : f.names) {
            EXPECT_TRUE(names.insert(name).second) << "duplicate " << name;
            EXPECT_TRUE(name.starts_with("--")) << name;
        }
        EXPECT_GT(std::strlen(f.help), 0u) << flag;
        std::istringstream readers(f.commands);
        std::string cmd;
        int count = 0;
        while (readers >> cmd) {
            ++count;
            EXPECT_TRUE(commands.count(cmd)) << flag << " names " << cmd;
        }
        EXPECT_GT(count, 0) << flag << " is read by no command";
    }
}

TEST(CliFlags, BadValuesAreDiagnosedNamingTheFlag)
{
    const std::vector<std::string> bad = {
        "", "8x", "-1", " 5", "nan", "inf", "1e999", "18446744073709551616"};
    for (const Flag &f : flagTable()) {
        // Switches take no value; paths and directories take any text.
        const std::string arg = f.value.arg ? f.value.arg : "";
        if (arg.empty() || arg == "<path>" || arg == "<dir>")
            continue;
        std::vector<std::string> inputs = bad;
        inputs.insert(inputs.end(), f.value.beyond.begin(),
                      f.value.beyond.end());
        for (const std::string &name : f.names) {
            for (const std::string &v : inputs) {
                CliOptions o;
                std::string err;
                EXPECT_NO_THROW(err = setFlag(o, name, v));
                EXPECT_NE(err.find(name), npos)
                    << name << " accepted '" << v << "'";
            }
        }
    }
}

TEST(CliFlags, DefaultsParseBackToThemselves)
{
    const CliOptions defaults;
    const std::vector<std::string> others = {"1", "2", "0.5", "0,1",
                                             "hill", "lcr", "dup-alloc"};
    for (const Flag &f : flagTable()) {
        if (f.value.arg == nullptr || !f.value.show)
            continue;
        const std::string def = f.value.show(defaults);
        if (def.empty())
            continue;
        const std::string &flag = f.names.front();
        // Move off the default first, so the round trip really writes.
        CliOptions o;
        for (const std::string &v : others) {
            if (setFlag(o, flag, v).empty() && f.value.show(o) != def)
                break;
        }
        EXPECT_EQ(setFlag(o, flag, def), "") << flag;
        EXPECT_EQ(f.value.show(o), def) << flag;
    }
}

TEST(CliParse, RejectsFlagsTheCommandDoesNotRead)
{
    CliOptions o;
    const std::string err = parseCommandLine({"apps", "--csv"}, o);
    EXPECT_NE(err.find("--csv is not read by apps"), npos) << err;
    EXPECT_NE(err.find("read by: run"), npos) << err;
    CliOptions t;
    EXPECT_NE(parseCommandLine({"traffic", "--arrivals", "poisson:rate=5"}, t),
              "");
    CliOptions r;
    EXPECT_NE(parseCommandLine({"run", "--replicas", "2"}, r), "");
}

TEST(CliParse, RecordsGivenFlagsUnderTheirCanonicalName)
{
    CliOptions o;
    ASSERT_EQ(parseCommandLine({"profile", "--topk", "3", "--app", "h2"}, o),
              "");
    EXPECT_EQ(o.config.profile_topk, 3u);
    EXPECT_TRUE(o.given("--profile-topk"));
    EXPECT_TRUE(o.given("--app"));
    EXPECT_FALSE(o.given("--threads"));
}

TEST(CliParse, WrappersCheckTheirNestedCommand)
{
    CliOptions o;
    ASSERT_EQ(parseCommandLine(
                  {"shard", "--of", "2", "--", "sweep", "--threads", "1,2"}, o),
              "");
    EXPECT_EQ(o.config.shard_count, 2u);
    EXPECT_EQ(o.nested,
              (std::vector<std::string>{"sweep", "--threads", "1,2"}));

    CliOptions bad;
    EXPECT_NE(parseCommandLine({"merge", "sweep", "--threads", "0"}, bad)
                  .find("--threads"),
              npos);
    CliOptions unshardable;
    EXPECT_NE(parseCommandLine({"campaign", "run"}, unshardable)
                  .find("collapse"),
              npos);
    CliOptions supervised;
    ASSERT_EQ(parseCommandLine(
                  {"supervise", "--retries", "1", "--", "run", "--anything"},
                  supervised),
              "");
    EXPECT_EQ(supervised.supervisor.retries, 1u);
    EXPECT_EQ(supervised.nested.size(), 2u);
}

TEST(CliHelp, ListsEveryCommandAndFlag)
{
    std::ostringstream all;
    printHelp(all, nullptr);
    for (const Command &c : commandTable()) {
        EXPECT_NE(all.str().find("  " + std::string(c.name) + " "), npos)
            << c.name;
        std::ostringstream one;
        printHelp(one, &c);
        for (const Flag &f : flagTable()) {
            EXPECT_EQ(listsFlag(one.str(), f.names.front()),
                      f.readBy(c.name))
                << c.name << " " << f.names.front();
        }
    }
    for (const Flag &f : flagTable()) {
        EXPECT_TRUE(listsFlag(all.str(), f.names.front()))
            << f.names.front();
    }
}

TEST(CliFlags, EveryConfigFlagChangesTheCampaignFingerprint)
{
    // Flags that must not reach the fingerprint, which names the run
    // records a --cache-dir may salvage.
    const std::set<std::string> excluded = {
        // Where and how a point runs, never what it computes: host
        // parallelism, the shard slice and the cache location.
        "--jobs", "--index", "--of", "--cache-dir",
        // Artifact paths.
        "--timeline", "--metrics",
        // The point key (a record's file name carries app and threads).
        "--app", "--threads",
        // CLI-side options that never write config: study axes, output
        // switches and paths, fuzz and campaign-wrapper settings.
        "--replicas", "--per-thread", "--gclog", "--intensities",
        "--horizon-ms", "--seeds", "--shrink-budget", "--sabotage",
        "--replay", "--out", "--in", "--plots", "--csv", "--tenants",
        "--loads", "--requests", "--fill", "--shards", "--retries",
        "--backoff-ms", "--timeout-s", "--log-dir", "--chaos",
        "--chaos-seed", "--chaos-kill-after"};
    const std::vector<std::string> values = {
        "1", "2", "0.5", "hill", "lcr", "kill@1", "poisson:rate=5"};
    const std::string base =
        jscale::core::ExperimentRunner(CliOptions{}.config)
            .campaignFingerprint();
    const CliOptions defaults;
    for (const Flag &f : flagTable()) {
        const std::string &flag = f.names.front();
        if (excluded.count(flag))
            continue;
        // The first accepted value that differs from the default.
        CliOptions o;
        bool moved = f.value.arg == nullptr &&
                     setFlag(o, flag, "").empty();
        for (const std::string &v : values) {
            if (moved)
                break;
            o = CliOptions{};
            moved = setFlag(o, flag, v).empty() &&
                    (!f.value.show || f.value.show(o) !=
                                          f.value.show(defaults));
        }
        ASSERT_TRUE(moved) << flag << ": no non-default test value";
        EXPECT_NE(jscale::core::ExperimentRunner(o.config)
                      .campaignFingerprint(),
                  base)
            << flag << " changes results but not the fingerprint";
    }
}
