/**
 * @file
 * Shared plumbing for the experiment benches: flag parsing (--scale,
 * --seed, --csv, ... through the jscale flag table) and the standard
 * sweep driver.
 */

#ifndef JSCALE_BENCH_BENCH_COMMON_HH
#define JSCALE_BENCH_BENCH_COMMON_HH

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "cli.hh"
#include "core/experiment.hh"
#include "core/report.hh"
#include "workload/dacapo.hh"

namespace jscale::bench {

/**
 * Common bench options: a subset of the jscale flags, read by the CLI's
 * own flag table, so a bad value exits 2 with the same diagnosis.
 */
struct BenchOptions
{
    double scale = 1.0;
    bool csv = false;
    core::ExperimentConfig config;

    /** Parse argv; an unknown flag or bad value exits 2. */
    static BenchOptions
    parse(int argc, char **argv)
    {
        static const char *const flags[] = {
            "--scale",   "--seed", "--csv", "--timeline",
            "--metrics", "--metrics-interval-ms", "--jobs"};
        cli::CliOptions o;
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            const cli::Flag *flag = cli::findFlag(arg);
            if (arg == "--help" || arg == "-h") {
                for (const char *name : flags) {
                    const cli::Flag *f = cli::findFlag(name);
                    std::cout << "  " << name << " "
                              << (f->value.arg ? f->value.arg : "")
                              << "  " << f->help << "\n";
                }
                std::exit(0);
            }
            std::string err;
            if (std::find(std::begin(flags), std::end(flags), arg) ==
                std::end(flags))
                err = "unknown flag '" + arg + "'";
            else if (flag->value.arg != nullptr && ++i == argc)
                err = "missing value for " + arg;
            else
                err = cli::setFlag(o, arg, flag->value.arg ? argv[i] : "");
            if (!err.empty()) {
                std::cerr << argv[0] << ": " << err << "\n";
                std::exit(2);
            }
        }
        return {o.config.workload_scale, o.csv, o.config};
    }

    core::ExperimentConfig experimentConfig() const { return config; }
};

/** Sweep every DaCapo app over the paper's thread counts. */
inline core::SweepSet
sweepAllApps(core::ExperimentRunner &runner)
{
    for (const std::string &app : workload::dacapoAppNames())
        std::cerr << "  sweeping " << app << "...\n";
    return runner.sweepApps(workload::dacapoAppNames(),
                            runner.paperThreadCounts());
}

} // namespace jscale::bench

#endif // JSCALE_BENCH_BENCH_COMMON_HH
