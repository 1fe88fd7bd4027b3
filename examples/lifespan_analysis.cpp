/**
 * @file
 * Object-lifespan analysis example: attach the Elephant-Tracks-style
 * ObjectTracer, record a binary trace to disk, read it back, and compute
 * the allocated-bytes lifespan CDF (the paper's Fig. 1c/1d methodology)
 * at two thread counts.
 *
 * Usage: lifespan_analysis [app] [low-threads] [high-threads]
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "base/output.hh"
#include "core/experiment.hh"
#include "trace/trace.hh"

namespace {

jscale::trace::LifespanAnalyzer
traceRun(jscale::core::ExperimentRunner &runner, const std::string &app,
         std::uint32_t threads, const std::string &path)
{
    using namespace jscale;

    // Record: run with the tracer attached, streaming a binary trace.
    {
        std::ofstream out(path, std::ios::binary);
        trace::BinaryTraceWriter writer(out);
        trace::ObjectTracer tracer(writer);
        runner.runApp(app, threads, [&tracer](jvm::JavaVm &vm) {
            vm.listeners().add(&tracer);
        });
        writer.flush();
        std::cerr << app << " @ " << threads << " threads: "
                  << tracer.eventsEmitted() << " trace events -> " << path
                  << "\n";
    }

    // Analyze: read the trace back like an offline tool would.
    std::ifstream in(path, std::ios::binary);
    trace::BinaryTraceReader reader(in);
    trace::LifespanAnalyzer analyzer;
    trace::TraceEvent ev;
    while (reader.next(ev))
        analyzer.feed(ev);
    return analyzer;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string app = argc > 1 ? argv[1] : "xalan";
    const std::uint32_t low =
        argc > 2 ? static_cast<std::uint32_t>(std::atoi(argv[2])) : 4;
    const std::uint32_t high =
        argc > 3 ? static_cast<std::uint32_t>(std::atoi(argv[3])) : 48;

    using namespace jscale;

    core::ExperimentConfig cfg;
    core::ExperimentRunner runner(cfg);
    const std::string low_path = "/tmp/jscale_" + app + "_low.trace";
    const std::string high_path = "/tmp/jscale_" + app + "_high.trace";
    const auto low_a = traceRun(runner, app, low, low_path);
    const auto high_a = traceRun(runner, app, high, high_path);

    std::cout << "\nLifespan CDF for " << app
              << " (lifespan = bytes allocated between an object's birth "
                 "and death)\n\n";
    TextTable t;
    t.header({"lifespan <", std::to_string(low) + " threads",
              std::to_string(high) + " threads"});
    for (const auto thr : trace::paperLifespanThresholds()) {
        t.row({formatBytes(thr),
               formatPercent(low_a.histogram().fractionBelow(thr)),
               formatPercent(high_a.histogram().fractionBelow(thr))});
    }
    t.print(std::cout);

    std::remove(low_path.c_str());
    std::remove(high_path.c_str());
    return 0;
}
