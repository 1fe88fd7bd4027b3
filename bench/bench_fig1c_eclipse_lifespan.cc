/**
 * @file
 * E5 — Fig. 1c: eclipse's object-lifespan CDF across thread counts,
 * measured through the Elephant-Tracks-style tracer. Reproduction
 * target: the CDF barely moves between 4 and 48 threads, because the
 * set of allocating threads (the fixed pipeline) does not grow with the
 * requested thread count.
 */

#include "bench_common.hh"

#include "trace/trace.hh"

int
main(int argc, char **argv)
{
    using namespace jscale;
    const auto opts = bench::BenchOptions::parse(argc, argv);
    core::ExperimentRunner runner(opts.experimentConfig());

    std::cerr << "E5 (Fig. 1c): eclipse lifespan CDF (scale "
              << opts.scale << ")\n";
    std::vector<jvm::RunResult> sweep;
    for (const std::uint32_t t : {4u, 16u, 48u}) {
        // Run with the tracer attached and verify the traced CDF matches
        // the heap-side histogram before reporting.
        trace::MemoryTraceSink sink;
        trace::ObjectTracer tracer(sink);
        jvm::RunResult r = runner.runApp(
            "eclipse", t,
            [&tracer](jvm::JavaVm &vm) { vm.listeners().add(&tracer); });
        trace::LifespanAnalyzer analyzer;
        analyzer.feedAll(sink.events());
        if (analyzer.deaths() != r.heap.objects_died) {
            std::cerr << "trace/heap death-count mismatch\n";
            return 1;
        }
        sweep.push_back(std::move(r));
    }

    core::printLifespanCdfTable(std::cout, "eclipse", sweep);
    std::cout << "\nmax CDF shift at 1 KiB between settings: "
              << formatPercent(
                     sweep.back().heap.lifespan.fractionBelow(1024) -
                     sweep.front().heap.lifespan.fractionBelow(1024))
              << " (paper: almost no change)\n";
    if (opts.csv) {
        std::cout << "\n";
        core::lifespanCdfTable("eclipse", sweep).writeCsv(std::cout);
    }
    return 0;
}
