/**
 * @file
 * E9 — ablation of the paper's first future-work proposal (Sec. IV):
 * biased scheduling that staggers worker-thread execution phases to
 * reduce lifetime interference. Sweeps the number of phase groups at 48
 * threads on xalan and reports the trade-off between lifespan/GC
 * improvement and lost mutator parallelism.
 */

#include "bench_common.hh"

#include "base/output.hh"

int
main(int argc, char **argv)
{
    using namespace jscale;
    const auto opts = bench::BenchOptions::parse(argc, argv);

    std::cerr << "E9: biased-scheduling ablation (scale " << opts.scale
              << ")\n";
    const std::uint32_t threads = 48;

    TextTable t({{"scheduler", "scheduler"}, {"wall", "wall_ns"},
                 {"mutator", "mutator_ns"}, {"gc", "gc_ns"},
                 {"survival", "survival"}, {"lifespan<1KiB", "lifespan_lt_1k"},
                 {"promoted", "promoted_bytes"}});

    std::vector<std::pair<std::string, jvm::RunResult>> rows;
    {
        core::ExperimentRunner runner(opts.experimentConfig());
        rows.emplace_back("default", runner.runApp("xalan", threads));
    }
    for (const std::uint32_t groups : {2u, 4u, 8u}) {
        auto cfg = opts.experimentConfig();
        cfg.biased_scheduling = true;
        cfg.bias_groups = groups;
        core::ExperimentRunner runner(cfg);
        rows.emplace_back("biased/" + std::to_string(groups) + "g",
                          runner.runApp("xalan", threads));
    }

    for (const auto &[name, r] : rows) {
        t.row({name, Cell::ticks(r.wall_time), Cell::ticks(r.mutatorTime()),
               Cell::ticks(r.gc_time),
               Cell::share(r.gc.nursery_survival.mean()),
               Cell::share(r.heap.lifespan.fractionBelow(1024)),
               Cell::bytes(r.gc.promoted_bytes)});
    }
    std::cout << "E9: biased scheduling on xalan @ " << threads
              << " threads (paper Sec. IV proposal (i))\n";
    t.print(std::cout);
    std::cout << "\nBias restores short lifespans (less lifetime "
                 "interference) and trims GC work, at the cost of gated "
                 "mutator parallelism on a CPU-bound balanced workload.\n";

    if (opts.csv)
        t.writeCsv(std::cout);
    return 0;
}
