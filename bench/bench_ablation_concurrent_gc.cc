/**
 * @file
 * E16 — collector ablation: the paper's stop-the-world throughput
 * collector vs. a CMS-style concurrent old-generation collector on the
 * same workloads. The concurrent marker competes with mutators for
 * cores (the paper's helper-thread effect) but converts long full-GC
 * pauses into short remarks.
 */

#include "bench_common.hh"

#include "base/output.hh"
#include "core/analyze.hh"
#include "workload/task_queue_app.hh"

namespace {

/**
 * A promotion-heavy workload: half of all objects live 64 KiB - 1 MiB of
 * owner-local allocation, so they tenure into the old generation and
 * die there — the regime where the collector choice matters most.
 */
jscale::workload::TaskQueueParams
oldChurnParams(double scale)
{
    using namespace jscale;
    workload::TaskQueueParams p;
    p.name = "oldchurn";
    p.total_tasks = static_cast<std::uint64_t>(9000 * scale);
    p.task_compute_mean = 80 * units::US;
    p.allocs_per_task = 20;
    p.alloc.frac_tiny = 0.20;
    p.alloc.frac_short = 0.20;
    p.alloc.frac_medium = 0.50;
    p.alloc.medium_ttl = {1.0, 32 * units::KiB, 256 * units::KiB};
    p.alloc.long_ttl = {0.9, 256 * units::KiB, 512 * units::KiB};
    p.pinned_shared = 128 * units::KiB;
    return p;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace jscale;
    const auto opts = bench::BenchOptions::parse(argc, argv);

    std::cerr << "E16: collector ablation (scale " << opts.scale << ")\n";

    TextTable t;
    t.header({"app", "threads", "collector", "wall", "stw-gc",
              "p99-pause", "minor", "full", "cycles", "remarks"});
    for (const std::string app : {"oldchurn", "xalan", "h2"}) {
        for (const std::uint32_t threads : {16u, 48u}) {
            for (const bool concurrent : {false, true}) {
                auto cfg = opts.experimentConfig();
                // Stress the old generation so the collector choice
                // matters: starved heap + early tenuring.
                // The oldchurn live set is heavy-tailed; give it more
                // headroom than the DaCapo apps.
                cfg.heap_factor = app == "oldchurn" ? 1.6 : 1.3;
                cfg.vm.heap.tenure_threshold = 2;
                cfg.vm.concurrent.initiating_occupancy = 0.45;
                // Live sets peak at the largest thread count (lifespan
                // interference); with this starved heap the minimum must
                // be calibrated there, not at the paper's 4 threads.
                cfg.calibration_threads = 48;
                cfg.vm.collector =
                    concurrent ? jvm::CollectorKind::ConcurrentOld
                               : jvm::CollectorKind::Throughput;
                core::ExperimentRunner runner(cfg);
                const double scale = opts.scale;
                const jvm::RunResult r =
                    app == "oldchurn"
                        ? runner.runCustom(
                              [scale] {
                                  return std::make_unique<
                                      workload::TaskQueueApp>(
                                      oldChurnParams(scale));
                              },
                              "oldchurn", threads)
                        : runner.runApp(app, threads);
                t.row({app, std::to_string(threads),
                       concurrent ? "concurrent" : "throughput",
                       formatTicks(r.wall_time), formatTicks(r.gc_time),
                       formatTicks(r.gc.pause_hist.percentile(0.99)),
                       std::to_string(r.gc.minor_count),
                       std::to_string(r.gc.full_count),
                       std::to_string(r.gc.concurrent_cycles),
                       std::to_string(r.gc.remark_count)});
            }
        }
    }
    std::cout << "E16: throughput vs concurrent-old collector on a "
                 "starved heap\n";
    t.print(std::cout);
    std::cout << "\nConcurrent cycles trade background CPU for shorter "
                 "stop-the-world tails; mode failures (if any) fall "
                 "back to full collections.\n";
    return 0;
}
