/**
 * @file
 * Building a custom application model against the public API.
 *
 * Defines "mixer", a synthetic app with one hot shared cache (high
 * contention) and allocation behaviour that mixes short-lived buffers
 * with long-lived results, then runs it through the same study pipeline
 * as the DaCapo models — demonstrating how downstream users plug their
 * own workloads into the framework.
 */

#include <iostream>
#include <memory>

#include "core/analyze.hh"
#include "core/experiment.hh"
#include "core/report.hh"
#include "workload/task_queue_app.hh"

namespace {

/** Assemble the custom app from the task-queue building blocks. */
jscale::workload::TaskQueueParams
mixerParams()
{
    using namespace jscale;
    workload::TaskQueueParams p;
    p.name = "mixer";
    p.total_tasks = 2500;
    p.chunk_divisor = 30.0;
    p.task_compute_mean = 180 * units::US;
    p.allocs_per_task = 20;

    // Allocation profile: many short-lived buffers, a visible
    // medium-lived result component.
    p.alloc.size_log_mean = 4.8;
    p.alloc.frac_tiny = 0.45;
    p.alloc.frac_short = 0.35;
    p.alloc.frac_medium = 0.15;

    // One deliberately hot shared cache: few stripes, frequent access.
    workload::SharedResourceSpec cache;
    cache.name = "result-cache";
    cache.stripes = 2;
    cache.zipf_skew = 1.1;
    cache.accesses_per_task = 2.5;
    cache.cs_compute = 2 * units::US;
    p.resources = {cache};

    p.pinned_shared = 512 * units::KiB;
    return p;
}

} // namespace

int
main()
{
    using namespace jscale;

    core::ExperimentConfig cfg;
    core::ExperimentRunner runner(cfg);
    core::SweepSet sweeps;
    auto factory = [] {
        return std::make_unique<workload::TaskQueueApp>(mixerParams());
    };
    for (const std::uint32_t t : {1u, 4u, 16u, 48u})
        sweeps["mixer"].push_back(runner.runCustom(factory, "mixer", t));

    core::printScalabilityTable(std::cout, sweeps);
    std::cout << '\n';
    core::printLockContentionTable(std::cout, sweeps);
    std::cout << '\n';
    core::printLifespanCdfTable(std::cout, "mixer", sweeps["mixer"]);
    return 0;
}
