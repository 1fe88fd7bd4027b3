#include "workload/dacapo.hh"

#include <algorithm>
#include <cmath>

#include "base/logging.hh"
#include "workload/hotlock_app.hh"
#include "workload/interpreter_app.hh"
#include "workload/pipeline_app.hh"
#include "workload/serialized_app.hh"
#include "workload/task_queue_app.hh"

namespace jscale::workload {

namespace {

std::uint64_t
scaled(std::uint64_t base, double scale)
{
    return std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(std::llround(
               static_cast<double>(base) * scale)));
}

/** Short-lived-temporary-heavy profile (raytracing vectors, tokens). */
AllocationProfile
tinyHeavyProfile()
{
    AllocationProfile p;
    p.size_log_mean = 4.3; // ~74 B
    p.size_log_sigma = 0.6;
    p.frac_tiny = 0.58;
    p.frac_short = 0.32;
    p.frac_medium = 0.07;
    return p;
}

/** The xalan profile: calibrated so that, at 4 threads, >80% of objects
 *  die within 1 KB of global allocation (Fig. 1d). */
AllocationProfile
xalanProfile()
{
    AllocationProfile p;
    p.size_log_mean = 4.5; // ~90 B
    p.size_log_sigma = 0.7;
    p.frac_tiny = 0.56;
    p.tiny_max = 24;
    p.frac_short = 0.33;
    p.short_ttl = {1.25, 32, 2 * units::KiB};
    p.frac_medium = 0.07;
    return p;
}

/** Larger, longer-lived records (database rows, undo logs). */
AllocationProfile
recordProfile()
{
    AllocationProfile p;
    p.size_log_mean = 5.0; // ~148 B
    p.size_log_sigma = 0.8;
    p.frac_tiny = 0.40;
    p.frac_short = 0.38;
    p.frac_medium = 0.15;
    return p;
}

/** AST/metadata-heavy profile (eclipse). */
AllocationProfile
astProfile()
{
    AllocationProfile p;
    p.size_log_mean = 5.1;
    p.size_log_sigma = 0.9;
    p.frac_tiny = 0.38;
    p.frac_short = 0.32;
    p.frac_medium = 0.22;
    p.medium_ttl = {1.0, 2 * units::KiB, 512 * units::KiB};
    p.long_ttl = {0.9, 512 * units::KiB, 8 * units::MiB};
    return p;
}

std::unique_ptr<WorkloadApp>
makeSunflow(double scale)
{
    TaskQueueParams p;
    p.name = "sunflow";
    p.total_tasks = scaled(3000, scale);
    p.chunk_divisor = 40.0;
    p.sync_locks_per_chunk = 2;
    p.sync_cs = 500;
    p.task_compute_mean = 300 * units::US;
    p.task_compute_sigma = 0.35;
    p.allocs_per_task = 18;
    p.alloc = tinyHeavyProfile();
    p.queue_cs = 600;
    SharedResourceSpec image;
    image.name = "image-buffer";
    image.stripes = 4;
    image.accesses_per_task = 0.5;
    image.cs_compute = 1200;
    p.resources = {image};
    p.pinned_shared = 192 * units::KiB;
    p.pinned_shared_objects = 48;
    return std::make_unique<TaskQueueApp>(p);
}

std::unique_ptr<WorkloadApp>
makeLusearch(double scale)
{
    TaskQueueParams p;
    p.name = "lusearch";
    p.total_tasks = scaled(4500, scale);
    p.chunk_divisor = 50.0;
    p.sync_locks_per_chunk = 2;
    p.sync_cs = 500;
    p.task_compute_mean = 120 * units::US;
    p.task_compute_sigma = 0.5;
    p.allocs_per_task = 26;
    p.alloc = tinyHeavyProfile();
    p.alloc.frac_tiny = 0.54;
    p.queue_cs = 600;
    SharedResourceSpec index;
    index.name = "index-cache";
    index.stripes = 8;
    index.zipf_skew = 0.8;
    index.accesses_per_task = 2.0;
    index.cs_compute = 1500;
    p.resources = {index};
    p.pinned_shared = 384 * units::KiB;
    p.pinned_shared_objects = 96;
    return std::make_unique<TaskQueueApp>(p);
}

std::unique_ptr<WorkloadApp>
makeXalan(double scale)
{
    TaskQueueParams p;
    p.name = "xalan";
    p.total_tasks = scaled(4200, scale);
    p.chunk_divisor = 60.0;
    p.sync_locks_per_chunk = 2;
    p.sync_cs = 600;
    p.task_compute_mean = 140 * units::US;
    p.task_compute_sigma = 0.45;
    p.allocs_per_task = 30;
    p.alloc = xalanProfile();
    p.queue_cs = 700;
    SharedResourceSpec output;
    output.name = "output-buffer";
    output.stripes = 2;
    output.accesses_per_task = 1.0;
    output.cs_compute = 1600;
    output.allocs_in_cs = 1;
    SharedResourceSpec dtm;
    dtm.name = "dtm-cache";
    dtm.stripes = 4;
    dtm.zipf_skew = 0.9;
    dtm.accesses_per_task = 1.0;
    dtm.cs_compute = 1800;
    p.resources = {output, dtm};
    p.pinned_shared = 320 * units::KiB;
    p.pinned_shared_objects = 80;
    return std::make_unique<TaskQueueApp>(p);
}

std::unique_ptr<WorkloadApp>
makeH2(double scale)
{
    SerializedParams p;
    p.name = "h2";
    p.total_transactions = scaled(3000, scale);
    p.parse_compute_mean = 60 * units::US;
    p.commit_compute_mean = 110 * units::US;
    p.allocs_parse = 14;
    p.allocs_commit = 6;
    p.alloc = recordProfile();
    p.cache_stripes = 8;
    p.cache_accesses_per_txn = 2.0;
    p.pinned_shared = 1536 * units::KiB;
    p.pinned_shared_objects = 192;
    return std::make_unique<SerializedApp>(p);
}

std::unique_ptr<WorkloadApp>
makeEclipse(double scale)
{
    PipelineParams p;
    p.name = "eclipse";
    p.total_units = scaled(900, scale);
    p.producer_compute = 70 * units::US;
    p.consumer_compute = 150 * units::US;
    p.consumer_count = 2;
    p.allocs_producer = 10;
    p.allocs_consumer = 22;
    p.alloc = astProfile();
    p.pinned_shared = 2048 * units::KiB;
    p.pinned_shared_objects = 256;
    return std::make_unique<PipelineApp>(p);
}

std::unique_ptr<WorkloadApp>
makeHotlock(double scale)
{
    HotLockParams p;
    p.name = "hotlock";
    p.total_ops = scaled(6000, scale);
    p.local_compute_mean = 8 * units::US;
    p.cs_compute_mean = 4 * units::US;
    p.allocs_per_op = 2;
    p.alloc = tinyHeavyProfile();
    return std::make_unique<HotLockApp>(p);
}

std::unique_ptr<WorkloadApp>
makeJython(double scale)
{
    InterpreterParams p;
    p.name = "jython";
    p.worker_cap = 4;
    p.total_units = scaled(1400, scale);
    p.ops_per_unit = 8;
    p.interp_slice = 22 * units::US;
    p.gap_compute = 6 * units::US;
    p.allocs_per_op = 3;
    p.alloc = tinyHeavyProfile();
    p.alloc.frac_tiny = 0.55;
    p.pinned_shared = 640 * units::KiB;
    p.pinned_shared_objects = 96;
    return std::make_unique<InterpreterApp>(p);
}

} // namespace

const std::vector<std::string> &
dacapoAppNames()
{
    static const std::vector<std::string> names = {
        "sunflow", "lusearch", "xalan", "h2", "eclipse", "jython"};
    return names;
}

bool
dacapoExpectedScalable(const std::string &name)
{
    return name == "sunflow" || name == "lusearch" || name == "xalan";
}

std::unique_ptr<WorkloadApp>
makeDacapoApp(const std::string &name, double scale)
{
    jscale_assert(scale > 0.0, "scale must be positive");
    if (name == "sunflow")
        return makeSunflow(scale);
    if (name == "lusearch")
        return makeLusearch(scale);
    if (name == "xalan")
        return makeXalan(scale);
    if (name == "h2")
        return makeH2(scale);
    if (name == "eclipse")
        return makeEclipse(scale);
    if (name == "jython")
        return makeJython(scale);
    // Not a DaCapo benchmark, but routed through the same factory so
    // the whole harness (runs, sweeps, golden, fuzz) can drive it: the
    // E19 lock-saturated microbenchmark.
    if (name == "hotlock")
        return makeHotlock(scale);
    jscale_fatal("unknown DaCapo app '", name,
                 "' (expected one of sunflow, lusearch, xalan, h2, ",
                 "eclipse, jython, hotlock)");
}

} // namespace jscale::workload
