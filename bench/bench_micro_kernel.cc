/**
 * @file
 * E12 — simulator micro-benchmarks (google-benchmark): throughput of
 * the event queue, the allocation/death path, the monitor fast path, the
 * scheduler's wake path, the timeline encoder and a full simulated
 * application run. These bound the cost of every
 * experiment above and guard against performance regressions in the
 * simulation kernel itself.
 */

#include <benchmark/benchmark.h>

#include <memory>
#include <streambuf>
#include <string>
#include <vector>

#include "base/random.hh"
#include "core/experiment.hh"
#include "jvm/heap/heap.hh"
#include "jvm/runtime/listener.hh"
#include "machine/machine.hh"
#include "os/scheduler.hh"
#include "sim/event.hh"
#include "sim/simulation.hh"
#include "stats/stats.hh"
#include "telemetry/timeline.hh"
#include "traffic/arrival.hh"

namespace {

using namespace jscale;

/**
 * Stamp the *simulator's* build type into the benchmark context. The
 * stock "library_build_type" field only describes how libbenchmark
 * itself was compiled (a distro debug build on some hosts), so
 * bench_perf.sh keys its debug-baseline refusal off this field instead.
 */
const int kRegisterBuildType = [] {
#ifdef NDEBUG
    benchmark::AddCustomContext("jscale_build_type", "optimized");
#else
    benchmark::AddCustomContext("jscale_build_type", "debug");
#endif
    return 0;
}();

void
BM_EventQueueScheduleDispatch(benchmark::State &state)
{
    sim::Simulation sim(1);
    std::uint64_t fired = 0;
    for (auto _ : state) {
        sim.scheduleAfter(1, [&fired] { ++fired; }, "bench");
        sim.step();
    }
    benchmark::DoNotOptimize(fired);
    state.SetItemsProcessed(static_cast<std::int64_t>(fired));
}
BENCHMARK(BM_EventQueueScheduleDispatch);

void
BM_EventQueueDeepHeap(benchmark::State &state)
{
    // Drain throughput at a given backlog depth. Events are reusable
    // CallbackEvents (the simulator's own hot-path idiom since the
    // pooled-event rework) so the timed region measures the queue, not
    // 1M heap frees; the per-event allocate/delete path is covered by
    // BM_EventQueueChurnLambda.
    const std::int64_t depth = state.range(0);
    std::uint64_t fired = 0;
    std::vector<std::unique_ptr<sim::CallbackEvent>> events;
    events.reserve(static_cast<std::size_t>(depth));
    for (std::int64_t i = 0; i < depth; ++i) {
        events.push_back(std::make_unique<sim::CallbackEvent>(
            [&fired] { ++fired; }, "bench"));
    }
    for (auto _ : state) {
        state.PauseTiming();
        sim::Simulation sim(1);
        Rng rng(7);
        for (auto &ev : events)
            sim.queue().schedule(ev.get(), rng.below(1000000) + 1);
        state.ResumeTiming();
        sim.run();
        benchmark::DoNotOptimize(fired);
    }
    state.SetItemsProcessed(state.iterations() * depth);
}
BENCHMARK(BM_EventQueueDeepHeap)
    ->Arg(1024)
    ->Arg(65536)
    ->Arg(262144)
    ->Arg(1 << 20);

void
BM_EventQueueBucketResize(benchmark::State &state)
{
    // Worst case for the calendar's window tuning: alternate dense
    // near-term bursts with sparse far-future stragglers so every few
    // thousand dispatches the pending span shifts by orders of
    // magnitude and the queue must re-tune its bucket width.
    constexpr std::int64_t kBurst = 4096;
    std::uint64_t fired = 0;
    std::vector<std::unique_ptr<sim::CallbackEvent>> events;
    for (std::int64_t i = 0; i < kBurst + 8; ++i) {
        events.push_back(std::make_unique<sim::CallbackEvent>(
            [&fired] { ++fired; }, "resize"));
    }
    for (auto _ : state) {
        state.PauseTiming();
        sim::Simulation sim(1);
        Rng rng(11);
        std::size_t n = 0;
        // Dense burst within a 4k-tick window...
        for (std::int64_t i = 0; i < kBurst; ++i)
            sim.queue().schedule(events[n++].get(), rng.below(4096) + 1);
        // ...plus far-future events 6 decades out, so the first
        // rebucket's width is wildly wrong for the dense region and
        // each straggler forces another re-tune as the window crawls.
        for (std::int64_t i = 0; i < 8; ++i) {
            sim.queue().schedule(events[n++].get(),
                                 (i + 1) * 1000000000ULL);
        }
        state.ResumeTiming();
        sim.run();
        state.PauseTiming();
        state.counters["rebuckets"] = static_cast<double>(
            sim.queue().rebucketCount());
        state.ResumeTiming();
        benchmark::DoNotOptimize(fired);
    }
    state.SetItemsProcessed(state.iterations() * (kBurst + 8));
}
BENCHMARK(BM_EventQueueBucketResize);

void
BM_EventQueueChurnCancel(benchmark::State &state)
{
    // Schedule/cancel/drain churn over reusable member events; range(0)
    // percent of each batch is descheduled before the drain. Arg(0) is
    // the pure hot path — an empty cancellation set must cost exactly
    // one branch per pop.
    const std::int64_t cancel_pct = state.range(0);
    constexpr int kBatch = 64;
    sim::EventQueue q;
    std::uint64_t fired = 0;
    std::vector<std::unique_ptr<sim::CallbackEvent>> events;
    for (int i = 0; i < kBatch; ++i) {
        events.push_back(std::make_unique<sim::CallbackEvent>(
            [&fired] { ++fired; }, "churn"));
    }
    Rng rng(23);
    Ticks base = 0;
    for (auto _ : state) {
        for (auto &ev : events)
            q.schedule(ev.get(), base + 1 + rng.below(1000));
        for (auto &ev : events) {
            if (static_cast<std::int64_t>(rng.below(100)) < cancel_pct)
                q.deschedule(ev.get());
        }
        while (sim::Event *ev = q.pop())
            ev->process();
        base += 1001;
    }
    benchmark::DoNotOptimize(fired);
    state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_EventQueueChurnCancel)->Arg(0)->Arg(25);

void
BM_EventQueueChurnLambda(benchmark::State &state)
{
    // The pre-pool idiom: a fresh heap-allocated self-deleting
    // LambdaEvent (one std::function + string per occurrence). Kept as
    // the baseline the pooled CallbackEvent churn above replaces.
    constexpr int kBatch = 64;
    sim::EventQueue q;
    std::uint64_t fired = 0;
    Rng rng(23);
    Ticks base = 0;
    for (auto _ : state) {
        for (int i = 0; i < kBatch; ++i) {
            q.schedule(
                new sim::LambdaEvent([&fired] { ++fired; }, "churn"),
                base + 1 + rng.below(1000));
        }
        while (sim::Event *ev = q.pop()) {
            ev->process();
            if (ev->selfDeleting())
                delete ev;
        }
        base += 1001;
    }
    benchmark::DoNotOptimize(fired);
    state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_EventQueueChurnLambda);

void
BM_RecurringEventTick(benchmark::State &state)
{
    // One periodic activity (metric sampling, phase rotation): each
    // step fires the callback and rearms the same pooled event.
    sim::Simulation sim(1);
    std::uint64_t fired = 0;
    sim::RecurringEvent tick(sim.queue(), 10, [&fired] { ++fired; },
                             "bench-tick");
    tick.start(10);
    for (auto _ : state)
        sim.step();
    tick.stop();
    benchmark::DoNotOptimize(fired);
    state.SetItemsProcessed(static_cast<std::int64_t>(fired));
}
BENCHMARK(BM_RecurringEventTick);

void
BM_ListenerDispatchEmpty(benchmark::State &state)
{
    // The overwhelmingly common case: no tools attached, every probe
    // site must reduce to a single branch.
    jvm::ListenerChain chain;
    std::uint64_t calls = 0;
    for (auto _ : state) {
        chain.dispatch([&calls](jvm::RuntimeListener &l) {
            l.onThreadStart(0, 0);
            ++calls;
        });
        benchmark::DoNotOptimize(calls);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ListenerDispatchEmpty);

void
BM_ListenerDispatchSubscribed(benchmark::State &state)
{
    class CountingListener : public jvm::RuntimeListener
    {
      public:
        std::uint64_t starts = 0;
        void
        onThreadStart(jvm::MutatorIndex, Ticks) override
        {
            ++starts;
        }
    };
    jvm::ListenerChain chain;
    CountingListener listener;
    chain.add(&listener);
    for (auto _ : state) {
        chain.dispatch([](jvm::RuntimeListener &l) {
            l.onThreadStart(0, 0);
        });
    }
    benchmark::DoNotOptimize(listener.starts);
    state.SetItemsProcessed(
        static_cast<std::int64_t>(listener.starts));
}
BENCHMARK(BM_ListenerDispatchSubscribed);

void
BM_HeapThreadExitKill(benchmark::State &state)
{
    // End-of-run thread exits on the paper's 48-core machine: every
    // mutator exits in turn while the heap holds range(0) live objects.
    // Each exit must touch only the exiting owner's objects — a full
    // region-list scan per exit makes the combined exits quadratic.
    const std::int64_t objects = state.range(0);
    constexpr std::uint32_t kOwners = 48;
    jvm::HeapConfig cfg;
    cfg.capacity = 1024 * units::MiB;
    const Bytes long_ttl = static_cast<Bytes>(1) << 40;
    for (auto _ : state) {
        state.PauseTiming();
        jvm::Heap heap(cfg, kOwners, nullptr);
        for (std::int64_t i = 0; i < objects; ++i) {
            heap.allocate(
                static_cast<jvm::MutatorIndex>(i % kOwners), 64,
                long_ttl, 0, 0);
        }
        state.ResumeTiming();
        for (std::uint32_t o = 0; o < kOwners; ++o)
            heap.killThreadObjects(o, 0);
        benchmark::DoNotOptimize(heap.heapStats().objects_died);
    }
    state.SetItemsProcessed(state.iterations() * objects);
}
BENCHMARK(BM_HeapThreadExitKill)->Arg(10000)->Arg(100000)->Arg(1000000);

void
BM_HeapAllocateDeath(benchmark::State &state)
{
    jvm::HeapConfig cfg;
    cfg.capacity = 1024 * units::MiB;
    jvm::Heap heap(cfg, 4, nullptr);
    Rng rng(11);
    std::uint64_t allocs = 0;
    for (auto _ : state) {
        const Bytes size = 16 + rng.below(512);
        const Bytes ttl = rng.below(4096);
        const auto status = heap.allocate(
            static_cast<jvm::MutatorIndex>(allocs % 4), size, ttl, 0, 0);
        if (status != jvm::AllocStatus::Ok) {
            heap.collectMinor(0);
            continue;
        }
        ++allocs;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(allocs));
}
BENCHMARK(BM_HeapAllocateDeath);

void
BM_MinorCollection(benchmark::State &state)
{
    const std::int64_t objects = state.range(0);
    jvm::HeapConfig cfg;
    cfg.capacity = 1024 * units::MiB;
    for (auto _ : state) {
        state.PauseTiming();
        jvm::Heap heap(cfg, 1, nullptr);
        Rng rng(13);
        for (std::int64_t i = 0; i < objects; ++i)
            heap.allocate(0, 64 + rng.below(256), rng.below(2048), 0, 0);
        state.ResumeTiming();
        const auto work = heap.collectMinor(0);
        benchmark::DoNotOptimize(work.scanned_objects);
    }
    state.SetItemsProcessed(state.iterations() * objects);
}
BENCHMARK(BM_MinorCollection)->Arg(10000)->Arg(100000);

void
BM_LogHistogramAdd(benchmark::State &state)
{
    stats::LogHistogram hist;
    Rng rng(17);
    for (auto _ : state)
        hist.add(rng.next() >> (rng.next() % 40));
    benchmark::DoNotOptimize(hist.totalWeight());
    state.SetItemsProcessed(
        static_cast<std::int64_t>(hist.totalWeight()));
}
BENCHMARK(BM_LogHistogramAdd);

void
BM_ArrivalGapSampling(benchmark::State &state)
{
    // Raw injection-schedule throughput: sampling the next inter-arrival
    // gap is on the hot path of every open-loop event, once per offered
    // request. The bursty process is the costliest (phase bookkeeping on
    // top of the exponential draw).
    traffic::ArrivalSpec spec;
    std::string err;
    const bool ok = traffic::ArrivalSpec::parse(
        "burst:rate=100000:factor=8:on_ms=2:off_ms=8", spec, err);
    if (!ok) {
        state.SkipWithError(err.c_str());
        return;
    }
    traffic::ArrivalProcess proc(spec, Rng(29));
    Ticks now = 0;
    for (auto _ : state) {
        now += proc.nextGap(now);
        benchmark::DoNotOptimize(now);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ArrivalGapSampling);

/** A stream buffer that counts and discards what it is given. */
class CountingSink : public std::streambuf
{
  public:
    std::int64_t bytes = 0;

  protected:
    std::streamsize
    xsputn(const char *, std::streamsize n) override
    {
        bytes += n;
        return n;
    }

    int_type
    overflow(int_type c) override
    {
        ++bytes;
        return traits_type::not_eof(c);
    }
};

void
BM_TimelineEncode(benchmark::State &state)
{
    // The recorder's two hot shapes, nearly every event of a timeline:
    // a core burst span and a thread-state span, without and with the
    // monitor a lock-blocked span carries.
    using telemetry::targ;
    CountingSink sink;
    std::ostream os(&sink);
    telemetry::Timeline tl(os);
    const std::string thread = "xalan-worker-12";
    Ticks now = 1'000'000'007;
    for (auto _ : state) {
        tl.span(1, 3, thread, "burst", now, now + 15'321,
                {targ("thread", std::uint64_t{12}),
                 targ("overhead_ns", std::uint64_t{850})});
        tl.span(2, 12, "running", "state", now, now + 15'321);
        tl.span(2, 12, "lock-blocked", "state", now + 15'321, now + 20'004,
                {targ("monitor", std::uint64_t{7})});
        now += 20'004;
        benchmark::ClobberMemory();
    }
    tl.finish();
    benchmark::DoNotOptimize(sink.bytes);
    state.SetItemsProcessed(static_cast<std::int64_t>(tl.events()));
    state.SetBytesProcessed(sink.bytes);
}
BENCHMARK(BM_TimelineEncode);

void
BM_OpenLoopInjection(benchmark::State &state)
{
    // End-to-end open-loop run: arrival events, bounded admission,
    // request dispatch and the per-request latency pipeline, measured in
    // completed requests per second of host time.
    core::ExperimentConfig cfg;
    cfg.workload_scale = 0.05;
    cfg.arrivals = "poisson:rate=2000:requests=500";
    std::uint64_t completed = 0;
    for (auto _ : state) {
        core::ExperimentRunner runner(cfg);
        const jvm::RunResult r = runner.runApp("sunflow", 4);
        completed += r.traffic.completed;
        benchmark::DoNotOptimize(r.traffic.completed);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(completed));
}
BENCHMARK(BM_OpenLoopInjection)->Unit(benchmark::kMillisecond);

/** Runs one short burst per dispatch, then blocks until woken. */
class WakeBlockClient : public os::SchedClient
{
  public:
    Ticks planBurst(Ticks, Ticks) override { return 1 * units::US; }
    os::BurstOutcome
    finishBurst(Ticks, Ticks) override
    {
        return os::BurstOutcome::Blocked;
    }
    std::string clientName() const override { return "wake-block"; }
};

void
BM_SchedulerWakeKick(benchmark::State &state)
{
    // The lock-bound shape on the paper's 48 cores: every thread but
    // the woken one is blocked, so each wake kicks 47 idle cores that
    // must learn fast that there is nothing else to run or steal.
    sim::Simulation sim(1);
    machine::Machine mach(machine::Machine::amd6168_4p48c());
    mach.enableCores(48);
    os::Scheduler sched(sim, mach);
    WakeBlockClient client;
    std::vector<os::OsThread *> threads;
    for (int i = 0; i < 48; ++i) {
        threads.push_back(
            sched.registerThread(&client, os::ThreadKind::Mutator));
        sched.start(threads.back());
    }
    sim.run();
    std::size_t next = 0;
    for (auto _ : state) {
        sched.wake(threads[next]);
        sim.step(); // the burst ends and the thread blocks again
        next = (next + 1) % threads.size();
    }
    benchmark::DoNotOptimize(sched.schedStats().dispatches);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SchedulerWakeKick);

void
BM_FullApplicationRun(benchmark::State &state)
{
    // End-to-end: one xalan run at 8 threads, small scale.
    core::ExperimentConfig cfg;
    cfg.workload_scale = 0.1;
    for (auto _ : state) {
        core::ExperimentRunner runner(cfg);
        const jvm::RunResult r = runner.runApp("xalan", 8);
        benchmark::DoNotOptimize(r.wall_time);
        state.counters["sim_events"] =
            static_cast<double>(r.sim_events);
    }
}
BENCHMARK(BM_FullApplicationRun)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
