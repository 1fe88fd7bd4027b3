/**
 * @file
 * Tests for the Elephant-Tracks-style tracing pipeline: binary
 * round-trips, the tracing agent, and the lifespan analyzer's agreement
 * with the heap's own histogram.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "base/random.hh"
#include "test_apps.hh"
#include "trace/trace.hh"

namespace {

using namespace jscale;
using namespace jscale::trace;
using test::TinyApp;
using test::TinyAppParams;
using test::VmHarness;

TraceEvent
randomEvent(Rng &rng)
{
    TraceEvent ev;
    ev.kind = static_cast<TraceEventKind>(1 + rng.below(6));
    ev.gc_kind = static_cast<std::uint8_t>(rng.below(2));
    ev.thread = static_cast<std::uint32_t>(rng.below(64));
    ev.time = rng.next();
    ev.object = rng.next();
    ev.size = rng.below(1 << 20);
    ev.lifespan = rng.next() >> 20;
    ev.site = static_cast<std::uint32_t>(rng.below(100));
    return ev;
}

TEST(BinaryTrace, RoundTripsExactly)
{
    Rng rng(31);
    std::vector<TraceEvent> events;
    for (int i = 0; i < 500; ++i)
        events.push_back(randomEvent(rng));

    std::stringstream buf;
    {
        BinaryTraceWriter writer(buf);
        for (const auto &ev : events)
            writer.append(ev);
        writer.flush();
        EXPECT_EQ(writer.recordCount(), events.size());
    }

    BinaryTraceReader reader(buf);
    std::vector<TraceEvent> decoded;
    TraceEvent ev;
    while (reader.next(ev))
        decoded.push_back(ev);
    ASSERT_EQ(decoded.size(), events.size());
    for (std::size_t i = 0; i < events.size(); ++i)
        EXPECT_EQ(decoded[i], events[i]) << "record " << i;
}

TEST(BinaryTrace, RejectsForeignStream)
{
    std::stringstream buf;
    buf << "this is not a trace at all";
    EXPECT_EXIT(BinaryTraceReader reader(buf),
                ::testing::ExitedWithCode(1), "bad magic");
}

TEST(BinaryTrace, EmptyTraceIsValid)
{
    std::stringstream buf;
    BinaryTraceWriter writer(buf);
    writer.flush();
    BinaryTraceReader reader(buf);
    TraceEvent ev;
    EXPECT_FALSE(reader.next(ev));
}

TEST(ObjectTracer, EmitsInOrderAndMatchesHeapCounters)
{
    VmHarness h(4);
    MemoryTraceSink sink;
    ObjectTracer tracer(sink);
    h.vm.listeners().add(&tracer);
    TinyAppParams p;
    p.tasks_per_thread = 30;
    TinyApp app(p);
    const jvm::RunResult r = h.vm.run(app, 4);

    std::uint64_t allocs = 0;
    std::uint64_t deaths = 0;
    Ticks prev_time = 0;
    for (const auto &ev : sink.events()) {
        EXPECT_GE(ev.time, prev_time) << "trace out of order";
        prev_time = ev.time;
        allocs += ev.kind == TraceEventKind::Alloc;
        deaths += ev.kind == TraceEventKind::Death;
    }
    EXPECT_EQ(allocs, r.heap.objects_allocated);
    EXPECT_EQ(deaths, r.heap.objects_died);
    EXPECT_EQ(tracer.eventsEmitted(), sink.events().size());
}

TEST(ObjectTracer, ThreadLifecycleEventsPresent)
{
    VmHarness h(4);
    MemoryTraceSink sink;
    ObjectTracer tracer(sink);
    h.vm.listeners().add(&tracer);
    TinyAppParams p;
    TinyApp app(p);
    h.vm.run(app, 3);
    int starts = 0;
    int ends = 0;
    for (const auto &ev : sink.events()) {
        starts += ev.kind == TraceEventKind::ThreadStart;
        ends += ev.kind == TraceEventKind::ThreadEnd;
    }
    EXPECT_EQ(starts, 3);
    EXPECT_EQ(ends, 3);
}

TEST(LifespanAnalyzer, AgreesWithHeapHistogram)
{
    VmHarness h(4);
    MemoryTraceSink sink;
    ObjectTracer tracer(sink);
    h.vm.listeners().add(&tracer);
    TinyAppParams p;
    p.tasks_per_thread = 60;
    p.allocs_per_task = 4;
    TinyApp app(p);
    const jvm::RunResult r = h.vm.run(app, 4);

    LifespanAnalyzer analyzer;
    analyzer.feedAll(sink.events());
    EXPECT_EQ(analyzer.deaths(), r.heap.objects_died);
    EXPECT_EQ(analyzer.allocs(), r.heap.objects_allocated);
    for (const auto t : paperLifespanThresholds()) {
        EXPECT_DOUBLE_EQ(analyzer.histogram().fractionBelow(t),
                         r.heap.lifespan.fractionBelow(t))
            << "threshold " << t;
    }
}

TEST(LifespanAnalyzer, PerThreadBreakdownSumsToTotal)
{
    VmHarness h(4);
    MemoryTraceSink sink;
    ObjectTracer tracer(sink);
    h.vm.listeners().add(&tracer);
    TinyAppParams p;
    TinyApp app(p);
    h.vm.run(app, 4);

    LifespanAnalyzer analyzer;
    analyzer.feedAll(sink.events());
    std::uint64_t per_thread_total = 0;
    for (const auto &[tid, hist] : analyzer.perThread())
        per_thread_total += hist.totalWeight();
    EXPECT_EQ(per_thread_total, analyzer.histogram().totalWeight());
}

TEST(LifespanAnalyzer, PerSiteBreakdownAndTopSites)
{
    LifespanAnalyzer a;
    auto death = [](std::uint32_t site, Bytes size, Bytes lifespan) {
        TraceEvent ev;
        ev.kind = TraceEventKind::Death;
        ev.site = site;
        ev.size = size;
        ev.lifespan = lifespan;
        return ev;
    };
    auto alloc = [](std::uint32_t site, Bytes size) {
        TraceEvent ev;
        ev.kind = TraceEventKind::Alloc;
        ev.site = site;
        ev.size = size;
        return ev;
    };
    // Site 1: two small short-lived; site 2: one big long-lived.
    a.feed(alloc(1, 100));
    a.feed(alloc(1, 100));
    a.feed(alloc(2, 5000));
    a.feed(death(1, 100, 64));
    a.feed(death(1, 100, 128));
    a.feed(death(2, 5000, 1 << 20));

    ASSERT_EQ(a.perSite().size(), 2u);
    const auto top = a.topSites(10);
    ASSERT_EQ(top.size(), 2u);
    EXPECT_EQ(top[0].site, 2u); // by bytes
    EXPECT_EQ(top[0].objects, 1u);
    EXPECT_EQ(top[0].bytes, 5000u);
    EXPECT_GT(top[0].median_lifespan, top[1].median_lifespan);
    EXPECT_EQ(top[1].objects, 2u);

    const auto top1 = a.topSites(1);
    ASSERT_EQ(top1.size(), 1u);
    EXPECT_EQ(top1[0].site, 2u);
}

} // namespace
