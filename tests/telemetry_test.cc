/**
 * @file
 * Tests for the telemetry layer: JSON escaping and validation, the
 * streaming Chrome-trace writer, the probe-driven timeline recorder
 * (span accounting against RunResult) and the periodic metric sampler.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "profile/ledger.hh"
#include "profile/profiler.hh"
#include "telemetry/json.hh"
#include "telemetry/recorder.hh"
#include "telemetry/sampler.hh"
#include "telemetry/timeline.hh"
#include "test_apps.hh"

namespace {

using namespace jscale;
using test::TinyApp;
using test::TinyAppParams;
using test::VmHarness;

TEST(JsonEscape, PassesPlainText)
{
    EXPECT_EQ(telemetry::jsonEscape("core 3"), "core 3");
}

TEST(JsonEscape, EscapesQuotesBackslashesAndControls)
{
    EXPECT_EQ(telemetry::jsonEscape("a\"b"), "a\\\"b");
    EXPECT_EQ(telemetry::jsonEscape("a\\b"), "a\\\\b");
    EXPECT_EQ(telemetry::jsonEscape("a\nb\tc"), "a\\nb\\tc");
    EXPECT_EQ(telemetry::jsonEscape(std::string("a\x01z")), "a\\u0001z");
}

TEST(ValidateJson, AcceptsWellFormedDocuments)
{
    for (const char *ok :
         {"{}", "[]", "null", "true", "-12.5e3", "\"s\"",
          R"({"a":[1,2,{"b":null}],"c":"\u00e9\n"})"}) {
        std::string err;
        EXPECT_TRUE(telemetry::validateJson(ok, &err)) << ok << ": " << err;
    }
}

TEST(ValidateJson, RejectsMalformedDocuments)
{
    for (const char *bad :
         {"", "{", "[1,]", "{\"a\":1,}", "{a:1}", "01", "nan", "\"\\x\"",
          "\"unterminated", "[1] garbage", "{\"a\" 1}"}) {
        EXPECT_FALSE(telemetry::validateJson(bad)) << bad;
    }
}

TEST(Timeline, EmitsParsableEventsWithExactTimestamps)
{
    std::ostringstream os;
    {
        telemetry::Timeline tl(os);
        tl.processName(1, "cores");
        tl.threadName(1, 0, "core \"0\"");
        tl.span(1, 0, "work", "burst", 1234, 6789,
                {telemetry::targ("thread", std::uint64_t{7})});
        tl.instant(1, 0, "preempt", "sched", 5000);
        tl.counter(3, "heap", 2000,
                   {telemetry::targ("eden", std::uint64_t{42})});
        EXPECT_EQ(tl.events(), 5u);
    }
    const std::string text = os.str();
    std::string err;
    ASSERT_TRUE(telemetry::validateJson(text, &err)) << err;
    // 1234 ns and a 5555 ns duration render as exact microsecond decimals.
    EXPECT_NE(text.find("\"ts\":1.234"), std::string::npos);
    EXPECT_NE(text.find("\"dur\":5.555"), std::string::npos);
    EXPECT_NE(text.find("core \\\"0\\\""), std::string::npos);
}

TEST(Timeline, FinishIsIdempotentAndTerminatesDocument)
{
    std::ostringstream os;
    telemetry::Timeline tl(os);
    tl.finish();
    tl.finish();
    EXPECT_TRUE(telemetry::validateJson(os.str()));
}

/** Parse the "<us>.<3-digit-ns>" field @p key of one event line to ns. */
std::uint64_t
fieldNs(const std::string &line, const std::string &key)
{
    const std::string needle = "\"" + key + "\":";
    const auto pos = line.find(needle);
    if (pos == std::string::npos)
        return 0;
    std::size_t i = pos + needle.size();
    std::uint64_t us = 0;
    while (i < line.size() && line[i] >= '0' && line[i] <= '9')
        us = us * 10 + static_cast<std::uint64_t>(line[i++] - '0');
    std::uint64_t ns = 0;
    if (i < line.size() && line[i] == '.') {
        ++i;
        for (int d = 0; d < 3; ++d)
            ns = ns * 10 + static_cast<std::uint64_t>(line[i++] - '0');
    }
    return us * 1000 + ns;
}

/** One emitted trace event, as the test sees it. */
struct Ev
{
    std::string line;
    std::uint64_t ts = 0;
    std::uint64_t dur = 0;

    bool
    has(const std::string &what) const
    {
        return line.find(what) != std::string::npos;
    }
};

/** Split a timeline document into its event lines. */
std::vector<Ev>
eventLines(const std::string &text)
{
    std::vector<Ev> out;
    std::istringstream is(text);
    std::string line;
    while (std::getline(is, line)) {
        if (line.rfind("{\"name\"", 0) != 0)
            continue;
        Ev e;
        e.ts = fieldNs(line, "ts");
        e.dur = fieldNs(line, "dur");
        e.line = std::move(line);
        out.push_back(std::move(e));
    }
    return out;
}

/** A contended, GC-heavy tiny app on a small heap. */
TinyAppParams
busyParams()
{
    TinyAppParams p;
    p.name = "telemetry-app";
    p.tasks_per_thread = 120;
    p.compute_per_task = 20 * units::US;
    p.allocs_per_task = 8;
    p.alloc_size = 4096;
    p.alloc_ttl = 64 * units::KiB;
    p.use_shared_lock = 5 * units::US;
    return p;
}

jvm::VmConfig
smallHeapConfig()
{
    jvm::VmConfig cfg = VmHarness::defaultVmConfig();
    cfg.heap.capacity = 2 * units::MiB;
    return cfg;
}

/** Run one recorded VM and return (result, trace text). */
jvm::RunResult
recordedRun(std::string &text_out, Ticks *end_out = nullptr)
{
    VmHarness h(4, smallHeapConfig());
    std::ostringstream os;
    telemetry::Timeline tl(os);
    profile::ThreadStateLedger ledger;
    ledger.attach(h.vm);
    telemetry::TelemetryRecorder rec(tl);
    rec.attach(h.vm, ledger);
    TinyApp app(busyParams());
    const jvm::RunResult r = h.vm.run(app, 4);
    rec.finish(h.sim.now());
    rec.detach();
    tl.finish();
    if (end_out != nullptr)
        *end_out = h.sim.now();
    text_out = os.str();
    return r;
}

/** FNV-1a 64 digest of @p text. */
std::uint64_t
fnv1a(const std::string &text)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : text) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

/**
 * A hand-built document covering every escape class, the tick edges
 * (0, 999, 1000, 2^64-1), each event kind and both metadata kinds.
 */
std::string
handBuiltTimeline()
{
    using telemetry::targ;
    const Ticks max = std::numeric_limits<Ticks>::max();
    std::ostringstream os;
    {
        telemetry::Timeline tl(os);
        tl.processName(1, "quote \"q\" back\\slash");
        tl.threadName(1, 2, "b\bf\fn\nr\rt\t");
        tl.span(1, 2, "caf\xc3\xa9 \xe2\x9c\x93", "ctl\x01" "a\x1f" "b", 0,
                999,
                {targ("k\"ey", "v\\al\x01" "ue"),
                 targ("zero", std::uint64_t{0})});
        tl.instant(1, 2, "edge", "", 1000, {targ("max", max)});
        tl.span(1, 3, "whole", "span", 0, max);
        tl.instant(1, 3, "last", "sched", max);
        tl.counter(3, "heap", 999,
                   {targ("eden", std::uint64_t{1}), targ("old", max),
                    targ("note\n", "text")});
    }
    return os.str();
}

TEST(Timeline, PinnedBytes)
{
    // The encoder's output is pinned byte for byte: any change to the
    // escaping, number rendering or event layout shows up here.
    const std::string hand = handBuiltTimeline();
    std::string err;
    ASSERT_TRUE(telemetry::validateJson(hand, &err)) << err;
    EXPECT_EQ(hand.size(), 790u);
    EXPECT_EQ(fnv1a(hand), 0x99aec89cf47932eaull);

    std::string recorded;
    recordedRun(recorded);
    EXPECT_EQ(recorded.size(), 1560578u);
    EXPECT_EQ(fnv1a(recorded), 0xb2c2c34d0897f044ull);
}

TEST(Recorder, ProducesStrictlyValidJson)
{
    std::string text;
    recordedRun(text);
    std::string err;
    EXPECT_TRUE(telemetry::validateJson(text, &err)) << err;
}

TEST(Recorder, EmitsCoreThreadAndVmTracks)
{
    std::string text;
    const jvm::RunResult r = recordedRun(text);
    ASSERT_GT(r.gc.minor_count, 0u) << "test app must trigger GC";
    ASSERT_GT(r.locks.contentions, 0u) << "test app must contend";

    const auto evs = eventLines(text);
    std::uint64_t core_names = 0;
    std::uint64_t thread_names = 0;
    std::uint64_t bursts = 0;
    std::uint64_t running = 0;
    std::uint64_t lock_blocked = 0;
    std::uint64_t at_safepoint = 0;
    std::uint64_t gc_phases = 0;
    for (const Ev &e : evs) {
        if (e.has("\"name\":\"thread_name\"") && e.has("\"pid\":1"))
            ++core_names;
        if (e.has("\"name\":\"thread_name\"") && e.has("\"pid\":2"))
            ++thread_names;
        if (e.has("\"cat\":\"burst\""))
            ++bursts;
        if (e.has("\"name\":\"running\""))
            ++running;
        if (e.has("\"name\":\"lock-blocked\""))
            ++lock_blocked;
        if (e.has("\"name\":\"at-safepoint\""))
            ++at_safepoint;
        if (e.has("\"cat\":\"gc-phase\""))
            ++gc_phases;
    }
    EXPECT_GE(core_names, 4u);
    EXPECT_GE(thread_names, 4u);
    EXPECT_GT(bursts, 0u);
    EXPECT_GT(running, 0u);
    EXPECT_GT(lock_blocked, 0u);
    EXPECT_GT(at_safepoint, 0u);
    EXPECT_GT(gc_phases, 0u);
    for (const Ev &e : evs) {
        if (e.has("\"name\":\"lock-blocked\"")) {
            EXPECT_TRUE(e.has("\"monitor\":"))
                << "lock-blocked span without monitor arg: " << e.line;
        }
    }
}

TEST(Recorder, SpanTotalsMatchRunAccounting)
{
    std::string text;
    const jvm::RunResult r = recordedRun(text);
    ASSERT_GT(r.gc_time, 0u);

    std::uint64_t ttsp = 0;
    std::uint64_t phases = 0;
    for (const Ev &e : eventLines(text)) {
        if (e.has("\"cat\":\"safepoint\""))
            ttsp += e.dur;
        if (e.has("\"cat\":\"gc-phase\""))
            phases += e.dur;
    }
    // Integer-exact by construction; 1% is the acceptance ceiling.
    EXPECT_EQ(ttsp, r.gc.total_ttsp);
    EXPECT_EQ(ttsp + phases, r.gc_time);
    EXPECT_NEAR(static_cast<double>(ttsp + phases),
                static_cast<double>(r.gc_time),
                0.01 * static_cast<double>(r.gc_time));
}

TEST(Recorder, ThreadStateSpansTileTheRunWithoutOverlap)
{
    std::string text;
    Ticks end = 0;
    recordedRun(text, &end);

    // Group state spans per tid; check begin/end monotonicity.
    std::map<std::string, std::vector<std::pair<std::uint64_t,
                                                std::uint64_t>>> per_tid;
    for (const Ev &e : eventLines(text)) {
        if (!e.has("\"cat\":\"state\""))
            continue;
        const auto tid_pos = e.line.find("\"tid\":");
        ASSERT_NE(tid_pos, std::string::npos);
        const auto tid_end = e.line.find(',', tid_pos);
        per_tid[e.line.substr(tid_pos, tid_end - tid_pos)].push_back(
            {e.ts, e.ts + e.dur});
    }
    EXPECT_GE(per_tid.size(), 4u);
    for (auto &[tid, spans] : per_tid) {
        std::sort(spans.begin(), spans.end());
        for (std::size_t i = 1; i < spans.size(); ++i) {
            EXPECT_GE(spans[i].first, spans[i - 1].second)
                << "overlapping state spans on " << tid;
        }
        EXPECT_LE(spans.back().second, end);
    }
}

TEST(Recorder, LockAndWaitSpansMatchTheProfilerBuckets)
{
    // Thread 0 parks in the wait set twice; thread 1 notifies it twice.
    // After each notify thread 0 sits in the acquire queue: that part is
    // a lock wait, the park before it is not.
    using jvm::Action;
    test::ScriptApp app(1, [](std::uint32_t idx, const auto &m) {
        std::vector<Action> s;
        for (int round = 0; round < 2; ++round) {
            if (idx == 0) {
                s.push_back(Action::monitorEnter(m[0]));
                s.push_back(Action::monitorWait(m[0]));
                s.push_back(Action::monitorExit(m[0]));
            } else {
                s.push_back(Action::compute(200 * units::US));
                s.push_back(Action::monitorEnter(m[0]));
                s.push_back(Action::monitorNotify(m[0]));
                s.push_back(Action::monitorExit(m[0]));
            }
            s.push_back(Action::taskDone());
        }
        return s;
    });

    VmHarness h(2);
    std::ostringstream os;
    telemetry::Timeline tl(os);
    profile::ThreadStateLedger ledger;
    ledger.attach(h.vm);
    profile::TaskProfiler profiler;
    profiler.attach(h.vm, ledger);
    std::uint64_t tasks = 0;
    Ticks lock = 0;
    Ticks waitset = 0;
    profiler.addTaskSink([&](const jvm::SlowTaskRecord &rec) {
        if (rec.thread != 0)
            return;
        ++tasks;
        lock += rec.buckets[static_cast<std::size_t>(jvm::WaitBucket::Lock)];
        waitset +=
            rec.buckets[static_cast<std::size_t>(jvm::WaitBucket::Waitset)];
    });
    telemetry::TelemetryRecorder rec(tl);
    rec.attach(h.vm, ledger);
    const jvm::RunResult r = h.vm.run(app, 2);
    rec.finish(h.sim.now());
    rec.detach();
    tl.finish();
    profiler.finishRun(h.sim.now());

    ASSERT_EQ(r.locks.waits, 2u);
    ASSERT_EQ(r.locks.notifies, 2u);
    ASSERT_EQ(tasks, 2u) << "both of thread 0's windows must be attributed";
    ASSERT_GT(lock, 0u);
    ASSERT_GT(waitset, 0u);

    Ticks lock_spans = 0;
    Ticks blocked_spans = 0;
    for (const Ev &e : eventLines(os.str())) {
        if (!e.has("\"cat\":\"state\",\"ph\":\"X\",\"pid\":2,\"tid\":0,"))
            continue;
        if (e.has("\"name\":\"lock-blocked\""))
            lock_spans += e.dur;
        else if (e.has("\"name\":\"blocked\""))
            blocked_spans += e.dur;
    }
    EXPECT_EQ(lock_spans, lock);
    EXPECT_EQ(blocked_spans, waitset);
}

TEST(Recorder, IdenticalRunsProduceIdenticalTimelines)
{
    std::string a;
    std::string b;
    recordedRun(a);
    recordedRun(b);
    EXPECT_EQ(a, b);
}

TEST(Sampler, RowCountMatchesRunTimeOverInterval)
{
    VmHarness h(4, smallHeapConfig());
    const Ticks interval = 1 * units::MS;
    telemetry::MetricSampler sampler(h.sim, h.vm, interval);
    sampler.start();
    TinyApp app(busyParams());
    const jvm::RunResult r = h.vm.run(app, 4);

    const auto expected = r.wall_time / interval;
    const auto rows = sampler.samples().size();
    EXPECT_GE(rows + 1, expected);
    EXPECT_LE(rows, expected + 1);
    ASSERT_GT(rows, 2u);

    // Samples are evenly spaced and time-ordered.
    for (std::size_t i = 0; i < rows; ++i)
        EXPECT_EQ(sampler.samples()[i].at, (i + 1) * interval);
    EXPECT_EQ(sampler.summary().running.count(), rows);
}

TEST(Sampler, CsvHasHeaderAndOneLinePerSample)
{
    VmHarness h(2, smallHeapConfig());
    telemetry::MetricSampler sampler(h.sim, h.vm, 500 * units::US);
    sampler.start();
    TinyApp app(busyParams());
    h.vm.run(app, 2);

    std::ostringstream os;
    sampler.writeCsv(os);
    std::istringstream is(os.str());
    std::string line;
    ASSERT_TRUE(std::getline(is, line));
    EXPECT_EQ(line, telemetry::MetricSampler::csvHeader());
    std::size_t rows = 0;
    while (std::getline(is, line)) {
        ++rows;
        EXPECT_EQ(std::count(line.begin(), line.end(), ','), 9)
            << line;
    }
    EXPECT_EQ(rows, sampler.samples().size());
}

TEST(Sampler, ObservesHeapAndSchedulerActivity)
{
    VmHarness h(4, smallHeapConfig());
    telemetry::MetricSampler sampler(h.sim, h.vm, 200 * units::US);
    sampler.start();
    TinyApp app(busyParams());
    h.vm.run(app, 4);

    ASSERT_GT(sampler.samples().size(), 0u);
    EXPECT_GT(sampler.summary().live_bytes.max(), 0.0);
    EXPECT_GT(sampler.summary().running.max(), 0.0);
}

TEST(Sampler, FinishFlushesFinalRowAtRunEnd)
{
    VmHarness h(4, smallHeapConfig());
    const Ticks interval = 1 * units::MS;
    telemetry::MetricSampler sampler(h.sim, h.vm, interval);
    sampler.start();
    TinyApp app(busyParams());
    const jvm::RunResult r = h.vm.run(app, 4);

    // Regression: runs whose length is not a multiple of the interval
    // used to lose everything after the last periodic tick. finish()
    // must append exactly one row at the run's final time.
    const std::size_t periodic = sampler.samples().size();
    ASSERT_GT(periodic, 0u);
    EXPECT_LT(sampler.samples().back().at, r.wall_time);

    sampler.finish(h.sim.now());
    ASSERT_EQ(sampler.samples().size(), periodic + 1);
    EXPECT_EQ(sampler.samples().back().at, r.wall_time);

    // Idempotent: a second finish at the same time adds nothing.
    sampler.finish(h.sim.now());
    EXPECT_EQ(sampler.samples().size(), periodic + 1);

    // The final row lands in the CSV dump.
    std::ostringstream os;
    sampler.writeCsv(os);
    const std::string csv = os.str();
    const std::string last_row = std::to_string(r.wall_time) + ",";
    EXPECT_NE(csv.find("\n" + last_row), std::string::npos);
}

TEST(Sampler, IsAPureObserver)
{
    TinyAppParams p = busyParams();
    jvm::RunResult plain;
    jvm::RunResult sampled;
    {
        VmHarness h(4, smallHeapConfig());
        TinyApp app(p);
        plain = h.vm.run(app, 4);
    }
    {
        VmHarness h(4, smallHeapConfig());
        telemetry::MetricSampler sampler(h.sim, h.vm, 300 * units::US);
        sampler.start();
        TinyApp app(p);
        sampled = h.vm.run(app, 4);
    }
    EXPECT_EQ(plain.wall_time, sampled.wall_time);
    EXPECT_EQ(plain.gc_time, sampled.gc_time);
    EXPECT_EQ(plain.gc.minor_count, sampled.gc.minor_count);
    EXPECT_EQ(plain.locks.contentions, sampled.locks.contentions);
}

} // namespace
