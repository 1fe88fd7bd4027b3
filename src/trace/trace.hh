/**
 * @file
 * Elephant-Tracks-style object tracing.
 *
 * The paper used Elephant Tracks [Ricci et al., ISMM'13] to produce an
 * in-order trace of per-object events from which object lifespans were
 * computed. This module provides the same pipeline for the simulated
 * runtime: an ObjectTracer subscribes to the VM's probe interface and
 * emits an ordered event stream into a TraceSink (in memory or a
 * binary file); a LifespanAnalyzer consumes the stream and produces
 * the allocated-bytes lifespan distributions of Fig. 1c/1d.
 */

#ifndef JSCALE_TRACE_TRACE_HH
#define JSCALE_TRACE_TRACE_HH

#include <cstdint>
#include <iosfwd>
#include <map>
#include <vector>

#include "base/units.hh"
#include "jvm/runtime/listener.hh"
#include "stats/stats.hh"

namespace jscale::trace {

/** Kinds of events in an object trace. */
enum class TraceEventKind : std::uint8_t
{
    Alloc = 1,
    Death = 2,
    GcStart = 3,
    GcEnd = 4,
    ThreadStart = 5,
    ThreadEnd = 6,
};

/** One trace record. Unused fields are zero for a given kind. */
struct TraceEvent
{
    TraceEventKind kind = TraceEventKind::Alloc;
    /** GcKind for GC events (0 = minor, 1 = full). */
    std::uint8_t gc_kind = 0;
    /** Mutator thread index (alloc/death owner; thread events). */
    std::uint32_t thread = 0;
    /** Simulated time of the event. */
    Ticks time = 0;
    /** Object identity (alloc/death). */
    std::uint64_t object = 0;
    /** Object size in bytes (alloc/death). */
    Bytes size = 0;
    /** Allocated-bytes lifespan (death only). */
    Bytes lifespan = 0;
    /** Allocation site (alloc/death). */
    std::uint32_t site = 0;

    bool operator==(const TraceEvent &) const = default;
};

/** Consumer of an ordered event stream. */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;

    /** Append one event; events arrive in simulation order. */
    virtual void append(const TraceEvent &ev) = 0;

    /** Flush any buffered output. */
    virtual void flush() {}
};

/** Keeps the whole trace in memory (tests, small runs). */
class MemoryTraceSink : public TraceSink
{
  public:
    void append(const TraceEvent &ev) override { events_.push_back(ev); }

    const std::vector<TraceEvent> &events() const { return events_; }

  private:
    std::vector<TraceEvent> events_;
};

/**
 * Fixed-width little-endian binary trace writer. Format:
 *   header: magic "JSTR" (4 bytes), version u32
 *   records: kind u8, gc_kind u8, pad u16, thread u32, time u64,
 *            object u64, size u64, lifespan u64, site u32, pad u32
 * (48 bytes per record).
 */
class BinaryTraceWriter : public TraceSink
{
  public:
    static constexpr std::uint32_t kVersion = 1;

    /** Write to @p os; the header is emitted immediately. */
    explicit BinaryTraceWriter(std::ostream &os);

    void append(const TraceEvent &ev) override;
    void flush() override;

    /** Number of records written. */
    std::uint64_t recordCount() const { return records_; }

  private:
    std::ostream &os_;
    std::uint64_t records_ = 0;
};

/** Reader for the BinaryTraceWriter format. */
class BinaryTraceReader
{
  public:
    /** Validates the header; fatal on a foreign stream. */
    explicit BinaryTraceReader(std::istream &is);

    /** Read the next record. @return false at end of stream. */
    bool next(TraceEvent &ev);

  private:
    std::istream &is_;
};

/**
 * The tracing agent: subscribes to the VM probe chain and forwards
 * runtime events into a sink in order, like an in-process Elephant
 * Tracks.
 */
class ObjectTracer : public jvm::RuntimeListener
{
  public:
    explicit ObjectTracer(TraceSink &sink) : sink_(sink) {}

    void onObjectAlloc(const jvm::ObjectRecord &obj, Ticks now) override;
    void onObjectDeath(const jvm::ObjectRecord &obj, Bytes lifespan,
                       Ticks now) override;
    void onGcStart(jvm::GcKind kind, std::uint64_t seq,
                   Ticks now) override;
    void onGcEnd(const jvm::GcEvent &event, Ticks now) override;
    void onThreadStart(jvm::MutatorIndex thread, Ticks now) override;
    void onThreadFinish(jvm::MutatorIndex thread, Ticks now) override;

    std::uint64_t eventsEmitted() const { return emitted_; }

  private:
    TraceSink &sink_;
    std::uint64_t emitted_ = 0;
};

/**
 * Computes lifespan distributions from a trace, reproducing the paper's
 * metric exactly: the lifespan of an object is the number of bytes
 * allocated (by any thread) between its creation and its death.
 */
class LifespanAnalyzer
{
  public:
    /** Feed one event (only Death events matter; others are counted). */
    void feed(const TraceEvent &ev);

    /** Feed a whole in-memory trace. */
    void feedAll(const std::vector<TraceEvent> &events);

    /** Lifespan histogram over all objects. */
    const stats::LogHistogram &histogram() const { return hist_; }

    /** Per-owner-thread lifespan histograms. */
    const std::map<std::uint32_t, stats::LogHistogram> &
    perThread() const
    {
        return per_thread_;
    }

    /** Per-allocation-site lifespan histograms. */
    const std::map<std::uint32_t, stats::LogHistogram> &
    perSite() const
    {
        return per_site_;
    }

    /** Per-site allocated object counts and bytes. */
    struct SiteSummary
    {
        std::uint32_t site = 0;
        std::uint64_t objects = 0;
        Bytes bytes = 0;
        /** Median lifespan of the site's objects. */
        Bytes median_lifespan = 0;
    };

    /** The @p n hottest allocation sites by byte volume, descending. */
    std::vector<SiteSummary> topSites(std::size_t n) const;

    /** Fraction of objects with lifespan < each threshold. */
    std::vector<double>
    cdf(const std::vector<std::uint64_t> &thresholds) const
    {
        return hist_.cdf(thresholds);
    }

    std::uint64_t deaths() const { return deaths_; }
    std::uint64_t allocs() const { return allocs_; }

  private:
    struct SiteCounts
    {
        std::uint64_t objects = 0;
        Bytes bytes = 0;
    };

    stats::LogHistogram hist_;
    std::map<std::uint32_t, stats::LogHistogram> per_thread_;
    std::map<std::uint32_t, stats::LogHistogram> per_site_;
    std::map<std::uint32_t, SiteCounts> site_counts_;
    std::uint64_t deaths_ = 0;
    std::uint64_t allocs_ = 0;
};

/** Thresholds used by the paper-style lifespan tables (64 B .. 16 MiB). */
std::vector<std::uint64_t> paperLifespanThresholds();

} // namespace jscale::trace

#endif // JSCALE_TRACE_TRACE_HH
