/**
 * @file
 * Timeline: a streaming Chrome trace-event JSON writer.
 *
 * Produces the "JSON Array Format" understood by Perfetto and
 * chrome://tracing: one object per event with pid/tid (track), phase
 * ("X" complete span, "i" instant, "C" counter, "M" metadata), a
 * microsecond timestamp and optional args. Events are written as they
 * are recorded, so memory stays O(1) in trace length; Perfetto sorts by
 * timestamp at load time, so emission order does not matter.
 *
 * Timestamps are rendered from integer nanosecond Ticks as exact
 * "<us>.<ns>" decimals — no double rounding — so span totals in the
 * JSON match the simulator's tick accounting.
 *
 * Each event is appended in place to one reusable buffer (integers via
 * std::to_chars, strings escaped straight into it), which is written
 * to the stream in chunks of at least 64 KiB: no event builds a string
 * of its own. Names, categories and arguments are views that need only
 * live for the call that passes them.
 */

#ifndef JSCALE_TELEMETRY_TIMELINE_HH
#define JSCALE_TELEMETRY_TIMELINE_HH

#include <cstdint>
#include <initializer_list>
#include <ostream>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "base/units.hh"

namespace jscale::telemetry {

/** Escape a string for embedding inside a JSON string literal. */
std::string jsonEscape(std::string_view s);

/**
 * One key/value argument attached to a trace event: a text (quoted and
 * escaped) or an unsigned number (rendered bare). It holds views, so
 * what it names must outlive the Timeline call it is passed to.
 */
struct TraceArg
{
    std::string_view key;
    std::string_view text;
    std::uint64_t number = 0;
    bool numeric = false;
};

/** Text argument. */
inline TraceArg
targ(std::string_view key, std::string_view text)
{
    return {key, text, 0, false};
}

/** Numeric argument. */
inline TraceArg
targ(std::string_view key, std::uint64_t number)
{
    return {key, {}, number, true};
}

/** An argument list built at run time (its views as for TraceArg). */
using TraceArgs = std::vector<TraceArg>;

/**
 * The streaming writer. Construct over an output stream, record events,
 * then call finish() (the destructor finishes implicitly). Not
 * thread-safe; the simulator is single-threaded by design.
 */
class Timeline
{
  public:
    using Args = std::span<const TraceArg>;

    explicit Timeline(std::ostream &os);
    ~Timeline();

    Timeline(const Timeline &) = delete;
    Timeline &operator=(const Timeline &) = delete;

    /** Name the track group @p pid ("process_name" metadata). */
    void processName(std::uint32_t pid, std::string_view name);

    /** Name track @p tid within @p pid ("thread_name" metadata). */
    void threadName(std::uint32_t pid, std::uint32_t tid,
                    std::string_view name);

    /** Complete span [begin, end] on track (pid, tid). */
    void span(std::uint32_t pid, std::uint32_t tid, std::string_view name,
              std::string_view cat, Ticks begin, Ticks end,
              Args args = {});
    void
    span(std::uint32_t pid, std::uint32_t tid, std::string_view name,
         std::string_view cat, Ticks begin, Ticks end,
         std::initializer_list<TraceArg> args)
    {
        span(pid, tid, name, cat, begin, end, Args(args));
    }

    /** Instant event at @p at on track (pid, tid). */
    void instant(std::uint32_t pid, std::uint32_t tid,
                 std::string_view name, std::string_view cat, Ticks at,
                 Args args = {});
    void
    instant(std::uint32_t pid, std::uint32_t tid, std::string_view name,
            std::string_view cat, Ticks at,
            std::initializer_list<TraceArg> args)
    {
        instant(pid, tid, name, cat, at, Args(args));
    }

    /**
     * Counter event: every numeric arg becomes one series on the
     * counter track @p name of process @p pid.
     */
    void counter(std::uint32_t pid, std::string_view name, Ticks at,
                 Args args);
    void
    counter(std::uint32_t pid, std::string_view name, Ticks at,
            std::initializer_list<TraceArg> args)
    {
        counter(pid, name, at, Args(args));
    }

    /** Terminate the JSON document; further events are rejected. */
    void finish();

    /** Total events written so far (including metadata). */
    std::uint64_t events() const { return events_; }

  private:
    /** The buffer goes to the stream once it holds this many bytes. */
    static constexpr std::size_t kFlushBytes = 64 * 1024;

    void metadata(std::string_view kind, std::uint32_t pid,
                  std::uint32_t tid, std::string_view name);
    void beginEvent(std::string_view name, std::string_view cat, char ph,
                    std::uint32_t pid, std::uint32_t tid, Ticks ts);
    void writeArgs(Args args);
    void endEvent();
    void flush();

    std::ostream &os_;
    /** Encoded events not yet written: under kFlushBytes plus one. */
    std::string buf_;
    std::uint64_t events_ = 0;
    bool finished_ = false;
};

} // namespace jscale::telemetry

#endif // JSCALE_TELEMETRY_TIMELINE_HH
