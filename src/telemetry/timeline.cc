#include "telemetry/timeline.hh"

#include <algorithm>
#include <charconv>

#include "base/logging.hh"

namespace jscale::telemetry {

namespace {

bool
needsEscape(char c)
{
    return c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20;
}

/** Append @p s escaped: each clean run goes in with one call. */
void
appendEscaped(std::string &out, std::string_view s)
{
    for (;;) {
        const auto bad = std::find_if(s.begin(), s.end(), needsEscape);
        const auto clean = static_cast<std::size_t>(bad - s.begin());
        out.append(s.data(), clean);
        if (bad == s.end())
            return;
        switch (*bad) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default: {
            static constexpr char kHex[] = "0123456789abcdef";
            const auto u = static_cast<unsigned char>(*bad);
            const char esc[] = {'\\', 'u', '0', '0', kHex[u >> 4],
                                kHex[u & 0xf]};
            out.append(esc, sizeof(esc));
          }
        }
        s.remove_prefix(clean + 1);
    }
}

void
appendQuoted(std::string &out, std::string_view s)
{
    out += '"';
    appendEscaped(out, s);
    out += '"';
}

void
appendUint(std::string &out, std::uint64_t v)
{
    char digits[20];
    const auto end = std::to_chars(digits, digits + sizeof(digits), v).ptr;
    out.append(digits, end);
}

/** Append nanosecond Ticks as exact microseconds ("12.345"). */
void
appendMicros(std::string &out, Ticks ns)
{
    appendUint(out, ns / 1000);
    const auto frac = static_cast<unsigned>(ns % 1000);
    const char tail[] = {'.', static_cast<char>('0' + frac / 100),
                         static_cast<char>('0' + frac / 10 % 10),
                         static_cast<char>('0' + frac % 10)};
    out.append(tail, sizeof(tail));
}

} // namespace

std::string
jsonEscape(std::string_view s)
{
    std::string out;
    appendEscaped(out, s);
    return out;
}

Timeline::Timeline(std::ostream &os) : os_(os)
{
    buf_.reserve(2 * kFlushBytes);
    buf_ += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
}

Timeline::~Timeline()
{
    finish();
}

void
Timeline::beginEvent(std::string_view name, std::string_view cat, char ph,
                     std::uint32_t pid, std::uint32_t tid, Ticks ts)
{
    jscale_assert(!finished_, "event recorded after Timeline::finish");
    if (events_ > 0)
        buf_ += ',';
    buf_ += "\n{\"name\":";
    appendQuoted(buf_, name);
    if (!cat.empty()) {
        buf_ += ",\"cat\":";
        appendQuoted(buf_, cat);
    }
    buf_ += ",\"ph\":\"";
    buf_ += ph;
    buf_ += "\",\"pid\":";
    appendUint(buf_, pid);
    buf_ += ",\"tid\":";
    appendUint(buf_, tid);
    buf_ += ",\"ts\":";
    appendMicros(buf_, ts);
    ++events_;
}

void
Timeline::writeArgs(Args args)
{
    if (args.empty())
        return;
    buf_ += ",\"args\":{";
    for (const TraceArg &a : args) {
        if (&a != args.data())
            buf_ += ',';
        appendQuoted(buf_, a.key);
        buf_ += ':';
        if (a.numeric)
            appendUint(buf_, a.number);
        else
            appendQuoted(buf_, a.text);
    }
    buf_ += '}';
}

void
Timeline::endEvent()
{
    buf_ += '}';
    if (buf_.size() >= kFlushBytes)
        flush();
}

void
Timeline::flush()
{
    os_.write(buf_.data(), static_cast<std::streamsize>(buf_.size()));
    buf_.clear();
}

void
Timeline::metadata(std::string_view kind, std::uint32_t pid,
                   std::uint32_t tid, std::string_view name)
{
    beginEvent(kind, "", 'M', pid, tid, 0);
    const TraceArg arg = targ("name", name);
    writeArgs({&arg, 1});
    endEvent();
}

void
Timeline::processName(std::uint32_t pid, std::string_view name)
{
    metadata("process_name", pid, 0, name);
}

void
Timeline::threadName(std::uint32_t pid, std::uint32_t tid,
                     std::string_view name)
{
    metadata("thread_name", pid, tid, name);
}

void
Timeline::span(std::uint32_t pid, std::uint32_t tid, std::string_view name,
               std::string_view cat, Ticks begin, Ticks end, Args args)
{
    jscale_assert(end >= begin, "span '", name, "' ends before it begins");
    beginEvent(name, cat, 'X', pid, tid, begin);
    buf_ += ",\"dur\":";
    appendMicros(buf_, end - begin);
    writeArgs(args);
    endEvent();
}

void
Timeline::instant(std::uint32_t pid, std::uint32_t tid,
                  std::string_view name, std::string_view cat, Ticks at,
                  Args args)
{
    beginEvent(name, cat, 'i', pid, tid, at);
    buf_ += ",\"s\":\"t\""; // thread-scoped instant
    writeArgs(args);
    endEvent();
}

void
Timeline::counter(std::uint32_t pid, std::string_view name, Ticks at,
                  Args args)
{
    beginEvent(name, "metrics", 'C', pid, 0, at);
    writeArgs(args);
    endEvent();
}

void
Timeline::finish()
{
    if (finished_)
        return;
    finished_ = true;
    buf_ += "\n]}\n";
    flush();
    os_.flush();
}

} // namespace jscale::telemetry
