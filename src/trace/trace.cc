#include "trace/trace.hh"

#include <algorithm>
#include <array>
#include <cstring>
#include <istream>
#include <ostream>

#include "base/logging.hh"

namespace jscale::trace {

namespace {

constexpr std::size_t kRecordSize = 48;
constexpr char kMagic[4] = {'J', 'S', 'T', 'R'};

void
putU16(unsigned char *p, std::uint16_t v)
{
    p[0] = static_cast<unsigned char>(v);
    p[1] = static_cast<unsigned char>(v >> 8);
}

void
putU32(unsigned char *p, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        p[i] = static_cast<unsigned char>(v >> (8 * i));
}

void
putU64(unsigned char *p, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        p[i] = static_cast<unsigned char>(v >> (8 * i));
}

std::uint32_t
getU32(const unsigned char *p)
{
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
    return v;
}

std::uint64_t
getU64(const unsigned char *p)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    return v;
}

} // namespace

BinaryTraceWriter::BinaryTraceWriter(std::ostream &os)
    : os_(os)
{
    unsigned char header[8];
    std::memcpy(header, kMagic, 4);
    putU32(header + 4, kVersion);
    os_.write(reinterpret_cast<const char *>(header), sizeof(header));
}

void
BinaryTraceWriter::append(const TraceEvent &ev)
{
    unsigned char rec[kRecordSize];
    rec[0] = static_cast<unsigned char>(ev.kind);
    rec[1] = ev.gc_kind;
    putU16(rec + 2, 0);
    putU32(rec + 4, ev.thread);
    putU64(rec + 8, ev.time);
    putU64(rec + 16, ev.object);
    putU64(rec + 24, ev.size);
    putU64(rec + 32, ev.lifespan);
    putU32(rec + 40, ev.site);
    putU32(rec + 44, 0);
    os_.write(reinterpret_cast<const char *>(rec), sizeof(rec));
    ++records_;
}

void
BinaryTraceWriter::flush()
{
    os_.flush();
}

BinaryTraceReader::BinaryTraceReader(std::istream &is)
    : is_(is)
{
    unsigned char header[8];
    is_.read(reinterpret_cast<char *>(header), sizeof(header));
    if (!is_ || std::memcmp(header, kMagic, 4) != 0) {
        jscale_fatal("not a jscale trace stream (bad magic)");
    }
    const std::uint32_t version = getU32(header + 4);
    if (version != BinaryTraceWriter::kVersion) {
        jscale_fatal("unsupported trace version ", version);
    }
}

bool
BinaryTraceReader::next(TraceEvent &ev)
{
    unsigned char rec[kRecordSize];
    is_.read(reinterpret_cast<char *>(rec), sizeof(rec));
    if (is_.gcount() == 0)
        return false;
    if (is_.gcount() != static_cast<std::streamsize>(sizeof(rec))) {
        jscale_fatal("truncated trace record");
    }
    ev.kind = static_cast<TraceEventKind>(rec[0]);
    ev.gc_kind = rec[1];
    ev.thread = getU32(rec + 4);
    ev.time = getU64(rec + 8);
    ev.object = getU64(rec + 16);
    ev.size = getU64(rec + 24);
    ev.lifespan = getU64(rec + 32);
    ev.site = getU32(rec + 40);
    return true;
}

void
ObjectTracer::onObjectAlloc(const jvm::ObjectRecord &obj, Ticks now)
{
    TraceEvent ev;
    ev.kind = TraceEventKind::Alloc;
    ev.thread = obj.owner;
    ev.time = now;
    ev.object = obj.id;
    ev.size = obj.size;
    ev.site = obj.site;
    sink_.append(ev);
    ++emitted_;
}

void
ObjectTracer::onObjectDeath(const jvm::ObjectRecord &obj, Bytes lifespan,
                            Ticks now)
{
    TraceEvent ev;
    ev.kind = TraceEventKind::Death;
    ev.thread = obj.owner;
    ev.time = now;
    ev.object = obj.id;
    ev.size = obj.size;
    ev.lifespan = lifespan;
    ev.site = obj.site;
    sink_.append(ev);
    ++emitted_;
}

void
ObjectTracer::onGcStart(jvm::GcKind kind, std::uint64_t seq, Ticks now)
{
    (void)seq;
    TraceEvent ev;
    ev.kind = TraceEventKind::GcStart;
    ev.gc_kind = static_cast<std::uint8_t>(kind);
    ev.time = now;
    sink_.append(ev);
    ++emitted_;
}

void
ObjectTracer::onGcEnd(const jvm::GcEvent &event, Ticks now)
{
    TraceEvent ev;
    ev.kind = TraceEventKind::GcEnd;
    ev.gc_kind = static_cast<std::uint8_t>(event.kind);
    ev.time = now;
    sink_.append(ev);
    ++emitted_;
}

void
ObjectTracer::onThreadStart(jvm::MutatorIndex thread, Ticks now)
{
    TraceEvent ev;
    ev.kind = TraceEventKind::ThreadStart;
    ev.thread = thread;
    ev.time = now;
    sink_.append(ev);
    ++emitted_;
}

void
ObjectTracer::onThreadFinish(jvm::MutatorIndex thread, Ticks now)
{
    TraceEvent ev;
    ev.kind = TraceEventKind::ThreadEnd;
    ev.thread = thread;
    ev.time = now;
    sink_.append(ev);
    ++emitted_;
}

void
LifespanAnalyzer::feed(const TraceEvent &ev)
{
    switch (ev.kind) {
      case TraceEventKind::Alloc: {
        ++allocs_;
        auto &sc = site_counts_[ev.site];
        ++sc.objects;
        sc.bytes += ev.size;
        break;
      }
      case TraceEventKind::Death:
        ++deaths_;
        hist_.add(ev.lifespan);
        per_thread_[ev.thread].add(ev.lifespan);
        per_site_[ev.site].add(ev.lifespan);
        break;
      default:
        break;
    }
}

std::vector<LifespanAnalyzer::SiteSummary>
LifespanAnalyzer::topSites(std::size_t n) const
{
    std::vector<SiteSummary> sites;
    sites.reserve(site_counts_.size());
    for (const auto &[site, counts] : site_counts_) {
        SiteSummary s;
        s.site = site;
        s.objects = counts.objects;
        s.bytes = counts.bytes;
        const auto it = per_site_.find(site);
        if (it != per_site_.end())
            s.median_lifespan = it->second.percentile(0.5);
        sites.push_back(s);
    }
    std::sort(sites.begin(), sites.end(),
              [](const SiteSummary &a, const SiteSummary &b) {
                  if (a.bytes != b.bytes)
                      return a.bytes > b.bytes;
                  return a.site < b.site;
              });
    if (sites.size() > n)
        sites.resize(n);
    return sites;
}

void
LifespanAnalyzer::feedAll(const std::vector<TraceEvent> &events)
{
    for (const auto &ev : events)
        feed(ev);
}

std::vector<std::uint64_t>
paperLifespanThresholds()
{
    return {64,
            256,
            1 * units::KiB,
            4 * units::KiB,
            16 * units::KiB,
            64 * units::KiB,
            256 * units::KiB,
            1 * units::MiB,
            16 * units::MiB};
}

} // namespace jscale::trace
