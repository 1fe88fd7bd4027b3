#include "core/run_record.hh"

#include <charconv>
#include <cstdio>
#include <istream>
#include <limits>
#include <ostream>
#include <string_view>
#include <type_traits>

#include "base/units.hh"

namespace jscale::core {

namespace {

constexpr const char *kHeader = "jscale-run v1";

/**
 * Upper bound on any element count a record declares (threads, GC
 * events, slow-task rows, monitor waits, artifact errors). Real runs
 * stay orders of magnitude below it; a larger count is corruption, and
 * the reader rejects it before allocating or looping on it.
 */
constexpr std::uint64_t kMaxCount = 1ULL << 20;

/** Lossless double rendering: C hexfloat (inf/nan print as names). */
std::string
fmtDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%a", v);
    return buf;
}

/** Read a fmtDouble() spelling back exactly: "[-]0x<hex>p<exp>", or
 *  inf/nan. */
bool
readHexfloat(const std::string &text, double &v)
{
    const std::size_t sign = text.rfind('-', 0) == 0 ? 1 : 0;
    if (text.compare(sign, 2, "0x") != 0)
        return parseNumber(text, v);
    const std::string digits = text.substr(sign + 2);
    if (digits.rfind('-', 0) == 0 ||
        !parseNumber(digits, v, std::chars_format::hex))
        return false;
    v = sign != 0 ? -v : v;
    return true;
}

/** Largest value an unsigned (or enum-of-unsigned) field can hold. */
template <class T>
constexpr std::uint64_t
maxOf()
{
    if constexpr (std::is_enum_v<T>)
        return std::numeric_limits<std::underlying_type_t<T>>::max();
    else
        return std::numeric_limits<T>::max();
}

/**
 * The record's field list, declared once. Writer and Reader are its two
 * visitors: each method takes a const field when writing and a mutable
 * one when reading, so both directions walk the same list in the same
 * order. Field names double as a structural checksum: any skew fails
 * the parse instead of mis-assigning values.
 */
template <class V, class R>
void
visitRunResult(V &v, R &r)
{
    v.s("app_name", r.app_name);
    v.u("threads", r.threads);
    v.u("cores", r.cores);
    v.u("heap_capacity", r.heap_capacity);
    v.u("wall_time", r.wall_time);
    v.u("gc_time", r.gc_time);

    auto &gc = r.gc;
    v.u("gc.minor_count", gc.minor_count);
    v.u("gc.full_count", gc.full_count);
    v.u("gc.local_count", gc.local_count);
    v.u("gc.concurrent_cycles", gc.concurrent_cycles);
    v.u("gc.concurrent_failures", gc.concurrent_failures);
    v.u("gc.remark_count", gc.remark_count);
    v.u("gc.local_pause", gc.local_pause);
    v.u("gc.total_pause", gc.total_pause);
    v.u("gc.total_ttsp", gc.total_ttsp);
    v.u("gc.copied_bytes", gc.copied_bytes);
    v.u("gc.promoted_bytes", gc.promoted_bytes);
    v.u("gc.reclaimed_bytes", gc.reclaimed_bytes);
    v.sample("gc.minor_pauses", gc.minor_pauses);
    v.sample("gc.full_pauses", gc.full_pauses);
    v.logHist("gc.pause_hist", gc.pause_hist);
    v.sample("gc.nursery_survival", gc.nursery_survival);
    v.u("gc.adaptive.grows", gc.adaptive.grows);
    v.u("gc.adaptive.shrinks", gc.adaptive.shrinks);
    v.d("gc.adaptive.final_young_fraction",
        gc.adaptive.final_young_fraction);
    v.u("gc.young_resizes", gc.young_resizes);
    // Only the event count is observable after a run (snapshots and
    // reports never read individual events), so the count suffices for
    // byte-identical rendering.
    v.size("gc.events", gc.events);

    auto &heap = r.heap;
    v.u("heap.objects_allocated", heap.objects_allocated);
    v.u("heap.objects_died", heap.objects_died);
    v.u("heap.bytes_allocated", heap.bytes_allocated);
    v.u("heap.bytes_died", heap.bytes_died);
    v.u("heap.peak_live_bytes", heap.peak_live_bytes);
    v.u("heap.tlab_refills", heap.tlab_refills);
    v.u("heap.tlab_waste", heap.tlab_waste);
    v.logHist("heap.lifespan", heap.lifespan);

    auto &locks = r.locks;
    v.u("locks.acquisitions", locks.acquisitions);
    v.u("locks.contentions", locks.contentions);
    v.u("locks.block_time", locks.block_time);
    v.u("locks.monitors", locks.monitors);
    v.u("locks.biased_acquisitions", locks.biased_acquisitions);
    v.u("locks.thin_acquisitions", locks.thin_acquisitions);
    v.u("locks.fat_acquisitions", locks.fat_acquisitions);
    v.u("locks.bias_revocations", locks.bias_revocations);
    v.u("locks.inflations", locks.inflations);
    v.u("locks.waits", locks.waits);
    v.u("locks.notifies", locks.notifies);
    v.u("locks.handoffs", locks.handoffs);
    v.u("locks.barged_grants", locks.barged_grants);
    v.u("locks.waiters_passivated", locks.waiters_passivated);
    v.u("locks.waiters_reactivated", locks.waiters_reactivated);
    v.u("locks.coherence_penalty", locks.coherence_penalty);
    v.u("locks.circulation_sum", locks.circulation_sum);
    v.latHist("locks.block_hist", locks.block_hist);

    v.seq("threads.count", r.thread_summaries, [](V &v, auto &t) {
        v.s("t.name", t.name);
        v.u("t.kind", t.kind);
        v.u("t.cpu_time", t.cpu_time);
        v.u("t.ready_time", t.ready_time);
        v.u("t.blocked_time", t.blocked_time);
        v.u("t.sleep_time", t.sleep_time);
        v.u("t.dispatches", t.dispatches);
        v.u("t.migrations", t.migrations);
        v.u("t.tasks_completed", t.tasks_completed);
        v.u("t.allocations", t.allocations);
        v.u("t.bytes_allocated", t.bytes_allocated);
    });

    auto &sc = r.sched;
    v.u("sched.dispatches", sc.dispatches);
    v.u("sched.context_switches", sc.context_switches);
    v.u("sched.migrations", sc.migrations);
    v.u("sched.steals", sc.steals);
    v.u("sched.preemptions", sc.preemptions);
    v.u("sched.admission_parks", sc.admission_parks);
    v.u("sched.admission_unparks", sc.admission_unparks);
    v.u("sched.core_offlines", sc.core_offlines);
    v.u("sched.core_onlines", sc.core_onlines);
    v.u("sched.displaced_threads", sc.displaced_threads);
    v.u("sched.forced_preemptions", sc.forced_preemptions);
    v.u("sched.forced_stalls", sc.forced_stalls);
    v.u("sched.busy_ticks", sc.busy_ticks);
    v.u("sched.overhead_ticks", sc.overhead_ticks);

    auto &gov = r.governor;
    v.u("gov.enabled", gov.enabled);
    v.s("gov.policy", gov.policy);
    v.u("gov.final_target", gov.final_target);
    v.u("gov.min_target", gov.min_target);
    v.u("gov.max_target", gov.max_target);
    v.u("gov.decisions", gov.decisions);
    v.u("gov.parks", gov.parks);
    v.u("gov.unparks", gov.unparks);
    v.d("gov.usl_sigma", gov.usl_sigma);
    v.d("gov.usl_kappa", gov.usl_kappa);
    v.d("gov.usl_nstar", gov.usl_nstar);

    auto &f = r.faults;
    v.u("faults.injections", f.injections);
    v.u("faults.recoveries", f.recoveries);
    v.u("faults.cores_offlined", f.cores_offlined);
    v.u("faults.cores_onlined", f.cores_onlined);
    v.u("faults.slowdowns", f.slowdowns);
    v.u("faults.preempt_bursts", f.preempt_bursts);
    v.u("faults.lock_holders_preempted", f.lock_holders_preempted);
    v.u("faults.mutators_killed", f.mutators_killed);
    v.u("faults.mutators_stalled", f.mutators_stalled);
    v.u("faults.heap_spikes", f.heap_spikes);
    v.u("faults.gc_worker_losses", f.gc_worker_losses);
    v.u("faults.tasks_reassigned", f.tasks_reassigned);

    auto &p = r.profile;
    v.u("profile.enabled", p.enabled);
    v.u("profile.tasks", p.tasks);
    v.u("profile.tasks_discarded", p.tasks_discarded);
    v.buckets("profile.bucket_total", p.bucket_total);
    v.latHist("profile.latency", p.latency);
    for (auto &h : p.bucket_hist)
        v.latHist("profile.bucket_hist", h);
    v.seq("profile.slowest", p.slowest, [](V &v, auto &slow) {
        v.row({"sl"}, slow.task, slow.thread, slow.start, slow.end,
              slow.buckets);
    });
    v.seq("profile.lock_waits", p.lock_waits, [](V &v, auto &mw) {
        v.row({"mw"}, mw.monitor, mw.wait, mw.blocks);
    });

    auto &tr = r.traffic;
    v.u("traffic.enabled", tr.enabled);
    v.u("traffic.tenant", tr.tenant);
    v.s("traffic.arrival_spec", tr.arrival_spec);
    v.u("traffic.arrivals", tr.arrivals);
    v.u("traffic.admitted", tr.admitted);
    v.u("traffic.shed", tr.shed);
    v.u("traffic.dispatched", tr.dispatched);
    v.u("traffic.completed", tr.completed);
    v.u("traffic.max_queue_depth", tr.max_queue_depth);
    v.latHist("traffic.sojourn", tr.sojourn);
    v.latHist("traffic.queueing", tr.queueing);
    v.latHist("traffic.service", tr.service);
    v.buckets("traffic.service_bucket_total", tr.service_bucket_total);

    v.u("total_tasks", r.total_tasks);
    v.u("sim_events", r.sim_events);
    v.s("timeline_file", r.timeline_file);
    v.s("metrics_file", r.metrics_file);
    v.u("timeline_events", r.timeline_events);
    v.u("metric_rows", r.metric_rows);
    v.seq("artifact_errors", r.artifact_errors,
          [](V &v, auto &e) { v.s("ae", e); });
    v.s("run_error", r.run_error);
    v.u("skipped", r.skipped);
}

/** The start of one line: a type tag, then the field name if any. */
struct Head
{
    const char *tag;
    const char *name = nullptr;

    std::string str() const
    {
        return name ? std::string(tag) + ' ' + name : std::string(tag);
    }
};

/** Strip @p h from the front of @p s; false when @p s starts otherwise. */
bool
consumeHead(std::string_view &s, const Head &h)
{
    const auto take = [&s](std::string_view prefix) {
        if (!s.starts_with(prefix))
            return false;
        s.remove_prefix(prefix.size());
        return true;
    };
    return take(h.tag) && (!h.name || (take(" ") && take(h.name)));
}

/** The writing visitor: one text line per field. */
class Writer
{
  public:
    explicit Writer(std::ostream &os) : os_(os) {}

    template <class T>
    void u(const char *name, const T &v)
    {
        row({"u", name}, static_cast<std::uint64_t>(v));
    }

    void d(const char *name, double v) { row({"d", name}, v); }

    void s(const char *name, const std::string &v)
    {
        os_ << "s " << name << ' ' << escapeLine(v) << '\n';
    }

    void sample(const char *name, const stats::SampleStats &v)
    {
        row({"ss", name}, v.count(), v.sum(), v.welfordMean(), v.m2(),
            v.min(), v.max());
    }

    void logHist(const char *name, const stats::LogHistogram &h)
    {
        row({"lh", name}, nonzero(h));
        bucketRows("lb", h);
    }

    void latHist(const char *name, const stats::LatencyHistogram &h)
    {
        row({"ah", name}, nonzero(h), h.count(), h.sum(), h.min(),
            h.max());
        bucketRows("ab", h);
    }

    void buckets(const char *name,
                 const Ticks (&b)[jvm::kWaitBucketCount])
    {
        row({"bk", name}, b);
    }

    /** "<head> <value>..." (arrays expand in place). */
    template <class... F>
    void row(const Head &h, const F &...fields)
    {
        os_ << h.tag;
        if (h.name)
            os_ << ' ' << h.name;
        (put(fields), ...);
        os_ << '\n';
    }

    /** Only the size of @p items is recorded. */
    template <class Seq>
    void size(const char *name, const Seq &items)
    {
        u(name, items.size());
    }

    /** A count line, then each element's fields via @p each. */
    template <class Seq, class Each>
    void seq(const char *name, const Seq &items, Each each)
    {
        u(name, items.size());
        for (const auto &item : items)
            each(*this, item);
    }

  private:
    template <class H>
    static std::uint64_t nonzero(const H &h)
    {
        std::uint64_t n = 0;
        for (std::size_t i = 0; i < H::kBuckets; ++i)
            n += h.bucket(i) != 0;
        return n;
    }

    template <class H>
    void bucketRows(const char *tag, const H &h)
    {
        for (std::size_t i = 0; i < H::kBuckets; ++i) {
            if (h.bucket(i) != 0)
                row({tag}, i, h.bucket(i));
        }
    }

    template <class T>
    void put(const T &v)
    {
        if constexpr (std::is_array_v<T>) {
            for (const auto &x : v)
                put(x);
        } else if constexpr (std::is_floating_point_v<T>) {
            os_ << ' ' << fmtDouble(v);
        } else {
            os_ << ' ' << static_cast<std::uint64_t>(v);
        }
    }

    std::ostream &os_;
};

/**
 * The reading visitor. The first malformed, out-of-order or
 * out-of-range field latches an error; later calls become no-ops, so
 * the field list needs a single error check at the end. Never throws.
 */
class Reader
{
  public:
    explicit Reader(std::istream &is) : is_(is) {}

    bool ok() const { return err_.empty(); }
    const std::string &error() const { return err_; }

    /** Read one raw line; false at EOF (latches an error). */
    bool line(std::string &out)
    {
        if (!ok())
            return false;
        if (!std::getline(is_, out)) {
            fail("unexpected end of record");
            return false;
        }
        return true;
    }

    /** True when the last line read ended in a newline. */
    bool terminated() const { return !is_.eof(); }

    template <class T>
    void u(const char *name, T &v)
    {
        row({"u", name}, v);
    }

    void d(const char *name, double &v) { row({"d", name}, v); }

    void s(const char *name, std::string &v)
    {
        std::string ln;
        if (!line(ln))
            return;
        // A string line with an empty value may lack the trailing space.
        std::string_view rest(ln);
        if (!consumeHead(rest, {"s", name}) ||
            !(rest.empty() || rest.front() == ' '))
            fail("expected 's " + std::string(name) + "', got '" + ln +
                 "'");
        else
            v = unescapeLine(std::string(rest.substr(rest.empty() ? 0 : 1)));
    }

    void sample(const char *name, stats::SampleStats &v)
    {
        std::uint64_t count = 0;
        double sum = 0, mean = 0, m2 = 0, mn = 0, mx = 0;
        row({"ss", name}, count, sum, mean, m2, mn, mx);
        if (ok())
            v = stats::SampleStats::restore(count, sum, mean, m2, mn, mx);
    }

    void logHist(const char *name, stats::LogHistogram &h)
    {
        std::uint64_t nonzero = 0;
        row({"lh", name}, nonzero);
        // Re-add at each bucket's lower edge: exact reconstruction,
        // since bucketing only keeps the index anyway.
        bucketRows<stats::LogHistogram>(
            "lb", nonzero, [&h](std::uint64_t i, std::uint64_t w) {
                h.add(i == 0 ? 0 : (1ULL << (i - 1)), w);
            });
    }

    void latHist(const char *name, stats::LatencyHistogram &h)
    {
        std::uint64_t nonzero = 0, count = 0, sum = 0, mn = 0, mx = 0;
        row({"ah", name}, nonzero, count, sum, mn, mx);
        std::uint64_t restored = 0;
        bucketRows<stats::LatencyHistogram>(
            "ab", nonzero, [&h, &restored](std::uint64_t i, std::uint64_t w) {
                h.restoreBucket(static_cast<std::size_t>(i), w);
                restored += w;
            });
        if (ok() && restored != count)
            fail(std::string("histogram weight mismatch in '") + name +
                 "'");
        if (ok() && count > 0)
            h.restoreAggregates(sum, mn, mx);
    }

    void buckets(const char *name, Ticks (&b)[jvm::kWaitBucketCount])
    {
        row({"bk", name}, b);
    }

    /** Parse "<head> <value>..." into @p fields, nothing left over. */
    template <class... F>
    void row(const Head &h, F &...fields)
    {
        std::string ln;
        if (!line(ln))
            return;
        std::string_view rest(ln);
        if (!consumeHead(rest, h)) {
            fail("expected '" + h.str() + "', got '" + ln + "'");
            return;
        }
        const char *p = rest.data();
        if (!(get(p, fields) && ...) || p != ln.c_str() + ln.size())
            fail("malformed or out-of-range value in '" + h.str() + "'");
    }

    template <class Seq>
    void size(const char *name, Seq &items)
    {
        const std::uint64_t n = count(name);
        if (ok())
            items.resize(static_cast<std::size_t>(n));
    }

    template <class Seq, class Each>
    void seq(const char *name, Seq &items, Each each)
    {
        const std::uint64_t n = count(name);
        for (std::uint64_t i = 0; ok() && i < n; ++i) {
            typename Seq::value_type item{};
            each(*this, item);
            items.push_back(std::move(item));
        }
    }

    void fail(const std::string &msg)
    {
        if (err_.empty())
            err_ = msg;
    }

  private:
    /** A declared element count, rejected when implausibly large. */
    std::uint64_t count(const char *name)
    {
        std::uint64_t n = 0;
        u(name, n);
        if (ok() && n > kMaxCount) {
            fail(std::string("implausible count ") + std::to_string(n) +
                 " in '" + name + "'");
            return 0;
        }
        return n;
    }

    /** @p nonzero "<tag> <index> <weight>" rows of a histogram H. */
    template <class H, class Add>
    void bucketRows(const char *tag, std::uint64_t nonzero, Add add)
    {
        if (ok() && nonzero > H::kBuckets)
            fail(std::string("implausible '") + tag + "' row count");
        for (std::uint64_t n = 0; ok() && n < nonzero; ++n) {
            std::uint64_t i = 0, w = 0;
            row({tag}, i, w);
            if (ok() && i >= H::kBuckets)
                fail(std::string("histogram bucket out of range in '") +
                     tag + "' row");
            if (ok())
                add(i, w);
        }
    }

    /**
     * Parse " <value>" at @p p (NUL-terminated) and advance past it.
     * False on a missing separator, or a token parseNumber() (or
     * readHexfloat()) refuses or @p v cannot hold.
     */
    template <class T>
    static bool get(const char *&p, T &v)
    {
        if constexpr (std::is_array_v<T>) {
            for (auto &x : v) {
                if (!get(p, x))
                    return false;
            }
            return true;
        } else {
            if (*p != ' ')
                return false;
            const char *end = p + 1;
            while (*end != ' ' && *end != '\0')
                ++end;
            const std::string token(p + 1, end);
            if constexpr (std::is_floating_point_v<T>) {
                if (!readHexfloat(token, v))
                    return false;
            } else {
                std::uint64_t x = 0;
                if (!parseNumber(token, x) || x > maxOf<T>())
                    return false;
                v = static_cast<T>(x);
            }
            p = end;
            return true;
        }
    }

    std::istream &is_;
    std::string err_;
};

} // namespace

std::string
escapeLine(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        if (c == '\\')
            out += "\\\\";
        else if (c == '\n')
            out += "\\n";
        else if (c == '\r')
            out += "\\r";
        else
            out += c;
    }
    return out;
}

std::string
unescapeLine(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (std::size_t i = 0; i < s.size(); ++i) {
        if (s[i] != '\\' || i + 1 >= s.size()) {
            out += s[i];
            continue;
        }
        const char next = s[++i];
        if (next == 'n')
            out += '\n';
        else if (next == 'r')
            out += '\r';
        else
            out += next;
    }
    return out;
}

void
writeRunRecord(std::ostream &os, const std::string &key,
               const std::string &fingerprint, const jvm::RunResult &r)
{
    os << kHeader << '\n';
    os << "key " << escapeLine(key) << '\n';
    os << "fp " << escapeLine(fingerprint) << '\n';
    Writer w(os);
    visitRunResult(w, r);
    os << "end\n";
}

bool
readRunRecord(std::istream &is, const std::string &expect_key,
              const std::string &expect_fingerprint, jvm::RunResult &out,
              std::string &err)
{
    Reader in(is);
    std::string ln;
    if (!in.line(ln) || ln != kHeader) {
        err = in.ok() ? "not a jscale-run v1 record" : in.error();
        return false;
    }
    if (!in.line(ln) || ln.compare(0, 4, "key ") != 0) {
        err = "record missing key line";
        return false;
    }
    if (unescapeLine(ln.substr(4)) != expect_key) {
        err = "record key mismatch";
        return false;
    }
    if (!in.line(ln) || ln.compare(0, 3, "fp ") != 0) {
        err = "record missing fingerprint line";
        return false;
    }
    if (unescapeLine(ln.substr(3)) != expect_fingerprint) {
        err = "record belongs to a different campaign configuration";
        return false;
    }

    jvm::RunResult r;
    visitRunResult(in, r);
    if (in.ok() && (!in.line(ln) || ln != "end" || !in.terminated()))
        in.fail("record missing 'end' trailer (torn write?)");
    if (!in.ok()) {
        err = in.error();
        return false;
    }
    out = std::move(r);
    return true;
}

} // namespace jscale::core
