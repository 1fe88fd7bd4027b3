#include "core/fuzz.hh"

#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <ostream>
#include <sstream>

#include "base/atomic_file.hh"
#include "base/chaos.hh"
#include "base/logging.hh"
#include "base/random.hh"
#include "check/random_app.hh"
#include "core/rig.hh"
#include "core/run_record.hh"

namespace jscale::core {

using check::InvariantViolation;
using check::OracleSuite;

namespace {

/** Sabotage names, in Sabotage order. */
constexpr const char *kSabotageNames[kSabotages] = {
    "none", "dup-alloc", "phantom-death", "double-release", "illegal-handoff"};

/** Field bounds: every value caseForSeed() draws and shrinkCase()
 *  derives from it (the shrinker only halves towards 1). */
constexpr std::uint32_t kMaxThreads = 8;
constexpr std::uint32_t kMinDrawnTasks = 20;
constexpr std::uint32_t kMaxTasks = 140;
constexpr std::uint32_t kMaxMonitors = 5;

} // namespace

const char *
sabotageName(Sabotage s)
{
    return kSabotageNames[static_cast<std::size_t>(s)];
}

const FieldTable<FuzzCase> &
fuzzCaseFields()
{
    using F = Field<FuzzCase>;
    static const FieldTable<FuzzCase> table = {
        F::number("seed", &FuzzCase::seed, 0).require(),
        F::number("threads", &FuzzCase::threads, 1, kMaxThreads),
        F::number("tasks", &FuzzCase::tasks, 1, kMaxTasks),
        F::number("monitors", &FuzzCase::monitors, 1, kMaxMonitors),
        F::number("heap", &FuzzCase::heap, units::MiB),
        F::number("tlab", &FuzzCase::tlab, 0),
        F::number("intensity", &FuzzCase::fault_intensity, 0.0, 1.0),
        F::choice("governed", &FuzzCase::governed,
                  +[](bool on) { return on ? "1" : "0"; }, 2),
        // Absent on pre-policy case lines; defaults to fifo.
        F::choice("policy", &FuzzCase::policy, jvm::lockPolicyName,
                  std::size(jvm::kAllLockPolicies)),
        F::choice("sabotage", &FuzzCase::sabotage, sabotageName, kSabotages),
    };
    return table;
}

std::string
FuzzCase::describe() const
{
    std::ostringstream os;
    os.precision(17);
    writeFields(os, fuzzCaseFields(), *this, ' ');
    return os.str();
}

bool
FuzzCase::parse(const std::string &line, FuzzCase &out, std::string &err)
{
    const SpecText spec{"fuzz case", line};
    std::vector<std::string> fields;
    std::istringstream is(line);
    for (std::string tok; is >> tok;)
        fields.push_back(tok);
    FuzzCase c;
    if (!readFields(spec, fields, fuzzCaseFields(), c, err))
        return false;
    if (c.tlab > c.heap) {
        err = spec.badValue("tlab", "a byte count <= heap",
                            std::to_string(c.tlab));
        return false;
    }
    out = c;
    return true;
}

FuzzCase
caseForSeed(std::uint64_t seed)
{
    Rng rng(seed * 7919 + 17);
    FuzzCase c;
    c.seed = seed;
    c.threads = 1 + static_cast<std::uint32_t>(rng.below(kMaxThreads));
    c.tasks = kMinDrawnTasks + static_cast<std::uint32_t>(rng.below(
                                   kMaxTasks - kMinDrawnTasks + 1));
    c.monitors = 1 + static_cast<std::uint32_t>(rng.below(kMaxMonitors));
    c.heap = (3 + rng.below(4)) * units::MiB;
    c.tlab = rng.chance(0.3) ? 8 * units::KiB : 0;
    c.fault_intensity = rng.chance(0.4) ? (rng.chance(0.5) ? 0.3 : 0.6)
                                        : 0.0;
    c.governed = rng.chance(0.25);
    // Drawn last so the policy dimension extends the case space
    // without perturbing the geometry older seeds derive.
    c.policy = jvm::kAllLockPolicies[rng.below(
        sizeof(jvm::kAllLockPolicies) / sizeof(jvm::kAllLockPolicies[0]))];
    return c;
}

namespace {

/**
 * Event-stream saboteur: re-delivers or fabricates one event directly
 * into the oracle suite. It is the run's attach hook, so it sits after
 * the suite on the listener chain and the suite always observes the
 * genuine event first.
 */
class Saboteur : public jvm::RuntimeListener
{
  public:
    Saboteur(OracleSuite &suite, Sabotage kind)
        : suite_(suite), kind_(kind)
    {}

    void
    onObjectAlloc(const jvm::ObjectRecord &obj, Ticks now) override
    {
        if (fired_)
            return;
        if (kind_ == Sabotage::DupAlloc) {
            fired_ = true;
            suite_.onObjectAlloc(obj, now);
        } else if (kind_ == Sabotage::PhantomDeath) {
            fired_ = true;
            suite_.onObjectDeath(obj, /*lifespan=*/0, now);
        }
    }

    void
    onMonitorContended(jvm::MutatorIndex thread, jvm::MonitorId monitor,
                       Ticks now) override
    {
        (void)thread;
        (void)now;
        if (kind_ == Sabotage::IllegalHandoff)
            ++queued_[monitor];
    }

    void
    onMonitorAcquire(jvm::MutatorIndex thread, jvm::MonitorId monitor,
                     bool contended, Ticks now) override
    {
        (void)thread;
        (void)now;
        if (kind_ == Sabotage::IllegalHandoff && contended &&
            queued_[monitor] > 0)
            --queued_[monitor];
    }

    void
    onMonitorWaiterCancelled(jvm::MutatorIndex thread,
                             jvm::MonitorId monitor, Ticks now) override
    {
        (void)thread;
        (void)now;
        if (kind_ == Sabotage::IllegalHandoff && queued_[monitor] > 0)
            --queued_[monitor];
    }

    void
    onMonitorRelease(jvm::MutatorIndex thread, jvm::MonitorId monitor,
                     Ticks now) override
    {
        if (fired_)
            return;
        if (kind_ == Sabotage::DoubleRelease) {
            fired_ = true;
            suite_.onMonitorRelease(thread, monitor, now);
        } else if (kind_ == Sabotage::IllegalHandoff &&
                   queued_[monitor] > 0) {
            // The releasing thread never sat in the acquire queue, so
            // a contended grant to it is illegal under every admission
            // policy — fifo, barging window, or culling active set.
            fired_ = true;
            suite_.onMonitorAcquire(thread, monitor, /*contended=*/true,
                                    now);
        }
    }

  private:
    OracleSuite &suite_;
    Sabotage kind_;
    bool fired_ = false;
    /** Per-monitor queued-waiter mirror (IllegalHandoff trigger). */
    std::map<jvm::MonitorId, std::uint32_t> queued_;
};

} // namespace

std::string
FuzzOutcome::diagnosis() const
{
    if (!violations.empty())
        return violations.front().format();
    if (run_failed)
        return "run aborted: " + run_error;
    return "clean";
}

namespace {

/** The experiment a case runs: the 2-socket test machine without VM
 *  helper threads, every oracle armed. */
ExperimentConfig
fuzzConfig(const FuzzCase &c)
{
    ExperimentConfig cfg;
    cfg.machine = machine::Machine::testMachine_2p8c();
    cfg.vm.heap.tlab_size = c.tlab;
    cfg.vm.enable_helpers = false;
    cfg.vm.locks.policy = c.policy;
    // Nonzero handoff costs so the coherence-penalty accounting runs
    // under oracle scrutiny too.
    cfg.vm.locks.handoff_base = 250;
    cfg.vm.locks.coherence_cost = 500;
    if (c.governed) {
        cfg.governor.mode = control::GovernorMode::HillClimb;
        cfg.governor.interval = units::MS;
    }
    if (c.fault_intensity > 0.0) {
        cfg.faults = fault::FaultPlan::fromIntensity(c.fault_intensity,
                                                     c.seed, 30 * units::MS);
    }
    cfg.oracles = true;
    return cfg;
}

} // namespace

FuzzOutcome
runFuzzCase(const FuzzCase &c)
{
    FuzzOutcome out;
    out.fuzz_case = c;

    const ExperimentConfig cfg = fuzzConfig(c);
    check::RandomApp app(c.seed, c.monitors, c.tasks);
    check::OracleConfig ocfg;
    ocfg.throw_on_violation = false;
    RunRig rig(cfg,
               {c.seed,
                {{&app, app.appName(), c.threads, c.heap, std::nullopt}}},
               ocfg);
    OracleSuite &suite = *rig.oracles(0);
    Saboteur saboteur(suite, c.sabotage);
    try {
        jvm::RunResult r;
        rig.run({&r, 1}, [&](jvm::JavaVm &vm) {
            if (c.sabotage != Sabotage::None)
                vm.listeners().add(&saboteur);
        });
        if (r.failed()) {
            out.run_failed = true;
            out.run_error = r.run_error;
        }
    } catch (const AbortError &e) {
        out.run_failed = true;
        out.run_error = e.what();
    }
    if (c.sabotage != Sabotage::None)
        rig.vm(0).listeners().remove(&saboteur);

    out.violations = suite.violations();
    out.checks = suite.checksPerformed();
    out.sim_time = rig.sim().now();
    return out;
}

FuzzCase
shrinkCase(const FuzzCase &c, std::uint32_t budget,
           std::uint32_t *runs_used)
{
    FuzzCase best = c;
    std::uint32_t used = 0;

    // Candidate reductions, most aggressive first. Returns false when
    // the rule cannot shrink the case any further.
    const auto mutate = [](FuzzCase &m, int rule) -> bool {
        switch (rule) {
          case 0:
            if (m.tasks <= 1)
                return false;
            m.tasks /= 2;
            return true;
          case 1:
            if (m.threads <= 1)
                return false;
            m.threads /= 2;
            return true;
          case 2:
            if (m.fault_intensity == 0.0)
                return false;
            m.fault_intensity = 0.0; // drop the whole fault schedule
            return true;
          case 3:
            if (!m.governed)
                return false;
            m.governed = false;
            return true;
          case 4:
            if (m.monitors <= 1)
                return false;
            m.monitors /= 2;
            return true;
          case 5:
            if (m.tlab == 0)
                return false;
            m.tlab = 0;
            return true;
          case 6:
            if (m.policy == jvm::LockPolicy::Fifo)
                return false;
            m.policy = jvm::LockPolicy::Fifo; // simplest admission order
            return true;
          default:
            return false;
        }
    };

    bool progressed = true;
    while (progressed && used < budget) {
        progressed = false;
        for (int rule = 0; rule <= 6 && used < budget; ++rule) {
            FuzzCase candidate = best;
            if (!mutate(candidate, rule))
                continue;
            ++used;
            if (!runFuzzCase(candidate).clean()) {
                best = candidate;
                progressed = true;
                break; // restart from the most aggressive rule
            }
        }
    }
    if (runs_used != nullptr)
        *runs_used = used;
    return best;
}

namespace {

std::string
outcomePath(const std::string &dir, std::uint64_t seed)
{
    return dir + "/fuzz-" + std::to_string(seed) + ".out";
}

/** Persist one finished case durably (atomic publish, then the chaos
 *  crash point fires — fuzz workers die at record boundaries too). */
void
storeOutcome(const FuzzCampaignIo &io, std::uint64_t seed,
             const FuzzOutcome &o)
{
    AtomicFileWriter writer(outcomePath(io.cache_dir, seed));
    if (!writer.ok()) {
        warn("cannot open fuzz outcome record for seed ", seed);
        return;
    }
    std::ostream &os = writer.stream();
    os << "jscale-fuzz-out v1\n";
    os << "fp " << escapeLine(io.fingerprint) << '\n';
    os << "case " << o.fuzz_case.describe() << '\n';
    os << "run_failed " << (o.run_failed ? 1 : 0) << '\n';
    os << "run_error " << escapeLine(o.run_error) << '\n';
    os << "checks " << o.checks << '\n';
    os << "sim_time " << o.sim_time << '\n';
    for (const InvariantViolation &v : o.violations) {
        os << "v " << v.at << ' ' << escapeLine(v.oracle) << ' '
           << escapeLine(v.message) << '\n';
    }
    os << "end\n";
    std::string err;
    if (!writer.commit(err)) {
        warn("fuzz outcome store failed: ", err);
        return;
    }
    chaosCrashPoint();
}

/** Load one cached case. Any malformation — torn record, foreign
 *  fingerprint — is a miss (with a warning); the seed just re-runs. */
bool
loadOutcome(const FuzzCampaignIo &io, std::uint64_t seed, FuzzOutcome &out)
{
    const std::string path = outcomePath(io.cache_dir, seed);
    std::ifstream in(path);
    if (!in)
        return false;

    const auto miss = [&path](const char *why) {
        warn("ignoring fuzz outcome '", path, "': ", why);
        return false;
    };
    std::string line;
    if (!std::getline(in, line) || line != "jscale-fuzz-out v1")
        return miss("bad header");
    if (!std::getline(in, line) || line.rfind("fp ", 0) != 0 ||
        unescapeLine(line.substr(3)) != io.fingerprint)
        return miss("campaign fingerprint mismatch");

    FuzzOutcome o;
    std::string err;
    if (!std::getline(in, line) || line.rfind("case ", 0) != 0 ||
        !FuzzCase::parse(line.substr(5), o.fuzz_case, err))
        return miss("bad case line");
    if (!std::getline(in, line) || line.rfind("run_failed ", 0) != 0 ||
        (line.substr(11) != "0" && line.substr(11) != "1"))
        return miss("bad run_failed line");
    o.run_failed = line.substr(11) == "1";
    if (!std::getline(in, line) || line.rfind("run_error ", 0) != 0)
        return miss("bad run_error line");
    o.run_error = unescapeLine(line.substr(10));
    if (!std::getline(in, line) || line.rfind("checks ", 0) != 0 ||
        !parseNumber(line.substr(7), o.checks))
        return miss("bad checks line");
    if (!std::getline(in, line) || line.rfind("sim_time ", 0) != 0 ||
        !parseNumber(line.substr(9), o.sim_time))
        return miss("bad sim_time line");

    bool ended = false;
    while (std::getline(in, line)) {
        if (line == "end") {
            ended = true;
            break;
        }
        if (line.rfind("v ", 0) != 0)
            return miss("bad violation line");
        std::istringstream vs(line.substr(2));
        InvariantViolation v;
        std::string at, oracle;
        if (!(vs >> at >> oracle) || !parseNumber(at, v.at))
            return miss("bad violation line");
        v.oracle = unescapeLine(oracle);
        std::string msg;
        std::getline(vs, msg);
        if (!msg.empty() && msg.front() == ' ')
            msg.erase(0, 1);
        v.message = unescapeLine(msg);
        o.violations.push_back(std::move(v));
    }
    if (!ended)
        return miss("missing 'end' trailer (torn write?)");
    out = std::move(o);
    return true;
}

} // namespace

FuzzReport
runFuzzCampaign(const std::vector<std::uint64_t> &seeds, Sabotage sabotage,
                std::uint32_t shrink_budget, std::ostream *out,
                const FuzzCampaignIo &io)
{
    const bool cached = !io.cache_dir.empty();
    if (cached) {
        std::error_code ec;
        std::filesystem::create_directories(io.cache_dir, ec);
    }
    const std::uint32_t of = std::max<std::uint32_t>(1, io.shard_count);

    FuzzReport report;
    for (const std::uint64_t seed : seeds) {
        FuzzOutcome o;
        bool have = cached && loadOutcome(io, seed, o);
        if (!have) {
            if (of > 1 &&
                shardOfKey("fuzz|" + std::to_string(seed), of) !=
                    io.shard_index)
                continue; // another shard's seed
            FuzzCase c = caseForSeed(seed);
            c.sabotage = sabotage;
            o = runFuzzCase(c);
            if (cached)
                storeOutcome(io, seed, o);
        }
        ++report.cases_run;
        report.total_checks += o.checks;
        if (!o.clean()) {
            if (out != nullptr) {
                *out << "FAIL seed " << seed << ": " << o.diagnosis()
                     << "\n";
            }
            report.failures.push_back(std::move(o));
        } else if (out != nullptr && report.cases_run % 25 == 0) {
            *out << "... " << report.cases_run << "/" << seeds.size()
                 << " cases clean\n";
        }
    }
    if (report.failed()) {
        if (out != nullptr)
            *out << "shrinking first failure...\n";
        report.shrunk = shrinkCase(report.failures.front().fuzz_case,
                                   shrink_budget, &report.shrink_runs);
    }
    return report;
}

void
writeReproducer(std::ostream &os, const FuzzReport &report)
{
    os << "jscale-fuzz-repro v1\n";
    os << "case " << report.shrunk.describe() << "\n";
    os << "# shrunk from: " << report.failures.front().fuzz_case.describe()
       << " in " << report.shrink_runs << " run(s)\n";
    const FuzzOutcome proof = runFuzzCase(report.shrunk);
    for (const InvariantViolation &v : proof.violations)
        os << "# violation: " << v.format() << "\n";
    if (proof.run_failed)
        os << "# run error: " << proof.run_error << "\n";
}

bool
readReproducer(const std::string &path, FuzzCase &out, std::string &err)
{
    std::ifstream in(path);
    if (!in) {
        err = "cannot open '" + path + "'";
        return false;
    }
    std::string line;
    if (!std::getline(in, line) || line != "jscale-fuzz-repro v1") {
        err = "'" + path + "' is not a jscale-fuzz-repro v1 file";
        return false;
    }
    while (std::getline(in, line)) {
        if (line.rfind("case ", 0) == 0)
            return FuzzCase::parse(line.substr(5), out, err);
    }
    err = "'" + path + "' has no case line";
    return false;
}

} // namespace jscale::core
