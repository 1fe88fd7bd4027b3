#include "core/fuzz.hh"

#include <algorithm>
#include <fstream>
#include <map>
#include <memory>
#include <ostream>
#include <sstream>
#include <string_view>

#include "base/random.hh"
#include "check/oracle.hh"
#include "check/random_app.hh"
#include "core/rig.hh"

namespace jscale::core {

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
 * into the oracle suite. It is the point's probe, so it sits after the
 * suite on the listener chain and the suite always observes the
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
FuzzOutcome::violation() const
{
    constexpr std::string_view prefix = check::OracleError::kPrefix;
    return run_error.starts_with(prefix) ? run_error.substr(prefix.size())
                                         : std::string();
}

std::string
FuzzOutcome::diagnosis() const
{
    if (clean())
        return "clean";
    const std::string v = violation();
    return v.empty() ? "run aborted: " + run_error : v;
}

namespace {

/** The experiment a case runs: the 2-socket test machine without VM
 *  helper threads, the case's heap, every oracle armed and no error
 *  artifact. */
ExperimentConfig
fuzzConfig(const FuzzCase &c)
{
    ExperimentConfig cfg;
    cfg.machine = machine::Machine::testMachine_2p8c();
    cfg.heap_override = c.heap;
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
    cfg.error_path.clear();
    return cfg;
}

/** The campaign point of a case: simulated under the case seed, keyed
 *  by the case line (sabotage included), on the case's fixed heap. */
CampaignPoint
fuzzPoint(const FuzzCase &c)
{
    CampaignPoint p;
    p.factory = [c] {
        return std::make_unique<check::RandomApp>(c.seed, c.monitors,
                                                  c.tasks);
    };
    p.threads = c.threads;
    p.arm = std::make_shared<const ExperimentConfig>(fuzzConfig(c));
    p.seed = c.seed;
    p.key = c.describe();
    if (c.sabotage != Sabotage::None) {
        p.probe = [kind = c.sabotage](RunRig &rig) {
            return std::unique_ptr<jvm::RuntimeListener>(
                std::make_unique<Saboteur>(*rig.oracles(0), kind));
        };
    }
    return p;
}

} // namespace

FuzzOutcome
runFuzzCase(const FuzzCase &c)
{
    jvm::RunResult r;
    try {
        r = ExperimentRunner().runPoint(fuzzPoint(c));
    } catch (const AbortError &e) {
        r.run_error = e.what();
    }
    return {c, r.run_error, r.oracle_checks};
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

FuzzReport
runFuzzCampaign(const std::vector<std::uint64_t> &seeds, Sabotage sabotage,
                std::uint32_t shrink_budget, std::ostream *out,
                const ExperimentConfig &exec)
{
    // A RunResult carries about 230 KiB of histograms, so the cases run
    // as consecutive batches of kBatchCases points, not one batch of
    // every seed: memory stays flat at any --seeds, and each point's
    // record, shard owner and merge status are the same either way.
    constexpr std::size_t kBatchCases = 128;
    ExperimentRunner runner(exec);
    FuzzReport report;
    for (std::size_t begin = 0; begin < seeds.size(); begin += kBatchCases) {
        const std::size_t end = std::min(seeds.size(), begin + kBatchCases);
        std::vector<FuzzCase> cases;
        std::vector<CampaignPoint> points;
        for (std::size_t i = begin; i < end; ++i) {
            FuzzCase &c = cases.emplace_back(caseForSeed(seeds[i]));
            c.sabotage = sabotage;
            points.push_back(fuzzPoint(c));
        }
        const std::vector<jvm::RunResult> results =
            runner.runPoints(points);
        for (std::size_t i = 0; i < cases.size(); ++i) {
            const jvm::RunResult &r = results[i];
            if (r.skipped)
                continue; // another shard's case
            if (r.run_error == kMissingPointError) {
                ++report.missing;
                if (out != nullptr)
                    *out << "MISSING seed " << cases[i].seed << "\n";
                continue;
            }
            FuzzOutcome o{cases[i], r.run_error, r.oracle_checks};
            ++report.cases_run;
            report.total_checks += o.checks;
            if (!o.clean()) {
                if (out != nullptr) {
                    *out << "FAIL seed " << cases[i].seed << ": "
                         << o.diagnosis() << "\n";
                }
                report.failures.push_back(std::move(o));
            } else if (out != nullptr && report.cases_run % 25 == 0) {
                *out << "... " << report.cases_run << "/" << seeds.size()
                     << " cases clean\n";
            }
        }
    }
    if (report.failed() && report.missing == 0) {
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
    const std::string v = proof.violation();
    if (!v.empty())
        os << "# violation: " << v << "\n";
    else if (!proof.clean())
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
