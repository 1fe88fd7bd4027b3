#include "check/golden.hh"

#include <cmath>
#include <fstream>
#include <sstream>

#include "base/units.hh"

namespace jscale::check {

std::string
GoldenRun::label() const
{
    return app + "@" + std::to_string(threads);
}

std::string
GoldenFile::configValue(const std::string &key) const
{
    for (const auto &[k, v] : config) {
        if (k == key)
            return v;
    }
    return "";
}

std::string
FieldDiff::format() const
{
    std::ostringstream os;
    os.precision(17);
    const std::string where =
        (run.empty() ? std::string() : run + " ") + field;
    if (kind == "missing") {
        os << where << ": recorded " << expected
           << " but absent from the fresh run";
    } else if (kind == "extra") {
        os << where << ": " << actual
           << " in the fresh run but not recorded";
    } else {
        os << where << ": recorded " << expected << " != fresh " << actual;
    }
    return os.str();
}

void
writeGolden(std::ostream &os, const GoldenFile &file)
{
    os << "jscale-golden v1\n";
    os.precision(17);
    for (const auto &[k, v] : file.config)
        os << "config " << k << "=" << v << "\n";
    for (const GoldenRun &r : file.runs) {
        os << "run " << r.app << " " << r.threads << "\n";
        for (const stats::StatValue &s : r.stats.values()) {
            os << "stat " << s.name << " " << s.value;
            if (!s.unit.empty())
                os << " " << s.unit;
            os << "\n";
        }
        os << "end\n";
    }
}

namespace {

/** Nothing but blanks left on @p ls. */
bool
atEnd(std::istream &ls)
{
    std::string extra;
    return !(ls >> extra);
}

} // namespace

bool
readGolden(std::istream &is, GoldenFile &out, std::string &err)
{
    GoldenFile file;
    std::string line;
    if (!std::getline(is, line) || line != "jscale-golden v1") {
        err = "not a jscale-golden v1 file";
        return false;
    }
    GoldenRun *open = nullptr;
    std::size_t lineno = 1;
    while (std::getline(is, line)) {
        ++lineno;
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string verb;
        ls >> verb;
        if (verb == "config") {
            std::string kv;
            std::getline(ls, kv);
            const auto start = kv.find_first_not_of(' ');
            const auto eq = kv.find('=');
            if (start == std::string::npos || eq == std::string::npos ||
                eq <= start) {
                err = "line " + std::to_string(lineno) +
                      ": malformed config entry";
                return false;
            }
            file.config.emplace_back(kv.substr(start, eq - start),
                                     kv.substr(eq + 1));
        } else if (verb == "run") {
            if (open != nullptr) {
                err = "line " + std::to_string(lineno) +
                      ": run opened before previous run ended";
                return false;
            }
            GoldenRun r;
            std::string threads;
            if (!(ls >> r.app >> threads) ||
                !parseNumber(threads, r.threads) || !atEnd(ls)) {
                err = "line " + std::to_string(lineno) +
                      ": malformed run header";
                return false;
            }
            file.runs.push_back(std::move(r));
            open = &file.runs.back();
        } else if (verb == "stat") {
            std::string name, text, unit;
            double value = 0.0;
            // A name, a value and an optional unit; nothing more.
            if (open == nullptr || !(ls >> name >> text) ||
                !parseNumber(text, value) || !atEnd(ls >> unit)) {
                err = "line " + std::to_string(lineno) +
                      ": malformed stat entry";
                return false;
            }
            open->stats.add(name, value, unit);
        } else if (verb == "end") {
            if (open == nullptr) {
                err = "line " + std::to_string(lineno) +
                      ": end without an open run";
                return false;
            }
            open = nullptr;
        } else {
            err = "line " + std::to_string(lineno) + ": unknown verb '" +
                  verb + "'";
            return false;
        }
    }
    if (open != nullptr) {
        err = "file truncated inside run " + open->label();
        return false;
    }
    if (file.runs.empty()) {
        err = "golden file records no runs";
        return false;
    }
    out = std::move(file);
    return true;
}

bool
readGoldenFile(const std::string &path, GoldenFile &out, std::string &err)
{
    std::ifstream in(path);
    if (!in) {
        err = "cannot open '" + path + "'";
        return false;
    }
    return readGolden(in, out, err);
}

std::vector<FieldDiff>
diffSnapshots(const std::string &run, const stats::StatSnapshot &expected,
              const stats::StatSnapshot &actual)
{
    std::vector<FieldDiff> diffs;
    for (const stats::StatValue &s : expected.values()) {
        FieldDiff d;
        d.run = run;
        d.field = s.name;
        d.expected = s.value;
        if (!actual.has(s.name)) {
            d.kind = "missing";
            diffs.push_back(std::move(d));
            continue;
        }
        d.actual = actual.get(s.name);
        // Exact comparison: the simulator is deterministic and values
        // round-trip at full precision. NaN == NaN counts as equal.
        const bool both_nan = std::isnan(d.expected) && std::isnan(d.actual);
        if (!both_nan && d.expected != d.actual) {
            d.kind = "value";
            diffs.push_back(std::move(d));
        }
    }
    for (const stats::StatValue &s : actual.values()) {
        if (expected.has(s.name))
            continue;
        FieldDiff d;
        d.run = run;
        d.field = s.name;
        d.kind = "extra";
        d.actual = s.value;
        diffs.push_back(std::move(d));
    }
    return diffs;
}

std::vector<FieldDiff>
diffGolden(const GoldenFile &expected, const std::vector<GoldenRun> &actual)
{
    std::vector<FieldDiff> diffs;
    const auto find = [&actual](const GoldenRun &want) -> const GoldenRun * {
        for (const GoldenRun &have : actual) {
            if (have.app == want.app && have.threads == want.threads)
                return &have;
        }
        return nullptr;
    };
    for (const GoldenRun &want : expected.runs) {
        const GoldenRun *have = find(want);
        if (have == nullptr) {
            FieldDiff d;
            d.field = want.label();
            d.kind = "missing";
            diffs.push_back(std::move(d));
            continue;
        }
        auto run_diffs = diffSnapshots(want.label(), want.stats,
                                       have->stats);
        diffs.insert(diffs.end(), run_diffs.begin(), run_diffs.end());
    }
    for (const GoldenRun &have : actual) {
        bool recorded = false;
        for (const GoldenRun &want : expected.runs)
            recorded |= want.app == have.app && want.threads == have.threads;
        if (!recorded) {
            FieldDiff d;
            d.field = have.label();
            d.kind = "extra";
            diffs.push_back(std::move(d));
        }
    }
    return diffs;
}

} // namespace jscale::check
