#include "traffic/tenancy.hh"

#include <sstream>

#include "base/units.hh"
#include "workload/dacapo.hh"

namespace jscale::traffic {

bool
TenantSpec::parse(const std::string &text, TenantSpec &out,
                  std::string &err)
{
    out = TenantSpec{};
    const std::vector<std::string> fields = splitFields(text, ':');
    out.app = fields[0];
    if (out.app.empty()) {
        err = "tenant '" + text + "': missing application name";
        return false;
    }
    bool known = false;
    for (const std::string &name : workload::dacapoAppNames())
        known = known || name == out.app;
    if (!known) {
        err = "tenant '" + text + "': unknown application '" + out.app +
              "'";
        return false;
    }

    // Pull out threads= and process=; forward everything else to the
    // arrival-spec parser so both grammars stay in lock-step.
    std::string process = "poisson";
    std::vector<std::string> arrival_fields;
    bool have_threads = false;
    for (std::size_t i = 1; i < fields.size(); ++i) {
        const std::string &field = fields[i];
        const auto eq = field.find('=');
        const std::string key =
            eq == std::string::npos ? field : field.substr(0, eq);
        if (key == "threads") {
            if (have_threads) {
                err = "tenant '" + text + "': duplicate key 'threads'";
                return false;
            }
            const std::string value = field.substr(eq + 1);
            if (!parseNumber(value, out.threads) || out.threads < 1) {
                err = "tenant '" + text +
                      "': threads needs a count >= 1, got '" + value +
                      "'";
                return false;
            }
            have_threads = true;
        } else if (key == "process") {
            process = field.substr(eq + 1);
        } else {
            arrival_fields.push_back(field);
        }
    }
    if (!have_threads) {
        err = "tenant '" + text + "': missing required key 'threads'";
        return false;
    }

    std::string arrival_spec = process;
    for (const std::string &f : arrival_fields)
        arrival_spec += ":" + f;
    if (!ArrivalSpec::parse(arrival_spec, out.arrival, err)) {
        err = "tenant '" + text + "': " + err;
        return false;
    }
    return true;
}

bool
TenantSpec::parseList(const std::string &text,
                      std::vector<TenantSpec> &out, std::string &err)
{
    out.clear();
    if (text.empty()) {
        err = "tenants: empty spec";
        return false;
    }
    for (const std::string &entry : splitFields(text, ';')) {
        TenantSpec spec;
        if (!parse(entry, spec, err))
            return false;
        out.push_back(std::move(spec));
    }
    return true;
}

std::string
TenantSpec::describe() const
{
    std::ostringstream os;
    os << app << ":threads=" << threads << ":" << arrival.describe();
    return os.str();
}

} // namespace jscale::traffic
