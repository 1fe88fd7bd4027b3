#include "traffic/tenancy.hh"

#include <algorithm>
#include <sstream>

#include "workload/dacapo.hh"

namespace jscale::traffic {

const FieldTable<TenantSpec> &
tenantFields()
{
    using F = Field<TenantSpec>;
    static const FieldTable<TenantSpec> table = {
        F::number("threads", &TenantSpec::threads, 1).require(),
        F::choice(
            "process", [](auto &t) -> auto & { return t.arrival.kind; },
            arrivalKindName, kArrivalKinds),
    };
    return table;
}

bool
TenantSpec::parse(const std::string &text, TenantSpec &out,
                  std::string &err)
{
    out = TenantSpec{};
    const SpecText spec{"tenant", text};
    const std::vector<std::string> fields = splitFields(text, ':');
    const std::vector<std::string> &apps = workload::dacapoAppNames();
    if (std::find(apps.begin(), apps.end(), fields[0]) == apps.end()) {
        err = spec.badValue("app", "a DaCapo application name", fields[0]);
        return false;
    }
    out.app = fields[0];
    // The tenant's own keys first; the rest are its arrival stream's.
    std::vector<std::string> arrival;
    return readFields(spec, {fields.begin() + 1, fields.end()},
                      tenantFields(), out, err, &arrival) &&
           readFields(spec, arrival, arrivalFields(out.arrival.kind),
                      out.arrival, err);
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
