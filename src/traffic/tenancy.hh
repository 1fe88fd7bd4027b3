/**
 * @file
 * Multi-tenant specs: several JVMs sharing one simulated machine.
 *
 * The run rig (core/rig.hh) hosts each tenant as one JavaVm with its own heap, GC, monitors, helper
 * threads and arrival stream, all registered against the *same*
 * scheduler and core set — so tenants contend for CPUs exactly like
 * co-located server JVMs do, while safepoints stay per-tenant (a
 * tenant's stop-the-world pauses only its own scheduling group; the
 * neighbours keep running through it).
 *
 * Tenant spec grammar (';'-separated list, strict keys: tenantFields()
 * first, the rest through the process's arrivalFields()):
 *
 *   <app>:threads=<n>[:process=poisson|burst|diurnal]:rate=<req/s>
 *        [:requests=<n>][:queue=<cap>][:shed=drop|oldest]
 *        [:factor=..][:on_ms=..][:off_ms=..][:peak=..][:period_ms=..]
 *
 * e.g. --tenants "h2:threads=8:rate=2000;jython:threads=8:rate=1500"
 */

#ifndef JSCALE_TRAFFIC_TENANCY_HH
#define JSCALE_TRAFFIC_TENANCY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "traffic/arrival.hh"

namespace jscale::traffic {

/** One tenant: an application, its thread count and arrival stream. */
struct TenantSpec
{
    std::string app;
    std::uint32_t threads = 1;
    ArrivalSpec arrival;

    /** Parse one tenant (grammar above); false + @p err on failure. */
    static bool parse(const std::string &text, TenantSpec &out,
                      std::string &err);

    /** Parse a ';'-separated tenant list (at least one entry). */
    static bool parseList(const std::string &text,
                          std::vector<TenantSpec> &out, std::string &err);

    /** Canonical one-line description. */
    std::string describe() const;
};

/** The tenant's own keys, read before its arrivalFields(). */
const FieldTable<TenantSpec> &tenantFields();

} // namespace jscale::traffic

#endif // JSCALE_TRAFFIC_TENANCY_HH
