/**
 * @file
 * The field reader and every spec grammar built on it: the reader owns
 * the key=value split, unknown, duplicate and required keys and the
 * diagnosis format; each grammar table's rows refuse the nearest value
 * beyond every bound, fractions in counts and repeated keys, naming the
 * key; describe() lines derived from a table parse back.
 */

#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "base/fields.hh"
#include "core/fuzz.hh"
#include "fault/fault.hh"
#include "traffic/arrival.hh"
#include "traffic/tenancy.hh"

namespace {

using namespace jscale;
constexpr auto npos = std::string::npos;

struct Knobs
{
    std::uint32_t n = 1;
    double f = 0.5;
    Ticks span = 0;
};

const FieldTable<Knobs> &
knobFields()
{
    using F = Field<Knobs>;
    static const FieldTable<Knobs> table = {
        F::number("n", &Knobs::n, 1, 10).require(),
        F::number("f", &Knobs::f, kPositive, 1.0),
        F::millis("span", &Knobs::span),
    };
    return table;
}

bool
readKnobs(const std::string &text, Knobs &out, std::string &err,
          std::vector<std::string> *rest = nullptr)
{
    return readFields(SpecText{"knobs", text}, splitFields(text, ':'),
                      knobFields(), out, err, rest);
}

TEST(Fields, ReaderOwnsSplitUnknownDuplicateAndRequiredKeys)
{
    Knobs k;
    std::string err;
    ASSERT_TRUE(readKnobs("span=2.5:n=3", k, err)) << err;
    EXPECT_EQ(k.n, 3u);
    EXPECT_EQ(k.span, 2500 * units::US);

    const std::vector<std::pair<std::string, std::string>> bad = {
        {"n=3:bogus=1", "knobs 'n=3:bogus=1': unknown key 'bogus'"},
        {"n=3:n=3", "knobs 'n=3:n=3': duplicate key 'n'"},
        {"f=0.5", "knobs 'f=0.5': missing required key 'n'"},
        {"n=3:f", "knobs 'n=3:f': expected key=value, got 'f'"},
        {"n=3:=1", "knobs 'n=3:=1': expected key=value, got '=1'"},
        {"n=11", "knobs 'n=11': 'n' needs a whole number in [1, 10], "
                 "got '11'"},
        {"n=1:f=0", "knobs 'n=1:f=0': 'f' needs a number in (0, 1], "
                    "got '0'"},
    };
    for (const auto &[text, diagnosis] : bad) {
        EXPECT_FALSE(readKnobs(text, k, err)) << text;
        EXPECT_EQ(err, diagnosis);
    }

    // A chained reader leaves the keys it lacks for the next table.
    std::vector<std::string> rest;
    ASSERT_TRUE(readKnobs("n=2:rate=5:f=1", k, err, &rest)) << err;
    EXPECT_EQ(rest, std::vector<std::string>{"rate=5"});
}

TEST(Fields, WriterPrintsEveryShownRowBack)
{
    Knobs k;
    k.n = 7;
    k.f = 0.25;
    k.span = 2500 * units::US;
    std::ostringstream os;
    writeFields(os, knobFields(), k, ':');
    EXPECT_EQ(os.str(), "n=7:f=0.25:span=2.5");

    Knobs back;
    std::string err;
    ASSERT_TRUE(readKnobs(os.str(), back, err)) << err;
    EXPECT_EQ(back.n, k.n);
    EXPECT_EQ(back.f, k.f);
    EXPECT_EQ(back.span, k.span);

    // Whole milliseconds print without a point or an exponent.
    k.span = 1234567 * units::MS;
    std::ostringstream whole;
    writeFields(whole, knobFields(), k, ':');
    EXPECT_EQ(whole.str(), "n=7:f=0.25:span=1234567");
}

/** One grammar table as the walk sees it: keys, bounds, a good value. */
struct Row
{
    std::string key;
    std::string expects;
    std::string good;
    std::vector<std::string> beyond;
};

template <class T>
std::vector<Row>
rowsOf(const FieldTable<T> &table)
{
    std::vector<Row> rows;
    const T defaults{};
    for (const Field<T> &f : table) {
        std::ostringstream os;
        os.precision(17);
        f.write(os, defaults);
        rows.push_back({f.key, f.expects, os.str(), f.beyond});
    }
    return rows;
}

/** A grammar: its rows, and a valid spec around extra key=value fields. */
struct Grammar
{
    std::string name;
    std::vector<Row> rows;
    std::string head; ///< "" = no head
    char sep;
    /** Always present unless a test field gives the same key. */
    std::vector<std::string> base;
    std::function<bool(const std::string &, std::string &)> parse;

    std::string
    spec(const std::vector<std::string> &fields) const
    {
        std::vector<std::string> all;
        for (const std::string &b : base) {
            bool given = false;
            for (const std::string &f : fields)
                given = given || f.substr(0, f.find('=')) ==
                                     b.substr(0, b.find('='));
            if (!given)
                all.push_back(b);
        }
        all.insert(all.end(), fields.begin(), fields.end());
        std::string out = head;
        for (const std::string &f : all)
            out += (out.empty() ? "" : std::string(1, sep)) + f;
        return out;
    }
};

std::vector<Grammar>
allGrammars()
{
    const auto faults = [](const std::string &s, std::string &err) {
        fault::FaultPlan plan;
        return fault::FaultPlan::parse(s, plan, err);
    };
    const auto arrivals = [](const std::string &s, std::string &err) {
        traffic::ArrivalSpec a;
        return traffic::ArrivalSpec::parse(s, a, err);
    };
    const auto tenants = [](const std::string &s, std::string &err) {
        traffic::TenantSpec t;
        return traffic::TenantSpec::parse(s, t, err);
    };
    const auto fuzz = [](const std::string &s, std::string &err) {
        core::FuzzCase c;
        return core::FuzzCase::parse(s, c, err);
    };
    std::vector<Grammar> out = {
        {"fault", rowsOf(fault::faultFields()), "kill@5", ':', {}, faults},
        {"intensity", rowsOf(fault::intensityFields()), "", ':',
         {"intensity=0.5"}, faults},
        {"tenant", rowsOf(traffic::tenantFields()), "h2", ':',
         {"threads=2", "rate=100"}, tenants},
        {"fuzz case", rowsOf(core::fuzzCaseFields()), "", ' ', {"seed=1"},
         fuzz},
    };
    for (std::size_t k = 0; k < traffic::kArrivalKinds; ++k) {
        const auto kind = static_cast<traffic::ArrivalKind>(k);
        out.push_back({std::string("arrivals ") +
                           traffic::arrivalKindName(kind),
                       rowsOf(traffic::arrivalFields(kind)),
                       traffic::arrivalKindName(kind), ':', {"rate=100"},
                       arrivals});
    }
    return out;
}

TEST(Fields, EveryGrammarRowRefusesOutOfBoundsValuesNamingItsKey)
{
    std::size_t walked = 0;
    for (const Grammar &g : allGrammars()) {
        for (const Row &row : g.rows) {
            ++walked;
            const std::string good = row.key + "=" + row.good;
            std::string err;
            ASSERT_TRUE(g.parse(g.spec({good}), err))
                << g.name << ": " << g.spec({good}) << ": " << err;

            std::vector<std::string> bad = row.beyond;
            if (row.expects.rfind("a whole number", 0) == 0) {
                bad.push_back(row.good + ".0");
                bad.push_back(row.good + "e0");
            }
            if (row.expects.rfind("one of ", 0) == 0)
                bad.push_back("no-such-" + row.key);
            EXPECT_FALSE(bad.empty()) << g.name << " " << row.key;
            for (const std::string &v : bad) {
                const std::string spec = g.spec({row.key + "=" + v});
                EXPECT_FALSE(g.parse(spec, err)) << g.name << ": " << spec;
                EXPECT_NE(err.find("'" + row.key + "' needs"), npos)
                    << spec << ": " << err;
            }

            const std::string twice = g.spec({good, good});
            EXPECT_FALSE(g.parse(twice, err)) << g.name << ": " << twice;
            EXPECT_NE(err.find("duplicate key '" + row.key + "'"), npos)
                << twice << ": " << err;
        }
    }
    // fault 5, intensity 3, tenant 2, fuzz case 10, arrivals 4 + 7 + 6.
    EXPECT_EQ(walked, 37u);
}

TEST(Fields, FuzzCaseLinesRoundTripForEveryDrawnSeed)
{
    for (std::uint64_t seed = 1; seed <= 500; ++seed) {
        const core::FuzzCase c = core::caseForSeed(seed);
        core::FuzzCase back;
        std::string err;
        ASSERT_TRUE(core::FuzzCase::parse(c.describe(), back, err))
            << c.describe() << ": " << err;
        EXPECT_EQ(back.describe(), c.describe());
        EXPECT_EQ(back.seed, c.seed);
        EXPECT_EQ(back.threads, c.threads);
        EXPECT_EQ(back.tasks, c.tasks);
        EXPECT_EQ(back.monitors, c.monitors);
        EXPECT_EQ(back.heap, c.heap);
        EXPECT_EQ(back.tlab, c.tlab);
        EXPECT_EQ(back.fault_intensity, c.fault_intensity);
        EXPECT_EQ(back.governed, c.governed);
        EXPECT_EQ(back.policy, c.policy);
        EXPECT_EQ(back.sabotage, c.sabotage);
    }
}

} // namespace
