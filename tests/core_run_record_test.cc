/**
 * @file
 * RunResult codec tests: a full simulated result roundtrips through the
 * "jscale-run v1" text record losslessly, a committed fixture pins the
 * record bytes, and the reader rejects every flavor of bad record —
 * wrong header, foreign key or fingerprint, torn writes, implausible
 * counts, garbage — instead of silently mixing results or throwing.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.hh"
#include "core/report.hh"
#include "core/run_record.hh"
#include "fault/fault.hh"
#include "test_tempdir.hh"

namespace {

using namespace jscale;

jvm::RunResult
simulate(const std::string &app, std::uint32_t threads)
{
    core::ExperimentConfig cfg;
    cfg.workload_scale = 0.05;
    cfg.seed = 23;
    cfg.profile = true;
    core::ExperimentRunner runner(cfg);
    return runner.runApp(app, threads);
}

std::string
record(const jvm::RunResult &r, const std::string &key = "k",
       const std::string &fp = "fp")
{
    std::ostringstream os;
    core::writeRunRecord(os, key, fp, r);
    return os.str();
}

TEST(RunRecord, FullResultRoundtripsToIdenticalBytes)
{
    // A profiled run populates the deep sections (Welford summaries,
    // histograms, per-thread rows, blame profile); re-serializing the
    // parsed record must reproduce the original bytes exactly.
    const jvm::RunResult original = simulate("h2", 8);
    const std::string bytes = record(original);

    std::istringstream is(bytes);
    jvm::RunResult restored;
    std::string err;
    ASSERT_TRUE(core::readRunRecord(is, "k", "fp", restored, err)) << err;
    EXPECT_EQ(record(restored), bytes);
}

TEST(RunRecord, RestoredResultRendersIdentically)
{
    // Byte-identical merge output requires the renderer to see exactly
    // the same values, not just "close" doubles.
    const jvm::RunResult original = simulate("sunflow", 4);
    std::istringstream is(record(original));
    jvm::RunResult restored;
    std::string err;
    ASSERT_TRUE(core::readRunRecord(is, "k", "fp", restored, err)) << err;

    std::ostringstream a, b;
    const core::SweepSet sa{{original.app_name, {original}}};
    const core::SweepSet sb{{restored.app_name, {restored}}};
    core::printScalabilityTable(a, sa);
    core::printBlameTable(a, original);
    core::blameTable(original).writeCsv(a);
    core::printScalabilityTable(b, sb);
    core::printBlameTable(b, restored);
    core::blameTable(restored).writeCsv(b);
    EXPECT_EQ(a.str(), b.str());
}

TEST(RunRecord, RejectsWrongHeader)
{
    std::istringstream is("jscale-run v99\nkey k\nend\n");
    jvm::RunResult out;
    std::string err;
    EXPECT_FALSE(core::readRunRecord(is, "k", "fp", out, err));
    EXPECT_FALSE(err.empty());
}

TEST(RunRecord, RejectsForeignKeyAndFingerprint)
{
    const std::string bytes = record(simulate("xalan", 2));
    jvm::RunResult out;
    std::string err;
    {
        std::istringstream is(bytes);
        EXPECT_FALSE(core::readRunRecord(is, "other-key", "fp", out, err));
    }
    {
        std::istringstream is(bytes);
        EXPECT_FALSE(core::readRunRecord(is, "k", "other-fp", out, err));
    }
}

TEST(RunRecord, RejectsTornRecord)
{
    // A record cut off anywhere before its "end" trailer reads as a
    // miss: the atomic-rename protocol should prevent this, but the
    // reader is the last line of defense.
    const std::string bytes = record(simulate("xalan", 2));
    jvm::RunResult out;
    std::string err;
    for (const double frac : {0.25, 0.5, 0.9}) {
        std::istringstream is(
            bytes.substr(0, static_cast<std::size_t>(bytes.size() * frac)));
        EXPECT_FALSE(core::readRunRecord(is, "k", "fp", out, err)) << frac;
    }
}

TEST(RunRecord, RejectsGarbage)
{
    jvm::RunResult out;
    std::string err;
    {
        std::istringstream is("");
        EXPECT_FALSE(core::readRunRecord(is, "k", "fp", out, err));
    }
    {
        std::istringstream is("\x01\x02\x03 not a record");
        EXPECT_FALSE(core::readRunRecord(is, "k", "fp", out, err));
    }

    // A hand-edited field reads strictly: a sign, blanks, a suffix or a
    // decimal where the codec writes an integer or a hexfloat.
    const std::string bytes = record(simulate("xalan", 2));
    const auto edited = [&bytes](const std::string &head,
                                 const std::string &value) {
        const std::size_t at = bytes.find("\n" + head + " ") + 1;
        const std::size_t eol = bytes.find('\n', at);
        return bytes.substr(0, at) + head + " " + value + bytes.substr(eol);
    };
    const std::string u = "u wall_time";
    const std::string d = "d gc.adaptive.final_young_fraction";
    for (const auto &[head, value] :
         std::vector<std::pair<std::string, std::string>>{
             {u, "-14215801"}, {u, "+14215801"}, {u, " 14215801"},
             {u, "14215801x"}, {u, "1.5"}, {u, "0x10"},
             {"u threads", "4294967296"}, {d, "0x-1p+0"}, {d, "+0x1p+0"},
             {d, "0x1p+0z"}, {d, " 0x1p+0"}, {d, "0x"}}) {
        const std::string text = edited(head, value);
        ASSERT_NE(text, bytes) << head;
        std::istringstream is(text);
        EXPECT_FALSE(core::readRunRecord(is, "k", "fp", out, err))
            << head << " " << value;
    }
    // The same edits with well-formed values read back.
    for (const auto &[head, value] :
         std::vector<std::pair<std::string, std::string>>{
             {u, "14215801"}, {d, "-0x1.8p+1"}, {d, "inf"}}) {
        std::istringstream is(edited(head, value));
        EXPECT_TRUE(core::readRunRecord(is, "k", "fp", out, err))
            << head << " " << value << ": " << err;
    }
}

TEST(RunRecord, FailedMarkerRoundtrips)
{
    jvm::RunResult marker;
    marker.app_name = "eclipse";
    marker.threads = 16;
    marker.run_error = "sim-time guard: exceeded budget";
    const std::string bytes = record(marker);

    std::istringstream is(bytes);
    jvm::RunResult restored;
    std::string err;
    ASSERT_TRUE(core::readRunRecord(is, "k", "fp", restored, err)) << err;
    EXPECT_EQ(restored.run_error, marker.run_error);
    EXPECT_EQ(record(restored), bytes);
}

/**
 * The committed v1 fixture (written before the codec was rewritten),
 * with the key and fingerprint from its header lines.
 */
struct Fixture
{
    std::string bytes;
    std::string key;
    std::string fp;

    Fixture()
    {
        std::ifstream in(std::string(JSCALE_TEST_DATA_DIR) +
                             "/run_record_v1.run",
                         std::ios::binary);
        std::ostringstream os;
        os << in.rdbuf();
        bytes = os.str();
        std::istringstream lines(bytes);
        std::string header;
        std::getline(lines, header);
        std::getline(lines, key);
        std::getline(lines, fp);
        key.erase(0, 4); // "key "
        fp.erase(0, 3);  // "fp "
    }

    /** Parse @p text as a record of this fixture's key/fingerprint. */
    bool read(const std::string &text, jvm::RunResult &out,
              std::string &err) const
    {
        std::istringstream is(text);
        return core::readRunRecord(is, key, fp, out, err);
    }
};

TEST(RunRecordFixture, WriterReproducesTheFixtureBytes)
{
    // The fixture's run: an open-loop, governed, faulted, profiled h2
    // sweep point whose timeline cannot be opened, so every section —
    // slow-task rows, monitor waits and artifact errors included — is
    // non-empty. The run is re-simulated here and must serialize to
    // the committed bytes exactly.
    const Fixture fixture;
    ASSERT_FALSE(fixture.bytes.empty());

    core::ExperimentConfig cfg;
    cfg.workload_scale = 0.05;
    cfg.profile = true;
    cfg.governor.mode = control::GovernorMode::HillClimb;
    std::string err;
    ASSERT_TRUE(fault::FaultPlan::parse("intensity=0.5:horizon=40",
                                        cfg.faults, err))
        << err;
    cfg.arrivals = "poisson:rate=2000:requests=200";

    // Artifact paths are relative, as on the command line: run inside
    // a scratch directory where "blocker" is a file, not a directory.
    jscale::testing::TempDir tmp;
    std::ofstream(tmp.file("blocker")).put('\n');
    const std::filesystem::path cwd = std::filesystem::current_path();
    std::filesystem::current_path(tmp.path);
    cfg.timeline_path = "blocker/t.json";
    core::ExperimentRunner runner(cfg);
    const jvm::RunResult r = runner.sweep("h2", {8}).front();
    const std::string fp = runner.campaignFingerprint();
    std::filesystem::current_path(cwd);

    EXPECT_EQ(fp, fixture.fp);
    EXPECT_EQ(record(r, fixture.key, fp), fixture.bytes);
}

TEST(RunRecordFixture, FixtureRoundtripsToIdenticalBytes)
{
    // Decode with the current reader, re-encode with the current
    // writer: a format change made to both halves together would read
    // the old bytes wrongly or write different ones, and fail here.
    const Fixture fixture;
    jvm::RunResult r;
    std::string err;
    ASSERT_TRUE(fixture.read(fixture.bytes, r, err)) << err;
    EXPECT_FALSE(r.profile.slowest.empty());
    EXPECT_FALSE(r.profile.lock_waits.empty());
    EXPECT_FALSE(r.artifact_errors.empty());
    EXPECT_GT(r.faults.injections, 0u);
    EXPECT_GT(r.governor.decisions, 0u);
    EXPECT_GT(r.traffic.completed, 0u);
    EXPECT_EQ(record(r, fixture.key, fixture.fp), fixture.bytes);
}

TEST(RunRecordFixture, EveryProperPrefixIsRejectedWithoutThrowing)
{
    const Fixture fixture;
    for (std::size_t n = 0; n < fixture.bytes.size(); ++n) {
        jvm::RunResult out;
        std::string err;
        bool ok = true;
        EXPECT_NO_THROW(ok = fixture.read(fixture.bytes.substr(0, n), out,
                                          err))
            << "prefix " << n;
        EXPECT_FALSE(ok) << "prefix " << n;
        EXPECT_FALSE(err.empty()) << "prefix " << n;
    }
}

TEST(RunRecordFixture, ImplausibleCountsAreRejectedWithoutThrowing)
{
    const Fixture fixture;
    const std::string &bytes = fixture.bytes;
    for (const std::string field :
         {"gc.events", "threads.count", "profile.slowest",
          "profile.lock_waits", "artifact_errors"}) {
        const std::string tag = "\nu " + field + " ";
        const std::size_t at = bytes.find(tag);
        ASSERT_NE(at, std::string::npos) << field;
        const std::size_t value = at + tag.size();
        const std::string bad = bytes.substr(0, value) +
                                "9223372036854775808" + // 2^63
                                bytes.substr(bytes.find('\n', value));
        jvm::RunResult out;
        std::string err;
        bool ok = true;
        EXPECT_NO_THROW(ok = fixture.read(bad, out, err)) << field;
        EXPECT_FALSE(ok) << field;
        EXPECT_NE(err.find(field), std::string::npos) << field << ": " << err;
    }
}

} // namespace
