/**
 * @file
 * Golden-store tests: the "jscale-golden v1" text format round-trips
 * snapshots at full precision, the parser rejects malformed files with
 * line-numbered diagnostics, and the differ reports value drift,
 * missing/extra fields and missing/extra sweep points by label.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <string>

#include "check/golden.hh"

namespace {

using namespace jscale;
using check::FieldDiff;
using check::GoldenFile;
using check::GoldenRun;

GoldenFile
sampleFile()
{
    GoldenFile f;
    f.config.emplace_back("app", "xalan");
    f.config.emplace_back("fingerprint", "seed=42 scale=0.05");
    GoldenRun r1;
    r1.app = "xalan";
    r1.threads = 1;
    r1.stats.add("wall_time", 40805945, "ticks");
    r1.stats.add("speedup", 1.0);
    // A value that only survives max-precision serialization.
    r1.stats.add("gc.share", 0.1 + 0.2);
    GoldenRun r2;
    r2.app = "xalan";
    r2.threads = 8;
    r2.stats.add("wall_time", 11096399, "ticks");
    r2.stats.add("heap.bytes_allocated", 1234567890.0, "B");
    f.runs = {r1, r2};
    return f;
}

TEST(Golden, WriteReadRoundTripsAtFullPrecision)
{
    const GoldenFile file = sampleFile();
    std::stringstream ss;
    check::writeGolden(ss, file);

    GoldenFile back;
    std::string err;
    ASSERT_TRUE(check::readGolden(ss, back, err)) << err;
    EXPECT_EQ(back.configValue("app"), "xalan");
    EXPECT_EQ(back.configValue("fingerprint"), "seed=42 scale=0.05");
    EXPECT_EQ(back.configValue("absent"), "");
    ASSERT_EQ(back.runs.size(), 2u);
    EXPECT_EQ(back.runs[0].label(), "xalan@1");
    EXPECT_EQ(back.runs[1].label(), "xalan@8");

    // Exact double equality after a text round-trip, including the
    // non-representable 0.30000000000000004.
    EXPECT_EQ(back.runs[0].stats.get("gc.share"), 0.1 + 0.2);
    EXPECT_EQ(back.runs[0].stats.get("wall_time"), 40805945.0);
    EXPECT_EQ(back.runs[1].stats.get("heap.bytes_allocated"),
              1234567890.0);

    // A round-tripped file diffs clean against its own runs.
    EXPECT_TRUE(check::diffGolden(back, file.runs).empty());
}

TEST(Golden, ReaderRejectsMalformedFilesWithDiagnostics)
{
    const auto read_err = [](const std::string &text) {
        std::istringstream is(text);
        GoldenFile out;
        std::string err;
        EXPECT_FALSE(check::readGolden(is, out, err)) << text;
        return err;
    };

    EXPECT_EQ(read_err(""), "not a jscale-golden v1 file");
    EXPECT_EQ(read_err("something else\n"), "not a jscale-golden v1 file");
    // No runs at all.
    EXPECT_NE(read_err("jscale-golden v1\nconfig app=x\n").find("no runs"),
              std::string::npos);
    // Truncated inside a run.
    EXPECT_NE(read_err("jscale-golden v1\nrun xalan 4\nstat a 1\n")
                  .find("truncated"),
              std::string::npos);
    // Stat outside a run, unknown verb, malformed config — all carry
    // the offending line number.
    EXPECT_NE(read_err("jscale-golden v1\nstat a 1\n").find("line 2"),
              std::string::npos);
    EXPECT_NE(read_err("jscale-golden v1\nfrobnicate\n").find("line 2"),
              std::string::npos);
    EXPECT_NE(read_err("jscale-golden v1\nconfig junk\n").find("line 2"),
              std::string::npos);
    // Numbers are read whole: a suffix, a sign or trailing tokens are
    // malformed, not a prefix that happens to parse.
    for (const char *run : {"run h2 2x", "run h2 +2", "run h2 -2",
                            "run h2 2 extra", "run h2 4294967296"}) {
        EXPECT_NE(read_err("jscale-golden v1\n" + std::string(run) +
                           "\nend\n")
                      .find("line 2: malformed run header"),
                  std::string::npos)
            << run;
    }
    for (const char *stat : {"stat threads 2junk", "stat threads +2",
                             "stat threads 0x2", "stat threads 2 B extra"}) {
        EXPECT_NE(read_err("jscale-golden v1\nrun h2 2\n" +
                           std::string(stat) + "\nend\n")
                      .find("line 3: malformed stat entry"),
                  std::string::npos)
            << stat;
    }
}

TEST(Golden, CommentsAndBlankLinesAreIgnored)
{
    std::istringstream is("jscale-golden v1\n"
                          "# provenance comment\n"
                          "\n"
                          "run h2 4\n"
                          "stat wall_time 5 ticks\n"
                          "end\n");
    GoldenFile out;
    std::string err;
    ASSERT_TRUE(check::readGolden(is, out, err)) << err;
    ASSERT_EQ(out.runs.size(), 1u);
    EXPECT_EQ(out.runs[0].stats.get("wall_time"), 5.0);
}

TEST(Golden, DiffFindsValueDriftMissingAndExtraFields)
{
    stats::StatSnapshot recorded, fresh;
    recorded.add("a", 1.0);
    recorded.add("b", 2.0);
    recorded.add("same", 3.5);
    fresh.add("a", 1.5);   // drifted
    fresh.add("same", 3.5); // unchanged
    fresh.add("c", 9.0);   // new in fresh

    const auto diffs = check::diffSnapshots("xalan@4", recorded, fresh);
    ASSERT_EQ(diffs.size(), 3u);
    EXPECT_EQ(diffs[0].field, "a");
    EXPECT_EQ(diffs[0].kind, "value");
    EXPECT_EQ(diffs[0].expected, 1.0);
    EXPECT_EQ(diffs[0].actual, 1.5);
    EXPECT_EQ(diffs[1].field, "b");
    EXPECT_EQ(diffs[1].kind, "missing");
    EXPECT_EQ(diffs[2].field, "c");
    EXPECT_EQ(diffs[2].kind, "extra");

    // The rendering names the sweep point, the field and both values.
    const std::string line = diffs[0].format();
    EXPECT_NE(line.find("xalan@4 a"), std::string::npos) << line;
    EXPECT_NE(line.find("recorded 1"), std::string::npos) << line;
    EXPECT_NE(line.find("fresh 1.5"), std::string::npos) << line;
}

TEST(Golden, NanEqualsNanInVerification)
{
    // Stats like USL fits can legitimately be NaN on degenerate runs;
    // a recorded NaN matching a fresh NaN is not drift.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    stats::StatSnapshot recorded, fresh;
    recorded.add("fit.kappa", nan);
    fresh.add("fit.kappa", nan);
    EXPECT_TRUE(check::diffSnapshots("x@1", recorded, fresh).empty());

    stats::StatSnapshot real;
    real.add("fit.kappa", 0.25);
    EXPECT_EQ(check::diffSnapshots("x@1", recorded, real).size(), 1u);
}

TEST(Golden, DiffGoldenMatchesSweepPointsByAppAndThreads)
{
    const GoldenFile file = sampleFile();

    // Fresh results: xalan@1 missing, xalan@8 drifted, h2@4 unexpected.
    GoldenRun drifted = file.runs[1];
    drifted.stats = {};
    drifted.stats.add("wall_time", 999.0, "ticks");
    drifted.stats.add("heap.bytes_allocated", 1234567890.0, "B");
    GoldenRun surplus;
    surplus.app = "h2";
    surplus.threads = 4;

    const auto diffs = check::diffGolden(file, {drifted, surplus});
    ASSERT_EQ(diffs.size(), 3u);
    EXPECT_EQ(diffs[0].field, "xalan@1");
    EXPECT_EQ(diffs[0].kind, "missing");
    EXPECT_EQ(diffs[1].run, "xalan@8");
    EXPECT_EQ(diffs[1].field, "wall_time");
    EXPECT_EQ(diffs[1].kind, "value");
    EXPECT_EQ(diffs[2].field, "h2@4");
    EXPECT_EQ(diffs[2].kind, "extra");
}

} // namespace
