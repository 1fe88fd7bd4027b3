/**
 * @file
 * Tests for the gnuplot figure emitters: files written, data columns
 * consistent with the sweeps, scripts reference their data files.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/plots.hh"
#include "test_tempdir.hh"

namespace {

using namespace jscale;
namespace fs = std::filesystem;

jvm::RunResult
fakeRun(const std::string &app, std::uint32_t threads)
{
    jvm::RunResult r;
    r.app_name = app;
    r.threads = threads;
    r.wall_time = 1000000;
    r.gc_time = 1000 * threads;
    r.locks.acquisitions = 100 * threads;
    r.locks.contentions = 10 * threads;
    r.heap.lifespan.add(100, threads);
    r.heap.lifespan.add(100000, 100 - threads);
    return r;
}

core::SweepSet
sweeps()
{
    core::SweepSet s;
    for (const std::string app : {"xalan", "eclipse", "sunflow"}) {
        for (const std::uint32_t t : {4u, 16u, 48u})
            s[app].push_back(fakeRun(app, t));
    }
    return s;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

using jscale::testing::TempDir;

TEST(Plots, LockFigureHasOneColumnPerApp)
{
    TempDir tmp;
    const auto files =
        core::writeLockFigure(tmp.path.string(), sweeps(), false);
    ASSERT_EQ(files.size(), 2u);
    const std::string dat = slurp(files[0]);
    std::istringstream lines(dat);
    std::string header;
    std::getline(lines, header);
    EXPECT_EQ(header, "# threads eclipse sunflow xalan");
    std::string row;
    std::size_t rows = 0;
    while (std::getline(lines, row)) {
        if (row.empty())
            continue;
        std::istringstream cells(row);
        int v;
        int count = 0;
        while (cells >> v)
            ++count;
        EXPECT_EQ(count, 4);
        ++rows;
    }
    EXPECT_EQ(rows, 3u);
    // The script references the data file.
    EXPECT_NE(slurp(files[1]).find(files[0]), std::string::npos);
}

TEST(Plots, LifespanFigureHasOneCurvePerSetting)
{
    TempDir tmp;
    const auto s = sweeps();
    const auto files = core::writeLifespanFigure(
        tmp.path.string(), "xalan", s.at("xalan"));
    const std::string dat = slurp(files[0]);
    EXPECT_NE(dat.find("t4"), std::string::npos);
    EXPECT_NE(dat.find("t48"), std::string::npos);
    const std::string gp = slurp(files[1]);
    EXPECT_NE(gp.find("48 threads"), std::string::npos);
    EXPECT_NE(gp.find("logscale x"), std::string::npos);
}

TEST(Plots, MutatorGcFigureUsesStackedHistograms)
{
    TempDir tmp;
    const auto files =
        core::writeMutatorGcFigure(tmp.path.string(), sweeps());
    const std::string gp = slurp(files[1]);
    EXPECT_NE(gp.find("rowstacked"), std::string::npos);
    const std::string dat = slurp(files[0]);
    EXPECT_NE(dat.find("xalan 48"), std::string::npos);
}

TEST(Plots, WriteAllFiguresCoversThePaperSet)
{
    TempDir tmp;
    const auto files = core::writeAllFigures(tmp.path.string(), sweeps());
    // fig1a + fig1b (2 files each) + xalan + eclipse lifespans (2 each)
    // + fig2 (2) = 10.
    EXPECT_EQ(files.size(), 10u);
    for (const auto &f : files)
        EXPECT_TRUE(fs::exists(f)) << f;
}

} // namespace
