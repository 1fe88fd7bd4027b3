/**
 * @file
 * Per-test scratch directory for tests that write files.
 *
 * ctest runs every gtest case as its own process, so under `ctest -j`
 * the cases of one suite run concurrently. A fixed scratch path shared
 * by those cases lets one case's cleanup delete another's files. A
 * TempDir is instead named after the running test's suite and name
 * (plus the process id, so concurrent builds never meet), created
 * fresh, and removed on destruction.
 */

#ifndef JSCALE_TESTS_TEST_TEMPDIR_HH
#define JSCALE_TESTS_TEST_TEMPDIR_HH

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <system_error>

#include <unistd.h>

namespace jscale::testing {

struct TempDir
{
    TempDir() : path(std::filesystem::temp_directory_path() / leafName())
    {
        std::filesystem::remove_all(path);
        std::filesystem::create_directories(path);
    }

    ~TempDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path, ec);
    }

    TempDir(const TempDir &) = delete;
    TempDir &operator=(const TempDir &) = delete;

    /** Path of @p leaf inside the directory. */
    std::string file(const std::string &leaf) const
    {
        return (path / leaf).string();
    }

    std::filesystem::path path;

  private:
    static std::string leafName()
    {
        const ::testing::TestInfo *info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        std::string name = "jscale-";
        name += info != nullptr ? std::string(info->test_suite_name()) +
                                      "." + info->name()
                                : "test";
        // Parameterized names carry '/'; keep the leaf one component.
        for (char &c : name) {
            if (c == '/')
                c = '_';
        }
        return name + "-" + std::to_string(::getpid());
    }
};

} // namespace jscale::testing

#endif // JSCALE_TESTS_TEST_TEMPDIR_HH
