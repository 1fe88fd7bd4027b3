#include "base/atomic_file.hh"

#include <cstdio>
#include <filesystem>
#include <utility>

#include <fcntl.h>
#include <unistd.h>

namespace jscale {

namespace {

/** Open @p path read-only and fsync it; false on failure. */
bool
fsyncFd(const std::string &path, int flags)
{
    const int fd = ::open(path.c_str(), flags);
    if (fd < 0)
        return false;
    const bool ok = ::fsync(fd) == 0;
    ::close(fd);
    return ok;
}

} // namespace

AtomicFileWriter::AtomicFileWriter(std::string path)
    : path_(std::move(path)),
      tmp_path_(path_ + ".tmp." + std::to_string(::getpid()))
{
    const std::filesystem::path parent =
        std::filesystem::path(path_).parent_path();
    if (!parent.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(parent, ec);
    }
    out_.open(tmp_path_, std::ios::out | std::ios::trunc);
}

AtomicFileWriter::~AtomicFileWriter()
{
    if (committed_)
        return;
    out_.close();
    std::error_code ec;
    std::filesystem::remove(tmp_path_, ec);
}

bool
AtomicFileWriter::commit(std::string &err)
{
    out_.flush();
    if (!out_) {
        err = "write failure on '" + tmp_path_ + "'";
        return false;
    }
    out_.close();
    if (!fsyncFd(tmp_path_, O_RDONLY)) {
        err = "fsync failure on '" + tmp_path_ + "'";
        return false;
    }
    if (std::rename(tmp_path_.c_str(), path_.c_str()) != 0) {
        err = "cannot rename '" + tmp_path_ + "' to '" + path_ + "'";
        return false;
    }
    committed_ = true;
    // Make the rename itself durable; non-fatal if the directory
    // cannot be opened (e.g. unusual permissions).
    fsyncParentDir(path_);
    return true;
}

bool
fsyncParentDir(const std::string &path)
{
    std::filesystem::path parent =
        std::filesystem::path(path).parent_path();
    if (parent.empty())
        parent = ".";
#ifdef O_DIRECTORY
    return fsyncFd(parent.string(), O_RDONLY | O_DIRECTORY);
#else
    return fsyncFd(parent.string(), O_RDONLY);
#endif
}

} // namespace jscale
