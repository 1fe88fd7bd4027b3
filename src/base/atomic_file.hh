/**
 * @file
 * Crash-consistent file output: write-temp-then-atomic-rename.
 *
 * An AtomicFileWriter streams into "<path>.tmp.<pid>" and publishes the
 * finished file with fsync + rename(2) on commit(). A process killed at
 * any point therefore leaves either the previous file, no file, or a
 * stray temp — never a torn artifact under the final name that a resume
 * or merge step would trust. Destruction without commit() removes the
 * temp (best effort), so error paths clean up after themselves.
 */

#ifndef JSCALE_BASE_ATOMIC_FILE_HH
#define JSCALE_BASE_ATOMIC_FILE_HH

#include <fstream>
#include <string>

namespace jscale {

/** Durable single-file writer. Construct, stream, then commit(). */
class AtomicFileWriter
{
  public:
    /** Opens the temp file (parent directories created as needed). */
    explicit AtomicFileWriter(std::string path);

    /** Removes the temp file when commit() was never reached. */
    ~AtomicFileWriter();

    AtomicFileWriter(const AtomicFileWriter &) = delete;
    AtomicFileWriter &operator=(const AtomicFileWriter &) = delete;

    /** False when the temp file could not be opened. */
    bool ok() const { return static_cast<bool>(out_); }

    /** The stream to write through (valid while ok()). */
    std::ofstream &stream() { return out_; }

    /** Final path this writer publishes to. */
    const std::string &path() const { return path_; }

    /**
     * Flush, fsync and rename the temp over the final path. Returns
     * false (with @p err describing the step that failed) on any
     * stream, fsync or rename failure; the temp is removed either way.
     */
    bool commit(std::string &err);

  private:
    std::string path_;
    std::string tmp_path_;
    std::ofstream out_;
    bool committed_ = false;
};

/** fsync the parent directory of @p path so a rename itself is durable. */
bool fsyncParentDir(const std::string &path);

} // namespace jscale

#endif // JSCALE_BASE_ATOMIC_FILE_HH
