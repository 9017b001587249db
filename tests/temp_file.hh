/**
 * @file
 * Uniquely named temporary files for tests.  gtest_discover_tests
 * runs every TEST as its own process and `ctest -j` runs those
 * processes concurrently, so a name must be unique across processes,
 * not only within one: mkstemp() creates each file atomically under a
 * fresh name.
 */

#ifndef MMR_TESTS_TEMP_FILE_HH
#define MMR_TESTS_TEMP_FILE_HH

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>

namespace mmr
{

/** A fresh file holding @p content, removed when the object dies. */
class TempFile
{
  public:
    explicit TempFile(const std::string &content)
    {
        const std::filesystem::path dir =
            std::filesystem::temp_directory_path();
        path_ = (dir / "mmr_test_XXXXXX").string();
        const int fd = mkstemp(path_.data());
        if (fd < 0)
            throw std::runtime_error("cannot create temp file " + path_);
        close(fd);
        std::ofstream out(path_);
        out << content;
    }
    ~TempFile() { std::remove(path_.c_str()); }

    TempFile(const TempFile &) = delete;
    TempFile &operator=(const TempFile &) = delete;

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

} // namespace mmr

#endif // MMR_TESTS_TEMP_FILE_HH
