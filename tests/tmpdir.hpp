#pragma once
// A fresh temporary directory for one test, created with mkdtemp under
// gtest's TempDir() and removed with its contents on destruction.  The
// name is unique across processes, so tests that ctest -j runs at the same
// time never share a file.

#include <gtest/gtest.h>
#include <stdlib.h>

#include <filesystem>
#include <stdexcept>
#include <string>
#include <system_error>
#include <utility>

namespace rt::test {

class TmpDir {
 public:
  explicit TmpDir(const std::string& prefix = "rt_test") {
    std::string name =
        (std::filesystem::path(::testing::TempDir()) / (prefix + ".XXXXXX"))
            .string();
    if (::mkdtemp(name.data()) == nullptr) {
      throw std::runtime_error("mkdtemp failed for " + name);
    }
    path_ = name;
  }
  ~TmpDir() {
    std::error_code ec;
    if (!path_.empty()) std::filesystem::remove_all(path_, ec);
  }
  TmpDir(TmpDir&& other) noexcept : path_(std::exchange(other.path_, {})) {}
  TmpDir(const TmpDir&) = delete;
  TmpDir& operator=(const TmpDir&) = delete;
  TmpDir& operator=(TmpDir&&) = delete;

  const std::filesystem::path& path() const { return path_; }
  /// path() / @p name, as a string.
  std::string file(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  std::filesystem::path path_;
};

}  // namespace rt::test
