#ifndef DGF_TESTS_TEST_UTIL_H_
#define DGF_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>

#include "fs/mini_dfs.h"
#include "testing/corruption.h"

#define ASSERT_OK(expr)                                   \
  do {                                                    \
    auto _st = (expr);                                    \
    ASSERT_TRUE(_st.ok()) << _st.ToString();              \
  } while (0)

#define EXPECT_OK(expr)                                   \
  do {                                                    \
    auto _st = (expr);                                    \
    EXPECT_TRUE(_st.ok()) << _st.ToString();              \
  } while (0)

#define ASSERT_OK_AND_ASSIGN(lhs, rexpr)                  \
  ASSERT_OK_AND_ASSIGN_IMPL_(                             \
      DGF_CONCAT_(_assert_res, __LINE__), lhs, rexpr)

#define ASSERT_OK_AND_ASSIGN_IMPL_(tmp, lhs, rexpr)       \
  auto tmp = (rexpr);                                     \
  ASSERT_TRUE(tmp.ok()) << tmp.status().ToString();       \
  lhs = std::move(tmp).value()

namespace dgf::testing {

/// Creates a fresh MiniDfs under a unique temp directory and removes it on
/// destruction.
class ScopedDfs {
 public:
  explicit ScopedDfs(const std::string& tag, uint64_t block_size = 1 << 20) {
    fs::MiniDfs::Options options;
    options.block_size = block_size;
    Start(tag, options);
  }

  /// Full-options variant (replication experiments);
  /// `base.root_dir` is ignored and replaced with the scoped temp dir.
  ScopedDfs(const std::string& tag, fs::MiniDfs::Options base) {
    Start(tag, std::move(base));
  }

  ~ScopedDfs() {
    dfs_.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  const std::shared_ptr<fs::MiniDfs>& get() const { return dfs_; }
  fs::MiniDfs* operator->() const { return dfs_.get(); }
  const std::filesystem::path& dir() const { return dir_; }

 private:
  void Start(const std::string& tag, fs::MiniDfs::Options options) {
    dir_ = std::filesystem::temp_directory_path() /
           ("dgf_test_" + tag + "_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter_++));
    std::filesystem::remove_all(dir_);
    options.root_dir = dir_.string();
    auto dfs = fs::MiniDfs::Open(options);
    EXPECT_TRUE(dfs.ok()) << dfs.status().ToString();
    if (dfs.ok()) dfs_ = *dfs;
  }

  static inline int counter_ = 0;
  std::filesystem::path dir_;
  std::shared_ptr<fs::MiniDfs> dfs_;
};

/// ASSERT-style wrappers over the shared corruption helpers
/// (src/testing/corruption.h) for use inside TEST bodies.
inline void AssertFlipByte(const ScopedDfs& dfs, const std::string& path,
                           uint64_t at) {
  ASSERT_OK(FlipByte(dfs.get(), path, at));
}

inline void AssertTruncateFile(const ScopedDfs& dfs, const std::string& path,
                               uint64_t keep) {
  ASSERT_OK(TruncateFile(dfs.get(), path, keep));
}

}  // namespace dgf::testing

#endif  // DGF_TESTS_TEST_UTIL_H_
