#ifndef DGF_TESTS_TEST_UTIL_H_
#define DGF_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>

#include "fs/mini_dfs.h"
#include "kv/lsm_kv.h"
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

/// Opens an index store on `dfs` under `dir`; null (after recording a test
/// failure) when the open fails.
inline std::shared_ptr<kv::KvStore> OpenTestStore(
    const std::shared_ptr<fs::MiniDfs>& dfs, const std::string& dir = "/kv") {
  auto store = kv::LsmKv::Open({.dfs = dfs, .dir = dir});
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  if (!store.ok()) return nullptr;
  return std::move(*store);
}

/// Lines of /proc/self/maps. A thread that has exited but was never joined
/// keeps its stack mapped, so this shows unreaped threads where the thread
/// count does not.
inline size_t MappedRegionCount() {
  std::ifstream maps("/proc/self/maps");
  size_t lines = 0;
  for (std::string line; std::getline(maps, line);) ++lines;
  return lines;
}

/// Runs `cycle` (one connection's life) `times` times. After each one it
/// waits, up to 5 s, for the live thread count to fall back to what it was
/// before the cycle, so a slow host cannot pile up handlers still running.
inline void RunConnectionCycles(int times,
                                const std::function<void()>& cycle) {
  auto live_threads = [] {
    return std::distance(
        std::filesystem::directory_iterator("/proc/self/task"),
        std::filesystem::directory_iterator());
  };
  for (int i = 0; i < times; ++i) {
    const auto before = live_threads();
    cycle();
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (live_threads() > before &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
}

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
