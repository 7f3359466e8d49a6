// Replication and failover suite: k-way replica placement invariants,
// replica-failover reads under injected faults / checksum corruption /
// degraded clusters, re-replication repair, and cold-reopen recovery.
// Built as its own binary (dgf_replication_tests) so the ASan/TSan stages
// in scripts/check.sh can run exactly this suite.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "fs/mini_dfs.h"
#include "testing/corruption.h"
#include "tests/test_util.h"

namespace dgf {
namespace {

using ::dgf::testing::FlipReplicaByte;
using ::dgf::testing::ScopedDfs;

fs::MiniDfs::Options ReplicatedOptions(int replication) {
  fs::MiniDfs::Options options;
  options.block_size = 1 << 20;
  options.replication = replication;
  return options;
}

// Contents spanning several 512-byte checksum chunks plus a partial tail.
constexpr size_t kMultiChunkBytes = 3 * fs::MiniDfs::kChecksumChunkBytes + 300;

// A DFS path (under /pref) whose hash-rotated read preference starts at
// `store` — ReplicaOrder is a pure function of the path, so the preference
// can be chosen before the file exists.
std::string PathPreferring(const std::shared_ptr<fs::MiniDfs>& dfs,
                           int store) {
  for (int i = 0;; ++i) {
    const std::string path = "/pref/f" + std::to_string(i);
    const std::vector<int> order = dfs->ReplicaOrder(path);
    if (!order.empty() && order[0] == store) return path;
  }
}

void WriteFile(const std::shared_ptr<fs::MiniDfs>& dfs,
               const std::string& path, const std::string& content) {
  ASSERT_OK_AND_ASSIGN(auto writer, dfs->Create(path));
  ASSERT_OK(writer->Append(content));
  ASSERT_OK(writer->Close());
}

std::string ReadAll(const std::shared_ptr<fs::MiniDfs>& dfs,
                    const std::string& path) {
  auto reader = dfs->OpenForRead(path);
  EXPECT_TRUE(reader.ok()) << reader.status().ToString();
  if (!reader.ok()) return {};
  std::string out;
  auto read = (*reader)->Pread(0, (*reader)->Length(), &out);
  EXPECT_TRUE(read.ok()) << read.ToString();
  return out;
}

std::string ReadLocalCopy(const std::string& local) {
  std::ifstream file(local, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(file),
                     std::istreambuf_iterator<char>());
}

// Fails every read attempt on whichever store it is installed on; counts
// the attempts it poisoned.
class AlwaysTransientInjector : public fs::ReadFaultInjector {
 public:
  fs::ReadFault NextFault(const std::string& path, uint64_t offset,
                          uint64_t length) override {
    (void)path;
    (void)offset;
    (void)length;
    faults_.fetch_add(1, std::memory_order_relaxed);
    fs::ReadFault fault;
    fault.kind = fs::ReadFault::Kind::kTransientError;
    return fault;
  }

  int faults() const { return faults_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int> faults_{0};
};

// ---------------------------------------------------------------------------
// Placement.

TEST(ReplicationTest, PlacementFansOutToKDistinctStores) {
  ScopedDfs dfs("repl_placement", ReplicatedOptions(3));
  const std::string content(kMultiChunkBytes, 'x');
  WriteFile(dfs.get(), "/a/data.txt", content);

  // Every store holds a byte-identical copy at its own local path.
  std::vector<std::string> locals;
  for (int store = 0; store < 3; ++store) {
    const std::string local = dfs->StoreLocalPath(store, "/a/data.txt");
    ASSERT_TRUE(std::filesystem::exists(local)) << local;
    EXPECT_EQ(ReadLocalCopy(local), content) << local;
    locals.push_back(local);
  }
  EXPECT_NE(locals[0], locals[1]);
  EXPECT_NE(locals[1], locals[2]);

  // The read preference covers all k distinct stores.
  const std::vector<int> order = dfs->ReplicaOrder("/a/data.txt");
  ASSERT_EQ(order.size(), 3u);
  EXPECT_NE(order[0], order[1]);
  EXPECT_NE(order[1], order[2]);
  EXPECT_NE(order[0], order[2]);

  // Accounting: k replica bytes per logical byte; scrubbing is clean.
  EXPECT_EQ(dfs->TotalBytesWritten(), content.size());
  EXPECT_EQ(dfs->TotalReplicaBytesWritten(), 3 * content.size());
  EXPECT_OK(dfs->VerifyReplicas("/a/data.txt"));
  EXPECT_EQ(ReadAll(dfs.get(), "/a/data.txt"), content);
}

// ---------------------------------------------------------------------------
// Failover reads.

TEST(ReplicationTest, ReadFailsOverOnInjectedFault) {
  ScopedDfs dfs("repl_fault", ReplicatedOptions(2));
  const std::string path = PathPreferring(dfs.get(), /*store=*/0);
  const std::string content(kMultiChunkBytes, 'y');
  WriteFile(dfs.get(), path, content);

  // Poison only store 0 — the *preferred* replica. The read must retry past
  // the transient budget, fail over to store 1, and still return the exact
  // bytes. Store 1 must never see the injector.
  auto injector = std::make_shared<AlwaysTransientInjector>();
  dfs->SetReadFaultInjector(/*store=*/0, injector);
  EXPECT_EQ(ReadAll(dfs.get(), path), content);
  EXPECT_GE(dfs->TotalReadFailovers(), 1u);
  EXPECT_GE(injector->faults(), 1);

  // Scoping fix regression: clearing the one store's injector clears the
  // whole fault path; a fresh reader prefers store 0 again and succeeds
  // without another failover.
  dfs->SetReadFaultInjector(/*store=*/0, nullptr);
  const uint64_t failovers = dfs->TotalReadFailovers();
  const int faults = injector->faults();
  EXPECT_EQ(ReadAll(dfs.get(), path), content);
  EXPECT_EQ(dfs->TotalReadFailovers(), failovers);
  EXPECT_EQ(injector->faults(), faults);
}

TEST(ReplicationTest, ReadFailsOverOnChecksumMismatch) {
  ScopedDfs dfs("repl_crc", ReplicatedOptions(2));
  const std::string path = PathPreferring(dfs.get(), /*store=*/0);
  std::string content;
  while (content.size() < kMultiChunkBytes) content += "chunked-content-";
  WriteFile(dfs.get(), path, content);

  // Corrupt one byte of the preferred store's copy behind the DFS's back,
  // inside its second checksum chunk.
  ASSERT_OK(FlipReplicaByte(dfs.get(), /*store=*/0, path, /*at=*/700));

  // The read detects the chunk-checksum mismatch, abandons the corrupt
  // replica, and serves the intact sibling — bytes exact, corruption
  // counted, never silently wrong data.
  EXPECT_EQ(ReadAll(dfs.get(), path), content);
  EXPECT_GE(dfs->TotalChecksumFailures(), 1u);
  EXPECT_GE(dfs->TotalReadFailovers(), 1u);

  // Scrubbing sees what the read saw.
  const Status scrub = dfs->VerifyReplicas(path);
  EXPECT_TRUE(scrub.IsCorruption()) << scrub.ToString();
}

TEST(ReplicationTest, DegradedReadsDownToLastReplicaThenStructuredError) {
  ScopedDfs dfs("repl_degraded", ReplicatedOptions(3));
  const std::string content(kMultiChunkBytes, 'z');
  WriteFile(dfs.get(), "/d/file.txt", content);

  // k-1 stores die (processes, not disks): reads keep working off whatever
  // single replica survives.
  ASSERT_OK(dfs->KillStore(0));
  ASSERT_OK(dfs->KillStore(1));
  EXPECT_EQ(ReadAll(dfs.get(), "/d/file.txt"), content);

  // All k dead: a structured error, not a crash or partial data.
  ASSERT_OK(dfs->KillStore(2));
  ASSERT_OK_AND_ASSIGN(auto reader, dfs->OpenForRead("/d/file.txt"));
  std::string out;
  const Status read = reader->Pread(0, content.size(), &out);
  EXPECT_FALSE(read.ok());
  EXPECT_TRUE(read.IsIOError()) << read.ToString();

  // Revival restores service with no repair needed (data was never lost).
  ASSERT_OK(dfs->ReviveStore(0));
  ASSERT_OK(dfs->ReviveStore(1));
  ASSERT_OK(dfs->ReviveStore(2));
  EXPECT_EQ(ReadAll(dfs.get(), "/d/file.txt"), content);
}

// ---------------------------------------------------------------------------
// Re-replication.

TEST(ReplicationTest, ReReplicateRepairsWipedStore) {
  ScopedDfs dfs("repl_repair", ReplicatedOptions(2));
  const std::string content(kMultiChunkBytes, 'a');
  WriteFile(dfs.get(), "/r/before.txt", content);

  // Store 1 loses its disk; a file written while it is gone lands only on
  // store 0 and is born under-replicated.
  ASSERT_OK(dfs->KillStore(1, /*wipe_data=*/true));
  WriteFile(dfs.get(), "/r/during.txt", content);
  EXPECT_FALSE(
      std::filesystem::exists(dfs->StoreLocalPath(1, "/r/during.txt")));
  EXPECT_EQ(ReadAll(dfs.get(), "/r/before.txt"), content);

  // The store returns empty; ReReplicate repairs both files from store 0
  // and scrubbing proves the copies.
  ASSERT_OK(dfs->ReviveStore(1));
  ASSERT_OK_AND_ASSIGN(uint64_t repaired, dfs->ReReplicate());
  EXPECT_GE(repaired, 2u);
  for (const std::string path : {"/r/before.txt", "/r/during.txt"}) {
    EXPECT_OK(dfs->VerifyReplicas(path));
    EXPECT_EQ(ReadLocalCopy(dfs->StoreLocalPath(1, path)), content) << path;
    EXPECT_EQ(dfs->ReplicaOrder(path).size(), 2u) << path;
  }
}

TEST(ReplicationTest, OpenWriterIsNeverRepairedUntilSealed) {
  ScopedDfs dfs("repl_open_writer", ReplicatedOptions(2));
  ASSERT_OK_AND_ASSIGN(auto writer, dfs->Create("/w/log"));
  ASSERT_OK(writer->Append("aaaa"));

  // The write pipeline loses store 1's disk mid-file. Repairing the open
  // file now would leave a copy the pipeline no longer extends — it must be
  // skipped until the writer seals it.
  ASSERT_OK(dfs->KillStore(1, /*wipe_data=*/true));
  ASSERT_OK(dfs->ReviveStore(1));
  ASSERT_OK_AND_ASSIGN(uint64_t repaired, dfs->ReReplicate());
  EXPECT_EQ(repaired, 0u);
  EXPECT_FALSE(std::filesystem::exists(dfs->StoreLocalPath(1, "/w/log")));

  // The revived store must not silently rejoin the pipeline either (its
  // old descriptor points at the wiped, unlinked inode).
  ASSERT_OK(writer->Append("bbbb"));
  ASSERT_OK(writer->Close());
  EXPECT_FALSE(std::filesystem::exists(dfs->StoreLocalPath(1, "/w/log")));

  // Sealed, the file is repairable: both copies identical and scrubbed.
  ASSERT_OK_AND_ASSIGN(repaired, dfs->ReReplicate());
  EXPECT_EQ(repaired, 1u);
  EXPECT_EQ(ReadLocalCopy(dfs->StoreLocalPath(1, "/w/log")), "aaaabbbb");
  EXPECT_OK(dfs->VerifyReplicas("/w/log"));
  EXPECT_EQ(ReadAll(dfs.get(), "/w/log"), "aaaabbbb");
}

TEST(ReplicationTest, ColdReopenRebuildsNamespaceFromSurvivingStore) {
  // Managed manually: the DFS is closed, one store directory is destroyed
  // on disk, and a fresh MiniDfs must recover the namespace and repair the
  // lost copies from the survivor.
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("dgf_test_repl_cold_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  fs::MiniDfs::Options options = ReplicatedOptions(2);
  options.root_dir = dir.string();

  const std::string content(kMultiChunkBytes, 'c');
  {
    ASSERT_OK_AND_ASSIGN(auto dfs, fs::MiniDfs::Open(options));
    auto writer = dfs->Create("/cold/a.txt");
    ASSERT_TRUE(writer.ok());
    ASSERT_OK((*writer)->Append(content));
    ASSERT_OK((*writer)->Close());
  }
  std::filesystem::remove_all(dir / "r0");

  ASSERT_OK_AND_ASSIGN(auto dfs, fs::MiniDfs::Open(options));
  ASSERT_OK_AND_ASSIGN(auto status, dfs->Stat("/cold/a.txt"));
  EXPECT_EQ(status.length, content.size());
  EXPECT_EQ(ReadAll(dfs, "/cold/a.txt"), content);
  ASSERT_OK_AND_ASSIGN(uint64_t repaired, dfs->ReReplicate());
  EXPECT_EQ(repaired, 1u);
  EXPECT_OK(dfs->VerifyReplicas("/cold/a.txt"));
  EXPECT_EQ(ReadLocalCopy(dfs->StoreLocalPath(0, "/cold/a.txt")), content);

  dfs.reset();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace dgf
