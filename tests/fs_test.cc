#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "fs/mini_dfs.h"
#include "testing/corruption.h"
#include "tests/test_util.h"

namespace dgf::fs {
namespace {

using ::dgf::testing::FlipReplicaByte;
using ::dgf::testing::ScopedDfs;

constexpr uint64_t kChunk = MiniDfs::kChecksumChunkBytes;

std::string Pattern(size_t n, int salt) {
  std::string out(n, '\0');
  for (size_t i = 0; i < n; ++i) {
    out[i] = static_cast<char>('a' + (i + salt) % 26);
  }
  return out;
}

TEST(MiniDfsTest, CreateWriteRead) {
  ScopedDfs dfs("fs_basic");
  ASSERT_OK_AND_ASSIGN(auto writer, dfs->Create("/a/b.txt"));
  ASSERT_OK(writer->Append("hello "));
  ASSERT_OK(writer->Append("world"));
  ASSERT_OK(writer->Close());

  ASSERT_OK_AND_ASSIGN(auto status, dfs->Stat("/a/b.txt"));
  EXPECT_EQ(status.length, 11u);

  ASSERT_OK_AND_ASSIGN(auto reader, dfs->OpenForRead("/a/b.txt"));
  std::string out;
  ASSERT_OK(reader->Pread(0, 11, &out));
  EXPECT_EQ(out, "hello world");
  ASSERT_OK(reader->Pread(6, 5, &out));
  EXPECT_EQ(out, "world");
  ASSERT_OK(reader->Pread(6, 100, &out));
  EXPECT_EQ(out, "world");  // short read at EOF
  ASSERT_OK(reader->Pread(100, 5, &out));
  EXPECT_EQ(out, "");  // past EOF
}

TEST(MiniDfsTest, CreateExistingFails) {
  ScopedDfs dfs("fs_exists");
  ASSERT_OK_AND_ASSIGN(auto writer, dfs->Create("/x"));
  ASSERT_OK(writer->Close());
  EXPECT_FALSE(dfs->Create("/x").ok());
}

TEST(MiniDfsTest, AppendExtends) {
  ScopedDfs dfs("fs_append");
  {
    ASSERT_OK_AND_ASSIGN(auto writer, dfs->Create("/log"));
    ASSERT_OK(writer->Append("aaa"));
    ASSERT_OK(writer->Close());
  }
  {
    ASSERT_OK_AND_ASSIGN(auto writer, dfs->Append("/log"));
    EXPECT_EQ(writer->Offset(), 3u);
    ASSERT_OK(writer->Append("bbb"));
    ASSERT_OK(writer->Close());
  }
  ASSERT_OK_AND_ASSIGN(auto reader, dfs->OpenForRead("/log"));
  std::string out;
  ASSERT_OK(reader->Pread(0, 6, &out));
  EXPECT_EQ(out, "aaabbb");
}

TEST(MiniDfsTest, ValidatesPaths) {
  ScopedDfs dfs("fs_paths");
  EXPECT_FALSE(dfs->Create("relative").ok());
  EXPECT_FALSE(dfs->Create("/a/../b").ok());
  EXPECT_FALSE(dfs->Create("/dir/").ok());
}

TEST(MiniDfsTest, DeleteAndExists) {
  ScopedDfs dfs("fs_delete");
  ASSERT_OK_AND_ASSIGN(auto writer, dfs->Create("/f"));
  ASSERT_OK(writer->Close());
  EXPECT_TRUE(dfs->Exists("/f"));
  ASSERT_OK(dfs->Delete("/f"));
  EXPECT_FALSE(dfs->Exists("/f"));
  EXPECT_TRUE(dfs->Delete("/f").IsNotFound());
}

TEST(MiniDfsTest, RenameMovesData) {
  ScopedDfs dfs("fs_rename");
  {
    ASSERT_OK_AND_ASSIGN(auto writer, dfs->Create("/tmp/x"));
    ASSERT_OK(writer->Append("data"));
    ASSERT_OK(writer->Close());
  }
  ASSERT_OK(dfs->Rename("/tmp/x", "/final/y"));
  EXPECT_FALSE(dfs->Exists("/tmp/x"));
  ASSERT_OK_AND_ASSIGN(auto reader, dfs->OpenForRead("/final/y"));
  std::string out;
  ASSERT_OK(reader->Pread(0, 4, &out));
  EXPECT_EQ(out, "data");
}

TEST(MiniDfsTest, ListFilesByPrefix) {
  ScopedDfs dfs("fs_list");
  for (const char* path : {"/t/data-0", "/t/data-1", "/t/other", "/u/data-0"}) {
    ASSERT_OK_AND_ASSIGN(auto writer, dfs->Create(path));
    ASSERT_OK(writer->Close());
  }
  auto files = dfs->ListFiles("/t/data-");
  ASSERT_EQ(files.size(), 2u);
  EXPECT_EQ(files[0].path, "/t/data-0");
  EXPECT_EQ(files[1].path, "/t/data-1");
}

TEST(MiniDfsTest, GetSplitsCoversFile) {
  ScopedDfs dfs("fs_splits", /*block_size=*/10);
  ASSERT_OK_AND_ASSIGN(auto writer, dfs->Create("/f"));
  ASSERT_OK(writer->Append(std::string(25, 'x')));
  ASSERT_OK(writer->Close());

  ASSERT_OK_AND_ASSIGN(auto splits, dfs->GetSplits("/f"));
  ASSERT_EQ(splits.size(), 3u);
  EXPECT_EQ(splits[0].offset, 0u);
  EXPECT_EQ(splits[0].length, 10u);
  EXPECT_EQ(splits[2].offset, 20u);
  EXPECT_EQ(splits[2].length, 5u);

  ASSERT_OK_AND_ASSIGN(auto big, dfs->GetSplits("/f", 100));
  ASSERT_EQ(big.size(), 1u);
  EXPECT_EQ(big[0].length, 25u);
}

TEST(MiniDfsTest, CountersTrackIo) {
  ScopedDfs dfs("fs_counters");
  ASSERT_OK_AND_ASSIGN(auto writer, dfs->Create("/f"));
  ASSERT_OK(writer->Append("0123456789"));
  ASSERT_OK(writer->Close());
  EXPECT_EQ(dfs->TotalBytesWritten(), 10u);
  ASSERT_OK_AND_ASSIGN(auto reader, dfs->OpenForRead("/f"));
  std::string out;
  ASSERT_OK(reader->Pread(0, 4, &out));
  EXPECT_EQ(dfs->TotalBytesRead(), 4u);
  dfs->ResetCounters();
  EXPECT_EQ(dfs->TotalBytesWritten(), 0u);
}

TEST(MiniDfsTest, MetadataAccountingGrowsWithDirs) {
  ScopedDfs dfs("fs_meta", /*block_size=*/4);
  const uint64_t before = dfs->MetadataMemoryBytes();
  ASSERT_OK_AND_ASSIGN(auto writer, dfs->Create("/p1/p2/p3/f"));
  ASSERT_OK(writer->Append("12345678"));  // 2 blocks of 4
  ASSERT_OK(writer->Close());
  // 3 directories + 1 file + 2 blocks = 6 objects of 150 bytes.
  EXPECT_EQ(dfs->MetadataMemoryBytes() - before, 6u * 150u);
  EXPECT_EQ(dfs->NumDirectories(), 3u);
  EXPECT_EQ(dfs->NumFiles(), 1u);
}

TEST(MiniDfsTest, ReopenRecoversNamespace) {
  ScopedDfs dfs("fs_reopen");
  ASSERT_OK_AND_ASSIGN(auto writer, dfs->Create("/keep/me"));
  ASSERT_OK(writer->Append("xyz"));
  ASSERT_OK(writer->Close());

  // A second MiniDfs over the same root must see the file.
  MiniDfs::Options options;
  options.root_dir = dfs.dir().string();
  ASSERT_OK_AND_ASSIGN(auto reopened, MiniDfs::Open(options));
  ASSERT_OK_AND_ASSIGN(auto st, reopened->Stat("/keep/me"));
  EXPECT_EQ(st.length, 3u);
  const std::vector<FileStatus> listed = reopened->ListFiles("/keep/");
  ASSERT_EQ(listed.size(), 1u);
  EXPECT_EQ(listed[0].path, "/keep/me");
  ASSERT_OK_AND_ASSIGN(auto reader, reopened->OpenForRead("/keep/me"));
  std::string out;
  ASSERT_OK(reader->Pread(0, 3, &out));
  EXPECT_EQ(out, "xyz");
}

// Replication 1 is the replicated path with one store: the copy lives in
// r0/, every chunk is checksummed, and a flipped byte is a Corruption error
// (there is no sibling to fail over to), never wrong data.
TEST(MiniDfsTest, SingleCopyIsChecksummed) {
  ScopedDfs dfs("fs_single_copy");
  ASSERT_EQ(dfs->replication(), 1);
  const std::string content = Pattern(3 * kChunk + 100, 0);
  {
    ASSERT_OK_AND_ASSIGN(auto writer, dfs->Create("/k1/data"));
    ASSERT_OK(writer->Append(content));
    ASSERT_OK(writer->Close());
  }
  const std::string local = dfs->StoreLocalPath(0, "/k1/data");
  EXPECT_EQ(local, (dfs.dir() / "r0" / "k1" / "data").string());
  EXPECT_TRUE(std::filesystem::exists(local));

  ASSERT_OK(FlipReplicaByte(dfs.get(), /*store=*/0, "/k1/data",
                            /*at=*/kChunk + 7));
  ASSERT_OK_AND_ASSIGN(auto reader, dfs->OpenForRead("/k1/data"));
  std::string out;
  const uint64_t failures = dfs->TotalChecksumFailures();
  const Status read = reader->Pread(0, content.size(), &out);
  EXPECT_TRUE(read.IsCorruption()) << read.ToString();
  EXPECT_GT(dfs->TotalChecksumFailures(), failures);
  EXPECT_TRUE(dfs->VerifyReplicas("/k1/data").IsCorruption());
  // Chunks clear of the flip still read back.
  ASSERT_OK(reader->Pread(2 * kChunk + 10, 200, &out));
  EXPECT_EQ(out, content.substr(2 * kChunk + 10, 200));

  // Undo the flip; a cold reopen rebuilds the sums from disk and reads the
  // file back exactly.
  ASSERT_OK(FlipReplicaByte(dfs.get(), /*store=*/0, "/k1/data",
                            /*at=*/kChunk + 7));
  MiniDfs::Options options;
  options.root_dir = dfs.dir().string();
  ASSERT_OK_AND_ASSIGN(auto reopened, MiniDfs::Open(options));
  ASSERT_OK_AND_ASSIGN(auto cold, reopened->OpenForRead("/k1/data"));
  ASSERT_OK(cold->Pread(0, content.size(), &out));
  EXPECT_EQ(out, content);
  EXPECT_OK(reopened->VerifyReplicas("/k1/data"));
}

// Append resumes the running checksums from the sealed ones, including a
// partial tail chunk whose CRC keeps extending across the reopen.
TEST(MiniDfsTest, AppendResumesChecksumsAcrossPartialChunk) {
  ScopedDfs dfs("fs_append_sums");
  const std::string head = Pattern(700, 0);
  const std::string tail = Pattern(900, 5);
  {
    ASSERT_OK_AND_ASSIGN(auto writer, dfs->Create("/log"));
    ASSERT_OK(writer->Append(head));
    ASSERT_OK(writer->Close());
  }
  {
    ASSERT_OK_AND_ASSIGN(auto writer, dfs->Append("/log"));
    EXPECT_EQ(writer->Offset(), head.size());
    ASSERT_OK(writer->Append(tail));
    ASSERT_OK(writer->Close());
  }
  EXPECT_OK(dfs->VerifyReplicas("/log"));
  ASSERT_OK_AND_ASSIGN(auto reader, dfs->OpenForRead("/log"));
  std::string out;
  ASSERT_OK(reader->Pread(0, head.size() + tail.size(), &out));
  EXPECT_EQ(out, head + tail);

  // Byte 800 sits in chunk 1, which the append resumed at byte 700.
  ASSERT_OK(FlipReplicaByte(dfs.get(), /*store=*/0, "/log", /*at=*/800));
  const Status read = reader->Pread(kChunk, 10, &out);
  EXPECT_TRUE(read.IsCorruption()) << read.ToString();
  EXPECT_TRUE(dfs->VerifyReplicas("/log").IsCorruption());
}

}  // namespace
}  // namespace dgf::fs
