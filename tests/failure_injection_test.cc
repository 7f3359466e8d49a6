// Failure-injection tests: corrupt on-disk state in targeted ways and check
// that every layer reports structured Corruption/NotFound errors instead of
// crashing or silently returning wrong data.

#include <gtest/gtest.h>

#include <string>

#include "dgf/dgf_builder.h"
#include "dgf/dgf_input_format.h"
#include "dgf/gfu.h"
#include "kv/lsm_kv.h"
#include "kv/sstable.h"
#include "table/rc_format.h"
#include "table/text_format.h"
#include "tests/test_util.h"

namespace dgf {
namespace {

using ::dgf::testing::AssertFlipByte;
using ::dgf::testing::AssertTruncateFile;
using ::dgf::testing::OpenTestStore;
using ::dgf::testing::ScopedDfs;

TEST(FailureInjectionTest, SstableTruncatedFooterIsCorruption) {
  ScopedDfs dfs("fi_sst_footer");
  {
    auto writer = kv::SstableWriter::Create(dfs.get(), "/t.sst");
    ASSERT_TRUE(writer.ok());
    for (int i = 0; i < 50; ++i) {
      ASSERT_OK((*writer)->Add("key" + std::to_string(1000 + i), "v"));
    }
    ASSERT_OK((*writer)->Finish());
  }
  ASSERT_OK_AND_ASSIGN(auto stat, dfs->Stat("/t.sst"));
  AssertTruncateFile(dfs, "/t.sst", stat.length - 10);
  auto reopened = kv::SstableReader::Open(dfs.get(), "/t.sst");
  EXPECT_FALSE(reopened.ok());
  EXPECT_TRUE(reopened.status().IsCorruption());
}

TEST(FailureInjectionTest, LsmTornWalTailIsDropped) {
  // A torn final WAL record (crash mid-write) must not poison recovery:
  // the intact prefix replays, the torn suffix is discarded.
  ScopedDfs dfs("fi_wal");
  kv::LsmKv::Options options;
  options.dfs = dfs.get();
  options.dir = "/kv";
  options.memtable_flush_bytes = 1 << 20;  // keep everything in the WAL
  {
    ASSERT_OK_AND_ASSIGN(auto store, kv::LsmKv::Open(options));
    for (int i = 0; i < 20; ++i) {
      ASSERT_OK(store->Put("key" + std::to_string(100 + i), "value"));
    }
  }
  ASSERT_OK_AND_ASSIGN(auto stat, dfs->Stat("/kv/WAL"));
  AssertTruncateFile(dfs, "/kv/WAL", stat.length - 3);  // tear the last record
  ASSERT_OK_AND_ASSIGN(auto store, kv::LsmKv::Open(options));
  ASSERT_OK_AND_ASSIGN(uint64_t count, store->Count());
  EXPECT_EQ(count, 19u);  // all but the torn tail
  EXPECT_EQ(*store->Get("key100"), "value");
}

TEST(FailureInjectionTest, LsmTornWalBatchIsDroppedWhole) {
  // A batch is one WAL record: a crash mid-write loses all of it, never
  // replays a prefix of its entries (a torn publish).
  ScopedDfs dfs("fi_wal_batch");
  kv::LsmKv::Options options;
  options.dfs = dfs.get();
  options.dir = "/kv";
  {
    ASSERT_OK_AND_ASSIGN(auto store, kv::LsmKv::Open(options));
    kv::WriteBatch batch;
    for (const char* key : {"a", "b", "c"}) batch.Put(key, "value");
    ASSERT_OK(store->ApplyBatch(batch));
  }
  ASSERT_OK_AND_ASSIGN(auto stat, dfs->Stat("/kv/WAL"));
  AssertTruncateFile(dfs, "/kv/WAL", stat.length - 2);
  {
    ASSERT_OK_AND_ASSIGN(auto store, kv::LsmKv::Open(options));
    ASSERT_OK_AND_ASSIGN(uint64_t count, store->Count());
    EXPECT_EQ(count, 0u);
    // A write after the dropped tail must not land behind its torn bytes.
    ASSERT_OK(store->Put("d", "value"));
  }
  ASSERT_OK_AND_ASSIGN(auto store, kv::LsmKv::Open(options));
  ASSERT_OK_AND_ASSIGN(uint64_t count, store->Count());
  EXPECT_EQ(count, 1u);
  EXPECT_EQ(*store->Get("d"), "value");
}

TEST(FailureInjectionTest, LsmDamagedEarlyWalRecordIsCorruption) {
  // Damage before the tail is no torn write: dropping the damaged record and
  // everything after it would silently lose acknowledged writes.
  ScopedDfs dfs("fi_wal_damage");
  kv::LsmKv::Options options;
  options.dfs = dfs.get();
  options.dir = "/kv";
  {
    ASSERT_OK_AND_ASSIGN(auto store, kv::LsmKv::Open(options));
    for (int i = 0; i < 20; ++i) {
      ASSERT_OK(store->Put("key" + std::to_string(100 + i), "value"));
    }
  }
  // Byte 1 lies in the first record's length field, byte 13 in its payload.
  for (uint64_t at : {uint64_t{1}, uint64_t{13}}) {
    AssertFlipByte(dfs, "/kv/WAL", at);
    auto reopened = kv::LsmKv::Open(options);
    EXPECT_TRUE(reopened.status().IsCorruption())
        << "byte " << at << ": " << reopened.status().ToString();
    AssertFlipByte(dfs, "/kv/WAL", at);  // FlipByte inverts: this restores
  }
  ASSERT_OK_AND_ASSIGN(auto store, kv::LsmKv::Open(options));
  ASSERT_OK_AND_ASSIGN(uint64_t count, store->Count());
  EXPECT_EQ(count, 20u);
}

TEST(FailureInjectionTest, RcColumnCorruptionSurfacesAsError) {
  ScopedDfs dfs("fi_rc");
  table::Schema schema({{"v", table::DataType::kInt64}});
  {
    table::RcFileWriter::Options options;
    options.rows_per_group = 8;
    auto writer = table::RcFileWriter::Create(dfs.get(), "/t.rc", schema,
                                              options);
    ASSERT_TRUE(writer.ok());
    for (int i = 0; i < 32; ++i) {
      ASSERT_OK((*writer)->Append({table::Value::Int64(i)}));
    }
    ASSERT_OK((*writer)->Close());
  }
  // Flip a byte inside the first group's column data (past sync + header).
  AssertFlipByte(dfs, "/t.rc", 24);
  fs::FileSplit split{"/t.rc", 0, 1 << 20};
  ASSERT_OK_AND_ASSIGN(auto reader,
                       table::RcSplitReader::Open(dfs.get(), split, schema));
  table::Row row;
  Status st;
  for (;;) {
    auto more = reader->Next(&row);
    if (!more.ok()) {
      st = more.status();
      break;
    }
    if (!*more) break;
  }
  EXPECT_FALSE(st.ok());  // corruption or parse error, never silence
}

TEST(FailureInjectionTest, MalformedRowInTextTableFailsScan) {
  ScopedDfs dfs("fi_text");
  table::Schema schema({{"a", table::DataType::kInt64},
                        {"b", table::DataType::kDouble}});
  {
    auto writer = table::TextFileWriter::Create(dfs.get(), "/t.txt", schema);
    ASSERT_TRUE(writer.ok());
    ASSERT_OK((*writer)->AppendLine("1|2.5"));
    ASSERT_OK((*writer)->AppendLine("oops"));
    ASSERT_OK((*writer)->Close());
  }
  fs::FileSplit split{"/t.txt", 0, 1 << 20};
  ASSERT_OK_AND_ASSIGN(auto reader,
                       table::TextSplitReader::Open(dfs.get(), split, schema));
  table::Row row;
  ASSERT_OK_AND_ASSIGN(bool first, reader->Next(&row));
  EXPECT_TRUE(first);
  auto second = reader->Next(&row);
  EXPECT_FALSE(second.ok());
  EXPECT_TRUE(second.status().IsCorruption());
}

TEST(FailureInjectionTest, CorruptGfuValueFailsLookup) {
  ScopedDfs dfs("fi_gfu");
  auto store = OpenTestStore(dfs.get());
  // Minimal table + index.
  table::TableDesc meter{"m",
                         table::Schema({{"x", table::DataType::kInt64},
                                        {"y", table::DataType::kInt64}}),
                         table::FileFormat::kText, "/w/m"};
  {
    ASSERT_OK_AND_ASSIGN(auto writer,
                         table::TableWriter::Create(dfs.get(), meter));
    for (int i = 0; i < 50; ++i) {
      ASSERT_OK(writer->Append(
          {table::Value::Int64(i), table::Value::Int64(i % 5)}));
    }
    ASSERT_OK(writer->Close());
  }
  core::DgfBuilder::Options options;
  options.dims = {{"x", table::DataType::kInt64, 0, 10},
                  {"y", table::DataType::kInt64, 0, 1}};
  options.data_dir = "/w/m_dgf";
  ASSERT_OK_AND_ASSIGN(auto index,
                       core::DgfBuilder::Build(dfs.get(), store, meter, options));
  // Scribble over one GFU value.
  auto it = store->NewIterator();
  it->Seek("G");
  ASSERT_TRUE(it->Valid());
  ASSERT_OK(store->Put(it->key(), "garbage"));

  query::Predicate pred;
  pred.And(query::ColumnRange::Between("x", table::Value::Int64(0), true,
                                       table::Value::Int64(50), false));
  auto lookup = index->Lookup(pred, /*aggregation=*/false);
  EXPECT_FALSE(lookup.ok());
  EXPECT_TRUE(lookup.status().IsCorruption());
}

TEST(FailureInjectionTest, MissingDataFileFailsSliceRead) {
  ScopedDfs dfs("fi_missing");
  std::vector<core::SliceLocation> slices = {{"/ghost.txt", 0, 100}};
  auto planned = core::PlanSlicedSplits(dfs.get(), slices);
  EXPECT_FALSE(planned.ok());
  EXPECT_TRUE(planned.status().IsNotFound());
}

TEST(FailureInjectionTest, BadPolicyMetadataFailsOpen) {
  ScopedDfs dfs("fi_policy");
  auto store = OpenTestStore(dfs.get());
  ASSERT_OK(store->Put(core::kMetaPolicyKey, "not,a,policy"));
  ASSERT_OK(store->Put(core::kMetaAggsKey, ""));
  ASSERT_OK(store->Put(core::kMetaDataDirKey, "/x"));
  table::Schema schema({{"x", table::DataType::kInt64}});
  EXPECT_FALSE(core::DgfIndex::Open(dfs.get(), store, schema).ok());
}

}  // namespace
}  // namespace dgf
