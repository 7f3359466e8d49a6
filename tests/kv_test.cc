#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/random.h"
#include "common/string_util.h"
#include "kv/lsm_kv.h"
#include "kv/sstable.h"
#include "tests/test_util.h"

namespace dgf::kv {
namespace {

using ::dgf::testing::ScopedDfs;

// ---------- KvStore conformance suite ----------

// A fresh LsmKv with a tiny memtable, so every case crosses flushes,
// multi-run reads and compactions.
class KvConformanceTest : public ::testing::Test {
 protected:
  KvConformanceTest() {
    LsmKv::Options options;
    options.dfs = dfs_.get();
    options.dir = "/kv";
    options.memtable_flush_bytes = 256;
    options.max_runs = 3;
    auto store = LsmKv::Open(options);
    EXPECT_TRUE(store.ok()) << store.status().ToString();
    if (store.ok()) store_ = std::move(*store);
  }

  ScopedDfs dfs_{"kv"};
  std::unique_ptr<KvStore> store_;
};

TEST_F(KvConformanceTest, PutGetOverwrite) {
  KvStore& store = *store_;
  ASSERT_OK(store.Put("a", "1"));
  ASSERT_OK(store.Put("b", "2"));
  ASSERT_OK(store.Put("a", "3"));
  EXPECT_EQ(*store.Get("a"), "3");
  EXPECT_EQ(*store.Get("b"), "2");
  EXPECT_TRUE(store.Get("c").status().IsNotFound());
}

TEST_F(KvConformanceTest, DeleteHidesKey) {
  KvStore& store = *store_;
  ASSERT_OK(store.Put("k", "v"));
  ASSERT_OK(store.Delete("k"));
  EXPECT_TRUE(store.Get("k").status().IsNotFound());
  ASSERT_OK(store.Put("k", "v2"));
  EXPECT_EQ(*store.Get("k"), "v2");
}

TEST_F(KvConformanceTest, IteratorScansInOrder) {
  KvStore& store = *store_;
  for (int i = 99; i >= 0; --i) {
    ASSERT_OK(store.Put(StringPrintf("key%03d", i), std::to_string(i)));
  }
  auto it = store.NewIterator();
  int count = 0;
  std::string prev;
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    EXPECT_GT(std::string(it->key()), prev);
    prev = std::string(it->key());
    ++count;
  }
  EXPECT_EQ(count, 100);
}

TEST_F(KvConformanceTest, SeekFindsLowerBound) {
  KvStore& store = *store_;
  ASSERT_OK(store.Put("b", "1"));
  ASSERT_OK(store.Put("d", "2"));
  ASSERT_OK(store.Put("f", "3"));
  auto it = store.NewIterator();
  it->Seek("c");
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->key(), "d");
  it->Seek("f");
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->key(), "f");
  it->Seek("g");
  EXPECT_FALSE(it->Valid());
}

TEST_F(KvConformanceTest, CountMatchesLiveKeys) {
  KvStore& store = *store_;
  for (int i = 0; i < 50; ++i) {
    ASSERT_OK(store.Put("k" + std::to_string(i), "v"));
  }
  for (int i = 0; i < 10; ++i) {
    ASSERT_OK(store.Delete("k" + std::to_string(i)));
  }
  EXPECT_EQ(*store.Count(), 40u);
}

TEST_F(KvConformanceTest, RandomizedAgainstStdMap) {
  KvStore& store = *store_;
  std::map<std::string, std::string> model;
  Random rng(2024);
  for (int op = 0; op < 2000; ++op) {
    const std::string key = "k" + std::to_string(rng.Uniform(200));
    if (rng.Uniform(4) == 0) {
      ASSERT_OK(store.Delete(key));
      model.erase(key);
    } else {
      const std::string value = "v" + std::to_string(rng.Next() % 100000);
      ASSERT_OK(store.Put(key, value));
      model[key] = value;
    }
  }
  // Point lookups agree.
  for (int i = 0; i < 200; ++i) {
    const std::string key = "k" + std::to_string(i);
    auto got = store.Get(key);
    auto want = model.find(key);
    if (want == model.end()) {
      EXPECT_TRUE(got.status().IsNotFound()) << key;
    } else {
      ASSERT_TRUE(got.ok()) << key << ": " << got.status().ToString();
      EXPECT_EQ(*got, want->second) << key;
    }
  }
  // Full scan agrees.
  auto it = store.NewIterator();
  auto want = model.begin();
  for (it->SeekToFirst(); it->Valid(); it->Next(), ++want) {
    ASSERT_NE(want, model.end());
    EXPECT_EQ(it->key(), want->first);
    EXPECT_EQ(it->value(), want->second);
  }
  EXPECT_EQ(want, model.end());
}

TEST_F(KvConformanceTest, MultiGetMixedKeys) {
  KvStore& store = *store_;
  for (int i = 0; i < 100; ++i) {
    ASSERT_OK(store.Put(StringPrintf("key%03d", i), "v" + std::to_string(i)));
  }
  ASSERT_OK(store.Delete("key042"));

  const std::vector<std::string> keys = {"key000", "key042", "missing",
                                         "key099", "key007", "key007"};
  auto results = store.MultiGet(keys);
  ASSERT_EQ(results.size(), keys.size());
  EXPECT_EQ(*results[0], "v0");
  EXPECT_TRUE(results[1].status().IsNotFound());  // deleted
  EXPECT_TRUE(results[2].status().IsNotFound());  // never written
  EXPECT_EQ(*results[3], "v99");
  EXPECT_EQ(*results[4], "v7");  // duplicates each get an answer
  EXPECT_EQ(*results[5], "v7");
}

TEST_F(KvConformanceTest, MultiGetEmptyBatch) {
  EXPECT_TRUE(store_->MultiGet({}).empty());
}

TEST_F(KvConformanceTest, MultiGetMatchesGetRandomized) {
  KvStore& store = *store_;
  std::map<std::string, std::string> model;
  Random rng(77);
  for (int op = 0; op < 1500; ++op) {
    const std::string key = "k" + std::to_string(rng.Uniform(300));
    if (rng.Uniform(5) == 0) {
      ASSERT_OK(store.Delete(key));
      model.erase(key);
    } else {
      const std::string value = "v" + std::to_string(rng.Next() % 100000);
      ASSERT_OK(store.Put(key, value));
      model[key] = value;
    }
  }
  std::vector<std::string> keys;
  for (int i = 0; i < 300; ++i) keys.push_back("k" + std::to_string(i));
  auto results = store.MultiGet(keys);
  ASSERT_EQ(results.size(), keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    auto want = model.find(keys[i]);
    if (want == model.end()) {
      EXPECT_TRUE(results[i].status().IsNotFound()) << keys[i];
    } else {
      ASSERT_TRUE(results[i].ok()) << keys[i];
      EXPECT_EQ(*results[i], want->second) << keys[i];
    }
  }
}

// ---------- SSTable-specific tests ----------

TEST(SstableTest, WriteReadRoundTrip) {
  ScopedDfs dfs("sst_rt");
  ASSERT_OK_AND_ASSIGN(auto writer, SstableWriter::Create(dfs.get(), "/t.sst"));
  for (int i = 0; i < 100; ++i) {
    ASSERT_OK(writer->Add(StringPrintf("k%03d", i), "value" + std::to_string(i)));
  }
  ASSERT_OK(writer->Finish());

  ASSERT_OK_AND_ASSIGN(auto reader, SstableReader::Open(dfs.get(), "/t.sst"));
  EXPECT_EQ(reader->num_records(), 100u);
  bool deleted = false;
  EXPECT_EQ(*reader->Get("k042", &deleted), "value42");
  EXPECT_FALSE(deleted);
  EXPECT_TRUE(reader->Get("nope", &deleted).status().IsNotFound());
  EXPECT_TRUE(reader->Get("k0425", &deleted).status().IsNotFound());
}

TEST(SstableTest, RejectsOutOfOrderKeys) {
  ScopedDfs dfs("sst_order");
  ASSERT_OK_AND_ASSIGN(auto writer, SstableWriter::Create(dfs.get(), "/t.sst"));
  ASSERT_OK(writer->Add("b", "1"));
  EXPECT_FALSE(writer->Add("a", "2").ok());
  EXPECT_FALSE(writer->Add("b", "dup").ok());
}

TEST(SstableTest, TombstonesSurfaceInGet) {
  ScopedDfs dfs("sst_tomb");
  ASSERT_OK_AND_ASSIGN(auto writer, SstableWriter::Create(dfs.get(), "/t.sst"));
  ASSERT_OK(writer->Add("dead", "", /*tombstone=*/true));
  ASSERT_OK(writer->Add("live", "v"));
  ASSERT_OK(writer->Finish());
  ASSERT_OK_AND_ASSIGN(auto reader, SstableReader::Open(dfs.get(), "/t.sst"));
  bool deleted = false;
  ASSERT_OK(reader->Get("dead", &deleted).status());
  EXPECT_TRUE(deleted);
  EXPECT_EQ(*reader->Get("live", &deleted), "v");
  EXPECT_FALSE(deleted);
}

TEST(SstableTest, MultiGetMergeJoinOverRun) {
  ScopedDfs dfs("sst_mget");
  ASSERT_OK_AND_ASSIGN(auto writer, SstableWriter::Create(dfs.get(), "/t.sst"));
  for (int i = 0; i < 200; ++i) {
    if (i == 150) {
      ASSERT_OK(writer->Add(StringPrintf("k%03d", i), "", /*tombstone=*/true));
    } else {
      ASSERT_OK(writer->Add(StringPrintf("k%03d", i), "v" + std::to_string(i)));
    }
  }
  ASSERT_OK(writer->Finish());
  ASSERT_OK_AND_ASSIGN(auto reader, SstableReader::Open(dfs.get(), "/t.sst"));

  // Sorted batch spanning found / tombstone / absent keys plus a duplicate.
  const std::vector<std::string_view> keys = {"aaa",  "k000", "k000", "k017",
                                              "k150", "k199", "zzz"};
  ASSERT_OK_AND_ASSIGN(auto probes, reader->MultiGet(keys));
  ASSERT_EQ(probes.size(), keys.size());
  using State = SstableReader::ProbeResult;
  EXPECT_EQ(probes[0].state, State::kAbsent);
  EXPECT_EQ(probes[1].state, State::kFound);
  EXPECT_EQ(probes[1].value, "v0");
  EXPECT_EQ(probes[2].state, State::kFound);  // duplicate key re-resolved
  EXPECT_EQ(probes[2].value, "v0");
  EXPECT_EQ(probes[3].state, State::kFound);
  EXPECT_EQ(probes[3].value, "v17");
  EXPECT_EQ(probes[4].state, State::kTombstone);
  EXPECT_EQ(probes[5].state, State::kFound);
  EXPECT_EQ(probes[5].value, "v199");
  EXPECT_EQ(probes[6].state, State::kAbsent);

  EXPECT_TRUE(reader->MultiGet({})->empty());
}

TEST(SstableTest, CorruptMagicRejected) {
  ScopedDfs dfs("sst_corrupt");
  ASSERT_OK_AND_ASSIGN(auto writer, dfs->Create("/junk.sst"));
  ASSERT_OK(writer->Append(std::string(64, 'q')));
  ASSERT_OK(writer->Close());
  EXPECT_TRUE(SstableReader::Open(dfs.get(), "/junk.sst").status().IsCorruption());
}

// ---------- LSM-specific tests ----------

TEST(LsmKvTest, FlushCreatesRunsAndCompactionBoundsThem) {
  ScopedDfs dfs("lsm_runs");
  LsmKv::Options options;
  options.dfs = dfs.get();
  options.dir = "/kv";
  options.memtable_flush_bytes = 128;
  options.max_runs = 2;
  ASSERT_OK_AND_ASSIGN(auto store, LsmKv::Open(options));
  for (int i = 0; i < 500; ++i) {
    ASSERT_OK(store->Put(StringPrintf("key%04d", i), std::string(16, 'v')));
  }
  EXPECT_LE(store->NumRuns(), options.max_runs + 1);
  EXPECT_EQ(*store->Count(), 500u);
}

TEST(LsmKvTest, RecoversFromWalAndRuns) {
  ScopedDfs dfs("lsm_recover");
  LsmKv::Options options;
  options.dfs = dfs.get();
  options.dir = "/kv";
  options.memtable_flush_bytes = 200;
  {
    ASSERT_OK_AND_ASSIGN(auto store, LsmKv::Open(options));
    for (int i = 0; i < 100; ++i) {
      ASSERT_OK(store->Put(StringPrintf("key%03d", i), std::to_string(i)));
    }
    ASSERT_OK(store->Delete("key050"));
    // No explicit flush/close: destructor just closes the WAL handle.
  }
  ASSERT_OK_AND_ASSIGN(auto store, LsmKv::Open(options));
  EXPECT_EQ(*store->Get("key099"), "99");
  EXPECT_TRUE(store->Get("key050").status().IsNotFound());
  EXPECT_EQ(*store->Count(), 99u);
}

TEST(LsmKvTest, CompactMergesToSingleRun) {
  ScopedDfs dfs("lsm_compact");
  LsmKv::Options options;
  options.dfs = dfs.get();
  options.dir = "/kv";
  options.memtable_flush_bytes = 100;
  options.max_runs = 100;  // no automatic compaction
  ASSERT_OK_AND_ASSIGN(auto store, LsmKv::Open(options));
  for (int i = 0; i < 300; ++i) {
    ASSERT_OK(store->Put(StringPrintf("key%04d", i % 50), std::to_string(i)));
  }
  ASSERT_OK(store->Delete("key0000"));
  ASSERT_OK(store->Compact());
  EXPECT_EQ(store->NumRuns(), 1);
  EXPECT_EQ(*store->Count(), 49u);
  EXPECT_TRUE(store->Get("key0000").status().IsNotFound());
  // Newest value wins after merge: key0001 was last written at i=251.
  EXPECT_EQ(*store->Get("key0001"), "251");
}

TEST(LsmKvTest, ApproximateSizeGrowsWithData) {
  ScopedDfs dfs("lsm_size");
  LsmKv::Options options;
  options.dfs = dfs.get();
  options.dir = "/kv";
  ASSERT_OK_AND_ASSIGN(auto store, LsmKv::Open(options));
  ASSERT_OK_AND_ASSIGN(uint64_t empty, store->ApproximateSizeBytes());
  for (int i = 0; i < 100; ++i) {
    ASSERT_OK(store->Put("key" + std::to_string(i), std::string(100, 'x')));
  }
  ASSERT_OK_AND_ASSIGN(uint64_t full, store->ApproximateSizeBytes());
  EXPECT_GT(full, empty + 100 * 100);
}

}  // namespace
}  // namespace dgf::kv
