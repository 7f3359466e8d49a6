#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/encoding.h"
#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "tests/test_util.h"

namespace dgf {
namespace {

TEST(StatusTest, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::NotFound("missing thing");
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsNotFound());
  EXPECT_EQ(st.code(), StatusCode::kNotFound);
  EXPECT_EQ(st.ToString(), "NotFound: missing thing");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::IOError("disk");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsIOError());
  EXPECT_EQ(r.value_or(7), 7);
}

Result<int> ParsePositive(std::string_view text) {
  DGF_ASSIGN_OR_RETURN(int64_t v, ParseInt64(text));
  if (v <= 0) return Status::InvalidArgument("not positive");
  return static_cast<int>(v);
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(*ParsePositive("5"), 5);
  EXPECT_FALSE(ParsePositive("x").ok());
  EXPECT_FALSE(ParsePositive("-1").ok());
}

TEST(EncodingTest, Fixed64RoundTrip) {
  std::string buf;
  PutFixed64(&buf, 0xDEADBEEFCAFEBABEULL);
  ASSERT_EQ(buf.size(), 8u);
  EXPECT_EQ(DecodeFixed64(buf.data()), 0xDEADBEEFCAFEBABEULL);
}

TEST(EncodingTest, Fixed64BigEndianOrders) {
  std::string a, b;
  PutFixed64(&a, 1);
  PutFixed64(&b, 256);
  EXPECT_LT(a, b);
}

TEST(EncodingTest, VarintRoundTrip) {
  for (uint64_t v : {0ULL, 1ULL, 127ULL, 128ULL, 300ULL, 1ULL << 40,
                     ~0ULL}) {
    std::string buf;
    PutVarint64(&buf, v);
    std::string_view view(buf);
    ASSERT_OK_AND_ASSIGN(uint64_t decoded, GetVarint64(&view));
    EXPECT_EQ(decoded, v);
    EXPECT_TRUE(view.empty());
  }
}

TEST(EncodingTest, VarintTruncatedFails) {
  std::string buf;
  PutVarint64(&buf, 1ULL << 40);
  buf.resize(buf.size() - 1);
  std::string_view view(buf);
  EXPECT_FALSE(GetVarint64(&view).ok());
}

TEST(EncodingTest, LengthPrefixedRoundTrip) {
  std::string buf;
  PutLengthPrefixed(&buf, "hello");
  PutLengthPrefixed(&buf, "");
  PutLengthPrefixed(&buf, std::string(1000, 'x'));
  std::string_view view(buf);
  ASSERT_OK_AND_ASSIGN(std::string_view a, GetLengthPrefixed(&view));
  ASSERT_OK_AND_ASSIGN(std::string_view b, GetLengthPrefixed(&view));
  ASSERT_OK_AND_ASSIGN(std::string_view c, GetLengthPrefixed(&view));
  EXPECT_EQ(a, "hello");
  EXPECT_EQ(b, "");
  EXPECT_EQ(c.size(), 1000u);
  EXPECT_TRUE(view.empty());
}

TEST(EncodingTest, OrderedInt64PreservesOrder) {
  const std::vector<int64_t> values = {INT64_MIN, -1000000, -1, 0,
                                       1,         42,       1000000, INT64_MAX};
  std::vector<std::string> encoded;
  for (int64_t v : values) {
    std::string buf;
    PutOrderedInt64(&buf, v);
    EXPECT_EQ(DecodeOrderedInt64(buf.data()), v);
    encoded.push_back(buf);
  }
  EXPECT_TRUE(std::is_sorted(encoded.begin(), encoded.end()));
}

TEST(EncodingTest, OrderedDoublePreservesOrder) {
  const std::vector<double> values = {-1e300, -3.5, -0.0001, 0.0,
                                      0.0001, 2.5,  1e300};
  std::vector<std::string> encoded;
  for (double v : values) {
    std::string buf;
    PutOrderedDouble(&buf, v);
    EXPECT_EQ(DecodeOrderedDouble(buf.data()), v);
    encoded.push_back(buf);
  }
  EXPECT_TRUE(std::is_sorted(encoded.begin(), encoded.end()));
}

// Bit-at-a-time CRC-32 straight from the polynomial: the reference the
// table-driven Crc32 must match.
uint32_t BitwiseCrc32(std::string_view data) {
  uint32_t crc = 0xFFFFFFFFu;
  for (unsigned char byte : data) {
    crc ^= byte;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1) ? 0xEDB88320u : 0);
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(EncodingTest, Crc32KnownAnswer) {
  EXPECT_EQ(Crc32(0, "123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(0, ""), 0u);
}

TEST(EncodingTest, Crc32ChainsAcrossEverySplit) {
  Random rng(53);
  std::string buffer(8 + 40, '\0');
  for (char& c : buffer) c = static_cast<char>(rng.Uniform(256));
  // Unaligned starts and lengths 0-40 cover the 8-byte loop and its tail.
  for (size_t start = 0; start < 8; ++start) {
    for (size_t len = 0; len <= 40; ++len) {
      const std::string_view whole(buffer.data() + start, len);
      const uint32_t expected = BitwiseCrc32(whole);
      EXPECT_EQ(Crc32(0, whole), expected) << start << "+" << len;
      for (size_t cut = 0; cut <= len; ++cut) {
        EXPECT_EQ(Crc32(Crc32(0, whole.substr(0, cut)), whole.substr(cut)),
                  expected)
            << start << "+" << len << " cut " << cut;
      }
    }
  }
}

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  auto parts = SplitString("a||b|", '|');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringUtilTest, SplitSingleField) {
  auto parts = SplitString("abc", '|');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(StringUtilTest, TrimString) {
  EXPECT_EQ(TrimString("  x y  "), "x y");
  EXPECT_EQ(TrimString(""), "");
  EXPECT_EQ(TrimString(" \t\n "), "");
}

TEST(StringUtilTest, ParseInt64Strict) {
  EXPECT_EQ(*ParseInt64("-42"), -42);
  EXPECT_FALSE(ParseInt64("42x").ok());
  EXPECT_FALSE(ParseInt64("").ok());
  EXPECT_FALSE(ParseInt64("99999999999999999999999").ok());
}

TEST(StringUtilTest, ParseDoubleStrict) {
  EXPECT_DOUBLE_EQ(*ParseDouble("3.25"), 3.25);
  EXPECT_DOUBLE_EQ(*ParseDouble("-1e3"), -1000.0);
  EXPECT_FALSE(ParseDouble("3.25q").ok());
}

TEST(StringUtilTest, HumanBytes) {
  EXPECT_EQ(HumanBytes(512), "512 B");
  EXPECT_EQ(HumanBytes(2048), "2.00 KB");
  EXPECT_EQ(HumanBytes(3ULL << 20), "3.00 MB");
}

TEST(StringUtilTest, WithCommas) {
  EXPECT_EQ(WithCommas(0), "0");
  EXPECT_EQ(WithCommas(999), "999");
  EXPECT_EQ(WithCommas(1234567), "1,234,567");
  EXPECT_EQ(WithCommas(-1234), "-1,234");
}

TEST(RandomTest, DeterministicAcrossInstances) {
  Random a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RandomTest, UniformRangeInclusive) {
  Random rng(3);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int64_t v = rng.UniformRange(2, 5);
    ASSERT_GE(v, 2);
    ASSERT_LE(v, 5);
    saw_lo |= (v == 2);
    saw_hi |= (v == 5);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RandomTest, ZipfSkewsTowardsSmallValues) {
  ZipfGenerator zipf(1000, 0.9, 11);
  int small = 0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    const uint64_t v = zipf.Next();
    ASSERT_LT(v, 1000u);
    if (v < 10) ++small;
  }
  // With theta=0.9 the head is heavily favoured.
  EXPECT_GT(small, n / 4);
}

TEST(ParallelForTest, RunsEveryIndexExactlyOnce) {
  constexpr size_t kN = 1000;
  std::vector<std::atomic<int>> runs(kN);
  ParallelFor(kN, 4, [&](size_t i) { runs[i].fetch_add(1); });
  for (size_t i = 0; i < kN; ++i) EXPECT_EQ(runs[i].load(), 1) << i;
}

TEST(ParallelForTest, EmptyRangeReturns) {
  bool ran = false;
  ParallelFor(0, 4, [&](size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ParallelForTest, OneThreadRunsInlineInOrder) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<size_t> order;
  ParallelFor(50, 1, [&](size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  ASSERT_EQ(order.size(), 50u);
  for (size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ParallelForTest, NestedLoopsFinishWhileEveryPoolThreadIsBlocked) {
  // The outer loop holds the caller and every pool thread: each outer task
  // waits until all have arrived, runs an inner loop whose helpers no pool
  // thread is free to start, and waits again until every inner loop is done.
  // The rendezvous time out, so a loop that waits for an unstarted helper
  // fails the test instead of hanging it.
  const size_t outer = static_cast<size_t>(ProcessPool().num_threads()) + 1;
  std::mutex mu;
  std::condition_variable cv;
  size_t arrived = 0;
  size_t finished = 0;
  std::atomic<bool> timed_out{false};
  const auto rendezvous = [&](size_t* count) {
    std::unique_lock<std::mutex> lock(mu);
    ++*count;
    cv.notify_all();
    if (!cv.wait_for(lock, std::chrono::seconds(10),
                     [&] { return *count == outer; })) {
      timed_out = true;
    }
  };
  std::atomic<int> inner_runs{0};
  ParallelFor(outer, static_cast<int>(outer), [&](size_t) {
    rendezvous(&arrived);
    ParallelFor(16, 16, [&](size_t) { inner_runs.fetch_add(1); });
    rendezvous(&finished);
  });
  EXPECT_FALSE(timed_out.load());
  EXPECT_EQ(inner_runs.load(), static_cast<int>(16 * outer));
}

}  // namespace
}  // namespace dgf
