// Observability subsystem tests: metric registry semantics and concurrency
// (the TSan stage in scripts/check.sh runs this binary), histogram quantile
// accuracy against an exact sort, Prometheus/JSON rendering, the embedded
// HTTP exporter's endpoints and error handling, the trace ring buffer, and
// end-to-end trace-id propagation through an in-process two-shard cluster.
//
// Built as its own binary (dgf_obs_tests) so the sanitizer stages in
// scripts/check.sh can run exactly this suite.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "obs/http_exporter.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "server/client.h"
#include "server/query_service.h"
#include "testing/differential.h"
#include "testing/shard_sweep.h"
#include "tests/test_util.h"

namespace dgf::obs {
namespace {

// ---------------------------------------------------------------------------
// Registry basics.

TEST(MetricsRegistryTest, GetReturnsStablePointersPerName) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("queries.admitted");
  Counter* b = registry.GetCounter("queries.admitted");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, registry.GetCounter("queries.served"));
  a->Increment();
  a->Increment(4);
  EXPECT_EQ(b->Value(), 5u);

  Gauge* g = registry.GetGauge("appends.staging_s");
  g->Set(2.5);
  g->Add(0.5);
  EXPECT_DOUBLE_EQ(registry.GetGauge("appends.staging_s")->Value(), 3.0);
}

TEST(MetricsRegistryTest, SnapshotFlattensAndSorts) {
  MetricsRegistry registry;
  registry.GetCounter("b.count")->Increment(2);
  registry.GetGauge("a.gauge")->Set(1.5);
  registry.SetCallback("c.cb", [] { return 9.0; });
  Histogram* h = registry.GetHistogram("latency");
  h->Observe(0.001);
  h->Observe(0.002);

  const auto snapshot = registry.Snapshot();
  ASSERT_FALSE(snapshot.empty());
  EXPECT_TRUE(std::is_sorted(
      snapshot.begin(), snapshot.end(),
      [](const auto& x, const auto& y) { return x.first < y.first; }));
  std::set<std::string> names;
  for (const auto& [name, value] : snapshot) names.insert(name);
  for (const char* expected :
       {"a.gauge", "b.count", "c.cb", "latency.count", "latency.sum",
        "latency.p50", "latency.p95", "latency.p99"}) {
    EXPECT_EQ(names.count(expected), 1u) << expected;
  }
  for (const auto& [name, value] : snapshot) {
    if (name == "latency.count") EXPECT_DOUBLE_EQ(value, 2.0);
    if (name == "c.cb") EXPECT_DOUBLE_EQ(value, 9.0);
  }
}

TEST(MetricsRegistryTest, CallbackMayTouchTheRegistryWithoutDeadlock) {
  // Components register callbacks that read their own state; a callback that
  // (indirectly) resolves another metric must not deadlock the snapshot.
  MetricsRegistry registry;
  registry.GetCounter("x")->Increment(3);
  registry.SetCallback("y", [&registry] {
    return static_cast<double>(registry.GetCounter("x")->Value());
  });
  for (const auto& [name, value] : registry.Snapshot()) {
    if (name == "y") EXPECT_DOUBLE_EQ(value, 3.0);
  }
}

TEST(MetricsRegistryTest, ConcurrentIncrementsAndSnapshotsAreExact) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("stress.counter");
  Gauge* gauge = registry.GetGauge("stress.gauge");
  Histogram* histogram = registry.GetHistogram("stress.latency");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;

  std::vector<std::thread> threads;
  threads.reserve(kThreads + 1);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        counter->Increment();
        gauge->Add(1.0);
        histogram->Observe(1e-4 * static_cast<double>((t + i) % 100 + 1));
      }
    });
  }
  // A reader snapshotting concurrently must see internally consistent data
  // and never crash; exactness is asserted after the join.
  threads.emplace_back([&] {
    for (int i = 0; i < 50; ++i) {
      const auto snapshot = registry.Snapshot();
      EXPECT_FALSE(snapshot.empty());
      (void)registry.RenderPrometheus();
    }
  });
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(counter->Value(), static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_DOUBLE_EQ(gauge->Value(), static_cast<double>(kThreads) * kPerThread);
  EXPECT_EQ(histogram->Count(), static_cast<uint64_t>(kThreads) * kPerThread);
}

// ---------------------------------------------------------------------------
// Histogram quantiles.

TEST(HistogramTest, BucketBoundsGrowBySqrt2AndIndexIsConsistent) {
  for (size_t i = 1; i + 1 < Histogram::kNumBuckets - 1; ++i) {
    EXPECT_NEAR(Histogram::BucketBound(i) / Histogram::BucketBound(i - 1),
                std::sqrt(2.0), 1e-9);
  }
  for (size_t i = 0; i + 1 < Histogram::kNumBuckets; ++i) {
    const double bound = Histogram::BucketBound(i);
    EXPECT_LE(Histogram::BucketIndex(bound * 0.999), i);
    EXPECT_GT(Histogram::BucketIndex(bound * 1.001), i);
  }
  EXPECT_EQ(Histogram::BucketIndex(1e30), Histogram::kNumBuckets - 1);
  EXPECT_EQ(Histogram::BucketIndex(0.0), 0u);
  EXPECT_EQ(Histogram::BucketIndex(-1.0), 0u);
}

TEST(HistogramTest, QuantilesWithinSqrt2OfExactOrderStatistic) {
  // The documented accuracy contract: with sqrt(2)-growth buckets, every
  // quantile estimate is within one bucket of the exact order statistic, so
  // the ratio estimate/exact lies in [1/sqrt(2), sqrt(2)].
  Random rng(7);
  Histogram histogram;
  std::vector<double> values;
  for (int i = 0; i < 5000; ++i) {
    // Log-uniform over [1e-5, 10]: spans ~40 buckets.
    const double value = std::pow(10.0, rng.UniformDouble(-5.0, 1.0));
    values.push_back(value);
    histogram.Observe(value);
  }
  std::sort(values.begin(), values.end());
  EXPECT_EQ(histogram.Count(), values.size());
  for (const double q : {0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99}) {
    const double exact =
        values[static_cast<size_t>(q * (static_cast<double>(values.size()) - 1))];
    const double estimate = histogram.Quantile(q);
    EXPECT_GT(estimate, 0.0) << "q=" << q;
    const double ratio = estimate / exact;
    EXPECT_GE(ratio, 1.0 / std::sqrt(2.0) - 0.01) << "q=" << q;
    EXPECT_LE(ratio, std::sqrt(2.0) + 0.01) << "q=" << q;
  }
  EXPECT_NEAR(histogram.Sum(),
              std::accumulate(values.begin(), values.end(), 0.0), 1e-6);
}

TEST(HistogramTest, EmptyAndSingleValue) {
  Histogram histogram;
  EXPECT_EQ(histogram.Count(), 0u);
  EXPECT_DOUBLE_EQ(histogram.Quantile(0.5), 0.0);
  histogram.Observe(0.25);
  EXPECT_EQ(histogram.Count(), 1u);
  const double estimate = histogram.Quantile(0.5);
  EXPECT_GE(estimate, 0.25 / std::sqrt(2.0) - 1e-9);
  EXPECT_LE(estimate, 0.25 * std::sqrt(2.0) + 1e-9);
}

// ---------------------------------------------------------------------------
// Rendering.

TEST(RenderTest, PrometheusExposesCountersGaugesAndHistogramSeries) {
  MetricsRegistry registry;
  registry.GetCounter("queries.admitted")->Increment(12);
  registry.GetGauge("coord.shards")->Set(2);
  registry.SetCallback("queries.in_flight", [] { return 1.0; });
  Histogram* h = registry.GetHistogram("latency");
  h->Observe(0.003);
  h->Observe(0.004);

  const std::string text = registry.RenderPrometheus();
  EXPECT_NE(text.find("# TYPE dgf_queries_admitted counter"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("dgf_queries_admitted 12"), std::string::npos) << text;
  EXPECT_NE(text.find("dgf_coord_shards 2"), std::string::npos) << text;
  EXPECT_NE(text.find("dgf_queries_in_flight 1"), std::string::npos) << text;
  EXPECT_NE(text.find("# TYPE dgf_latency histogram"), std::string::npos)
      << text;
  EXPECT_NE(text.find("dgf_latency_bucket{le=\"+Inf\"} 2"), std::string::npos)
      << text;
  EXPECT_NE(text.find("dgf_latency_count 2"), std::string::npos) << text;
  // Cumulative buckets: the +Inf bucket equals the count, and every emitted
  // bucket count is non-decreasing in the order printed.
  uint64_t prev = 0;
  size_t at = 0;
  while ((at = text.find("dgf_latency_bucket{le=", at)) != std::string::npos) {
    const size_t brace = text.find("} ", at);
    ASSERT_NE(brace, std::string::npos);
    const uint64_t cum = std::strtoull(text.c_str() + brace + 2, nullptr, 10);
    EXPECT_GE(cum, prev);
    prev = cum;
    at = brace;
  }
  EXPECT_EQ(prev, 2u);
}

TEST(RenderTest, JsonIsFlatAndQuoted) {
  MetricsRegistry registry;
  registry.GetCounter("a.b")->Increment(3);
  registry.GetGauge("c")->Set(1.5);
  const std::string json = registry.RenderJson();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"a.b\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"c\""), std::string::npos) << json;
}

// ---------------------------------------------------------------------------
// Trace log.

TEST(TraceTest, NextTraceIdIsNonZeroAndDistinct) {
  std::set<uint64_t> ids;
  for (int i = 0; i < 1000; ++i) {
    const uint64_t id = NextTraceId();
    EXPECT_NE(id, 0u);
    EXPECT_TRUE(ids.insert(id).second);
  }
}

TEST(TraceTest, RingBufferKeepsMostRecentAndFiltersFast) {
  TraceLog::Options options;
  options.capacity = 3;
  options.min_seconds = 0.5;
  TraceLog log(options);
  log.Record({1, "fast", 0.1, {}});  // filtered: under min_seconds
  for (uint64_t id = 2; id <= 6; ++id) {
    log.Record({id, "slow " + std::to_string(id), 1.0, {{"execute", 0, 1.0}}});
  }
  const auto traces = log.Traces();
  ASSERT_EQ(traces.size(), 3u);
  EXPECT_EQ(traces[0].trace_id, 6u);  // most recent first
  EXPECT_EQ(traces[2].trace_id, 4u);
  const std::string json = log.RenderJson();
  EXPECT_NE(json.find("\"trace_id\""), std::string::npos) << json;
  EXPECT_NE(json.find("execute"), std::string::npos) << json;
  EXPECT_EQ(json.find("fast"), std::string::npos) << json;
}

// ---------------------------------------------------------------------------
// HTTP exporter.

/// Raw one-shot HTTP exchange (for request shapes HttpGet cannot produce).
std::string RawHttpExchange(int port, const std::string& payload) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return "";
  }
  (void)::send(fd, payload.data(), payload.size(), MSG_NOSIGNAL);
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

class HttpExporterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    registry_.GetCounter("queries.admitted")->Increment(7);
    registry_.GetHistogram("latency")->Observe(0.002);
    trace_log_.Record({42, "SELECT 1", 0.002, {{"execute", 0, 0.002}}});
    HttpExporter::Options options;
    options.registry = &registry_;
    options.trace_log = &trace_log_;
    options.recv_timeout_seconds = 2.0;
    auto exporter = HttpExporter::Start(options);
    ASSERT_TRUE(exporter.ok()) << exporter.status().ToString();
    exporter_ = std::move(*exporter);
    ASSERT_GT(exporter_->port(), 0);
  }

  MetricsRegistry registry_;
  TraceLog trace_log_;
  std::unique_ptr<HttpExporter> exporter_;
};

TEST_F(HttpExporterTest, ServesAllFourEndpoints) {
  auto health = HttpGet(exporter_->port(), "/healthz");
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(health->status_code, 200);
  EXPECT_EQ(health->body, "ok\n");

  auto metrics = HttpGet(exporter_->port(), "/metrics");
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_EQ(metrics->status_code, 200);
  EXPECT_NE(metrics->body.find("dgf_queries_admitted 7"), std::string::npos)
      << metrics->body;
  EXPECT_NE(metrics->body.find("dgf_latency_bucket"), std::string::npos);

  auto stats = HttpGet(exporter_->port(), "/stats");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->status_code, 200);
  EXPECT_NE(stats->body.find("\"queries.admitted\""), std::string::npos)
      << stats->body;

  auto trace = HttpGet(exporter_->port(), "/trace");
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  EXPECT_EQ(trace->status_code, 200);
  EXPECT_NE(trace->body.find("\"trace_id\":42"), std::string::npos)
      << trace->body;
}

TEST_F(HttpExporterTest, ErrorsAreHttpNotCrashes) {
  auto missing = HttpGet(exporter_->port(), "/nope");
  ASSERT_TRUE(missing.ok()) << missing.status().ToString();
  EXPECT_EQ(missing->status_code, 404);

  EXPECT_NE(RawHttpExchange(exporter_->port(), "POST /metrics HTTP/1.0\r\n\r\n")
                .find("405"),
            std::string::npos);
  EXPECT_NE(RawHttpExchange(exporter_->port(), "GET\r\n\r\n").find("400"),
            std::string::npos);
  std::string flood = "GET /metrics HTTP/1.0\r\n";
  flood.append(32 * 1024, 'a');
  flood += "\r\n\r\n";
  EXPECT_NE(RawHttpExchange(exporter_->port(), flood).find("431"),
            std::string::npos);

  // An early-closed connection must not poison the next request.
  {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(exporter_->port()));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof(addr)),
              0);
    (void)::send(fd, "GET /st", 7, MSG_NOSIGNAL);
    ::close(fd);
  }
  auto health = HttpGet(exporter_->port(), "/healthz");
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(health->status_code, 200);
}

size_t OpenFdCount() {
  return static_cast<size_t>(std::distance(
      std::filesystem::directory_iterator("/proc/self/fd"),
      std::filesystem::directory_iterator()));
}

TEST_F(HttpExporterTest, ShutdownLeavesSocketsItDoesNotOwnAlone) {
  const size_t fds_before = OpenFdCount();
  auto health = HttpGet(exporter_->port(), "/healthz");
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  // Wait for the handler to close its end, so the socketpair below is likely
  // to get the number the scrape's connection had.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (OpenFdCount() > fds_before &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  int pair[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, pair), 0);
  exporter_->Shutdown();
  const char sent = 'x';
  EXPECT_EQ(::send(pair[0], &sent, 1, MSG_NOSIGNAL), 1);
  char got = 0;
  EXPECT_EQ(::recv(pair[1], &got, 1, MSG_DONTWAIT), 1);
  EXPECT_EQ(got, 'x');
  ::close(pair[0]);
  ::close(pair[1]);
}

TEST_F(HttpExporterTest, FinishedScrapesReleaseTheirThreads) {
  auto scrape = [&] {
    auto health = HttpGet(exporter_->port(), "/healthz");
    EXPECT_TRUE(health.ok()) << health.status().ToString();
  };
  // Warm-up: the thread stack cache and malloc arenas settle.
  testing::RunConnectionCycles(20, scrape);
  const size_t before = testing::MappedRegionCount();
  testing::RunConnectionCycles(100, scrape);
  EXPECT_LT(testing::MappedRegionCount(), before + 20);
}

TEST_F(HttpExporterTest, ShutdownIsIdempotentAndStopsServing) {
  const int port = exporter_->port();
  exporter_->Shutdown();
  exporter_->Shutdown();
  auto after = HttpGet(port, "/healthz", 1.0);
  EXPECT_FALSE(after.ok() && after->status_code == 200);
}

// ---------------------------------------------------------------------------
// End-to-end: trace-id propagation through a two-shard cluster.

TEST(TracePropagationTest, CrossShardQueryCarriesTraceIdAndPerShardSpans) {
  auto world = testing::SeededWorld::Build(11);
  ASSERT_TRUE(world.ok()) << world.status().ToString();
  testing::ShardedCluster::Options options;
  options.config = world->config();
  options.dims = world->dims();
  options.num_shards = 2;
  auto cluster = testing::ShardedCluster::Start(options);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  ASSERT_EQ((*cluster)->num_shards(), 2);

  auto client = (*cluster)->Connect();
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  constexpr uint64_t kTraceId = 0xABCDEF12345ULL;
  auto response = (*client)->Query(
      "SELECT count(*), sum(powerConsumed) FROM meterdata", /*deadline=*/0,
      kTraceId);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_TRUE(response->ok()) << server::ResponseStatus(*response).ToString();

  // The id the client chose comes back on the merged stats...
  const query::QueryStats& stats = response->result.stats;
  EXPECT_EQ(stats.trace_id, kTraceId);

  // ...with the coordinator's own spans plus both shards' RPC and execution
  // spans, rebased onto one timeline.
  std::set<std::string> span_names;
  for (const SpanTiming& span : stats.spans) {
    EXPECT_GE(span.start_seconds, 0.0) << span.name;
    EXPECT_GE(span.duration_seconds, 0.0) << span.name;
    span_names.insert(span.name);
  }
  for (const char* expected :
       {"admission_wait", "merge", "shard0.rpc", "shard1.rpc",
        "shard0.execute", "shard1.execute"}) {
    EXPECT_EQ(span_names.count(expected), 1u)
        << expected << " missing; spans present: "
        << [&] {
             std::string all;
             for (const auto& name : span_names) all += name + " ";
             return all;
           }();
  }

  // The coordinator's trace log kept the trace under the propagated id...
  bool found_coord = false;
  for (const QueryTrace& trace : (*cluster)->coordinator()->trace_log()->Traces()) {
    found_coord = found_coord || trace.trace_id == kTraceId;
  }
  EXPECT_TRUE(found_coord);

  // ...and each shard's execution joined the same trace (wire propagation).
  for (int shard = 0; shard < 2; ++shard) {
    bool found = false;
    for (const QueryTrace& trace :
         (*cluster)->shard_service(shard)->trace_log()->Traces()) {
      found = found || trace.trace_id == kTraceId;
    }
    EXPECT_TRUE(found) << "shard " << shard
                       << " never recorded trace id " << kTraceId;
  }

  // Registry movement sanity: both shards admitted and served a sub-query.
  for (int shard = 0; shard < 2; ++shard) {
    const auto snapshot =
        (*cluster)->shard_service(shard)->metrics()->Snapshot();
    double served = 0;
    for (const auto& [name, value] : snapshot) {
      if (name == "queries.served") served = value;
    }
    EXPECT_GE(served, 1.0) << "shard " << shard;
  }
}

}  // namespace
}  // namespace dgf::obs
