// Shard coordinator tests: shard-map partitioning, exact cross-shard merge
// (including the avg -> sum + count rewrite) against the differential
// oracle, and the failure policy — a dead endpoint fails fast, a hung shard
// is declared dead within the response timeout, a shard killed mid-query
// yields a structured Unavailable (never a silent partial result), and
// coordinator-level CANCEL and deadline expiry fan out to every shard.
//
// Built as its own binary (dgf_coord_tests) so the sanitizer stages in
// scripts/check.sh can run exactly the coordinator suite.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/stopwatch.h"
#include "coord/coordinator.h"
#include "coord/shard_map.h"
#include "fs/mini_dfs.h"
#include "obs/trace.h"
#include "query/parser.h"
#include "server/client.h"
#include "server/server.h"
#include "server/wire.h"
#include "table/schema.h"
#include "table/value.h"
#include "testing/differential.h"
#include "testing/shard_sweep.h"
#include "workload/meter_gen.h"

namespace dgf::coord {
namespace {

using dgf::testing::DescribeResultMismatch;
using dgf::testing::SeededWorld;
using dgf::testing::ShardedCluster;
using server::Response;
using server::ServerClient;

// ---------------------------------------------------------------------------
// ShardMap partitioning.

TEST(ShardMapTest, ByTimeRangeCoversEveryDayWithContiguousBands) {
  ShardMap map = ShardMap::ByTimeRange("time", 100, 129, 4);
  EXPECT_EQ(map.num_shards(), 4);
  EXPECT_EQ(map.column(), "time");
  ASSERT_EQ(map.cuts().size(), 3u);
  for (size_t i = 1; i < map.cuts().size(); ++i) {
    EXPECT_LT(map.cuts()[i - 1], map.cuts()[i]);
  }
  // Every day maps to exactly one shard, in non-decreasing band order, and
  // every shard owns at least one day.
  std::vector<int> days_owned(4, 0);
  int prev = 0;
  for (int64_t day = 100; day <= 129; ++day) {
    const int shard = map.ShardForValue(day);
    ASSERT_GE(shard, prev);
    ASSERT_LT(shard, 4);
    prev = shard;
    ++days_owned[static_cast<size_t>(shard)];
  }
  for (int shard = 0; shard < 4; ++shard) {
    EXPECT_GE(days_owned[static_cast<size_t>(shard)], 1) << shard;
  }
  // Outer shards are unbounded, so out-of-range values still route.
  EXPECT_EQ(map.ShardForValue(-1000), 0);
  EXPECT_EQ(map.ShardForValue(1000000), 3);
  EXPECT_FALSE(map.LowerBound(0).has_value());
  EXPECT_FALSE(map.UpperBound(3).has_value());
  ASSERT_TRUE(map.UpperBound(0).has_value());
  ASSERT_TRUE(map.LowerBound(3).has_value());
}

TEST(ShardMapTest, RequestedShardsClampToDayCount) {
  ShardMap tiny = ShardMap::ByTimeRange("time", 5, 7, 16);
  EXPECT_EQ(tiny.num_shards(), 3);
  ShardMap one = ShardMap::ByTimeRange("time", 9, 9, 4);
  EXPECT_EQ(one.num_shards(), 1);
  EXPECT_TRUE(one.cuts().empty());
}

TEST(ShardMapTest, RestrictSkipsBandsTheQueryCannotTouch) {
  workload::MeterConfig config;
  config.extra_metrics = 0;
  const table::Schema schema = workload::MeterSchema(config);
  const int64_t first = config.start_day;
  const int64_t last = config.start_day + config.num_days - 1;
  ShardMap map = ShardMap::ByTimeRange("time", first, last, 3);

  // A query pinned to the first day intersects only shard 0.
  auto q = query::ParseQuery("SELECT count(*) FROM meterdata WHERE time = '" +
                                 table::FormatDate(first) + "'",
                             schema);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_TRUE(map.Restrict(*q, 0).has_value());
  EXPECT_FALSE(map.Restrict(*q, 1).has_value());
  EXPECT_FALSE(map.Restrict(*q, 2).has_value());

  // An unconstrained query intersects every shard.
  auto all = query::ParseQuery("SELECT count(*) FROM meterdata", schema);
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  for (int shard = 0; shard < map.num_shards(); ++shard) {
    EXPECT_TRUE(map.Restrict(*all, shard).has_value()) << shard;
  }
}

// ---------------------------------------------------------------------------
// Harness helpers.

// Read-fault injector used as a deterministic brake: while closed, every
// low-level DFS read on the gated shard blocks inside NextFault, so a
// fanned-out sub-query is provably in flight when the test overloads,
// cancels, kills, or times out the shard.
class GateInjector : public fs::ReadFaultInjector {
 public:
  fs::ReadFault NextFault(const std::string& path, uint64_t offset,
                          uint64_t length) override {
    (void)path;
    (void)offset;
    (void)length;
    std::unique_lock<std::mutex> lock(mu_);
    ++blocked_;
    cv_.notify_all();
    cv_.wait(lock, [&] { return open_; });
    --blocked_;
    return fs::ReadFault{};
  }

  void Open() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }

  /// Blocks until at least `n` reads are held at the gate.
  void WaitForBlocked(int n) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return blocked_ >= n || open_; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
  int blocked_ = 0;
};

// A projection has no aggregate-only shortcut, so it reliably reaches the
// DFS read path where GateInjector can hold it.
std::string FullProjectionSql() {
  return "SELECT userId, powerConsumed FROM meterdata";
}

struct ClusterFixture {
  std::unique_ptr<SeededWorld> world;
  std::unique_ptr<ShardedCluster> cluster;
};

Result<ClusterFixture> StartCluster(uint64_t seed, int num_shards,
                                    double shard_response_timeout = 30.0,
                                    int max_concurrent = 4) {
  ClusterFixture fixture;
  DGF_ASSIGN_OR_RETURN(auto world, SeededWorld::Build(seed));
  fixture.world = std::make_unique<SeededWorld>(std::move(world));
  ShardedCluster::Options options;
  options.config = fixture.world->config();
  options.dims = fixture.world->dims();
  options.num_shards = num_shards;
  options.shard_response_timeout_seconds = shard_response_timeout;
  options.max_concurrent = max_concurrent;
  DGF_ASSIGN_OR_RETURN(fixture.cluster, ShardedCluster::Start(options));
  return fixture;
}

Result<query::QueryResult> ResultFromResponse(const Response& response) {
  query::QueryResult result;
  result.schema = response.result.schema;
  result.rows.reserve(response.result.rows.size());
  for (const std::string& line : response.result.rows) {
    DGF_ASSIGN_OR_RETURN(table::Row row,
                         table::ParseRowText(line, result.schema));
    result.rows.push_back(std::move(row));
  }
  result.stats = response.result.stats;
  return result;
}

double StatValue(const std::vector<std::pair<std::string, double>>& stats,
                 const std::string& name) {
  for (const auto& [key, value] : stats) {
    if (key == name) return value;
  }
  return -1;
}

int64_t SingleCount(const Response& response) {
  if (response.result.rows.size() != 1) return -1;
  return std::strtoll(response.result.rows[0].c_str(), nullptr, 10);
}

int ReservedDeadPort() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  const int port = ntohs(addr.sin_port);
  ::close(fd);
  return port;
}

// ---------------------------------------------------------------------------
// Exact merge across shards, against the oracle.

TEST(CoordinatorTest, CrossShardMergeMatchesOracleIncludingAvg) {
  auto fixture = StartCluster(/*seed=*/4, /*num_shards=*/3);
  ASSERT_TRUE(fixture.ok()) << fixture.status().ToString();
  auto client = fixture->cluster->Connect();
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  const table::Schema& schema = fixture->world->meter().schema;
  const workload::MeterConfig& config = fixture->world->config();
  const std::string mid_date =
      table::FormatDate(config.start_day + config.num_days / 2);
  // Every query spans more than one time band, so the merge does real work:
  // partial avg must come back as sum + count, min/max fold, group keys
  // repeat across shards.
  const std::vector<std::string> sqls = {
      "SELECT avg(powerConsumed), min(powerConsumed), max(powerConsumed), "
      "count(*) FROM meterdata",
      "SELECT sum(powerConsumed), count(*) FROM meterdata WHERE time >= '" +
          table::FormatDate(config.start_day) + "'",
      "SELECT regionId, sum(powerConsumed), count(*) FROM meterdata "
      "GROUP BY regionId",
      "SELECT time, avg(powerConsumed) FROM meterdata WHERE time <= '" +
          mid_date + "' GROUP BY time",
      "SELECT userId, time, powerConsumed FROM meterdata WHERE userId <= 3",
  };
  for (const std::string& sql : sqls) {
    auto parsed = query::ParseQuery(sql, schema);
    ASSERT_TRUE(parsed.ok()) << sql << ": " << parsed.status().ToString();
    auto oracle = fixture->world->Oracle(*parsed);
    ASSERT_TRUE(oracle.ok()) << sql << ": " << oracle.status().ToString();
    auto response = (*client)->Query(sql);
    ASSERT_TRUE(response.ok()) << sql << ": " << response.status().ToString();
    ASSERT_TRUE(response->ok())
        << sql << ": " << server::ResponseStatus(*response).ToString();
    auto sharded = ResultFromResponse(*response);
    ASSERT_TRUE(sharded.ok()) << sql << ": " << sharded.status().ToString();
    EXPECT_EQ(DescribeResultMismatch(*oracle, *sharded), "") << sql;
  }
}

TEST(CoordinatorTest, SequentialCrossShardQueriesPayNoPerFrameStall) {
  // Every frame on the client and shard connections used to stall on a
  // delayed ACK (about 100 ms per query here).
  auto fixture = StartCluster(/*seed=*/6, /*num_shards=*/2);
  ASSERT_TRUE(fixture.ok()) << fixture.status().ToString();
  auto client = fixture->cluster->Connect();
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  const std::string sql = "SELECT sum(powerConsumed), count(*) FROM meterdata";
  Stopwatch watch;
  for (int i = 0; i < 50; ++i) {
    auto response = (*client)->Query(sql);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_TRUE(response->ok())
        << server::ResponseStatus(*response).ToString();
  }
  EXPECT_LT(watch.ElapsedSeconds(), 2.0);
  auto stats = fixture->cluster->coordinator()->StatsSnapshot();
  EXPECT_GE(StatValue(stats, "coord.subqueries"), 100);
}

TEST(CoordinatorTest, ServedLatencyIncludesAdmissionWait) {
  auto fixture = StartCluster(/*seed=*/6, /*num_shards=*/2,
                              /*shard_response_timeout=*/30.0,
                              /*max_concurrent=*/1);
  ASSERT_TRUE(fixture.ok()) << fixture.status().ToString();
  auto gate = std::make_shared<GateInjector>();
  fixture->cluster->shard_dfs(0)->SetReadFaultInjector(gate);
  fixture->cluster->shard_dfs(1)->SetReadFaultInjector(gate);
  auto first = fixture->cluster->Connect();
  auto second = fixture->cluster->Connect();
  ASSERT_TRUE(first.ok() && second.ok());

  // The second query waits for admission behind the held first one.
  auto held = (*first)->StartQuery(FullProjectionSql());
  ASSERT_TRUE(held.ok()) << held.status().ToString();
  gate->WaitForBlocked(1);
  auto queued = (*second)->StartQuery(FullProjectionSql());
  ASSERT_TRUE(queued.ok()) << queued.status().ToString();
  Coordinator* coordinator = fixture->cluster->coordinator();
  while (StatValue(coordinator->StatsSnapshot(), "queries.in_flight") < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  gate->Open();

  double waited_and_ran = 0;
  for (auto& [client, id] : {std::pair(first->get(), *held),
                             std::pair(second->get(), *queued)}) {
    auto response = client->Await(id);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_TRUE(response->ok())
        << server::ResponseStatus(*response).ToString();
    waited_and_ran += response->result.stats.wall_seconds;
    for (const obs::SpanTiming& span : response->result.stats.spans) {
      if (span.name == "admission_wait") waited_and_ran += span.duration_seconds;
    }
  }
  const auto stats = coordinator->StatsSnapshot();
  EXPECT_EQ(StatValue(stats, "latency.count"), 2);
  EXPECT_GE(StatValue(stats, "latency.sum"), waited_and_ran);
  fixture->cluster->shard_dfs(0)->SetReadFaultInjector(nullptr);
  fixture->cluster->shard_dfs(1)->SetReadFaultInjector(nullptr);
}

// ---------------------------------------------------------------------------
// Failure policy.

TEST(CoordinatorTest, DeadEndpointFailsFastWithStructuredUnavailable) {
  workload::MeterConfig config;
  config.num_users = 4;
  config.num_days = 4;
  config.extra_metrics = 0;

  Coordinator::Options options;
  options.shard_map = ShardMap::ByTimeRange(
      "time", config.start_day, config.start_day + config.num_days - 1, 2);
  // Ports that were just bound and released: nothing listens there.
  options.shards = {{.host = "127.0.0.1", .port = ReservedDeadPort()},
                    {.host = "127.0.0.1", .port = ReservedDeadPort()}};
  options.connect_timeout_seconds = 0.5;
  Coordinator coordinator(options);
  table::TableDesc meter;
  meter.name = "meterdata";
  meter.schema = workload::MeterSchema(config);
  coordinator.RegisterTable(meter);

  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  Status status;
  Stopwatch elapsed;
  ASSERT_TRUE(coordinator
                  .SubmitQuery(1, "SELECT count(*) FROM meterdata", 0, 0,
                               [&](Result<query::QueryResult> result) {
                                 std::lock_guard<std::mutex> lock(mu);
                                 status = result.status();
                                 done = true;
                                 cv.notify_all();
                               })
                  .ok());
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return done; });
  }
  EXPECT_TRUE(status.IsUnavailable()) << status.ToString();
  EXPECT_NE(status.message().find("unavailable"), std::string::npos)
      << status.ToString();
  // The connect timeout bounds the failure; a blocking connect to a dead
  // host could hang for minutes.
  EXPECT_LT(elapsed.ElapsedSeconds(), 10.0);
}

TEST(CoordinatorTest, HungShardDeclaredDeadWithinResponseTimeout) {
  auto fixture =
      StartCluster(/*seed=*/6, /*num_shards=*/2, /*shard_response_timeout=*/1.5);
  ASSERT_TRUE(fixture.ok()) << fixture.status().ToString();
  auto gate = std::make_shared<GateInjector>();
  fixture->cluster->shard_dfs(0)->SetReadFaultInjector(gate);
  fixture->cluster->shard_dfs(1)->SetReadFaultInjector(gate);

  auto client = fixture->cluster->Connect();
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  Stopwatch elapsed;
  auto response = (*client)->Query(FullProjectionSql());
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  const Status status = server::ResponseStatus(*response);
  EXPECT_TRUE(status.IsUnavailable()) << status.ToString();
  EXPECT_NE(status.message().find("unresponsive"), std::string::npos)
      << status.ToString();
  EXPECT_LT(elapsed.ElapsedSeconds(), 20.0);
  gate->Open();
}

TEST(CoordinatorTest, ShardKilledMidQueryYieldsUnavailableNotPartialRows) {
  auto fixture = StartCluster(/*seed=*/6, /*num_shards=*/2);
  ASSERT_TRUE(fixture.ok()) << fixture.status().ToString();
  auto gate = std::make_shared<GateInjector>();
  fixture->cluster->shard_dfs(1)->SetReadFaultInjector(gate);

  auto client = fixture->cluster->Connect();
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto id = (*client)->StartQuery(FullProjectionSql());
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  // Shard 1 is provably mid-scan; kill its server out from under the
  // coordinator. Shutdown() half-closes the shard's connections first, so
  // the coordinator sees EOF promptly even though the shard-side query is
  // still pinned at the gate.
  gate->WaitForBlocked(1);
  std::thread killer([&] { fixture->cluster->shard_server(1)->Shutdown(); });
  Stopwatch elapsed;
  auto response = (*client)->Await(*id);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  const Status status = server::ResponseStatus(*response);
  EXPECT_TRUE(status.IsUnavailable()) << status.ToString();
  EXPECT_TRUE(status.message().find("died mid-query") != std::string::npos ||
              status.message().find("unavailable") != std::string::npos)
      << status.ToString();
  // No partial result ever leaks out alongside an error.
  EXPECT_TRUE(response->result.rows.empty());
  EXPECT_LT(elapsed.ElapsedSeconds(), 20.0);
  gate->Open();
  killer.join();

  // The cluster stays structured after the loss: queries needing the dead
  // shard fail fast with Unavailable, and the front end itself is healthy.
  auto after = (*client)->Query("SELECT count(*) FROM meterdata");
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_TRUE(server::ResponseStatus(*after).IsUnavailable());
  // Appends are single-homed: a batch with rows routed to the dead shard
  // (a marker batch covering every day crosses every band) fails
  // Unavailable too.
  const workload::MeterConfig& config = fixture->world->config();
  const auto batch =
      dgf::testing::MakeMarkerBatch(config, /*rows=*/2 * config.num_days);
  auto append = (*client)->Append("meterdata", batch.lines);
  ASSERT_TRUE(append.ok()) << append.status().ToString();
  const Status append_status = server::ResponseStatus(*append);
  EXPECT_TRUE(append_status.IsUnavailable()) << append_status.ToString();
  auto ping = (*client)->Ping();
  ASSERT_TRUE(ping.ok()) << ping.status().ToString();
  EXPECT_TRUE(ping->ok());
}

TEST(CoordinatorTest, CancelFansOutToEveryShard) {
  auto fixture = StartCluster(/*seed=*/6, /*num_shards=*/2);
  ASSERT_TRUE(fixture.ok()) << fixture.status().ToString();
  auto gate = std::make_shared<GateInjector>();
  fixture->cluster->shard_dfs(0)->SetReadFaultInjector(gate);
  fixture->cluster->shard_dfs(1)->SetReadFaultInjector(gate);

  auto client = fixture->cluster->Connect();
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto id = (*client)->StartQuery(FullProjectionSql());
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  gate->WaitForBlocked(1);
  ASSERT_TRUE((*client)->StartCancel(*id).ok());
  // Give the coordinator a beat to observe its tripped token and fan the
  // CANCELs out, then release the shards so they can finish cancelled.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  gate->Open();
  auto response = (*client)->Await(*id);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  const Status status = server::ResponseStatus(*response);
  EXPECT_TRUE(status.IsCancelled()) << status.ToString();

  EXPECT_EQ(StatValue(fixture->cluster->coordinator()->StatsSnapshot(),
                      "queries.cancelled"),
            1.0);
  // At least one shard-side sub-query observed the fanned-out CANCEL.
  double shard_cancelled = 0;
  for (int shard = 0; shard < fixture->cluster->num_shards(); ++shard) {
    shard_cancelled +=
        StatValue(fixture->cluster->shard_service(shard)->StatsSnapshot(),
                  "queries.cancelled");
  }
  EXPECT_GE(shard_cancelled, 1.0);
}

TEST(CoordinatorTest, DeadlineExpiryFansOutAndReportsDeadlineExceeded) {
  auto fixture = StartCluster(/*seed=*/6, /*num_shards=*/2);
  ASSERT_TRUE(fixture.ok()) << fixture.status().ToString();
  auto gate = std::make_shared<GateInjector>();
  fixture->cluster->shard_dfs(0)->SetReadFaultInjector(gate);
  fixture->cluster->shard_dfs(1)->SetReadFaultInjector(gate);

  auto client = fixture->cluster->Connect();
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto id = (*client)->StartQuery(FullProjectionSql(), /*deadline_seconds=*/0.4);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  gate->WaitForBlocked(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(800));
  gate->Open();
  auto response = (*client)->Await(*id);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  const Status status = server::ResponseStatus(*response);
  EXPECT_TRUE(status.IsDeadlineExceeded()) << status.ToString();
  EXPECT_EQ(StatValue(fixture->cluster->coordinator()->StatsSnapshot(),
                      "queries.deadline_exceeded"),
            1.0);
}

// ---------------------------------------------------------------------------
// Concurrent cross-shard appends vs pinned readers.

TEST(CoordinatorTest, ConcurrentCrossShardAppendsKeepReadersConsistent) {
  auto fixture = StartCluster(/*seed=*/6, /*num_shards=*/2);
  ASSERT_TRUE(fixture.ok()) << fixture.status().ToString();
  const workload::MeterConfig& config = fixture->world->config();
  const ShardMap& map = fixture->cluster->shard_map();
  ASSERT_TRUE(map.UpperBound(0).has_value());
  const int64_t band0_last_day = *map.UpperBound(0);
  const int64_t marker_base = config.num_users + 1000;

  auto baseline_client = fixture->cluster->Connect();
  ASSERT_TRUE(baseline_client.ok()) << baseline_client.status().ToString();
  auto baseline = (*baseline_client)->Query("SELECT count(*) FROM meterdata");
  ASSERT_TRUE(baseline.ok() && (*baseline).ok());
  const int64_t base_count = SingleCount(*baseline);
  ASSERT_GT(base_count, 0);

  // Marker rows in FormatRowText form, matching the seeded schema: userId,
  // regionId, time, powerConsumed, then the seed's extra metric columns.
  const int extras =
      fixture->world->meter().schema.num_fields() - 4;
  auto marker_row = [&](int64_t user, int64_t day) {
    std::string row = std::to_string(user) + "|1|" + table::FormatDate(day) +
                      "|2.5";
    for (int i = 0; i < extras; ++i) row += "|0.25";
    return row;
  };

  constexpr int kBatches = 8;
  constexpr int kRowsPerBand = 2;  // per batch; per-shard slices are atomic
  std::atomic<bool> append_failed{false};
  std::thread appender([&] {
    auto client = fixture->cluster->Connect();
    if (!client.ok()) {
      append_failed = true;
      return;
    }
    for (int batch = 0; batch < kBatches; ++batch) {
      std::vector<std::string> rows;
      for (int j = 0; j < kRowsPerBand; ++j) {
        rows.push_back(marker_row(marker_base + batch * 4 + j,
                                  band0_last_day));  // band 0
        rows.push_back(marker_row(marker_base + batch * 4 + 2 + j,
                                  band0_last_day + 1));  // band 1
      }
      auto response = (*client)->Append("meterdata", rows);
      if (!response.ok() || !(*response).ok() ||
          (*response).rows_appended != rows.size()) {
        append_failed = true;
        return;
      }
    }
  });

  const std::string band0_marker_count_sql =
      "SELECT count(*) FROM meterdata WHERE userId >= " +
      std::to_string(marker_base) + " AND time <= '" +
      table::FormatDate(band0_last_day) + "'";
  std::atomic<int> reader_failures{0};
  auto reader = [&] {
    auto client = fixture->cluster->Connect();
    if (!client.ok()) {
      ++reader_failures;
      return;
    }
    int64_t last_total = base_count;
    for (int i = 0; i < 25; ++i) {
      auto total = (*client)->Query("SELECT count(*) FROM meterdata");
      if (!total.ok() || !(*total).ok() || SingleCount(*total) < last_total) {
        ++reader_failures;
        return;
      }
      last_total = SingleCount(*total);
      // Each batch lands kRowsPerBand rows in band 0 atomically (one
      // group-commit per shard), so a reader never sees a torn batch.
      auto markers = (*client)->Query(band0_marker_count_sql);
      if (!markers.ok() || !(*markers).ok() ||
          SingleCount(*markers) % kRowsPerBand != 0) {
        ++reader_failures;
        return;
      }
    }
  };
  std::thread reader_a(reader);
  std::thread reader_b(reader);
  appender.join();
  reader_a.join();
  reader_b.join();
  EXPECT_FALSE(append_failed.load());
  EXPECT_EQ(reader_failures.load(), 0);

  auto final_count = (*baseline_client)->Query("SELECT count(*) FROM meterdata");
  ASSERT_TRUE(final_count.ok() && (*final_count).ok());
  EXPECT_EQ(SingleCount(*final_count),
            base_count + kBatches * kRowsPerBand * 2);
  const auto coord_stats = fixture->cluster->coordinator()->StatsSnapshot();
  EXPECT_EQ(StatValue(coord_stats, "appends.batches"), kBatches);
  EXPECT_EQ(StatValue(coord_stats, "appends.rows"),
            kBatches * kRowsPerBand * 2);
  // Every batch spans both bands, so it split into two shard batches.
  EXPECT_EQ(StatValue(coord_stats, "appends.shard_batches"), kBatches * 2);
}

}  // namespace
}  // namespace dgf::coord
