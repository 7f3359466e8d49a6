// Query service layer tests: wire protocol round-trips, stable error codes,
// admission control, cooperative cancellation, deadline enforcement,
// graceful-drain shutdown, and concurrent clients (with a background
// appender) checked against the differential oracle.
//
// Built as its own binary (dgf_server_tests) so the sanitizer stages in
// scripts/check.sh can run exactly the server suite.

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
#include "dgf/aggregators.h"
#include "fs/mini_dfs.h"
#include "query/query.h"
#include "server/client.h"
#include "server/query_service.h"
#include "server/server.h"
#include "server/wire.h"
#include "table/schema.h"
#include "testing/differential.h"
#include "tests/test_util.h"
#include "workload/meter_gen.h"

namespace dgf::server {
namespace {

using dgf::testing::MappedRegionCount;
using dgf::testing::RunConnectionCycles;
using dgf::testing::SeededWorld;

// ---------------------------------------------------------------------------
// Wire protocol round-trips.

TEST(ServerWireTest, RequestRoundTripAllOpcodes) {
  {
    Request req;
    req.opcode = Opcode::kQuery;
    req.request_id = 0xDEADBEEFCAFE;
    req.query.sql = "SELECT sum(powerConsumed) FROM meterdata WHERE userId = 7";
    req.query.deadline_seconds = 2.5;
    auto decoded = DecodeRequest(EncodeRequest(req));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->opcode, Opcode::kQuery);
    EXPECT_EQ(decoded->request_id, req.request_id);
    EXPECT_EQ(decoded->query.sql, req.query.sql);
    EXPECT_EQ(decoded->query.deadline_seconds, 2.5);
  }
  {
    Request req;
    req.opcode = Opcode::kAppend;
    req.request_id = 42;
    req.append.table = "meterdata";
    req.append.rows = {"1|2|2012-12-01|3.5", "4|5|2012-12-02|6.25"};
    auto decoded = DecodeRequest(EncodeRequest(req));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->append.table, "meterdata");
    EXPECT_EQ(decoded->append.rows, req.append.rows);
  }
  {
    Request req;
    req.opcode = Opcode::kCancel;
    req.request_id = 9;
    req.cancel_target = 7;
    auto decoded = DecodeRequest(EncodeRequest(req));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->cancel_target, 7u);
  }
  for (Opcode op : {Opcode::kStats, Opcode::kPing, Opcode::kShutdown}) {
    Request req;
    req.opcode = op;
    req.request_id = 3;
    auto decoded = DecodeRequest(EncodeRequest(req));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->opcode, op);
    EXPECT_EQ(decoded->request_id, 3u);
  }
  // Unknown opcode byte is corruption, not a crash.
  std::string bad = EncodeRequest(Request{});
  bad[0] = static_cast<char>(0x7F);
  EXPECT_TRUE(DecodeRequest(bad).status().IsCorruption());
}

TEST(ServerWireTest, QueryResponseRoundTripCarriesSchemaRowsStats) {
  Response resp;
  resp.opcode = Opcode::kQuery;
  resp.request_id = 17;
  resp.code = 0;
  resp.result.schema = table::Schema(
      {{"userId", table::DataType::kInt64},
       {"time", table::DataType::kDate},
       {"powerConsumed", table::DataType::kDouble}});
  resp.result.rows = {"1|2012-12-01|0.125", "2|2012-12-02|7.75"};
  resp.result.stats.path = query::AccessPath::kDgfIndex;
  resp.result.stats.records_read = 1234;
  resp.result.stats.records_matched = 99;
  resp.result.stats.bytes_read = 1 << 20;
  resp.result.stats.splits_scanned = 7;
  resp.result.stats.kv_gets = 11;
  resp.result.stats.cache_hits = 5;
  resp.result.stats.cache_misses = 6;
  resp.result.stats.wall_seconds = 0.125;

  auto decoded = DecodeResponse(EncodeResponse(resp));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(decoded->ok());
  EXPECT_EQ(decoded->request_id, 17u);
  ASSERT_EQ(decoded->result.schema.num_fields(), 3);
  EXPECT_EQ(decoded->result.schema.field(1).name, "time");
  EXPECT_EQ(decoded->result.schema.field(1).type, table::DataType::kDate);
  EXPECT_EQ(decoded->result.rows, resp.result.rows);
  EXPECT_EQ(decoded->result.stats.path, query::AccessPath::kDgfIndex);
  EXPECT_EQ(decoded->result.stats.records_read, 1234u);
  EXPECT_EQ(decoded->result.stats.splits_scanned, 7);
  EXPECT_EQ(decoded->result.stats.cache_misses, 6u);
  EXPECT_EQ(decoded->result.stats.wall_seconds, 0.125);
}

TEST(ServerWireTest, ErrorStatsAppendResponsesRoundTrip) {
  {
    Response resp = MakeErrorResponse(
        Opcode::kQuery, 5, Status::Unavailable("admission queue full"));
    auto decoded = DecodeResponse(EncodeResponse(resp));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_FALSE(decoded->ok());
    const Status status = ResponseStatus(*decoded);
    EXPECT_TRUE(status.IsUnavailable()) << status.ToString();
    EXPECT_EQ(status.message(), "admission queue full");
  }
  {
    Response resp;
    resp.opcode = Opcode::kStats;
    resp.request_id = 2;
    resp.stats = {{"queries.served", 12.0}, {"latency.p99", 3.5}};
    auto decoded = DecodeResponse(EncodeResponse(resp));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->stats, resp.stats);
  }
  {
    Response resp;
    resp.opcode = Opcode::kAppend;
    resp.request_id = 3;
    resp.rows_appended = 1000;
    auto decoded = DecodeResponse(EncodeResponse(resp));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->rows_appended, 1000u);
  }
}

// Every StatusCode must survive the trip to a wire number and back; the wire
// numbers themselves are a frozen protocol contract.
TEST(ServerWireTest, StatusWireCodesRoundTrip) {
  constexpr StatusCode kAll[] = {
      StatusCode::kOk,           StatusCode::kInvalidArgument,
      StatusCode::kNotFound,     StatusCode::kAlreadyExists,
      StatusCode::kIOError,      StatusCode::kCorruption,
      StatusCode::kNotSupported, StatusCode::kOutOfRange,
      StatusCode::kInternal,     StatusCode::kCancelled,
      StatusCode::kDeadlineExceeded, StatusCode::kUnavailable,
  };
  for (StatusCode code : kAll) {
    const uint16_t wire = static_cast<uint16_t>(StatusCodeToWire(code));
    EXPECT_EQ(StatusCodeFromWire(wire), code) << StatusCodeName(code);
  }
  // The frozen numbering (append-only; see common/status.h).
  EXPECT_EQ(static_cast<uint16_t>(StatusCodeToWire(StatusCode::kOk)), 0);
  EXPECT_EQ(static_cast<uint16_t>(StatusCodeToWire(StatusCode::kCancelled)), 9);
  EXPECT_EQ(
      static_cast<uint16_t>(StatusCodeToWire(StatusCode::kDeadlineExceeded)),
      10);
  EXPECT_EQ(
      static_cast<uint16_t>(StatusCodeToWire(StatusCode::kUnavailable)), 11);
  // A newer peer's unknown code degrades to kInternal instead of failing.
  EXPECT_EQ(StatusCodeFromWire(999), StatusCode::kInternal);
}

// ---------------------------------------------------------------------------
// Harness: a seeded differential world served over a live socket.

struct Harness {
  std::unique_ptr<SeededWorld> world;
  std::unique_ptr<QueryService> service;
  std::unique_ptr<Server> server;

  Result<std::unique_ptr<ServerClient>> Connect() const {
    return ServerClient::ConnectTcp("127.0.0.1", server->port());
  }
};

Result<std::unique_ptr<Harness>> StartHarness(uint64_t seed,
                                              int max_concurrent = 4,
                                              int max_pending = 16) {
  auto harness = std::make_unique<Harness>();
  DGF_ASSIGN_OR_RETURN(auto world, SeededWorld::Build(seed));
  harness->world = std::make_unique<SeededWorld>(std::move(world));

  QueryService::Options service_options;
  service_options.dfs = harness->world->dfs();
  service_options.max_concurrent = max_concurrent;
  service_options.max_pending = max_pending;
  harness->service = std::make_unique<QueryService>(service_options);
  harness->service->RegisterTable(harness->world->meter());
  harness->service->RegisterDgfIndex(harness->world->meter().name,
                                     harness->world->dgf_text());

  Server::Options server_options;
  server_options.service = harness->service.get();
  server_options.port = 0;
  DGF_ASSIGN_OR_RETURN(harness->server, Server::Start(server_options));
  return harness;
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

// A projection touches every slice through the data-scan job (never answered
// from precomputed GFU headers), so it reliably reaches the DFS read path —
// where GateInjector can hold it — and polls its cancel token while scanning.
std::string FullProjectionSql(const std::string& table) {
  return "SELECT userId, powerConsumed FROM " + table;
}

/// Read-fault injector used as a deterministic brake: while closed, every
/// low-level DFS read blocks inside NextFault. Lets tests hold a query
/// mid-scan (provably in flight) while they overload, cancel, or shut down
/// the server, then release it.
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

double FirstField(const std::string& row_text) {
  return std::strtod(row_text.c_str(), nullptr);
}

double StatValue(const Response& stats_response, const std::string& name) {
  for (const auto& [key, value] : stats_response.stats) {
    if (key == name) return value;
  }
  return -1;
}

// ---------------------------------------------------------------------------
// Protocol against a live server, answers diffed against the oracle.

TEST(ServerTest, QueriesMatchOracleAndStatsCount) {
  auto harness = StartHarness(/*seed=*/3);
  ASSERT_TRUE(harness.ok()) << harness.status().ToString();
  auto client = (*harness)->Connect();
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  auto ping = (*client)->Ping();
  ASSERT_TRUE(ping.ok() && ping->ok());

  constexpr int kQueries = 30;
  int served = 0;
  for (int case_id = 0; case_id < kQueries; ++case_id) {
    const query::Query q = (*harness)->world->GenerateQuery(3, case_id);
    auto oracle = (*harness)->world->Oracle(q);
    ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();

    auto response = (*client)->Query(q.ToSql());
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_TRUE(response->ok())
        << "case " << case_id << " [" << q.ToSql()
        << "]: " << ResponseStatus(*response).ToString();
    auto got = ResultFromResponse(*response);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got->stats.path, query::AccessPath::kDgfIndex);
    const std::string mismatch =
        dgf::testing::DescribeResultMismatch(*oracle, *got);
    EXPECT_TRUE(mismatch.empty())
        << "case " << case_id << " [" << q.ToSql() << "]: " << mismatch;
    ++served;
  }

  auto stats = (*client)->Stats();
  ASSERT_TRUE(stats.ok() && stats->ok());
  EXPECT_EQ(StatValue(*stats, "queries.served"), served);
  EXPECT_EQ(StatValue(*stats, "queries.rejected"), 0);
  EXPECT_EQ(StatValue(*stats, "queries.in_flight"), 0);
  EXPECT_GE(StatValue(*stats, "latency.count"), served);
  EXPECT_GE(StatValue(*stats, "scan.records_read"), 1);
  // A parse error is a served request with an error response, not a dropped
  // connection.
  auto bad = (*client)->Query("SELECT FROM nothing WHERE");
  ASSERT_TRUE(bad.ok()) << bad.status().ToString();
  EXPECT_FALSE(bad->ok());
  auto after = (*client)->Ping();
  EXPECT_TRUE(after.ok() && after->ok());
}

TEST(ServerTest, SequentialPingsPayNoDelayedAckStall) {
  // A frame whose header and body left in two sends waited out Nagle plus
  // a delayed ACK on every round trip: these 200 PINGs took 17.5 s.
  auto harness = StartHarness(/*seed=*/5);
  ASSERT_TRUE(harness.ok()) << harness.status().ToString();
  auto client = (*harness)->Connect();
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  Stopwatch watch;
  for (int i = 0; i < 200; ++i) {
    auto ping = (*client)->Ping();
    ASSERT_TRUE(ping.ok() && ping->ok()) << i;
  }
  EXPECT_LT(watch.ElapsedSeconds(), 1.0);
}

TEST(ServerTest, ServedLatencyIncludesAdmissionWait) {
  auto harness = StartHarness(/*seed=*/4, /*max_concurrent=*/1);
  ASSERT_TRUE(harness.ok()) << harness.status().ToString();
  auto gate = std::make_shared<GateInjector>();
  (*harness)->world->dfs()->SetReadFaultInjector(gate);
  auto first = (*harness)->Connect();
  auto second = (*harness)->Connect();
  auto observer = (*harness)->Connect();
  ASSERT_TRUE(first.ok() && second.ok() && observer.ok());
  const std::string sql = FullProjectionSql((*harness)->world->meter().name);

  // The second query waits for admission behind the held first one.
  auto held = (*first)->StartQuery(sql);
  ASSERT_TRUE(held.ok()) << held.status().ToString();
  gate->WaitForBlocked(1);
  auto queued = (*second)->StartQuery(sql);
  ASSERT_TRUE(queued.ok()) << queued.status().ToString();
  for (;;) {
    auto stats = (*observer)->Stats();
    ASSERT_TRUE(stats.ok() && stats->ok());
    if (StatValue(*stats, "queries.in_flight") == 2) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  gate->Open();

  double span_seconds = 0;
  for (auto& [client, id] : {std::pair(first->get(), *held),
                             std::pair(second->get(), *queued)}) {
    auto response = client->Await(id);
    ASSERT_TRUE(response.ok() && response->ok());
    for (const obs::SpanTiming& span : response->result.stats.spans) {
      if (span.name == "admission_wait" || span.name == "execute") {
        span_seconds += span.duration_seconds;
      }
    }
  }
  auto stats = (*observer)->Stats();
  ASSERT_TRUE(stats.ok() && stats->ok());
  EXPECT_EQ(StatValue(*stats, "latency.count"), 2);
  EXPECT_GE(StatValue(*stats, "latency.sum"), span_seconds);
  (*harness)->world->dfs()->SetReadFaultInjector(nullptr);
}

TEST(ServerTest, ClosedConnectionsReleaseTheirThreads) {
  auto harness = StartHarness(5);
  ASSERT_TRUE(harness.ok()) << harness.status().ToString();
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>((*harness)->server->port()));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  // Connect and half-close, sending nothing: one handler thread per cycle.
  // The server closing its end (EOF here) shows the handler saw the close.
  auto connect_and_close = [&] {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof(addr)),
              0);
    ::shutdown(fd, SHUT_WR);
    char byte = 0;
    EXPECT_EQ(::recv(fd, &byte, 1, 0), 0);
    ::close(fd);
  };
  // Warm-up: the thread stack cache and malloc arenas settle.
  RunConnectionCycles(20, connect_and_close);
  const size_t before = MappedRegionCount();
  RunConnectionCycles(100, connect_and_close);
  EXPECT_LT(MappedRegionCount(), before + 20);
}

TEST(ServerTest, AdmissionRejectsWhenSaturated) {
  auto harness = StartHarness(/*seed=*/4, /*max_concurrent=*/1,
                              /*max_pending=*/0);
  ASSERT_TRUE(harness.ok()) << harness.status().ToString();
  auto gate = std::make_shared<GateInjector>();
  (*harness)->world->dfs()->SetReadFaultInjector(gate);

  auto client = (*harness)->Connect();
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  const std::string sql = FullProjectionSql((*harness)->world->meter().name);

  auto held = (*client)->StartQuery(sql);
  ASSERT_TRUE(held.ok()) << held.status().ToString();
  gate->WaitForBlocked(1);

  // The worker is occupied and the pending queue is zero: the next query
  // must bounce with the structured backpressure code, immediately (it never
  // waits behind the held query).
  auto rejected = (*client)->Query(sql);
  ASSERT_TRUE(rejected.ok()) << rejected.status().ToString();
  EXPECT_FALSE(rejected->ok());
  const Status status = ResponseStatus(*rejected);
  EXPECT_TRUE(status.IsUnavailable()) << status.ToString();

  gate->Open();
  auto held_response = (*client)->Await(*held);
  ASSERT_TRUE(held_response.ok()) << held_response.status().ToString();
  EXPECT_TRUE(held_response->ok())
      << ResponseStatus(*held_response).ToString();

  auto stats = (*client)->Stats();
  ASSERT_TRUE(stats.ok() && stats->ok());
  EXPECT_EQ(StatValue(*stats, "queries.rejected"), 1);
  EXPECT_EQ(StatValue(*stats, "queries.served"), 1);
  (*harness)->world->dfs()->SetReadFaultInjector(nullptr);
}

TEST(ServerTest, CancelInterruptsRunningQuery) {
  auto harness = StartHarness(/*seed=*/5);
  ASSERT_TRUE(harness.ok()) << harness.status().ToString();
  auto gate = std::make_shared<GateInjector>();
  (*harness)->world->dfs()->SetReadFaultInjector(gate);

  auto client = (*harness)->Connect();
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  auto query_id =
      (*client)->StartQuery(FullProjectionSql((*harness)->world->meter().name));
  ASSERT_TRUE(query_id.ok()) << query_id.status().ToString();
  gate->WaitForBlocked(1);  // provably mid-scan, holding a pinned snapshot

  auto cancel_id = (*client)->StartCancel(*query_id);
  ASSERT_TRUE(cancel_id.ok()) << cancel_id.status().ToString();
  auto cancel_ack = (*client)->Await(*cancel_id);
  ASSERT_TRUE(cancel_ack.ok()) << cancel_ack.status().ToString();
  EXPECT_TRUE(cancel_ack->ok()) << ResponseStatus(*cancel_ack).ToString();

  gate->Open();
  auto response = (*client)->Await(*query_id);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_FALSE(response->ok());
  const Status status = ResponseStatus(*response);
  EXPECT_TRUE(status.IsCancelled()) << status.ToString();

  // Cancelling a finished query is a NotFound, not a crash or a stale kill.
  auto stale = (*client)->StartCancel(*query_id);
  ASSERT_TRUE(stale.ok());
  auto stale_ack = (*client)->Await(*stale);
  ASSERT_TRUE(stale_ack.ok());
  EXPECT_TRUE(ResponseStatus(*stale_ack).IsNotFound());

  auto stats = (*client)->Stats();
  ASSERT_TRUE(stats.ok() && stats->ok());
  EXPECT_EQ(StatValue(*stats, "queries.cancelled"), 1);
  (*harness)->world->dfs()->SetReadFaultInjector(nullptr);
}

TEST(ServerTest, DeadlineExceededSurfacesAsWireCode) {
  auto harness = StartHarness(/*seed=*/6);
  ASSERT_TRUE(harness.ok()) << harness.status().ToString();
  auto gate = std::make_shared<GateInjector>();
  (*harness)->world->dfs()->SetReadFaultInjector(gate);

  auto client = (*harness)->Connect();
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  auto query_id = (*client)->StartQuery(
      FullProjectionSql((*harness)->world->meter().name),
      /*deadline_seconds=*/0.05);
  ASSERT_TRUE(query_id.ok()) << query_id.status().ToString();
  gate->WaitForBlocked(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  gate->Open();

  auto response = (*client)->Await(*query_id);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_FALSE(response->ok());
  const Status status = ResponseStatus(*response);
  EXPECT_TRUE(status.IsDeadlineExceeded()) << status.ToString();

  auto stats = (*client)->Stats();
  ASSERT_TRUE(stats.ok() && stats->ok());
  EXPECT_EQ(StatValue(*stats, "queries.deadline_exceeded"), 1);
  (*harness)->world->dfs()->SetReadFaultInjector(nullptr);
}

TEST(ServerTest, ShutdownDrainsInFlightQueries) {
  auto harness = StartHarness(/*seed=*/7);
  ASSERT_TRUE(harness.ok()) << harness.status().ToString();
  const int64_t total_rows = (*harness)->world->config().TotalRows();
  auto gate = std::make_shared<GateInjector>();
  (*harness)->world->dfs()->SetReadFaultInjector(gate);

  auto query_client = (*harness)->Connect();
  ASSERT_TRUE(query_client.ok()) << query_client.status().ToString();
  auto admin_client = (*harness)->Connect();
  ASSERT_TRUE(admin_client.ok()) << admin_client.status().ToString();

  auto query_id = (*query_client)
                      ->StartQuery(FullProjectionSql(
                          (*harness)->world->meter().name));
  ASSERT_TRUE(query_id.ok()) << query_id.status().ToString();
  gate->WaitForBlocked(1);

  // Release the held query a beat after SHUTDOWN starts draining; the drain
  // must wait for it rather than killing it.
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    gate->Open();
  });
  auto shutdown = (*admin_client)->Shutdown();
  releaser.join();
  ASSERT_TRUE(shutdown.ok()) << shutdown.status().ToString();
  EXPECT_TRUE(shutdown->ok()) << ResponseStatus(*shutdown).ToString();

  // The in-flight query finished with its full answer, not an error.
  auto response = (*query_client)->Await(*query_id);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_TRUE(response->ok()) << ResponseStatus(*response).ToString();
  EXPECT_EQ(response->result.rows.size(), static_cast<size_t>(total_rows));

  (*harness)->server->WaitShutdown();
  (*harness)->server->Shutdown();
  (*harness)->world->dfs()->SetReadFaultInjector(nullptr);

  // The drained server no longer accepts connections.
  auto late = ServerClient::ConnectTcp("127.0.0.1", (*harness)->server->port());
  if (late.ok()) {
    auto ping = (*late)->Ping();
    EXPECT_FALSE(ping.ok() && ping->ok());
  }
}

// ---------------------------------------------------------------------------
// Concurrency: 8 clients replaying generated workload against a live server
// while a 9th connection appends new days into the DGF index. Generated
// queries are clamped to the base time range so the precomputed oracle stays
// valid; probe queries over the appended range must see whole published
// batches (atomic publish), never a torn prefix.

TEST(ServerConcurrencyTest, EightClientsWithBackgroundAppender) {
  constexpr uint64_t kSeed = 11;
  constexpr int kClientThreads = 8;
  constexpr int kQueriesPerThread = 12;
  constexpr int kAppendBatches = 5;
  constexpr int kRowsPerBatch = 20;

  auto harness = StartHarness(kSeed, /*max_concurrent=*/4,
                              /*max_pending=*/64);
  ASSERT_TRUE(harness.ok()) << harness.status().ToString();
  const SeededWorld& world = *(*harness)->world;
  const workload::MeterConfig& config = world.config();
  const table::Schema& schema = world.meter().schema;
  const int64_t base_first_day = config.start_day;
  const int64_t base_last_day = config.start_day + config.num_days - 1;
  const int64_t append_first_day = base_last_day + 1;

  // Pre-compute queries and oracle answers sequentially; the appended days
  // lie outside the clamp so the oracle stays valid while batches land.
  std::vector<query::Query> queries;
  std::vector<query::QueryResult> oracles;
  for (int i = 0; i < kClientThreads * kQueriesPerThread; ++i) {
    query::Query q = world.GenerateQuery(kSeed, i);
    q.where.And(query::ColumnRange::Between(
        "time", table::Value::Date(base_first_day), true,
        table::Value::Date(base_last_day), true));
    auto oracle = world.Oracle(q);
    ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
    queries.push_back(std::move(q));
    oracles.push_back(*std::move(oracle));
  }

  query::Query probe;
  probe.table = world.meter().name;
  probe.select.push_back(
      query::SelectItem::Aggregation(*core::AggSpec::Parse("count(*)")));
  {
    query::ColumnRange appended_range;
    appended_range.column = "time";
    appended_range.lower =
        query::Bound{table::Value::Date(append_first_day), true};
    probe.where.And(std::move(appended_range));
  }
  const std::string probe_sql = probe.ToSql();

  std::atomic<int64_t> rows_published{0};
  std::atomic<bool> append_failed{false};
  std::mutex failures_mu;
  std::vector<std::string> failures;
  auto report = [&](std::string what) {
    std::lock_guard<std::mutex> lock(failures_mu);
    failures.push_back(std::move(what));
  };

  std::thread appender([&] {
    auto client = (*harness)->Connect();
    if (!client.ok()) {
      append_failed.store(true);
      report("appender connect: " + client.status().ToString());
      return;
    }
    for (int batch = 0; batch < kAppendBatches; ++batch) {
      std::vector<std::string> rows;
      for (int i = 0; i < kRowsPerBatch; ++i) {
        const int64_t user = i % config.num_users;
        table::Row row = {
            table::Value::Int64(user),
            table::Value::Int64(workload::RegionOfUser(config, user)),
            table::Value::Date(append_first_day + batch),
            table::Value::Double(1.0 + 0.25 * i)};
        for (int extra = 0; extra < config.extra_metrics; ++extra) {
          row.push_back(table::Value::Double(0.5 * extra));
        }
        if (static_cast<int>(row.size()) != schema.num_fields()) {
          append_failed.store(true);
          report("appender: row arity mismatch");
          return;
        }
        rows.push_back(table::FormatRowText(row));
      }
      auto response = (*client)->Append(world.meter().name, rows);
      if (!response.ok() || !response->ok()) {
        append_failed.store(true);
        report("append batch " + std::to_string(batch) + ": " +
               (response.ok() ? ResponseStatus(*response).ToString()
                              : response.status().ToString()));
        return;
      }
      rows_published.fetch_add(kRowsPerBatch);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });

  std::vector<std::thread> clients;
  for (int t = 0; t < kClientThreads; ++t) {
    clients.emplace_back([&, t] {
      auto client = (*harness)->Connect();
      if (!client.ok()) {
        report("client connect: " + client.status().ToString());
        return;
      }
      for (int i = 0; i < kQueriesPerThread; ++i) {
        const int case_id = t * kQueriesPerThread + i;
        const query::Query& q = queries[static_cast<size_t>(case_id)];
        auto response = (*client)->Query(q.ToSql());
        if (!response.ok()) {
          report("case " + std::to_string(case_id) + ": transport: " +
                 response.status().ToString());
          continue;
        }
        if (!response->ok()) {
          report("case " + std::to_string(case_id) + " [" + q.ToSql() +
                 "]: " + ResponseStatus(*response).ToString());
          continue;
        }
        auto got = ResultFromResponse(*response);
        if (!got.ok()) {
          report("case " + std::to_string(case_id) +
                 ": decode: " + got.status().ToString());
          continue;
        }
        const std::string mismatch = dgf::testing::DescribeResultMismatch(
            oracles[static_cast<size_t>(case_id)], *got);
        if (!mismatch.empty()) {
          report("case " + std::to_string(case_id) + " [" + q.ToSql() +
                 "]: " + mismatch);
        }

        if (i % 4 == 3) {
          // Probe the appended region: any answer must be whole batches
          // within the published window around the probe.
          const int64_t before = rows_published.load();
          auto probe_response = (*client)->Query(probe_sql);
          const int64_t after = rows_published.load();
          if (!probe_response.ok() || !probe_response->ok()) {
            report("probe: " +
                   (probe_response.ok()
                        ? ResponseStatus(*probe_response).ToString()
                        : probe_response.status().ToString()));
            continue;
          }
          if (probe_response->result.rows.size() != 1) {
            report("probe: expected 1 row");
            continue;
          }
          const auto count = static_cast<int64_t>(
              FirstField(probe_response->result.rows[0]));
          if (count % kRowsPerBatch != 0) {
            report("probe: torn batch visible: count=" +
                   std::to_string(count));
          }
          // One batch may be published-but-unacked when the probe pins its
          // snapshot, hence the +kRowsPerBatch slack on the upper bound.
          if (count < before ||
              (count > after + kRowsPerBatch && !append_failed.load())) {
            report("probe: count=" + std::to_string(count) +
                   " outside published window [" + std::to_string(before) +
                   ", " + std::to_string(after + kRowsPerBatch) + "]");
          }
        }
      }
    });
  }
  for (std::thread& thread : clients) thread.join();
  appender.join();

  for (const std::string& failure : failures) ADD_FAILURE() << failure;

  // All published batches are durably visible once the appender is done.
  auto client = (*harness)->Connect();
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto final_probe = (*client)->Query(probe_sql);
  ASSERT_TRUE(final_probe.ok() && final_probe->ok());
  ASSERT_EQ(final_probe->result.rows.size(), 1u);
  EXPECT_EQ(static_cast<int64_t>(FirstField(final_probe->result.rows[0])),
            rows_published.load());

  auto stats = (*client)->Stats();
  ASSERT_TRUE(stats.ok() && stats->ok());
  EXPECT_GE(StatValue(*stats, "queries.served"),
            kClientThreads * kQueriesPerThread);
  EXPECT_EQ(StatValue(*stats, "appends.rows"), rows_published.load());
}

}  // namespace
}  // namespace dgf::server
