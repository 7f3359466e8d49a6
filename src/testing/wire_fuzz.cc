#include "testing/wire_fuzz.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "common/encoding.h"
#include "common/random.h"
#include "common/status.h"
#include "obs/http_exporter.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "server/client.h"
#include "server/server.h"
#include "server/service_interface.h"
#include "server/wire.h"
#include "table/schema.h"
#include "table/value.h"

namespace dgf::testing {
namespace {

// How long a hostile connection waits for a reply before taking silence as
// its outcome, and how long the HTTP exporter waits for a request head.
// Silence and a dropped connection are accepted outcomes, so this only
// bounds the idle time per case; a loopback reply lands in microseconds.
constexpr double kReplyWaitSeconds = 0.25;

/// Valid encoded request and response bodies covering every opcode and every
/// payload shape the codec knows; mutation starts from these so the fuzz
/// inputs stay near the interesting boundaries (length prefixes, varints,
/// type/opcode bytes) instead of being rejected at the first byte.
std::vector<std::string> BuildCorpus() {
  std::vector<std::string> corpus;

  {
    server::Request r;
    r.opcode = server::Opcode::kQuery;
    r.request_id = 7;
    r.query.sql =
        "SELECT sum(powerConsumed) FROM meterdata WHERE userId >= 100 AND "
        "userId < 200 AND time >= '2012-12-01' AND time < '2012-12-11'";
    r.query.deadline_seconds = 2.5;
    corpus.push_back(server::EncodeRequest(r));
  }
  {
    server::Request r;
    r.opcode = server::Opcode::kAppend;
    r.request_id = 8;
    r.append.table = "meterdata";
    r.append.rows = {"101|3|2012-12-04|7.25|0.5", "102|1|2012-12-05|8.75|1.0"};
    corpus.push_back(server::EncodeRequest(r));
  }
  {
    server::Request r;
    r.opcode = server::Opcode::kCancel;
    r.request_id = 9;
    r.cancel_target = 7;
    corpus.push_back(server::EncodeRequest(r));
  }
  for (const server::Opcode opcode :
       {server::Opcode::kStats, server::Opcode::kPing,
        server::Opcode::kShutdown}) {
    server::Request r;
    r.opcode = opcode;
    r.request_id = 10;
    corpus.push_back(server::EncodeRequest(r));
  }

  {
    server::Response r;
    r.opcode = server::Opcode::kQuery;
    r.request_id = 7;
    r.result.schema = table::Schema({{"userId", table::DataType::kInt64},
                                     {"time", table::DataType::kDate},
                                     {"powerConsumed", table::DataType::kDouble}});
    r.result.rows = {"101|2012-12-04|7.25", "102|2012-12-05|8.75"};
    r.result.stats.path = query::AccessPath::kDgfIndex;
    r.result.stats.records_read = 128;
    r.result.stats.records_matched = 2;
    r.result.stats.bytes_read = 4096;
    r.result.stats.splits_scanned = 3;
    r.result.stats.kv_gets = 5;
    r.result.stats.cache_hits = 4;
    r.result.stats.cache_misses = 1;
    r.result.stats.index_seconds = 0.25;
    r.result.stats.data_seconds = 1.5;
    r.result.stats.total_seconds = 1.75;
    r.result.stats.wall_seconds = 0.01;
    corpus.push_back(server::EncodeResponse(r));
  }
  corpus.push_back(server::EncodeResponse(server::MakeErrorResponse(
      server::Opcode::kQuery, 7,
      Status::InvalidArgument("parse error near 'FROM'"))));
  {
    server::Response r;
    r.opcode = server::Opcode::kAppend;
    r.request_id = 8;
    r.rows_appended = 2;
    corpus.push_back(server::EncodeResponse(r));
  }
  {
    server::Response r;
    r.opcode = server::Opcode::kStats;
    r.request_id = 10;
    r.stats = {{"queries.admitted", 12.0},
               {"queries.in_flight", 1.0},
               {"latency.p99", 42.5}};
    corpus.push_back(server::EncodeResponse(r));
  }
  for (const server::Opcode opcode :
       {server::Opcode::kCancel, server::Opcode::kPing,
        server::Opcode::kShutdown}) {
    server::Response r;
    r.opcode = opcode;
    r.request_id = 11;
    corpus.push_back(server::EncodeResponse(r));
  }
  return corpus;
}

/// Varint64 with every continuation bit set: maximally hostile to any
/// length/count field it lands on.
constexpr char kHugeVarint[] =
    "\xff\xff\xff\xff\xff\xff\xff\xff\xff\x7f";

void MutateBytes(std::string* body, Random* rng) {
  if (body->empty()) {
    body->push_back(static_cast<char>(rng->Uniform(256)));
    return;
  }
  switch (rng->Uniform(7)) {
    case 0:  // truncate
      body->resize(rng->Uniform(body->size() + 1));
      break;
    case 1: {  // delete a span
      const size_t at = rng->Uniform(body->size());
      body->erase(at, 1 + rng->Uniform(8));
      break;
    }
    case 2: {  // duplicate a span
      const size_t at = rng->Uniform(body->size());
      const size_t len =
          std::min<size_t>(1 + rng->Uniform(12), body->size() - at);
      body->insert(at, body->substr(at, len));
      break;
    }
    case 3: {  // splice raw bytes
      const size_t at = rng->Uniform(body->size() + 1);
      const size_t count = 1 + rng->Uniform(6);
      std::string noise;
      for (size_t i = 0; i < count; ++i) {
        noise.push_back(static_cast<char>(rng->Uniform(256)));
      }
      body->insert(at, noise);
      break;
    }
    case 4: {  // swap two bytes
      const size_t a = rng->Uniform(body->size());
      const size_t b = rng->Uniform(body->size());
      std::swap((*body)[a], (*body)[b]);
      break;
    }
    case 5: {  // saturate a short run with 0xFF (poisons fixed-width fields)
      const size_t at = rng->Uniform(body->size());
      const size_t len = std::min<size_t>(1 + rng->Uniform(4),
                                          body->size() - at);
      for (size_t i = 0; i < len; ++i) (*body)[at + i] = '\xff';
      break;
    }
    default: {  // splice an enormous varint over a length/count field
      const size_t at = rng->Uniform(body->size() + 1);
      body->insert(at, kHugeVarint, sizeof(kHugeVarint) - 1);
      break;
    }
  }
}

/// Trivial WireService behind the live-stage server: answers every query
/// synchronously with a fixed one-row result so the fuzz run never depends
/// on catalog state — the subject under test is the framing and codec layer,
/// not execution.
class StubService final : public server::WireService {
 public:
  Status SubmitQuery(uint64_t /*request_id*/, std::string /*sql*/,
                     double /*deadline_seconds*/, uint64_t /*trace_id*/,
                     QueryDone done) override {
    query::QueryResult result;
    result.schema = table::Schema({{"userId", table::DataType::kInt64},
                                   {"powerConsumed", table::DataType::kDouble}});
    result.rows.push_back(
        {table::Value::Int64(42), table::Value::Double(6.5)});
    result.stats.path = query::AccessPath::kFullScan;
    result.stats.records_read = 1;
    result.stats.records_matched = 1;
    done(std::move(result));
    return Status::OK();
  }
  bool CancelQuery(uint64_t /*request_id*/) override { return false; }
  Result<uint64_t> Append(const std::string& /*table*/,
                          const std::vector<std::string>& rows) override {
    return static_cast<uint64_t>(rows.size());
  }
  std::vector<std::pair<std::string, double>> StatsSnapshot() const override {
    return {{"stub.up", 1.0}};
  }
  void BeginDrain() override {}
  void Drain() override {}
};

Result<int> RawConnect(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    const int err = errno;
    ::close(fd);
    return Status::IOError(std::string("connect: ") + std::strerror(err));
  }
  return fd;
}

/// Best-effort write: the server dropping us mid-write (it saw garbage and
/// closed) surfaces as EPIPE/ECONNRESET, which is an acceptable outcome for
/// a poisoned connection — callers ignore the status.
Status SendAll(int fd, std::string_view bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::strerror(errno));
    }
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

std::string Framed(std::string_view body, uint32_t claimed_length) {
  std::string framed;
  PutFixed32(&framed, claimed_length);
  framed.append(body);
  return framed;
}

/// One poisoned connection against the live server. The invariant is
/// two-sided: any frame the server *does* write back must decode, and the
/// server itself must stay healthy for the next client regardless of what
/// this connection fed it.
void RunLiveCase(int port, uint64_t seed, int case_id,
                 const std::string& repro, WireFuzzReport* report) {
  Random rng((seed ^ 0xC0FFEEULL) +
             0x9E3779B97F4A7C15ULL * (static_cast<uint64_t>(case_id) + 1));
  std::string body = GenerateWireFuzzBody(seed, case_id);

  // Frame it with a prefix that sometimes lies.
  uint32_t claimed;
  switch (rng.Uniform(4)) {
    case 0:  // honest
      claimed = static_cast<uint32_t>(body.size());
      break;
    case 1:  // claims more than we will ever send: server must keep waiting
      claimed = static_cast<uint32_t>(body.size() + 1 + rng.Uniform(4096));
      break;
    case 2:  // beyond kMaxFrameBytes: server must drop the connection
      claimed = static_cast<uint32_t>(server::kMaxFrameBytes + 1 +
                                      rng.Uniform(1u << 30));
      break;
    default:  // claims less: the tail re-parses as garbage frame headers
      claimed = static_cast<uint32_t>(rng.Uniform(body.size() + 1));
      break;
  }
  std::string framed = Framed(body, claimed);
  // Sometimes die mid-frame instead of probing.
  const bool chop = rng.Uniform(4) == 0;
  if (chop && framed.size() > 5) {
    framed.resize(5 + rng.Uniform(framed.size() - 5));
  }

  auto fd = RawConnect(port);
  if (!fd.ok()) {
    report->failures.push_back("live case " + std::to_string(case_id) +
                               ": server refused a new connection (" +
                               fd.status().ToString() + ") repro: " + repro);
    return;
  }
  (void)SendAll(*fd, framed);
  if (!chop) {
    // Probe the same connection with a valid PING. Three outcomes are
    // acceptable: a decodable response frame (possibly to a request the
    // mutant happened to spell), a dropped connection, or silence (a lying
    // length prefix legitimately leaves the server waiting for more bytes).
    server::Request ping;
    ping.opcode = server::Opcode::kPing;
    ping.request_id = 0xF0F0;
    const std::string ping_body = server::EncodeRequest(ping);
    (void)SendAll(*fd, Framed(ping_body,
                              static_cast<uint32_t>(ping_body.size())));
    (void)server::SetRecvTimeout(*fd, kReplyWaitSeconds);
    auto readable = server::WaitReadable(*fd, kReplyWaitSeconds);
    if (readable.ok() && *readable) {
      std::string resp;
      auto got = server::ReadFrame(*fd, &resp);
      if (got.ok() && *got) {
        auto decoded = server::DecodeResponse(resp);
        if (!decoded.ok()) {
          report->failures.push_back(
              "live case " + std::to_string(case_id) +
              ": server wrote an undecodable frame (" +
              decoded.status().ToString() + ") repro: " + repro);
        }
      }
      // EOF or read error: the server dropped us. Acceptable.
    }
  }
  ::close(*fd);
  ++report->live_cases_run;

  // Whatever happened above, a fresh connection must be served promptly.
  auto client = server::ServerClient::ConnectTcp("127.0.0.1", port, 2.0);
  if (!client.ok()) {
    report->failures.push_back("live case " + std::to_string(case_id) +
                               ": server unreachable afterwards (" +
                               client.status().ToString() +
                               ") repro: " + repro);
    return;
  }
  (void)(*client)->SetRecvTimeout(5.0);
  auto pong = (*client)->Ping();
  if (!pong.ok() || !pong->ok()) {
    report->failures.push_back(
        "live case " + std::to_string(case_id) +
        ": fresh-connection PING failed afterwards (" +
        (pong.ok() ? server::ResponseStatus(*pong).ToString()
                   : pong.status().ToString()) +
        ") repro: " + repro);
  }
}

/// One hostile connection against the HTTP exporter. Acceptable outcomes:
/// any HTTP response, or a dropped connection. Unacceptable: a crash (takes
/// the binary down) or the exporter going unhealthy for the next client —
/// both are checked by the clean /healthz probe the caller runs after.
void RunHttpCase(int port, uint64_t seed, int case_id,
                 WireFuzzReport* report) {
  Random rng((seed ^ 0xDECAFBADULL) +
             0x9E3779B97F4A7C15ULL * (static_cast<uint64_t>(case_id) + 1));
  std::string payload;
  switch (rng.Uniform(6)) {
    case 0:  // malformed request line
      payload = "GET\r\n\r\n";
      break;
    case 1: {  // request line with garbage method / missing version
      static const char* kLines[] = {
          "BREW /metrics HTTP/1.0\r\n\r\n", "GET  \r\n\r\n",
          "GET /metrics\r\n\r\n", "\r\n\r\n",
          "GET /metrics HTTP/1.0\r\nHost:\x01\x02\r\n\r\n"};
      payload = kLines[rng.Uniform(5)];
      break;
    }
    case 2: {  // header flood past the head-read budget
      payload = "GET /metrics HTTP/1.0\r\n";
      for (int i = 0; i < 512; ++i) {
        payload += "X-Flood-" + std::to_string(i) + ": " +
                   std::string(64, 'a') + "\r\n";
      }
      payload += "\r\n";
      break;
    }
    case 3: {  // one absurdly long request line
      payload = "GET /" + std::string(64 * 1024, 'a') + " HTTP/1.0\r\n\r\n";
      break;
    }
    case 4: {  // raw binary noise, never a valid head terminator
      const size_t n = 1 + rng.Uniform(2048);
      for (size_t i = 0; i < n; ++i) {
        char c = static_cast<char>(rng.Uniform(256));
        if (c == '\n') c = 'x';  // keep it from accidentally terminating
        payload.push_back(c);
      }
      break;
    }
    default:  // valid prefix, then the connection dies mid-request
      payload = "GET /stats HT";
      break;
  }

  auto fd = RawConnect(port);
  if (!fd.ok()) {
    report->failures.push_back("http case " + std::to_string(case_id) +
                               ": exporter refused a new connection (" +
                               fd.status().ToString() + ")");
    return;
  }
  (void)SendAll(*fd, payload);
  // Half the time read whatever comes back (bounded); otherwise close
  // immediately — the early-abort client.
  if (rng.Uniform(2) == 0) {
    (void)server::SetRecvTimeout(*fd, kReplyWaitSeconds);
    char buf[1024];
    while (::recv(*fd, buf, sizeof(buf), 0) > 0) {
    }
  }
  ::close(*fd);
  ++report->http_cases_run;

  // The exporter must still serve a clean client promptly.
  auto health = obs::HttpGet(port, "/healthz", 5.0);
  if (!health.ok() || health->status_code != 200) {
    report->failures.push_back(
        "http case " + std::to_string(case_id) +
        ": /healthz failed afterwards (" +
        (health.ok() ? "status " + std::to_string(health->status_code)
                     : health.status().ToString()) +
        ")");
  }
}

}  // namespace

std::string GenerateWireFuzzBody(uint64_t seed, int case_id) {
  static const std::vector<std::string>& corpus =
      *new std::vector<std::string>(BuildCorpus());
  Random rng(seed +
             0x9E3779B97F4A7C15ULL * (static_cast<uint64_t>(case_id) + 1));
  std::string body = corpus[rng.Uniform(corpus.size())];
  const int mutations = 1 + static_cast<int>(rng.Uniform(4));
  for (int i = 0; i < mutations; ++i) MutateBytes(&body, &rng);
  return body;
}

Result<WireFuzzReport> RunWireFuzz(const WireFuzzOptions& options) {
  WireFuzzReport report;
  const std::string repro_prefix =
      "dgf_difftest --wire-fuzz --seed=" + std::to_string(options.seed) +
      " --case=";

  // Codec stage: both decoders on every mutated body.
  const int begin = options.only_case >= 0 ? options.only_case : 0;
  const int end =
      options.only_case >= 0 ? options.only_case + 1 : options.num_cases;
  for (int case_id = begin; case_id < end; ++case_id) {
    const std::string body = GenerateWireFuzzBody(options.seed, case_id);
    const std::string repro = repro_prefix + std::to_string(case_id);
    if (options.verbose) {
      std::fprintf(stderr, "[wire-fuzz] case %d: %zu bytes\n", case_id,
                   body.size());
    }
    ++report.cases_run;
    // A crash/abort here takes down the binary — that *is* the detection;
    // the repro is the case id.
    auto request = server::DecodeRequest(body);
    if (request.ok()) {
      ++report.decode_ok;
      // An accepted decode must survive its own round trip.
      auto again = server::DecodeRequest(server::EncodeRequest(*request));
      if (!again.ok()) {
        report.failures.push_back(
            "accepted request fails re-encode round trip (" +
            again.status().ToString() + ") repro: " + repro);
      }
    } else {
      ++report.decode_error;
      if (request.status().message().empty()) {
        report.failures.push_back(
            "empty request decode error message, repro: " + repro);
      }
    }
    auto response = server::DecodeResponse(body);
    if (response.ok()) {
      ++report.decode_ok;
      auto again = server::DecodeResponse(server::EncodeResponse(*response));
      if (!again.ok()) {
        report.failures.push_back(
            "accepted response fails re-encode round trip (" +
            again.status().ToString() + ") repro: " + repro);
      }
    } else {
      ++report.decode_error;
      if (response.status().message().empty()) {
        report.failures.push_back(
            "empty response decode error message, repro: " + repro);
      }
    }
  }

  // Live stage: the same bodies, framed with sometimes-lying prefixes,
  // against a real server.
  StubService stub;
  server::Server::Options server_options;
  server_options.service = &stub;
  DGF_ASSIGN_OR_RETURN(auto server,
                       server::Server::Start(server_options));
  const int live_begin = options.only_case >= 0 ? options.only_case : 0;
  const int live_end = options.only_case >= 0 ? options.only_case + 1
                                              : options.num_live_cases;
  for (int case_id = live_begin; case_id < live_end; ++case_id) {
    RunLiveCase(server->port(), options.seed, case_id,
                repro_prefix + std::to_string(case_id), &report);
  }
  server->Shutdown();

  // HTTP stage: hostile clients against the observability exporter.
  if (options.only_case < 0 && options.num_http_cases > 0) {
    obs::MetricsRegistry registry;
    registry.GetCounter("fuzz.sentinel")->Increment();
    obs::TraceLog trace_log;
    obs::HttpExporter::Options http_options;
    http_options.registry = &registry;
    http_options.trace_log = &trace_log;
    http_options.recv_timeout_seconds = kReplyWaitSeconds;
    DGF_ASSIGN_OR_RETURN(auto exporter,
                         obs::HttpExporter::Start(http_options));
    for (int case_id = 0; case_id < options.num_http_cases; ++case_id) {
      RunHttpCase(exporter->port(), options.seed, case_id, &report);
    }
    exporter->Shutdown();
  }
  return report;
}

}  // namespace dgf::testing
