#include "server/wire.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/uio.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstring>

#include "common/encoding.h"

namespace dgf::server {
namespace {

void PutDouble(std::string* dst, double value) {
  PutFixed64(dst, std::bit_cast<uint64_t>(value));
}

Result<double> GetDouble(std::string_view* input) {
  if (input->size() < 8) return Status::Corruption("truncated double");
  const double value = std::bit_cast<double>(DecodeFixed64(input->data()));
  input->remove_prefix(8);
  return value;
}

Result<uint64_t> GetFixed64(std::string_view* input) {
  if (input->size() < 8) return Status::Corruption("truncated fixed64");
  const uint64_t value = DecodeFixed64(input->data());
  input->remove_prefix(8);
  return value;
}

Result<uint32_t> GetFixed32(std::string_view* input) {
  if (input->size() < 4) return Status::Corruption("truncated fixed32");
  const uint32_t value = DecodeFixed32(input->data());
  input->remove_prefix(4);
  return value;
}

Result<uint8_t> GetByte(std::string_view* input) {
  if (input->empty()) return Status::Corruption("truncated byte");
  const auto value = static_cast<uint8_t>(input->front());
  input->remove_prefix(1);
  return value;
}

void EncodeQueryStats(std::string* dst, const query::QueryStats& stats) {
  dst->push_back(static_cast<char>(stats.path));
  PutFixed64(dst, stats.records_read);
  PutFixed64(dst, stats.records_matched);
  PutFixed64(dst, stats.bytes_read);
  PutFixed32(dst, static_cast<uint32_t>(stats.splits_scanned));
  PutFixed64(dst, stats.kv_gets);
  PutFixed64(dst, stats.cache_hits);
  PutFixed64(dst, stats.cache_misses);
  PutDouble(dst, stats.index_seconds);
  PutDouble(dst, stats.data_seconds);
  PutDouble(dst, stats.total_seconds);
  PutDouble(dst, stats.wall_seconds);
  // Trace tail. Stats are the last field of a QUERY response, so a decoder
  // that predates tracing treats these bytes as trailing garbage and rejects
  // the frame — acceptable, since both ends of a cluster upgrade together —
  // while THIS decoder accepts old frames that simply stop above.
  PutFixed64(dst, stats.trace_id);
  PutVarint64(dst, stats.spans.size());
  for (const obs::SpanTiming& span : stats.spans) {
    PutLengthPrefixed(dst, span.name);
    PutDouble(dst, span.start_seconds);
    PutDouble(dst, span.duration_seconds);
  }
}

Result<query::QueryStats> DecodeQueryStats(std::string_view* input) {
  query::QueryStats stats;
  DGF_ASSIGN_OR_RETURN(uint8_t path, GetByte(input));
  if (path > static_cast<uint8_t>(query::AccessPath::kAggregateRewrite)) {
    return Status::Corruption("bad access path byte");
  }
  stats.path = static_cast<query::AccessPath>(path);
  DGF_ASSIGN_OR_RETURN(stats.records_read, GetFixed64(input));
  DGF_ASSIGN_OR_RETURN(stats.records_matched, GetFixed64(input));
  DGF_ASSIGN_OR_RETURN(stats.bytes_read, GetFixed64(input));
  DGF_ASSIGN_OR_RETURN(uint32_t splits, GetFixed32(input));
  stats.splits_scanned = static_cast<int>(splits);
  DGF_ASSIGN_OR_RETURN(stats.kv_gets, GetFixed64(input));
  DGF_ASSIGN_OR_RETURN(stats.cache_hits, GetFixed64(input));
  DGF_ASSIGN_OR_RETURN(stats.cache_misses, GetFixed64(input));
  DGF_ASSIGN_OR_RETURN(stats.index_seconds, GetDouble(input));
  DGF_ASSIGN_OR_RETURN(stats.data_seconds, GetDouble(input));
  DGF_ASSIGN_OR_RETURN(stats.total_seconds, GetDouble(input));
  DGF_ASSIGN_OR_RETURN(stats.wall_seconds, GetDouble(input));
  // Optional trace tail: pre-tracing frames end here.
  if (!input->empty()) {
    DGF_ASSIGN_OR_RETURN(stats.trace_id, GetFixed64(input));
    DGF_ASSIGN_OR_RETURN(uint64_t n, GetVarint64(input));
    // Each span costs at least 17 bytes (length prefix + two fixed64
    // doubles); bound before reserving, as with row counts.
    if (n > input->size() / 17) {
      return Status::Corruption("absurd span count");
    }
    stats.spans.reserve(n);
    for (uint64_t i = 0; i < n; ++i) {
      obs::SpanTiming span;
      DGF_ASSIGN_OR_RETURN(std::string_view name, GetLengthPrefixed(input));
      span.name = std::string(name);
      DGF_ASSIGN_OR_RETURN(span.start_seconds, GetDouble(input));
      DGF_ASSIGN_OR_RETURN(span.duration_seconds, GetDouble(input));
      stats.spans.push_back(std::move(span));
    }
  }
  return stats;
}

void EncodeSchema(std::string* dst, const table::Schema& schema) {
  PutVarint64(dst, static_cast<uint64_t>(schema.num_fields()));
  for (const table::Field& field : schema.fields()) {
    PutLengthPrefixed(dst, field.name);
    dst->push_back(static_cast<char>(field.type));
  }
}

Result<table::Schema> DecodeSchema(std::string_view* input) {
  DGF_ASSIGN_OR_RETURN(uint64_t n, GetVarint64(input));
  if (n > 4096) return Status::Corruption("absurd schema arity");
  std::vector<table::Field> fields;
  fields.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    DGF_ASSIGN_OR_RETURN(std::string_view name, GetLengthPrefixed(input));
    DGF_ASSIGN_OR_RETURN(uint8_t type, GetByte(input));
    if (type > static_cast<uint8_t>(table::DataType::kDate)) {
      return Status::Corruption("bad data type byte");
    }
    fields.push_back(
        {std::string(name), static_cast<table::DataType>(type)});
  }
  return table::Schema(std::move(fields));
}

}  // namespace

bool ValidOpcode(uint8_t raw) {
  return raw >= static_cast<uint8_t>(Opcode::kQuery) &&
         raw <= static_cast<uint8_t>(Opcode::kShutdown);
}

const char* OpcodeName(Opcode opcode) {
  switch (opcode) {
    case Opcode::kQuery:
      return "QUERY";
    case Opcode::kAppend:
      return "APPEND";
    case Opcode::kStats:
      return "STATS";
    case Opcode::kCancel:
      return "CANCEL";
    case Opcode::kPing:
      return "PING";
    case Opcode::kShutdown:
      return "SHUTDOWN";
  }
  return "?";
}

std::string EncodeRequest(const Request& request) {
  std::string body;
  body.push_back(static_cast<char>(request.opcode));
  PutFixed64(&body, request.request_id);
  switch (request.opcode) {
    case Opcode::kQuery:
      PutLengthPrefixed(&body, request.query.sql);
      PutDouble(&body, request.query.deadline_seconds);
      PutFixed64(&body, request.query.trace_id);
      break;
    case Opcode::kAppend:
      PutLengthPrefixed(&body, request.append.table);
      PutVarint64(&body, request.append.rows.size());
      for (const std::string& row : request.append.rows) {
        PutLengthPrefixed(&body, row);
      }
      break;
    case Opcode::kCancel:
      PutFixed64(&body, request.cancel_target);
      break;
    case Opcode::kStats:
    case Opcode::kPing:
    case Opcode::kShutdown:
      break;
  }
  return body;
}

Result<Request> DecodeRequest(std::string_view body) {
  Request request;
  DGF_ASSIGN_OR_RETURN(uint8_t opcode, GetByte(&body));
  if (!ValidOpcode(opcode)) return Status::Corruption("unknown opcode");
  request.opcode = static_cast<Opcode>(opcode);
  DGF_ASSIGN_OR_RETURN(request.request_id, GetFixed64(&body));
  switch (request.opcode) {
    case Opcode::kQuery: {
      DGF_ASSIGN_OR_RETURN(std::string_view sql, GetLengthPrefixed(&body));
      request.query.sql = std::string(sql);
      DGF_ASSIGN_OR_RETURN(request.query.deadline_seconds, GetDouble(&body));
      // Optional trailing trace id (absent in pre-tracing frames).
      if (!body.empty()) {
        DGF_ASSIGN_OR_RETURN(request.query.trace_id, GetFixed64(&body));
      }
      break;
    }
    case Opcode::kAppend: {
      DGF_ASSIGN_OR_RETURN(std::string_view table, GetLengthPrefixed(&body));
      request.append.table = std::string(table);
      DGF_ASSIGN_OR_RETURN(uint64_t n, GetVarint64(&body));
      // Every row costs at least its one-byte length prefix, so a count
      // beyond the remaining body is corruption — reject it *before*
      // reserving, or a tiny hostile frame claims gigabytes.
      if (n > body.size()) return Status::Corruption("absurd row count");
      request.append.rows.reserve(n);
      for (uint64_t i = 0; i < n; ++i) {
        DGF_ASSIGN_OR_RETURN(std::string_view row, GetLengthPrefixed(&body));
        request.append.rows.emplace_back(row);
      }
      break;
    }
    case Opcode::kCancel: {
      DGF_ASSIGN_OR_RETURN(request.cancel_target, GetFixed64(&body));
      break;
    }
    case Opcode::kStats:
    case Opcode::kPing:
    case Opcode::kShutdown:
      break;
  }
  if (!body.empty()) return Status::Corruption("trailing request bytes");
  return request;
}

std::string EncodeResponse(const Response& response) {
  std::string body;
  body.push_back(static_cast<char>(response.opcode));
  PutFixed64(&body, response.request_id);
  body.push_back(static_cast<char>(response.code >> 8));
  body.push_back(static_cast<char>(response.code & 0xFF));
  PutLengthPrefixed(&body, response.message);
  if (!response.ok()) return body;
  switch (response.opcode) {
    case Opcode::kQuery:
      EncodeSchema(&body, response.result.schema);
      PutVarint64(&body, response.result.rows.size());
      for (const std::string& row : response.result.rows) {
        PutLengthPrefixed(&body, row);
      }
      EncodeQueryStats(&body, response.result.stats);
      break;
    case Opcode::kAppend:
      PutVarint64(&body, response.rows_appended);
      break;
    case Opcode::kStats:
      PutVarint64(&body, response.stats.size());
      for (const auto& [name, value] : response.stats) {
        PutLengthPrefixed(&body, name);
        PutDouble(&body, value);
      }
      break;
    case Opcode::kCancel:
    case Opcode::kPing:
    case Opcode::kShutdown:
      break;
  }
  return body;
}

Result<Response> DecodeResponse(std::string_view body) {
  Response response;
  DGF_ASSIGN_OR_RETURN(uint8_t opcode, GetByte(&body));
  if (!ValidOpcode(opcode)) return Status::Corruption("unknown opcode");
  response.opcode = static_cast<Opcode>(opcode);
  DGF_ASSIGN_OR_RETURN(response.request_id, GetFixed64(&body));
  DGF_ASSIGN_OR_RETURN(uint8_t hi, GetByte(&body));
  DGF_ASSIGN_OR_RETURN(uint8_t lo, GetByte(&body));
  response.code = static_cast<uint16_t>((hi << 8) | lo);
  DGF_ASSIGN_OR_RETURN(std::string_view message, GetLengthPrefixed(&body));
  response.message = std::string(message);
  if (!response.ok()) {
    if (!body.empty()) return Status::Corruption("trailing response bytes");
    return response;
  }
  switch (response.opcode) {
    case Opcode::kQuery: {
      DGF_ASSIGN_OR_RETURN(response.result.schema, DecodeSchema(&body));
      DGF_ASSIGN_OR_RETURN(uint64_t n, GetVarint64(&body));
      // See DecodeRequest: bound by the bytes actually present before
      // reserving.
      if (n > body.size()) return Status::Corruption("absurd row count");
      response.result.rows.reserve(n);
      for (uint64_t i = 0; i < n; ++i) {
        DGF_ASSIGN_OR_RETURN(std::string_view row, GetLengthPrefixed(&body));
        response.result.rows.emplace_back(row);
      }
      DGF_ASSIGN_OR_RETURN(response.result.stats, DecodeQueryStats(&body));
      break;
    }
    case Opcode::kAppend: {
      DGF_ASSIGN_OR_RETURN(response.rows_appended, GetVarint64(&body));
      break;
    }
    case Opcode::kStats: {
      DGF_ASSIGN_OR_RETURN(uint64_t n, GetVarint64(&body));
      // Each entry is >= 9 bytes (length prefix + fixed64 double).
      if (n > body.size() / 9) return Status::Corruption("absurd stats arity");
      response.stats.reserve(n);
      for (uint64_t i = 0; i < n; ++i) {
        DGF_ASSIGN_OR_RETURN(std::string_view name, GetLengthPrefixed(&body));
        DGF_ASSIGN_OR_RETURN(double value, GetDouble(&body));
        response.stats.emplace_back(std::string(name), value);
      }
      break;
    }
    case Opcode::kCancel:
    case Opcode::kPing:
    case Opcode::kShutdown:
      break;
  }
  if (!body.empty()) return Status::Corruption("trailing response bytes");
  return response;
}

Status ResponseStatus(const Response& response) {
  if (response.ok()) return Status::OK();
  return Status::FromCode(StatusCodeFromWire(response.code), response.message);
}

Response MakeErrorResponse(Opcode opcode, uint64_t request_id,
                           const Status& status) {
  Response response;
  response.opcode = opcode;
  response.request_id = request_id;
  response.code = static_cast<uint16_t>(StatusCodeToWire(status.code()));
  response.message = status.message();
  return response;
}

Status WriteFrame(int fd, std::string_view body) {
  if (body.size() > kMaxFrameBytes) {
    return Status::InvalidArgument("frame too large");
  }
  // Header and body leave in one sendmsg: a separate header send followed
  // by the body is a write-write-read that Nagle plus delayed ACK stall
  // (measured at 40-88 ms per frame on loopback). Two iovecs spare copying
  // the body; a partial write resumes where the kernel stopped.
  std::string header;
  PutFixed32(&header, static_cast<uint32_t>(body.size()));
  iovec iov[2] = {{header.data(), header.size()},
                  {const_cast<char*>(body.data()), body.size()}};
  msghdr msg{};
  msg.msg_iov = iov;
  msg.msg_iovlen = 2;
  while (msg.msg_iovlen > 0) {
    // MSG_NOSIGNAL: a peer that hung up yields EPIPE, not SIGPIPE.
    ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("send: ") + std::strerror(errno));
    }
    while (msg.msg_iovlen > 0 &&
           static_cast<size_t>(n) >= msg.msg_iov->iov_len) {
      n -= static_cast<ssize_t>(msg.msg_iov->iov_len);
      ++msg.msg_iov;
      --msg.msg_iovlen;
    }
    if (msg.msg_iovlen > 0) {
      msg.msg_iov->iov_base = static_cast<char*>(msg.msg_iov->iov_base) + n;
      msg.msg_iov->iov_len -= static_cast<size_t>(n);
    }
  }
  return Status::OK();
}

Status SetNoDelay(int fd) {
  const int one = 1;
  if (::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) != 0) {
    return Status::IOError(std::string("setsockopt(TCP_NODELAY): ") +
                           std::strerror(errno));
  }
  return Status::OK();
}

namespace {

/// Reads exactly `length` bytes; false on EOF before the first byte when
/// `eof_ok`, Corruption on EOF mid-buffer.
Result<bool> ReadFull(int fd, char* dst, size_t length, bool eof_ok) {
  size_t got = 0;
  while (got < length) {
    const ssize_t n = ::recv(fd, dst + got, length - got, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // SO_RCVTIMEO expired (SetRecvTimeout): the peer stalled. The stream
        // position is indeterminate mid-frame, so this connection is dead.
        return Status::IOError("recv timed out");
      }
      return Status::IOError(std::string("recv: ") + std::strerror(errno));
    }
    if (n == 0) {
      if (got == 0 && eof_ok) return false;
      return Status::Corruption("connection closed mid-frame");
    }
    got += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

Result<bool> ReadFrame(int fd, std::string* body) {
  char header[4];
  DGF_ASSIGN_OR_RETURN(bool more,
                       ReadFull(fd, header, sizeof(header), /*eof_ok=*/true));
  if (!more) return false;
  const uint32_t length = DecodeFixed32(header);
  if (length > kMaxFrameBytes) return Status::Corruption("oversized frame");
  body->resize(length);
  DGF_ASSIGN_OR_RETURN(bool got, ReadFull(fd, body->data(), length,
                                          /*eof_ok=*/false));
  (void)got;
  return true;
}

Result<bool> WaitReadable(int fd, double timeout_seconds) {
  pollfd pfd{};
  pfd.fd = fd;
  pfd.events = POLLIN;
  const int timeout_ms =
      timeout_seconds <= 0
          ? 0
          : static_cast<int>(std::min(timeout_seconds * 1e3, 2.0e9)) + 1;
  for (;;) {
    const int n = ::poll(&pfd, 1, timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("poll: ") + std::strerror(errno));
    }
    // POLLHUP/POLLERR count as readable: the next recv reports EOF/error.
    return n > 0;
  }
}

Status SetRecvTimeout(int fd, double timeout_seconds) {
  timeval tv{};
  if (timeout_seconds > 0) {
    tv.tv_sec = static_cast<time_t>(timeout_seconds);
    tv.tv_usec = static_cast<suseconds_t>(
        (timeout_seconds - static_cast<double>(tv.tv_sec)) * 1e6);
  }
  if (::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) != 0) {
    return Status::IOError(std::string("setsockopt(SO_RCVTIMEO): ") +
                           std::strerror(errno));
  }
  return Status::OK();
}

}  // namespace dgf::server
