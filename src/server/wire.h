#ifndef DGF_SERVER_WIRE_H_
#define DGF_SERVER_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "query/executor.h"
#include "table/schema.h"

namespace dgf::server {

/// The query service's length-prefixed binary protocol.
///
/// Every message is one frame: a big-endian fixed32 body length followed by
/// the body. A request body is
///
///   [u8 opcode][fixed64 request_id][opcode-specific payload]
///
/// and a response body is
///
///   [u8 opcode][fixed64 request_id][u16 wire error code]
///   [length-prefixed error message][payload when the code is kOk]
///
/// Request ids are chosen by the client and echoed verbatim; responses may
/// arrive out of request order (QUERY runs asynchronously so a CANCEL on the
/// same connection can overtake it), so clients match on the id. Error codes
/// are the stable `WireErrorCode` table in common/status.h.

/// Frames larger than this are rejected as corruption on both sides.
inline constexpr uint64_t kMaxFrameBytes = 64ULL << 20;

enum class Opcode : uint8_t {
  kQuery = 1,
  kAppend = 2,
  kStats = 3,
  kCancel = 4,
  kPing = 5,
  kShutdown = 6,
};

/// True for the opcodes the decoder knows; unknown bytes are Corruption.
bool ValidOpcode(uint8_t raw);
const char* OpcodeName(Opcode opcode);

struct QueryRequest {
  /// SQL in the parser's dialect (Query::ToSql round-trips through it).
  std::string sql;
  /// Per-query time budget in seconds; <= 0 means no deadline.
  double deadline_seconds = 0;
  /// Distributed trace id; 0 lets the service assign one. Encoded as an
  /// optional trailing fixed64 — frames from peers that predate tracing
  /// simply omit it, and the decoder leaves it 0.
  uint64_t trace_id = 0;
};

struct AppendRequest {
  std::string table;
  /// Rows in FormatRowText form (pipe-separated), typed by the table schema.
  std::vector<std::string> rows;
};

struct Request {
  Opcode opcode = Opcode::kPing;
  uint64_t request_id = 0;
  QueryRequest query;           // kQuery
  AppendRequest append;         // kAppend
  uint64_t cancel_target = 0;   // kCancel: request_id of the query to cancel
};

/// A query result on the wire: schema, text rows, and the per-query stats the
/// executor accounted.
struct QueryResultPayload {
  table::Schema schema;
  /// One FormatRowText line per row.
  std::vector<std::string> rows;
  query::QueryStats stats;
};

struct Response {
  Opcode opcode = Opcode::kPing;
  uint64_t request_id = 0;
  /// A WireErrorCode value; kOk (0) marks success.
  uint16_t code = 0;
  /// Error detail; empty on success.
  std::string message;
  QueryResultPayload result;                           // kQuery
  uint64_t rows_appended = 0;                          // kAppend
  std::vector<std::pair<std::string, double>> stats;   // kStats

  bool ok() const { return code == 0; }
};

std::string EncodeRequest(const Request& request);
Result<Request> DecodeRequest(std::string_view body);

std::string EncodeResponse(const Response& response);
Result<Response> DecodeResponse(std::string_view body);

/// Status carried by a response: OK on success, else the decoded code and
/// message (round-trips through StatusCodeToWire/StatusCodeFromWire).
Status ResponseStatus(const Response& response);

/// Error response for `request` carrying `status`'s wire code and message.
Response MakeErrorResponse(Opcode opcode, uint64_t request_id,
                           const Status& status);

/// Blocking frame I/O over a connected socket. A frame's header and body
/// go out in one sendmsg, resumed over partial writes (EPIPE surfaces as
/// IOError, never SIGPIPE); reads loop over partial recvs. `ReadFrame`
/// returns false on a clean EOF at a frame boundary and Corruption when the
/// peer dies mid-frame.
Status WriteFrame(int fd, std::string_view body);
Result<bool> ReadFrame(int fd, std::string* body);

/// Sets TCP_NODELAY on a TCP socket, so a small frame is sent at once
/// instead of waiting behind Nagle for the ACK of the previous one. Both
/// ends of every wire TCP connection set it.
Status SetNoDelay(int fd);

/// Polls `fd` for readability: true when a byte (or EOF) is ready within
/// `timeout_seconds`, false on timeout. Consumes nothing, so a timed-out
/// caller is still at a frame boundary and can keep waiting later. A
/// `timeout_seconds` <= 0 only checks the instantaneous state.
Result<bool> WaitReadable(int fd, double timeout_seconds);

/// Sets SO_RCVTIMEO so a peer that dies *mid-frame* (accepted our request,
/// sent a partial response, went silent) surfaces as a structured IOError
/// from ReadFrame instead of blocking the reader forever. 0 clears it.
Status SetRecvTimeout(int fd, double timeout_seconds);

}  // namespace dgf::server

#endif  // DGF_SERVER_WIRE_H_
