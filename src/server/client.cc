#include "server/client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

namespace dgf::server {

namespace {

/// connect() bounded by `timeout_seconds`: non-blocking connect, poll for
/// writability, then SO_ERROR for the real outcome. Restores blocking mode
/// on success.
Status ConnectWithTimeout(int fd, const sockaddr* addr, socklen_t addrlen,
                          double timeout_seconds) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) {
    return Status::IOError(std::string("fcntl: ") + std::strerror(errno));
  }
  if (::connect(fd, addr, addrlen) != 0) {
    if (errno != EINPROGRESS) {
      return Status::IOError(std::string("connect: ") + std::strerror(errno));
    }
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLOUT;
    const int timeout_ms =
        static_cast<int>(std::min(timeout_seconds * 1e3, 2.0e9)) + 1;
    int n;
    do {
      n = ::poll(&pfd, 1, timeout_ms);
    } while (n < 0 && errno == EINTR);
    if (n < 0) {
      return Status::IOError(std::string("poll: ") + std::strerror(errno));
    }
    if (n == 0) return Status::IOError("connect timed out");
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0) {
      return Status::IOError(std::string("getsockopt: ") +
                             std::strerror(errno));
    }
    if (err != 0) {
      return Status::IOError(std::string("connect: ") + std::strerror(err));
    }
  }
  if (::fcntl(fd, F_SETFL, flags) != 0) {
    return Status::IOError(std::string("fcntl: ") + std::strerror(errno));
  }
  return Status::OK();
}

}  // namespace

Result<std::unique_ptr<ServerClient>> ServerClient::ConnectTcp(
    const std::string& host, int port, double connect_timeout_seconds) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("not an IPv4 address: " + host);
  }
  Status connected;
  if (connect_timeout_seconds > 0) {
    connected = ConnectWithTimeout(fd, reinterpret_cast<sockaddr*>(&addr),
                                   sizeof(addr), connect_timeout_seconds);
  } else if (::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                       sizeof(addr)) != 0) {
    connected = Status::IOError(std::string("connect: ") +
                                std::strerror(errno));
  }
  if (connected.ok()) connected = SetNoDelay(fd);
  if (!connected.ok()) {
    ::close(fd);
    return Status::IOError("connect " + host + ":" + std::to_string(port) +
                           ": " + connected.message());
  }
  return std::unique_ptr<ServerClient>(new ServerClient(fd));
}

Result<std::unique_ptr<ServerClient>> ServerClient::ConnectUnix(
    const std::string& path) {
  sockaddr_un addr{};
  if (path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("unix socket path too long: " + path);
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int err = errno;
    ::close(fd);
    return Status::IOError("connect " + path + ": " + std::strerror(err));
  }
  return std::unique_ptr<ServerClient>(new ServerClient(fd));
}

ServerClient::~ServerClient() {
  if (fd_ >= 0) ::close(fd_);
}

Result<uint64_t> ServerClient::Send(Request request) {
  request.request_id = next_request_id_++;
  DGF_RETURN_IF_ERROR(WriteFrame(fd_, EncodeRequest(request)));
  return request.request_id;
}

Result<Response> ServerClient::Await(uint64_t request_id) {
  auto it = buffered_.find(request_id);
  if (it != buffered_.end()) {
    Response response = std::move(it->second);
    buffered_.erase(it);
    return response;
  }
  std::string body;
  for (;;) {
    DGF_ASSIGN_OR_RETURN(bool more, ReadFrame(fd_, &body));
    if (!more) {
      return Status::IOError("connection closed awaiting response " +
                             std::to_string(request_id));
    }
    DGF_ASSIGN_OR_RETURN(Response response, DecodeResponse(body));
    if (response.request_id == request_id) return response;
    buffered_[response.request_id] = std::move(response);
  }
}

Result<std::optional<Response>> ServerClient::AwaitFor(
    uint64_t request_id, double timeout_seconds) {
  auto it = buffered_.find(request_id);
  if (it != buffered_.end()) {
    Response response = std::move(it->second);
    buffered_.erase(it);
    return std::optional<Response>(std::move(response));
  }
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration_cast<
                            std::chrono::steady_clock::duration>(
                            std::chrono::duration<double>(
                                std::max(0.0, timeout_seconds)));
  std::string body;
  for (;;) {
    const double remaining =
        std::chrono::duration<double>(deadline -
                                      std::chrono::steady_clock::now())
            .count();
    DGF_ASSIGN_OR_RETURN(bool readable,
                         WaitReadable(fd_, std::max(0.0, remaining)));
    if (!readable) {
      if (remaining <= 0) return std::optional<Response>();
      continue;
    }
    // A full frame may still take multiple recvs; SetRecvTimeout (if the
    // caller armed one) bounds a peer stalling mid-frame.
    DGF_ASSIGN_OR_RETURN(bool more, ReadFrame(fd_, &body));
    if (!more) {
      return Status::IOError("connection closed awaiting response " +
                             std::to_string(request_id));
    }
    DGF_ASSIGN_OR_RETURN(Response response, DecodeResponse(body));
    if (response.request_id == request_id) {
      return std::optional<Response>(std::move(response));
    }
    buffered_[response.request_id] = std::move(response);
  }
}

Status ServerClient::SetRecvTimeout(double timeout_seconds) {
  return server::SetRecvTimeout(fd_, timeout_seconds);
}

Result<Response> ServerClient::Call(Request request) {
  DGF_ASSIGN_OR_RETURN(uint64_t id, Send(std::move(request)));
  return Await(id);
}

Result<Response> ServerClient::Query(const std::string& sql,
                                     double deadline_seconds,
                                     uint64_t trace_id) {
  Request request;
  request.opcode = Opcode::kQuery;
  request.query.sql = sql;
  request.query.deadline_seconds = deadline_seconds;
  request.query.trace_id = trace_id;
  return Call(std::move(request));
}

Result<uint64_t> ServerClient::StartQuery(const std::string& sql,
                                          double deadline_seconds,
                                          uint64_t trace_id) {
  Request request;
  request.opcode = Opcode::kQuery;
  request.query.sql = sql;
  request.query.deadline_seconds = deadline_seconds;
  request.query.trace_id = trace_id;
  return Send(std::move(request));
}

Result<uint64_t> ServerClient::StartCancel(uint64_t target_request_id) {
  Request request;
  request.opcode = Opcode::kCancel;
  request.cancel_target = target_request_id;
  return Send(std::move(request));
}

Result<Response> ServerClient::Append(const std::string& table,
                                      const std::vector<std::string>& rows) {
  Request request;
  request.opcode = Opcode::kAppend;
  request.append.table = table;
  request.append.rows = rows;
  return Call(std::move(request));
}

Result<Response> ServerClient::Stats() {
  Request request;
  request.opcode = Opcode::kStats;
  return Call(std::move(request));
}

Result<Response> ServerClient::Ping() {
  Request request;
  request.opcode = Opcode::kPing;
  return Call(std::move(request));
}

Result<Response> ServerClient::Shutdown() {
  Request request;
  request.opcode = Opcode::kShutdown;
  return Call(std::move(request));
}

}  // namespace dgf::server
