#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "table/schema.h"

namespace dgf::server {
namespace {

Result<int> ListenTcp(int port, int* bound_port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::IOError(std::string("socket: ") + std::strerror(errno));
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int err = errno;
    ::close(fd);
    return Status::IOError(std::string("bind: ") + std::strerror(err));
  }
  if (::listen(fd, 64) != 0) {
    const int err = errno;
    ::close(fd);
    return Status::IOError(std::string("listen: ") + std::strerror(err));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    const int err = errno;
    ::close(fd);
    return Status::IOError(std::string("getsockname: ") + std::strerror(err));
  }
  *bound_port = ntohs(bound.sin_port);
  return fd;
}

Result<int> ListenUnix(const std::string& path) {
  sockaddr_un addr{};
  if (path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("unix socket path too long: " + path);
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return Status::IOError(std::string("socket: ") + std::strerror(errno));
  ::unlink(path.c_str());
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int err = errno;
    ::close(fd);
    return Status::IOError(std::string("bind ") + path + ": " +
                           std::strerror(err));
  }
  if (::listen(fd, 64) != 0) {
    const int err = errno;
    ::close(fd);
    return Status::IOError(std::string("listen: ") + std::strerror(err));
  }
  return fd;
}

}  // namespace

Result<std::unique_ptr<Server>> Server::Start(Options options) {
  if (options.service == nullptr) {
    return Status::InvalidArgument("Server requires a WireService");
  }
  std::unique_ptr<Server> server(new Server(options));
  if (!options.unix_path.empty()) {
    DGF_ASSIGN_OR_RETURN(server->listen_fd_, ListenUnix(options.unix_path));
  } else {
    DGF_ASSIGN_OR_RETURN(server->listen_fd_,
                         ListenTcp(options.port, &server->port_));
  }
  {
    std::lock_guard<std::mutex> lock(server->mu_);
    server->accept_thread_ =
        std::thread([s = server.get()] { s->AcceptLoop(); });
  }
  return server;
}

Server::~Server() { Shutdown(); }

void Server::AcceptLoop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (stopping_.load(std::memory_order_acquire)) {
      if (fd >= 0) ::close(fd);
      return;
    }
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listen socket closed or broken
    }
    if (options_.unix_path.empty() && !SetNoDelay(fd).ok()) {
      ::close(fd);
      continue;
    }
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    std::lock_guard<std::mutex> lock(mu_);
    if (torn_down_) {
      ::close(fd);
      return;
    }
    connections_.push_back(conn);
    connection_threads_.Start([this, conn] { HandleConnection(conn); });
  }
}

void Server::HandleConnection(const std::shared_ptr<Connection>& conn) {
  std::string body;
  for (;;) {
    auto more = ReadFrame(conn->fd, &body);
    if (!more.ok() || !*more) break;
    if (!HandleRequest(conn, body)) break;
  }
  {
    // Mark closed before closing the descriptor so a query completion racing
    // in never writes to a recycled fd.
    std::lock_guard<std::mutex> lock(conn->write_mu);
    conn->open.store(false, std::memory_order_release);
    ::close(conn->fd);
    conn->fd = -1;
  }
  std::lock_guard<std::mutex> lock(mu_);
  std::erase(connections_, conn);
}

void Server::WriteResponse(Connection& conn, const Response& response) {
  std::lock_guard<std::mutex> lock(conn.write_mu);
  if (!conn.open.load(std::memory_order_acquire)) return;
  if (!server::WriteFrame(conn.fd, EncodeResponse(response)).ok()) {
    // The peer hung up; readers notice on their next recv. Suppress further
    // writes so a batch of completions does not spam a dead socket.
    conn.open.store(false, std::memory_order_release);
  }
}

bool Server::HandleRequest(const std::shared_ptr<Connection>& conn,
                           const std::string& body) {
  auto decoded = DecodeRequest(body);
  if (!decoded.ok()) return false;  // protocol error: drop the connection
  const Request& request = *decoded;
  WireService* service = options_.service;

  switch (request.opcode) {
    case Opcode::kQuery: {
      const uint64_t id = request.request_id;
      const uint64_t service_id =
          next_service_id_.fetch_add(1, std::memory_order_relaxed);
      {
        std::lock_guard<std::mutex> lock(conn->inflight_mu);
        if (!conn->inflight.emplace(id, service_id).second) {
          WriteResponse(
              *conn,
              MakeErrorResponse(
                  Opcode::kQuery, id,
                  Status::InvalidArgument("duplicate in-flight request id")));
          return true;
        }
      }
      // Completion writes the response from a worker thread; the connection
      // is kept alive by the shared_ptr captured here.
      Status admitted = service->SubmitQuery(
          service_id, request.query.sql, request.query.deadline_seconds,
          request.query.trace_id,
          [this, conn, id](Result<query::QueryResult> result) {
            {
              std::lock_guard<std::mutex> lock(conn->inflight_mu);
              conn->inflight.erase(id);
            }
            Response response;
            response.opcode = Opcode::kQuery;
            response.request_id = id;
            if (!result.ok()) {
              response = MakeErrorResponse(Opcode::kQuery, id, result.status());
            } else {
              response.result.schema = result->schema;
              response.result.rows.reserve(result->rows.size());
              for (const table::Row& row : result->rows) {
                response.result.rows.push_back(table::FormatRowText(row));
              }
              response.result.stats = result->stats;
            }
            WriteResponse(*conn, response);
          });
      if (!admitted.ok()) {
        {
          std::lock_guard<std::mutex> lock(conn->inflight_mu);
          conn->inflight.erase(id);
        }
        WriteResponse(*conn, MakeErrorResponse(Opcode::kQuery, id, admitted));
      }
      return true;
    }
    case Opcode::kAppend: {
      Response response;
      response.opcode = Opcode::kAppend;
      response.request_id = request.request_id;
      auto appended = service->Append(request.append.table,
                                      request.append.rows);
      if (appended.ok()) {
        response.rows_appended = *appended;
      } else {
        response = MakeErrorResponse(Opcode::kAppend, request.request_id,
                                     appended.status());
      }
      WriteResponse(*conn, response);
      return true;
    }
    case Opcode::kStats: {
      Response response;
      response.opcode = Opcode::kStats;
      response.request_id = request.request_id;
      response.stats = service->StatsSnapshot();
      WriteResponse(*conn, response);
      return true;
    }
    case Opcode::kCancel: {
      // The target id is scoped to this connection: one client cannot cancel
      // another client's queries.
      uint64_t service_id = 0;
      {
        std::lock_guard<std::mutex> lock(conn->inflight_mu);
        auto it = conn->inflight.find(request.cancel_target);
        if (it != conn->inflight.end()) service_id = it->second;
      }
      const bool found = service_id != 0 && service->CancelQuery(service_id);
      Response response;
      if (found) {
        response.opcode = Opcode::kCancel;
        response.request_id = request.request_id;
      } else {
        response = MakeErrorResponse(
            Opcode::kCancel, request.request_id,
            Status::NotFound("no in-flight query with that id"));
      }
      WriteResponse(*conn, response);
      return true;
    }
    case Opcode::kPing: {
      Response response;
      response.opcode = Opcode::kPing;
      response.request_id = request.request_id;
      WriteResponse(*conn, response);
      return true;
    }
    case Opcode::kShutdown: {
      // Drain before acking: the ack is the signal that every in-flight
      // query has completed and its response has been written.
      service->BeginDrain();
      service->Drain();
      Response response;
      response.opcode = Opcode::kShutdown;
      response.request_id = request.request_id;
      WriteResponse(*conn, response);
      SignalShutdown();
      return true;
    }
  }
  return false;
}

void Server::SignalShutdown() {
  std::lock_guard<std::mutex> lock(mu_);
  shutdown_requested_ = true;
  shutdown_cv_.notify_all();
}

void Server::WaitShutdown() {
  std::unique_lock<std::mutex> lock(mu_);
  shutdown_cv_.wait(lock, [this] { return shutdown_requested_; });
}

void Server::Shutdown() {
  std::thread accept_thread;
  std::vector<std::shared_ptr<Connection>> connections;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (torn_down_) return;
    torn_down_ = true;
    shutdown_requested_ = true;
    shutdown_cv_.notify_all();
    accept_thread.swap(accept_thread_);
    connections.swap(connections_);
  }
  stopping_.store(true, std::memory_order_release);
  const int listen_fd = listen_fd_.exchange(-1);
  if (listen_fd >= 0) {
    ::shutdown(listen_fd, SHUT_RDWR);
    ::close(listen_fd);
  }

  options_.service->BeginDrain();
  // Wake every connection reader; in-flight queries still complete (their
  // responses go to whatever sockets remain writable) before Drain returns.
  for (const auto& conn : connections) {
    std::lock_guard<std::mutex> lock(conn->write_mu);
    if (conn->open.load(std::memory_order_acquire)) {
      ::shutdown(conn->fd, SHUT_RDWR);
    }
  }
  options_.service->Drain();
  if (accept_thread.joinable()) accept_thread.join();
  connection_threads_.JoinAll();
  if (!options_.unix_path.empty()) ::unlink(options_.unix_path.c_str());
}

}  // namespace dgf::server
