#ifndef DGF_SERVER_SERVER_H_
#define DGF_SERVER_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "server/service_interface.h"
#include "server/wire.h"

namespace dgf::server {

/// The wire front end: accepts TCP (127.0.0.1) or Unix-socket connections
/// and speaks the framed protocol in wire.h against a WireService (a local
/// QueryService, or a coord::Coordinator fronting a cluster of them).
///
/// One reader thread per connection decodes requests; QUERY dispatches
/// asynchronously into the service's worker pool, with the response written
/// from the completion callback under the connection's write lock — so a
/// CANCEL sent on the same connection can reach a query already running, and
/// responses interleave by request id rather than request order. APPEND,
/// STATS, CANCEL and PING are answered inline on the reader thread.
///
/// SHUTDOWN stops admission, drains in-flight queries, acks the requester,
/// and wakes `WaitShutdown()`; the owner then tears the server down (or just
/// destroys it — the destructor performs the same teardown).
class Server {
 public:
  struct Options {
    /// Borrowed; must outlive the server. One Server per service: the
    /// server keys the service's in-flight queries by its own ids, and its
    /// shutdown drains the service.
    WireService* service = nullptr;
    /// Non-empty: listen on this Unix socket path instead of TCP.
    std::string unix_path;
    /// TCP port on 127.0.0.1; 0 picks an ephemeral port (see `port()`).
    int port = 0;
  };

  static Result<std::unique_ptr<Server>> Start(Options options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bound TCP port (0 when listening on a Unix socket).
  int port() const { return port_; }

  /// Blocks until a SHUTDOWN request completes (or `Shutdown()` is called).
  void WaitShutdown();

  /// Stops accepting, drains the service, closes every connection, joins all
  /// threads. Idempotent.
  void Shutdown();

 private:
  /// Shared between the reader thread and in-flight query completions; the
  /// write lock serializes interleaved responses and `open` suppresses
  /// writes after the peer is gone.
  struct Connection {
    int fd = -1;
    std::mutex write_mu;
    std::atomic<bool> open{true};
    /// Wire request ids are chosen by the client and only unique per
    /// connection; the service needs globally unique keys, so each admitted
    /// query gets a fresh service id and this map routes CANCELs for the
    /// connection's own queries.
    std::mutex inflight_mu;
    std::map<uint64_t, uint64_t> inflight;  // wire id -> service id
  };

  explicit Server(Options options) : options_(options) {}

  void AcceptLoop();
  void HandleConnection(const std::shared_ptr<Connection>& conn);
  /// Decodes and serves one request; false when the connection should close.
  bool HandleRequest(const std::shared_ptr<Connection>& conn,
                     const std::string& body);
  void WriteResponse(Connection& conn, const Response& response);
  void SignalShutdown();

  Options options_;
  /// Atomic: Shutdown() invalidates it while the accept thread reads it.
  std::atomic<int> listen_fd_{-1};
  int port_ = 0;
  std::atomic<bool> stopping_{false};
  /// Service-side query ids (see Connection::inflight).
  std::atomic<uint64_t> next_service_id_{1};

  std::mutex mu_;
  std::condition_variable shutdown_cv_;
  bool shutdown_requested_ = false;
  bool torn_down_ = false;
  std::vector<std::shared_ptr<Connection>> connections_;  // live ones
  std::thread accept_thread_;
  ConnectionThreads connection_threads_;
};

}  // namespace dgf::server

#endif  // DGF_SERVER_SERVER_H_
