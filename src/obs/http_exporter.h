#ifndef DGF_OBS_HTTP_EXPORTER_H_
#define DGF_OBS_HTTP_EXPORTER_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dgf::obs {

/// Minimal embedded HTTP/1.0 observability endpoint.
///
///   GET /metrics  -> Prometheus text exposition of the registry
///   GET /stats    -> the same snapshot as flat JSON
///   GET /trace    -> JSON ring buffer of recent query traces
///   GET /healthz  -> "ok"
///
/// Deliberately not a web server: every response closes the connection
/// (HTTP/1.0, `Connection: close`), request lines are parsed with a byte
/// budget and a receive timeout so malformed peers, header floods, and
/// half-open sockets cannot wedge an accept slot, and anything that is not
/// `GET <known-path>` gets a 400/404/405. Same thread-per-connection /
/// stopping-flag shutdown discipline as server::Server, sharing its socket
/// conventions (127.0.0.1, SO_REUSEADDR, ephemeral port via getsockname).
class HttpExporter {
 public:
  struct Options {
    /// TCP port on 127.0.0.1; 0 picks an ephemeral port (see `port()`).
    int port = 0;
    /// Borrowed; must outlive the exporter.
    MetricsRegistry* registry = nullptr;
    /// Optional; /trace returns [] when null.
    TraceLog* trace_log = nullptr;
    /// A connection that has not produced a full request within this window
    /// is answered 408 and closed.
    double recv_timeout_seconds = 5.0;
    /// Request head (request line + headers) byte budget; 431 beyond it.
    size_t max_request_bytes = 8192;
  };

  static Result<std::unique_ptr<HttpExporter>> Start(Options options);
  ~HttpExporter();

  HttpExporter(const HttpExporter&) = delete;
  HttpExporter& operator=(const HttpExporter&) = delete;

  /// Bound TCP port.
  int port() const { return port_; }

  /// Stops accepting, closes every connection, joins all threads. Idempotent.
  void Shutdown();

 private:
  explicit HttpExporter(Options options) : options_(options) {}

  void AcceptLoop();
  void HandleConnection(int fd);
  /// Full response bytes (status line + headers + body) for one request
  /// head; never fails — protocol errors become 4xx responses.
  std::string RespondTo(const std::string& head) const;

  Options options_;
  std::atomic<int> listen_fd_{-1};
  int port_ = 0;
  std::atomic<bool> stopping_{false};

  std::mutex mu_;
  bool torn_down_ = false;
  // Connection fds not yet closed: a handler takes its fd off this list
  // under mu_ before closing it, so Shutdown never touches a reused number.
  std::vector<int> open_fds_;
  std::thread accept_thread_;
  ConnectionThreads connection_threads_;
};

/// Tiny blocking HTTP/1.0 GET against 127.0.0.1:`port` — the client side for
/// dgf_cli stats, the obs tests, the wire-fuzz HTTP stage, and the bench
/// responsiveness probe. Returns the status code and body.
struct HttpResponse {
  int status_code = 0;
  std::string body;
};
Result<HttpResponse> HttpGet(int port, const std::string& path,
                             double timeout_seconds = 5.0);

}  // namespace dgf::obs

#endif  // DGF_OBS_HTTP_EXPORTER_H_
