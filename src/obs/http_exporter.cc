#include "obs/http_exporter.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace dgf::obs {
namespace {

/// HttpGet refuses to buffer more than this much response.
constexpr size_t kHttpGetMaxResponseBytes = 8u << 20;

Result<int> HttpListenTcp(int port, int* bound_port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0)
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
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

void SetSocketTimeout(int fd, double seconds) {
  if (seconds <= 0) return;
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(seconds);
  tv.tv_usec =
      static_cast<suseconds_t>((seconds - static_cast<double>(tv.tv_sec)) * 1e6);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

bool SendAllBytes(int fd, const std::string& bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

std::string MakeHttpResponse(int code, const std::string& reason,
                             const std::string& content_type,
                             const std::string& body) {
  std::string out = "HTTP/1.0 " + std::to_string(code) + " " + reason + "\r\n";
  out += "Content-Type: " + content_type + "\r\n";
  out += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  out += "Connection: close\r\n\r\n";
  out += body;
  return out;
}

}  // namespace

Result<std::unique_ptr<HttpExporter>> HttpExporter::Start(Options options) {
  if (options.registry == nullptr) {
    return Status::InvalidArgument("HttpExporter requires a MetricsRegistry");
  }
  std::unique_ptr<HttpExporter> exporter(new HttpExporter(options));
  DGF_ASSIGN_OR_RETURN(exporter->listen_fd_,
                       HttpListenTcp(options.port, &exporter->port_));
  {
    std::lock_guard<std::mutex> lock(exporter->mu_);
    exporter->accept_thread_ =
        std::thread([e = exporter.get()] { e->AcceptLoop(); });
  }
  return exporter;
}

HttpExporter::~HttpExporter() { Shutdown(); }

void HttpExporter::AcceptLoop() {
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
    std::lock_guard<std::mutex> lock(mu_);
    if (torn_down_) {
      ::close(fd);
      return;
    }
    open_fds_.push_back(fd);
    connection_threads_.Start([this, fd] { HandleConnection(fd); });
  }
}

void HttpExporter::HandleConnection(int fd) {
  SetSocketTimeout(fd, options_.recv_timeout_seconds);
  // Read until the end of the request head; everything past the blank line
  // (there is no legitimate GET body) is ignored. The byte budget caps how
  // much a header flood can make us buffer.
  std::string head;
  bool complete = false;
  bool overflow = false;
  char buf[1024];
  while (!complete && !overflow) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;  // peer closed early, timed out, or errored
    head.append(buf, static_cast<size_t>(n));
    if (head.find("\r\n\r\n") != std::string::npos ||
        head.find("\n\n") != std::string::npos) {
      complete = true;
    } else if (head.size() > options_.max_request_bytes) {
      overflow = true;
    }
  }

  std::string response;
  if (overflow) {
    response = MakeHttpResponse(431, "Request Header Fields Too Large",
                                "text/plain", "request too large\n");
  } else if (!complete) {
    response = MakeHttpResponse(408, "Request Timeout", "text/plain",
                                "incomplete request\n");
  } else {
    response = RespondTo(head);
  }
  SendAllBytes(fd, response);
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::erase(open_fds_, fd);
  }
  ::shutdown(fd, SHUT_RDWR);
  ::close(fd);
}

std::string HttpExporter::RespondTo(const std::string& head) const {
  // Parse "METHOD SP PATH SP VERSION" from the first line; be strict —
  // anything else is a 400, never a crash.
  const size_t eol = head.find_first_of("\r\n");
  const std::string line = head.substr(0, eol);
  const size_t sp1 = line.find(' ');
  if (sp1 == std::string::npos) {
    return MakeHttpResponse(400, "Bad Request", "text/plain",
                            "malformed request line\n");
  }
  const size_t sp2 = line.find(' ', sp1 + 1);
  const std::string method = line.substr(0, sp1);
  std::string path = sp2 == std::string::npos
                         ? line.substr(sp1 + 1)
                         : line.substr(sp1 + 1, sp2 - sp1 - 1);
  if (method.empty() || path.empty() || path[0] != '/') {
    return MakeHttpResponse(400, "Bad Request", "text/plain",
                            "malformed request line\n");
  }
  if (method != "GET") {
    return MakeHttpResponse(405, "Method Not Allowed", "text/plain",
                            "only GET is supported\n");
  }
  const size_t query_pos = path.find('?');
  if (query_pos != std::string::npos) path.resize(query_pos);

  if (path == "/healthz") {
    return MakeHttpResponse(200, "OK", "text/plain", "ok\n");
  }
  if (path == "/metrics") {
    return MakeHttpResponse(200, "OK", "text/plain; version=0.0.4",
                            options_.registry->RenderPrometheus());
  }
  if (path == "/stats") {
    return MakeHttpResponse(200, "OK", "application/json",
                            options_.registry->RenderJson());
  }
  if (path == "/trace") {
    const std::string body =
        options_.trace_log ? options_.trace_log->RenderJson() : "[]";
    return MakeHttpResponse(200, "OK", "application/json", body);
  }
  return MakeHttpResponse(404, "Not Found", "text/plain",
                          "unknown path " + path + "\n");
}

void HttpExporter::Shutdown() {
  std::thread accept_thread;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (torn_down_) return;
    torn_down_ = true;
    accept_thread.swap(accept_thread_);
    // Connection handlers own their fds and close them on exit; shutdown
    // just interrupts any blocked recv so the joins below cannot hang. Done
    // under mu_, where every listed fd is still open.
    for (int fd : open_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  stopping_.store(true, std::memory_order_release);
  const int listen_fd = listen_fd_.exchange(-1);
  if (listen_fd >= 0) {
    ::shutdown(listen_fd, SHUT_RDWR);
    ::close(listen_fd);
  }
  if (accept_thread.joinable()) accept_thread.join();
  connection_threads_.JoinAll();
}

Result<HttpResponse> HttpGet(int port, const std::string& path,
                             double timeout_seconds) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0)
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  SetSocketTimeout(fd, timeout_seconds);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int err = errno;
    ::close(fd);
    return Status::IOError(std::string("connect: ") + std::strerror(err));
  }
  const std::string request =
      "GET " + path + " HTTP/1.0\r\nHost: 127.0.0.1\r\n\r\n";
  if (!SendAllBytes(fd, request)) {
    ::close(fd);
    return Status::IOError("send failed");
  }
  std::string raw;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    raw.append(buf, static_cast<size_t>(n));
    if (raw.size() > kHttpGetMaxResponseBytes) break;
  }
  ::close(fd);

  const size_t line_end = raw.find("\r\n");
  if (line_end == std::string::npos) {
    return Status::IOError("short or malformed HTTP response");
  }
  const std::string status_line = raw.substr(0, line_end);
  const size_t sp = status_line.find(' ');
  if (sp == std::string::npos || sp + 4 > status_line.size()) {
    return Status::IOError("malformed HTTP status line: " + status_line);
  }
  HttpResponse response;
  response.status_code = std::atoi(status_line.c_str() + sp + 1);
  const size_t body_start = raw.find("\r\n\r\n");
  if (body_start != std::string::npos) {
    response.body = raw.substr(body_start + 4);
  }
  return response;
}

}  // namespace dgf::obs
