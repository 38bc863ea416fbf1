// A dependency-free blocking HTTP/1.1 server on the shared ThreadPool.
//
// Scope: exactly what the discovery API needs — request-line + header
// parsing, Content-Length bodies, percent-decoded paths and query
// strings, fixed responses, and chunked transfer encoding for streaming
// endpoints. One request per connection (every response carries
// `Connection: close`), no TLS, no compression; production deployments
// are expected to sit behind a reverse proxy that provides both.
//
// Threading: Start() spawns one acceptor thread; each accepted
// connection is handed to a ThreadPool worker via Submit(), so at most
// `num_threads` requests are in flight and the rest queue in accept
// order. The pool is private to the server — never the DiscoveryService
// session pool — so a streaming handler that blocks for the whole run
// of a session can never starve the workers that run the session.
//
// Shutdown: Stop() (or the destructor) closes the listening socket,
// flips stopping(), and drains the pool. Long-lived handlers must poll
// stopping() and return; short handlers just finish.
#ifndef FASTOD_SERVER_HTTPD_H_
#define FASTOD_SERVER_HTTPD_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"

struct iovec;

namespace fastod {

/// One parsed request. Header names are lowercased; the path is
/// percent-decoded with the query string split off into `query`.
struct HttpRequest {
  std::string method;  // uppercase: "GET", "POST", "DELETE", ...
  std::string path;    // e.g. "/v1/sessions/7/stream"
  std::string peer;    // client IPv4 literal (no port), for quota keying
  std::map<std::string, std::string> query;
  std::map<std::string, std::string> headers;
  std::string body;
};

/// Extra response headers, e.g. {{"Retry-After", "2"}}.
using HttpHeaders = std::vector<std::pair<std::string, std::string>>;

/// Standard reason phrase for the status codes the server emits.
const char* HttpReason(int status);

/// Response surface handed to handlers. Exactly one of Send() or
/// BeginChunked()…WriteChunk()…EndChunked() per request. Every write
/// reports whether the client is still there; a false return means the
/// peer is gone and the handler should wind down (nothing more will be
/// delivered).
class HttpResponseWriter {
 public:
  explicit HttpResponseWriter(int fd) : fd_(fd) {}

  HttpResponseWriter(const HttpResponseWriter&) = delete;
  HttpResponseWriter& operator=(const HttpResponseWriter&) = delete;

  /// Complete response with Content-Length.
  bool Send(int status, const std::string& content_type,
            const std::string& body);
  /// Same, with extra headers appended (e.g. Retry-After on 429/503).
  bool Send(int status, const std::string& content_type,
            const std::string& body, const HttpHeaders& extra_headers);

  /// Starts a chunked response; stream with WriteChunk, finish with
  /// EndChunked (which sends the terminating 0-length chunk).
  bool BeginChunked(int status, const std::string& content_type);
  /// Sends `data` as one chunk — size line, payload and CRLF in a single
  /// gathered send — so a caller that batches its output pays one
  /// syscall (and, under TCP_NODELAY, one segment train) per chunk.
  bool WriteChunk(const std::string& data);
  bool EndChunked();

  /// True once any bytes of a response have been written (after which an
  /// error can no longer be reported as a status code).
  bool started() const { return started_; }

 private:
  bool WriteAll(const char* data, size_t size);
  /// Sends every byte of `parts` in order, retrying partial sends. One
  /// httpd.write fault-point hit per call.
  bool WriteAllV(iovec* parts, size_t count);

  int fd_;
  bool started_ = false;
  bool chunked_ = false;
};

using HttpHandler =
    std::function<void(const HttpRequest&, HttpResponseWriter&)>;

class HttpServer {
 public:
  /// `num_threads` bounds concurrently served requests (streaming
  /// handlers occupy one worker for their whole lifetime — size
  /// accordingly).
  explicit HttpServer(HttpHandler handler, int num_threads = 8);
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds `host:port` and starts accepting. Port 0 picks an ephemeral
  /// port — read the actual one from port().
  Status Start(const std::string& host, int port);

  /// The bound port (valid after a successful Start).
  int port() const { return port_; }

  /// True once Stop() has begun; long-lived handlers poll this.
  bool stopping() const { return stopping_.load(); }

  /// Caps request bodies; over-limit uploads are rejected with 413.
  /// Call before Start(). 0 restores the built-in default (64 MiB).
  void set_max_body_bytes(size_t max_body_bytes);

  /// Drain phase one: closes the listening socket and joins the acceptor
  /// so no new connections arrive, but leaves in-flight handlers (and
  /// their streams) running — stopping() stays false. Idempotent; Stop()
  /// still completes the shutdown afterwards.
  void StopAccepting();

  /// Stops accepting, waits for in-flight handlers, releases the socket.
  /// Idempotent; also run by the destructor.
  void Stop();

 private:
  void AcceptLoop();
  void HandleConnection(int fd, std::string peer);
  void CloseListener();

  HttpHandler handler_;
  int num_threads_;
  size_t max_body_bytes_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> stopping_{false};
  std::thread acceptor_;
  std::unique_ptr<ThreadPool> pool_;
  // Live accepted sockets; Stop() shuts them down so handlers blocked in
  // recv() return immediately instead of riding out SO_RCVTIMEO.
  std::mutex connections_mutex_;
  std::set<int> connections_;  // guarded by connections_mutex_
};

}  // namespace fastod

#endif  // FASTOD_SERVER_HTTPD_H_
