// The HTTP frontend over DiscoveryService — the ROADMAP's "server
// frontend" and "incremental result delivery over the wire" items.
//
// JSON API (all bodies are JSON; errors are {"error", "code"} with the
// Status code mapped onto the HTTP status):
//
//   GET    /v1/algorithms            registry-driven metadata: every
//                                    algorithm with its typed options
//   POST   /v1/sessions              create + submit one session
//          {"algorithm": "fastod",              (required)
//           "options": {"threads": 2},          (values may be
//                                                string/number/bool)
//           "csv": "a,b\n1,2\n",                inline data — XOR —
//           "csv_path": "/data/flight.csv",     server-side file, read
//                                               on the worker — XOR —
//           "dataset_id": "flight",             a resident dataset
//                                               uploaded via /v1/datasets
//           "dataset_version": 2,               pin a specific version
//                                               (dataset_id only;
//                                               default = current)
//           "csv_options": {"delimiter": ",", "has_header": true,
//                           "max_rows": 1000},
//           "stream": true}                     enable /stream below
//
//   POST   /v1/datasets              load once, discover many: parse +
//                                    encode + build level-1 partitions
//                                    now, then any number of sessions
//                                    (concurrent, mixed-algorithm) bind
//                                    the resident dataset by reference
//          {"id": "flight",                     optional (ds-N otherwise)
//           "csv": "..." | "csv_path": "...",   exactly one
//           "csv_options": {...}}
//   POST   /v1/datasets/{id}/rows    append rows, minting a new dataset
//                                    version: delta rows are re-encoded
//                                    into the existing dictionaries and
//                                    the level-1 partitions extended,
//                                    without touching the prior version
//                                    (which stays alive while sessions
//                                    pin it). Responds {id,version,rows,
//                                    appended_rows,columns,bytes}; 409
//                                    when a concurrent append won the
//                                    race. Delta CSVs default to
//                                    has_header=false (data-only).
//          {"csv": "..." | "csv_path": "...",   exactly one
//           "csv_options": {...}}
//   GET    /v1/datasets              {"datasets":[{id,source,version,
//                                    rows,columns,bytes,retained_bytes,
//                                    hits,pinned,versions:[...]}...],
//                                    total_bytes,budget_bytes,evictions,
//                                    hits_total,pinned_count}
//   GET    /v1/datasets/{id}         one dataset's info row
//   DELETE /v1/datasets/{id}         drop the store's reference; running
//                                    sessions keep the data alive, new
//                                    dataset_id submissions get 404
//
// Dataset residency is bounded by options.dataset_budget_bytes: an
// upload that would exceed it evicts idle (unpinned) datasets in LRU
// order, and is refused with 503 when the budget is exhausted by pinned
// ones. Sessions pin their dataset for their whole lifetime (purge
// sessions to unpin).
//   GET    /v1/sessions/{id}         {"id","algorithm","state",
//                                     "progress","error"?}
//   DELETE /v1/sessions/{id}         cooperative cancel (idempotent)
//   DELETE /v1/sessions/{id}?purge=1 destroy a *terminal* session and
//                                    free everything it retains (the
//                                    encoded relation, report,
//                                    stream channel); 409 while live —
//                                    long-running servers must purge or
//                                    they accumulate one dataset per
//                                    session
//   GET    /v1/sessions/{id}/result  the stable report JSON of a
//                                    terminal session (409 before)
//   GET    /v1/sessions/{id}/stream  chunked transfer; one JSON line per
//                                    OD *while the session runs*, closed
//                                    by an {"type":"end",...} line. The
//                                    incremental algorithm additionally
//                                    emits {"type":"revoked",...} lines
//                                    for prior ODs the appended rows
//                                    falsified
//   GET    /v1/sessions/{id}/trace   the session's observability trace
//                                    (phase spans + engine search
//                                    counters, see obs/trace.h) as JSON;
//                                    readable in any state — a running
//                                    session shows the spans so far
//   GET    /metrics                  Prometheus text exposition of the
//                                    process-wide obs::Registry, with
//                                    dataset-store gauges refreshed at
//                                    scrape time; empty families when
//                                    FASTOD_METRICS=off
//
// Streaming rides a bounded ChannelOdSink: the engine blocks when the
// client cannot keep up (backpressure, not unbounded buffering), and a
// client that disconnects closes the channel, which lets the run finish
// while dropping delivery. Mirroring FASTOD's level-wise traversal, ODs
// arrive in the engine's deterministic emission order, so the streamed
// set of a completed session is exactly the /result set.
//
// The handler drains the channel in batches: whatever queued while the
// previous chunk was being written is rendered into one buffer and sent
// as one HTTP chunk, as soon as anything is queued (no linger timer).
// A chunk therefore carries one or more complete NDJSON lines; clients
// must split on '\n', not on chunk boundaries.
//
// Caveat that follows from backpressure: a "stream": true session whose
// stream is never consumed parks its worker once the channel fills
// (stream_capacity events). Clients that opt into streaming must either
// read the stream or DELETE the session; cancel and server shutdown
// both close the channel, so nothing can wedge past the session's
// lifetime.
#ifndef FASTOD_SERVER_DISCOVERY_SERVER_H_
#define FASTOD_SERVER_DISCOVERY_SERVER_H_

#include <atomic>
#include <cstddef>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>

#include "api/od_sink.h"
#include "api/registry.h"
#include "common/status.h"
#include "server/httpd.h"
#include "service/discovery_service.h"

namespace fastod {

struct DiscoveryServerOptions {
  std::string host = "127.0.0.1";
  int port = 8080;  // 0 picks an ephemeral port (see port())
  /// HTTP workers. Every open /stream pins one for the session's
  /// lifetime, so size this above the expected concurrent stream count.
  int http_threads = 8;
  /// Concurrently executing discovery sessions (0 = hardware).
  int worker_threads = 0;
  /// ChannelOdSink bound per streaming session.
  size_t stream_capacity = 256;
  /// Permit {"csv_path": ...} submissions that read files server-side.
  /// Disable when exposing the server beyond trusted callers.
  bool allow_csv_path = true;
  /// Memory budget for resident datasets (see data/dataset_store.h);
  /// 0 = unlimited.
  int64_t dataset_budget_bytes = 256LL << 20;
  /// Admission cap on queued+running sessions across all clients
  /// (0 = unlimited). The session past the cap is refused with 429.
  int64_t max_sessions = 0;
  /// Per-client cap on live (non-terminal) sessions, keyed by the
  /// X-Client-Id header when present, else the peer IP (0 = unlimited).
  /// Exceeding it is a 429; terminal sessions stop counting immediately
  /// but are only purged explicitly.
  int64_t max_sessions_per_client = 0;
  /// Request-body cap; over-limit uploads get 413 before any parsing.
  /// 0 = the HTTP layer's default (64 MiB).
  size_t max_body_bytes = 0;
  /// Retry-After hint (seconds) attached to 429/503 rejections.
  int retry_after_seconds = 1;
};

class DiscoveryServer {
 public:
  explicit DiscoveryServer(DiscoveryServerOptions options = {},
                           const AlgorithmRegistry* registry = nullptr);
  ~DiscoveryServer();

  DiscoveryServer(const DiscoveryServer&) = delete;
  DiscoveryServer& operator=(const DiscoveryServer&) = delete;

  Status Start();
  void Stop();
  /// The bound port (valid after Start; differs from options.port when
  /// that was 0).
  int port() const { return http_.port(); }

  // ---- Graceful drain -----------------------------------------------
  /// Phase one: flips the server into draining mode — every new
  /// POST /v1/sessions is refused with 503 + Retry-After. Established
  /// work keeps being served: running sessions finish, open streams keep
  /// flowing, and (because the protocol is one request per connection)
  /// the listen socket stays open so clients can still poll and fetch
  /// results of in-flight sessions; Stop() closes it.
  void BeginDrain();
  bool draining() const { return draining_.load(); }
  /// Phase two: blocks until no session is queued or running, up to
  /// `timeout_seconds`; on timeout cancels the stragglers (closing their
  /// stream channels so backpressure cannot wedge the cancel) and waits
  /// for them to stop. Returns true when every session finished without
  /// being cancelled.
  bool Drain(double timeout_seconds);

  /// The backing service, for in-process inspection in tests.
  DiscoveryService& service() { return service_; }

 private:
  // Per-session streaming state. The channel must outlive the session's
  // terminal transition (the engine may still be pushing), so states are
  // only dropped with the server.
  struct StreamState {
    explicit StreamState(size_t capacity) : channel(capacity) {}
    ChannelOdSink channel;
    std::atomic<bool> claimed{false};  // one consumer per stream
  };

  void Handle(const HttpRequest& request, HttpResponseWriter& writer);
  /// The route dispatch behind Handle(), which wraps it with the HTTP
  /// request counter and latency histogram.
  void Route(const HttpRequest& request, HttpResponseWriter& writer);
  void HandleAlgorithms(HttpResponseWriter& writer);
  void HandleMetrics(HttpResponseWriter& writer);
  void HandleCreateSession(const HttpRequest& request,
                           HttpResponseWriter& writer);
  void HandleCreateDataset(const HttpRequest& request,
                           HttpResponseWriter& writer);
  void HandleAppendRows(const std::string& dataset_id,
                        const HttpRequest& request,
                        HttpResponseWriter& writer);
  void HandleListDatasets(HttpResponseWriter& writer);
  void HandleDatasetInfo(const std::string& dataset_id,
                         HttpResponseWriter& writer);
  void HandleDatasetDelete(const std::string& dataset_id,
                           HttpResponseWriter& writer);
  void HandleSessionInfo(SessionId id, HttpResponseWriter& writer);
  void HandleCancel(SessionId id, bool purge, HttpResponseWriter& writer);
  void HandleResult(SessionId id, HttpResponseWriter& writer);
  void HandleTrace(SessionId id, HttpResponseWriter& writer);
  void HandleStream(SessionId id, HttpResponseWriter& writer);

  std::shared_ptr<StreamState> FindStream(SessionId id) const;
  std::string SessionInfoJson(SessionId id,
                              const DiscoveryService::PollInfo& info) const;
  /// Counts the client's live sessions (pruning terminal ones) and
  /// claims a slot, or refuses with kUnavailable when at quota.
  Status AdmitClient(const std::string& client_key, SessionId id);
  void ForgetClientSession(SessionId id);

  const AlgorithmRegistry& registry_;
  DiscoveryServerOptions options_;
  std::atomic<bool> draining_{false};

  mutable std::mutex mutex_;
  std::map<SessionId, std::shared_ptr<StreamState>> streams_;
  std::map<SessionId, std::string> algorithm_names_;
  // Per-client quota bookkeeping (both guarded by mutex_): who owns each
  // session, and each client's live set.
  std::map<SessionId, std::string> session_clients_;
  std::map<std::string, std::set<SessionId>> client_sessions_;
  std::atomic<int64_t> next_dataset_id_{1};  // for autogenerated ids

  // Destruction order is load-bearing: ~HttpServer first (no new
  // requests, handlers drained), then ~DiscoveryService (cancels and
  // joins every run — sessions release their dataset pins here), then
  // the dataset store those sessions were pinning, and only then the
  // stream channels above, which running engines may push into until
  // the service drain completes.
  DatasetStore store_;
  DiscoveryService service_;
  HttpServer http_;
};

}  // namespace fastod

#endif  // FASTOD_SERVER_DISCOVERY_SERVER_H_
