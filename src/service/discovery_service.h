// Batch scheduling of discovery sessions over a shared worker pool.
//
// The DiscoveryService is the embedding surface the ROADMAP's server and
// C-API items call for: callers create handle-addressed sessions, submit
// them, and poll — many relations × many algorithms run concurrently on
// one common/thread_pool.h, at most num_threads() at a time, the rest
// queued in submission order:
//
//   DiscoveryService service(8);
//   auto id = service.Create("fastod");
//   service.SetOption(*id, "threads", "1");
//   service.SubmitCsv(*id, "flight.csv", CsvOptions());   // async
//   while (!IsTerminal(service.Poll(*id)->state)) ...     // or Wait(*id)
//   std::cout << *service.ResultJson(*id);
//
// Handles (SessionId) are plain integers, never reused within a service,
// so they cross FFI boundaries safely — capi/fastod_c.h wraps exactly
// this class. All methods are thread-safe; sessions are internally
// shared_ptr-owned, so Destroy() of a running session is safe (the worker
// keeps the object alive until its run finishes).
//
// Shutdown: the destructor requests cancellation of every live session,
// then drains the pool — engines stop at their next check point, so
// destruction is prompt even with deep queues.
#ifndef FASTOD_SERVICE_DISCOVERY_SERVICE_H_
#define FASTOD_SERVICE_DISCOVERY_SERVICE_H_

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "api/od_sink.h"
#include "api/registry.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "data/csv.h"
#include "data/dataset_store.h"
#include "service/discovery_session.h"

namespace fastod {

using SessionId = int64_t;

class DiscoveryService {
 public:
  /// `num_threads` caps concurrently executing sessions; 0 means
  /// hardware concurrency. `registry` defaults to the process-wide
  /// AlgorithmRegistry; tests inject private registries with extra
  /// engines. `store` is the dataset registry LoadDataset/SubmitDataset
  /// resolve ids against, defaulting to DatasetStore::Global(); the
  /// server injects its own budgeted store.
  explicit DiscoveryService(int num_threads = 0,
                            const AlgorithmRegistry* registry = nullptr,
                            DatasetStore* store = nullptr);
  ~DiscoveryService();

  DiscoveryService(const DiscoveryService&) = delete;
  DiscoveryService& operator=(const DiscoveryService&) = delete;

  int num_threads() const { return pool_.num_threads(); }
  /// The dataset registry this service resolves dataset ids against.
  DatasetStore& store() { return store_; }

  // ---- Admission control --------------------------------------------
  /// Caps queued + running sessions; a Submit beyond the cap is refused
  /// with kUnavailable (retry once capacity frees). 0 = unlimited.
  void SetMaxActiveSessions(int64_t max_active);
  int64_t max_active_sessions() const;
  /// Sessions currently queued or running (admitted, not yet terminal).
  int64_t num_active() const;

  // ---- Session lifecycle --------------------------------------------
  /// Instantiates `algorithm` from the registry behind a fresh session
  /// handle. NotFound lists the registered names.
  Result<SessionId> Create(const std::string& algorithm);

  /// Forwarders to the addressed session (NotFound on stale handles).
  Status SetOption(SessionId id, const std::string& name,
                   const std::string& value);
  Status LoadCsv(SessionId id, const std::string& path,
                 const CsvOptions& options = CsvOptions());
  /// Encodes in-memory CSV text into the session (the server's inline
  /// "csv" body): one pass, CSV bytes to codes, with the csv.parse and
  /// encode spans in the session's trace. Errors surface synchronously.
  Status LoadCsvString(SessionId id, std::string_view text,
                       const CsvOptions& options = CsvOptions());
  Status LoadTable(SessionId id, Table table);
  /// Binds the dataset registered in store() under `dataset_id` — by
  /// reference, so N sessions on one dataset share a single parse,
  /// encoding, and set of level-1 partitions. The session pins the
  /// dataset until destroyed. `version` <= 0 binds the current version;
  /// a positive version binds that exact version, which succeeds only
  /// while it is current or still pinned by another session (superseded
  /// versions live exactly as long as someone holds them).
  Status LoadDataset(SessionId id, const std::string& dataset_id,
                     int64_t version = 0);
  /// Same, for a dataset the caller already holds (C ABI dataset
  /// handles bypass the store's id namespace).
  Status LoadDataset(SessionId id,
                     std::shared_ptr<const LoadedDataset> dataset);
  Status SetSink(SessionId id, OdSink* sink);

  /// Queues the session's run on the pool and returns immediately.
  Status Submit(SessionId id);
  /// Submit with a deferred CSV read: parsing + encoding happen on the
  /// worker, so N CsvJobs pipeline end to end. Read errors surface as
  /// the session turning kFailed.
  Status SubmitCsv(SessionId id, const std::string& path,
                   const CsvOptions& options = CsvOptions());
  /// LoadDataset + Submit in one call — the load-once/discover-many
  /// submission path. Binding is in-memory and synchronous (unlike
  /// SubmitCsv there is no IO to defer), so stale dataset ids fail here,
  /// not as a kFailed session.
  Status SubmitDataset(SessionId id, const std::string& dataset_id,
                       int64_t version = 0);

  struct PollInfo {
    SessionState state = SessionState::kCreated;
    double progress = 0.0;   // engine-reported fraction in [0, 1]
    std::string error;       // non-empty exactly for kFailed
    // The failure's StatusCode (kOk otherwise); lets frontends
    // distinguish e.g. kDeadlineExceeded without parsing the message.
    StatusCode error_code = StatusCode::kOk;
  };
  /// One consistent snapshot of the session's observable state.
  Result<PollInfo> Poll(SessionId id) const;

  /// Requests cooperative cancellation (running) or skips the run
  /// entirely (queued). Idempotent; terminal sessions are unaffected.
  Status Cancel(SessionId id);
  /// Cancels every live session (the drain-deadline straggler sweep).
  void CancelAll();

  /// Blocks until the session is terminal; returns its final state.
  Result<SessionState> Wait(SessionId id);
  /// Blocks until every session created so far is terminal.
  void WaitAll();

  /// Rendered results of a terminal session (see DiscoverySession).
  Result<std::string> ResultJson(SessionId id) const;
  Result<std::string> ResultText(SessionId id) const;

  /// The session's trace (spans + engine counters) as JSON. Unlike the
  /// results this is readable in any state — a running session shows the
  /// spans completed so far; engine counters appear once it finishes.
  Result<std::string> TraceJson(SessionId id) const;

  /// Read access for result inspection beyond the rendered strings.
  /// The pointer stays valid until Destroy(); treat it as const while the
  /// session is non-terminal.
  std::shared_ptr<const DiscoverySession> Find(SessionId id) const;

  /// Cancels (if needed) and forgets the handle. A still-running worker
  /// keeps the session object alive until its run finishes.
  Status Destroy(SessionId id);

  /// Stops the worker pool: runs every already-accepted session to
  /// completion, then returns. Running engines (including multi-threaded
  /// runs on their private pools) finish normally; they are
  /// NOT cancelled — pair with CancelAll() for a fast drain. From the
  /// moment Shutdown() begins, Submit() of further sessions fails them
  /// with kUnavailable instead of queueing work no worker will take
  /// (tests/robustness_test.cc pins the no-deadlock guarantee).
  /// Idempotent; also performed by the destructor.
  void Shutdown();

  int64_t num_sessions() const;

  // ---- Shared streaming ---------------------------------------------
  /// Attaches `sink` to every session created *after* this call, wrapped
  /// in one MutexOdSink so concurrent sessions may share it safely. Pass
  /// nullptr to stop. The sink must outlive all sessions using it.
  void SetSharedSink(OdSink* sink);

 private:
  std::shared_ptr<DiscoverySession> FindMutable(SessionId id) const;
  void RunSession(const std::shared_ptr<DiscoverySession>& session);
  /// Claims one admission slot or refuses with kUnavailable.
  Status Admit();
  /// Returns an admission slot (MarkQueued failed, pool refused, or the
  /// run finished).
  void Unadmit();
  /// Hands an admitted, queued session to the pool; on refusal (pool
  /// stopping) fails the session with kUnavailable and returns it.
  Status Schedule(const std::shared_ptr<DiscoverySession>& session);

  const AlgorithmRegistry& registry_;
  DatasetStore& store_;

  mutable std::mutex mutex_;
  std::condition_variable terminal_cv_;  // notified on any terminal move
  std::map<SessionId, std::shared_ptr<DiscoverySession>> sessions_;
  SessionId next_id_ = 1;
  int64_t max_active_ = 0;  // guarded by mutex_; 0 = unlimited
  int64_t active_ = 0;      // guarded by mutex_; admitted, not terminal
  // Every shared-sink decorator ever attached stays alive for the
  // service's lifetime, so replacing the shared sink never dangles
  // sessions still pointing at the previous wrapper.
  std::vector<std::unique_ptr<MutexOdSink>> shared_sinks_;
  MutexOdSink* current_shared_sink_ = nullptr;

  // Last member: destroyed first, so the drain in ~ThreadPool still sees
  // a fully alive service (RunSession touches sessions_ and the cv).
  ThreadPool pool_;
};

}  // namespace fastod

#endif  // FASTOD_SERVICE_DISCOVERY_SERVICE_H_
