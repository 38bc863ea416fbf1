// Streaming consumption of discovered dependencies.
//
// Discovery output can be enormous — the FASTOD-NoPruning ablation of
// Exp-6 counts tens of millions of non-minimal ODs — so the unified
// Algorithm API emits through a callback interface instead of forcing every
// result into a vector. Engines deliver each dependency exactly once, in
// the same deterministic order the legacy result vectors would have held
// (node order within a level, levels ascending), so a CollectingOdSink
// reproduces the legacy vectors bit-for-bit while a CountingOdSink runs in
// O(1) memory.
//
// Each OD shape has its own hook with a no-op default; a sink overrides
// only what it consumes. ListOd is ORDER's native (list-based) output
// shape; ConditionalOd comes from the conditional engine.
//
// Threading contract — single consumer. One Execute() invokes a sink's
// hooks from exactly one thread (the thread that called Execute(), which
// merges node results), so a sink attached to one algorithm needs no
// internal locking. Nothing in
// the sink implementations here is synchronized: CollectingOdSink's
// accessors and Clear(), and CountingOdSink's counters, may only be
// touched before Execute() starts or after it returns — never while a run
// is emitting. To share one sink across concurrently executing algorithms
// (as DiscoveryService's shared-sink mode does), wrap it in a MutexOdSink,
// which serializes every hook; emission order across sessions is then
// whatever the thread interleaving produces, though each session's own
// emissions still arrive in its deterministic order.
#ifndef FASTOD_API_OD_SINK_H_
#define FASTOD_API_OD_SINK_H_

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <variant>
#include <vector>

#include "algo/conditional.h"
#include "od/bidirectional.h"
#include "od/canonical_od.h"
#include "od/list_od.h"

namespace fastod {

/// A retraction: a dependency reported by a prior run that no longer
/// holds after the dataset grew — the incremental engine's second event
/// kind. Streams deliver these interleaved with (new) discoveries, so a
/// consumer tracking "the current OD set of this dataset" applies both.
struct RevokedOd {
  CanonicalOd od;
};

class OdSink {
 public:
  virtual ~OdSink() = default;

  virtual void OnConstancy(const ConstancyOd& od) { (void)od; }
  virtual void OnCompatibility(const CompatibilityOd& od) { (void)od; }
  virtual void OnBidirectional(const BidiCompatibilityOd& od) { (void)od; }
  virtual void OnListOd(const ListOd& od) { (void)od; }
  virtual void OnConditional(const ConditionalOd& od) { (void)od; }
  virtual void OnRevoked(const RevokedOd& od) { (void)od; }
};

/// The materializing default: stores everything it receives, in emission
/// order.
class CollectingOdSink : public OdSink {
 public:
  void OnConstancy(const ConstancyOd& od) override;
  void OnCompatibility(const CompatibilityOd& od) override;
  void OnBidirectional(const BidiCompatibilityOd& od) override;
  void OnListOd(const ListOd& od) override;
  void OnConditional(const ConditionalOd& od) override;
  void OnRevoked(const RevokedOd& od) override;

  const std::vector<ConstancyOd>& constancy_ods() const { return constancy_; }
  const std::vector<CompatibilityOd>& compatibility_ods() const {
    return compatibility_;
  }
  const std::vector<BidiCompatibilityOd>& bidirectional_ods() const {
    return bidirectional_;
  }
  const std::vector<ListOd>& list_ods() const { return list_; }
  const std::vector<ConditionalOd>& conditional_ods() const {
    return conditional_;
  }
  const std::vector<RevokedOd>& revoked_ods() const { return revoked_; }

  /// Discoveries only; revocations are counted by revoked_ods().size().
  int64_t TotalOds() const;
  void Clear();

 private:
  std::vector<ConstancyOd> constancy_;
  std::vector<CompatibilityOd> compatibility_;
  std::vector<BidiCompatibilityOd> bidirectional_;
  std::vector<ListOd> list_;
  std::vector<ConditionalOd> conditional_;
  std::vector<RevokedOd> revoked_;
};

/// Counts emissions without retaining them — constant memory regardless of
/// output size.
class CountingOdSink : public OdSink {
 public:
  void OnConstancy(const ConstancyOd&) override { ++num_constancy_; }
  void OnCompatibility(const CompatibilityOd&) override {
    ++num_compatibility_;
  }
  void OnBidirectional(const BidiCompatibilityOd&) override {
    ++num_bidirectional_;
  }
  void OnListOd(const ListOd&) override { ++num_list_; }
  void OnConditional(const ConditionalOd&) override { ++num_conditional_; }
  void OnRevoked(const RevokedOd&) override { ++num_revoked_; }

  int64_t num_constancy() const { return num_constancy_; }
  int64_t num_compatibility() const { return num_compatibility_; }
  int64_t num_bidirectional() const { return num_bidirectional_; }
  int64_t num_list() const { return num_list_; }
  int64_t num_conditional() const { return num_conditional_; }
  int64_t num_revoked() const { return num_revoked_; }
  /// Discoveries only; revocations are counted by num_revoked().
  int64_t Total() const {
    return num_constancy_ + num_compatibility_ + num_bidirectional_ +
           num_list_ + num_conditional_;
  }

 private:
  int64_t num_constancy_ = 0;
  int64_t num_compatibility_ = 0;
  int64_t num_bidirectional_ = 0;
  int64_t num_list_ = 0;
  int64_t num_conditional_ = 0;
  int64_t num_revoked_ = 0;
};

/// Any one emitted dependency or retraction, shape-erased for queueing
/// and transport.
using OdEvent = std::variant<ConstancyOd, CompatibilityOd,
                             BidiCompatibilityOd, ListOd, ConditionalOd,
                             RevokedOd>;

/// Bounded producer/consumer channel between a running engine and a
/// concurrent reader — the incremental-delivery primitive the HTTP
/// server's /stream endpoint is built on.
///
/// The engine thread is the producer: every hook enqueues one OdEvent,
/// *blocking* while the queue is at capacity, so a slow consumer applies
/// backpressure instead of letting an Exp-6-sized result set pile up in
/// memory. The consumer thread calls PopBatch() until it returns false
/// with the channel closed. PopBatch takes everything queued under one
/// lock, so a consumer that falls behind pays one handoff per batch
/// rather than one per event.
///
/// Close() may be called from either side and is where the lifetime knot
/// unties: a consumer that goes away (client disconnect) closes the
/// channel, which unblocks and *drops* all further pushes — the engine
/// run completes normally, it just stops paying for delivery. Events
/// already queued remain poppable after Close (drain-then-stop).
class ChannelOdSink : public OdSink {
 public:
  explicit ChannelOdSink(size_t capacity = 256);

  // Producer side — the OdSink hooks (single-producer contract as above).
  void OnConstancy(const ConstancyOd& od) override;
  void OnCompatibility(const CompatibilityOd& od) override;
  void OnBidirectional(const BidiCompatibilityOd& od) override;
  void OnListOd(const ListOd& od) override;
  void OnConditional(const ConditionalOd& od) override;
  void OnRevoked(const RevokedOd& od) override;

  // Consumer side.
  /// Waits up to `timeout` for the queue to be non-empty, then replaces
  /// *out with every queued event, oldest first (at most `capacity` of
  /// them), and wakes a producer blocked on the full queue. Returns
  /// false, with *out empty, on timeout with the queue still open (caller
  /// may retry) and on a drained closed channel (caller should stop);
  /// distinguish via closed().
  bool PopBatch(std::vector<OdEvent>* out,
                std::chrono::milliseconds timeout =
                    std::chrono::milliseconds(50));
  /// Irreversibly stops accepting events and wakes both sides.
  void Close();
  bool closed() const;

  /// Accepted / dropped-after-close counters, for diagnostics.
  int64_t pushed() const;
  int64_t dropped() const;

 private:
  void Push(OdEvent event);

  const size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<OdEvent> queue_;  // guarded by mutex_
  bool closed_ = false;        // guarded by mutex_
  int64_t pushed_ = 0;         // guarded by mutex_
  int64_t dropped_ = 0;        // guarded by mutex_
};

/// Decorator that serializes every hook of a wrapped sink, lifting the
/// single-consumer contract so one sink can be shared by concurrently
/// executing algorithms. The wrapped sink must outlive the decorator; read
/// it only after every sharing Execute() has returned.
class MutexOdSink : public OdSink {
 public:
  explicit MutexOdSink(OdSink* wrapped) : wrapped_(wrapped) {}

  void OnConstancy(const ConstancyOd& od) override;
  void OnCompatibility(const CompatibilityOd& od) override;
  void OnBidirectional(const BidiCompatibilityOd& od) override;
  void OnListOd(const ListOd& od) override;
  void OnConditional(const ConditionalOd& od) override;
  void OnRevoked(const RevokedOd& od) override;

 private:
  std::mutex mutex_;
  OdSink* wrapped_;
};

}  // namespace fastod

#endif  // FASTOD_API_OD_SINK_H_
