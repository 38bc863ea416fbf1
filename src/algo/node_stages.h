// The per-node stages shared by the level-wise lattice engines (FASTOD,
// TANE).
//
// Both engines walk the lattice level by level and run each per-node
// stage of a level — candidate sets, validation, partition products — as
// one loop over the level's nodes, then merge the per-node results
// serially in node order. NodeStages owns what those loops share: the
// engine's private thread pool (none at one thread), the stop protocol
// (the ExecutionControl's deadline and cancel, polled at every node of
// every stage), and the node-time telemetry behind the per-level
// occupancy stat.
#ifndef FASTOD_ALGO_NODE_STAGES_H_
#define FASTOD_ALGO_NODE_STAGES_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>

#include "common/cancellation.h"
#include "common/thread_pool.h"

namespace fastod {

class NodeStages {
 public:
  enum Stop : int { kRunning = 0, kTimedOut, kCancelled };

  /// `num_threads` counts the caller; above 1 a pool of num_threads - 1
  /// workers named "<pool_name>-<i>" lives as long as this object.
  /// `control` may be null and must outlive this object.
  NodeStages(int num_threads, const char* pool_name,
             ExecutionControl* control);

  /// Runs body(i) for every i in [0, count): on the pool with
  /// ThreadPool::ParallelFor when there is one, inline otherwise. Each
  /// item first calls StopRequested(), so a stop is seen within one node
  /// at any thread count; items after a stop are skipped. An exception
  /// from body reaches the caller.
  void ForEach(int64_t count, const std::function<void(int64_t)>& body);

  /// True once the run must stop. Until a stop is recorded, each call
  /// polls the control: a passed deadline is recorded as kTimedOut, a
  /// cancel as kCancelled. Safe from any thread.
  bool StopRequested();

  /// Records `reason` unless a stop is already recorded. Safe from any
  /// thread.
  void RequestStop(Stop reason);

  Stop stop() const { return static_cast<Stop>(stop_.load()); }

  /// Threads working the loops: the pool's workers plus the caller.
  int party() const { return pool_ ? pool_->num_threads() + 1 : 1; }

  /// Wall time summed over the items ForEach ran since the last call,
  /// then resets. Measured only with a pool; 0 at one thread.
  double TakeBusySeconds() { return busy_seconds_.exchange(0.0); }

 private:
  ExecutionControl* control_;
  std::unique_ptr<ThreadPool> pool_;  // null at one thread
  std::atomic<int> stop_{kRunning};
  std::atomic<double> busy_seconds_{0.0};
};

}  // namespace fastod

#endif  // FASTOD_ALGO_NODE_STAGES_H_
