#include "algo/node_stages.h"

#include "common/timer.h"

namespace fastod {

NodeStages::NodeStages(int num_threads, const char* pool_name,
                       ExecutionControl* control)
    : control_(control) {
  if (num_threads > 1) {
    pool_ = std::make_unique<ThreadPool>(num_threads - 1, pool_name);
  }
}

void NodeStages::ForEach(int64_t count,
                         const std::function<void(int64_t)>& body) {
  if (pool_ == nullptr) {
    for (int64_t i = 0; i < count && !StopRequested(); ++i) body(i);
    return;
  }
  pool_->ParallelFor(count, [&](int64_t i) {
    if (StopRequested()) return;
    WallTimer timer;
    body(i);
    busy_seconds_.fetch_add(timer.ElapsedSeconds(),
                            std::memory_order_relaxed);
  });
}

bool NodeStages::StopRequested() {
  if (stop_.load(std::memory_order_relaxed) != kRunning) return true;
  if (control_ == nullptr || !control_->StopRequested()) return false;
  RequestStop(control_->DeadlineExceeded() ? kTimedOut : kCancelled);
  return true;
}

void NodeStages::RequestStop(Stop reason) {
  int running = kRunning;
  stop_.compare_exchange_strong(running, reason, std::memory_order_relaxed);
}

}  // namespace fastod
