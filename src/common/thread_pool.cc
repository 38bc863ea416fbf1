#include "common/thread_pool.h"

#include <algorithm>
#include <cstdio>
#include <string>

#include "common/macros.h"

#if defined(__linux__)
#include <pthread.h>
#endif

namespace fastod {

namespace {

// Best effort: thread names are observability, never correctness.
void NameCurrentThread(const std::string& name) {
#if defined(__linux__)
  char truncated[16];  // pthread_setname_np limit, including the NUL
  std::snprintf(truncated, sizeof(truncated), "%s", name.c_str());
  (void)pthread_setname_np(pthread_self(), truncated);
#else
  (void)name;
#endif
}

}  // namespace

ThreadPool::ThreadPool(int num_threads, const char* name_prefix) {
  num_threads = std::max(1, num_threads);
  workers_.reserve(num_threads);
  const std::string prefix(name_prefix == nullptr ? "fastod-wkr"
                                                  : name_prefix);
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, prefix, i] {
      NameCurrentThread(prefix + "-" + std::to_string(i));
      WorkerMain();
    });
  }
}

ThreadPool::~ThreadPool() { Stop(); }

void ThreadPool::Stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shutdown_) return;  // idempotent; workers already joined(ing)
    shutdown_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
}

void ThreadPool::WorkerMain() {
  uint64_t seen_generation = 0;
  while (true) {
    ForLoop* loop = nullptr;
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_ready_.wait(lock, [&] {
        return shutdown_ || !tasks_.empty() ||
               (active_ != nullptr && generation_ != seen_generation);
      });
      if (!tasks_.empty()) {
        // Tasks take priority: a pending session should not wait behind
        // loop iterations other workers already cover.
        task = std::move(tasks_.front());
        tasks_.pop_front();
      } else if (shutdown_) {
        return;  // queue drained; safe to exit
      } else {
        seen_generation = generation_;
        loop = active_;
        ++loop->refs;  // the loop object stays alive while refs > 0
      }
    }
    if (task) {
      // Worker boundary: a throwing task must not unwind into the worker
      // loop (std::thread would terminate the process). Tasks with a
      // failure channel (DiscoverySession::Run) convert exceptions to
      // Status themselves; this is the backstop for ones that don't.
      try {
        task();
      } catch (...) {
      }
      continue;
    }
    DrainLoop(loop);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --loop->refs;
    }
    work_done_.notify_all();
  }
}

bool ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // A submission racing (or trailing) Stop() is refused, not crashed
    // on and not silently dropped: the caller learns the pool is gone.
    if (shutdown_) return false;
    tasks_.push_back(std::move(task));
  }
  work_ready_.notify_one();
  return true;
}

void ThreadPool::DrainLoop(ForLoop* loop) {
  while (true) {
    int64_t begin = loop->next.fetch_add(loop->chunk);
    if (begin >= loop->count) break;
    int64_t end = std::min(begin + loop->chunk, loop->count);
    // A throw must not unwind into WorkerMain (std::thread would call
    // std::terminate): keep the first exception for the caller and let
    // the loop drain without running the rest.
    if (!loop->failed.load(std::memory_order_relaxed)) {
      try {
        for (int64_t i = begin; i < end; ++i) {
          (*loop->body)(i);
        }
      } catch (...) {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!loop->error) loop->error = std::current_exception();
        loop->failed.store(true, std::memory_order_relaxed);
      }
    }
    loop->done.fetch_add(end - begin);
  }
}

void ThreadPool::ParallelFor(int64_t count,
                             const std::function<void(int64_t)>& body) {
  if (count <= 0) return;
  ForLoop loop;
  loop.count = count;
  // Chunks sized for ~8 claims per worker to balance scheduling overhead
  // against skew in per-node costs.
  loop.chunk = std::max<int64_t>(
      1, count / (static_cast<int64_t>(workers_.size() + 1) * 8));
  loop.body = &body;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    active_ = &loop;
    ++generation_;
  }
  work_ready_.notify_all();
  DrainLoop(&loop);  // the caller works too
  {
    std::unique_lock<std::mutex> lock(mutex_);
    // The loop may be destroyed only when every iteration has run AND no
    // worker still holds a reference to it.
    work_done_.wait(lock, [&] {
      return loop.done.load() == loop.count && loop.refs == 0;
    });
    active_ = nullptr;
  }
  if (loop.error) std::rethrow_exception(loop.error);
}

}  // namespace fastod
