#include "api/od_sink.h"

#include "common/fault.h"

namespace fastod {

void CollectingOdSink::OnConstancy(const ConstancyOd& od) {
  constancy_.push_back(od);
}

void CollectingOdSink::OnCompatibility(const CompatibilityOd& od) {
  compatibility_.push_back(od);
}

void CollectingOdSink::OnBidirectional(const BidiCompatibilityOd& od) {
  bidirectional_.push_back(od);
}

void CollectingOdSink::OnListOd(const ListOd& od) { list_.push_back(od); }

void CollectingOdSink::OnConditional(const ConditionalOd& od) {
  conditional_.push_back(od);
}

void CollectingOdSink::OnRevoked(const RevokedOd& od) {
  revoked_.push_back(od);
}

int64_t CollectingOdSink::TotalOds() const {
  return static_cast<int64_t>(constancy_.size() + compatibility_.size() +
                              bidirectional_.size() + list_.size() +
                              conditional_.size());
}

void CollectingOdSink::Clear() {
  constancy_.clear();
  compatibility_.clear();
  bidirectional_.clear();
  list_.clear();
  conditional_.clear();
  revoked_.clear();
}

ChannelOdSink::ChannelOdSink(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

void ChannelOdSink::Push(OdEvent event) {
  if (FASTOD_FAULT_POINT("sink.push")) {
    std::lock_guard<std::mutex> lock(mutex_);
    ++dropped_;
    return;
  }
  {
    std::unique_lock<std::mutex> lock(mutex_);
    not_full_.wait(lock,
                   [&] { return closed_ || queue_.size() < capacity_; });
    if (closed_) {
      ++dropped_;
      return;
    }
    queue_.push_back(std::move(event));
    ++pushed_;
  }
  not_empty_.notify_one();
}

void ChannelOdSink::OnConstancy(const ConstancyOd& od) { Push(od); }
void ChannelOdSink::OnCompatibility(const CompatibilityOd& od) { Push(od); }
void ChannelOdSink::OnBidirectional(const BidiCompatibilityOd& od) {
  Push(od);
}
void ChannelOdSink::OnListOd(const ListOd& od) { Push(od); }
void ChannelOdSink::OnConditional(const ConditionalOd& od) { Push(od); }
void ChannelOdSink::OnRevoked(const RevokedOd& od) { Push(od); }

bool ChannelOdSink::PopBatch(std::vector<OdEvent>* out,
                             std::chrono::milliseconds timeout) {
  out->clear();
  std::unique_lock<std::mutex> lock(mutex_);
  not_empty_.wait_for(lock, timeout,
                      [&] { return closed_ || !queue_.empty(); });
  if (queue_.empty()) return false;  // timeout, or closed and drained
  for (OdEvent& event : queue_) out->push_back(std::move(event));
  queue_.clear();
  lock.unlock();
  not_full_.notify_all();
  return true;
}

void ChannelOdSink::Close() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
  }
  not_full_.notify_all();
  not_empty_.notify_all();
}

bool ChannelOdSink::closed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return closed_;
}

int64_t ChannelOdSink::pushed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return pushed_;
}

int64_t ChannelOdSink::dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

void MutexOdSink::OnConstancy(const ConstancyOd& od) {
  std::lock_guard<std::mutex> lock(mutex_);
  wrapped_->OnConstancy(od);
}

void MutexOdSink::OnCompatibility(const CompatibilityOd& od) {
  std::lock_guard<std::mutex> lock(mutex_);
  wrapped_->OnCompatibility(od);
}

void MutexOdSink::OnBidirectional(const BidiCompatibilityOd& od) {
  std::lock_guard<std::mutex> lock(mutex_);
  wrapped_->OnBidirectional(od);
}

void MutexOdSink::OnListOd(const ListOd& od) {
  std::lock_guard<std::mutex> lock(mutex_);
  wrapped_->OnListOd(od);
}

void MutexOdSink::OnConditional(const ConditionalOd& od) {
  std::lock_guard<std::mutex> lock(mutex_);
  wrapped_->OnConditional(od);
}

void MutexOdSink::OnRevoked(const RevokedOd& od) {
  std::lock_guard<std::mutex> lock(mutex_);
  wrapped_->OnRevoked(od);
}

}  // namespace fastod
