// NodeStages (algo/node_stages.h): the per-node loop the level-wise
// engines run each lattice stage through.
//
// Pins the contract the engines build on: inline, in-order execution on
// the caller at one thread; every node exactly once on the pool; a stop
// (explicit, or the ExecutionControl's deadline and cancel) seen before
// the next node at every thread count, with the first recorded reason
// kept; and a throwing body reaching the caller without leaving the
// stages unusable.
#include "algo/node_stages.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/cancellation.h"

namespace fastod {
namespace {

TEST(NodeStagesTest, OneThreadRunsInlineOnCallerInNodeOrder) {
  NodeStages stages(1, "ns-test", nullptr);
  EXPECT_EQ(stages.party(), 1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<int64_t> order;
  bool all_on_caller = true;
  stages.ForEach(50, [&](int64_t i) {
    all_on_caller = all_on_caller && std::this_thread::get_id() == caller;
    order.push_back(i);
  });
  ASSERT_EQ(order.size(), 50u);
  for (int64_t i = 0; i < 50; ++i) EXPECT_EQ(order[i], i);
  EXPECT_TRUE(all_on_caller);
  EXPECT_EQ(stages.stop(), NodeStages::kRunning);
  EXPECT_EQ(stages.TakeBusySeconds(), 0.0);  // measured only with a pool
}

TEST(NodeStagesTest, PooledRunVisitsEveryNodeOnceAndMeasuresBusyTime) {
  NodeStages stages(4, "ns-test", nullptr);
  EXPECT_EQ(stages.party(), 4);  // three workers plus the caller
  std::vector<std::atomic<int>> hits(500);
  for (auto& h : hits) h.store(0);
  stages.ForEach(500, [&](int64_t i) {
    volatile int64_t x = 0;
    for (int64_t k = 0; k < 2000; ++k) x = x + 1;
    hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_EQ(stages.stop(), NodeStages::kRunning);
  EXPECT_GT(stages.TakeBusySeconds(), 0.0);
  EXPECT_EQ(stages.TakeBusySeconds(), 0.0);  // the take resets the sum
}

TEST(NodeStagesTest, RequestStopSkipsEveryLaterNodeAtOneThread) {
  NodeStages stages(1, "ns-test", nullptr);
  int ran = 0;
  stages.ForEach(100, [&](int64_t i) {
    ++ran;
    if (i == 3) stages.RequestStop(NodeStages::kCancelled);
  });
  EXPECT_EQ(ran, 4);  // nodes 0..3; the stop is seen before node 4
  EXPECT_EQ(stages.stop(), NodeStages::kCancelled);
  // A later stage of the same run starts no node at all.
  stages.ForEach(100, [&](int64_t) { ++ran; });
  EXPECT_EQ(ran, 4);
}

TEST(NodeStagesTest, ControlCancelIsSeenWithinTheLoopAtEveryThreadCount) {
  for (int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    ExecutionControl control;
    NodeStages stages(threads, "ns-test", &control);
    std::atomic<int64_t> ran{0};
    stages.ForEach(100000, [&](int64_t i) {
      ran.fetch_add(1);
      if (i == 0) control.RequestCancel();
    });
    EXPECT_EQ(stages.stop(), NodeStages::kCancelled);
    EXPECT_LT(ran.load(), 100000);
    if (threads == 1) {
      EXPECT_EQ(ran.load(), 1);
    }
    const int64_t before = ran.load();
    stages.ForEach(100, [&](int64_t) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), before);
  }
}

TEST(NodeStagesTest, ControlDeadlineRecordsTimedOutBeforeTheFirstNode) {
  for (int threads : {1, 3}) {
    SCOPED_TRACE(threads);
    ExecutionControl control;
    control.SetDeadlineAfter(std::chrono::milliseconds(1));
    NodeStages stages(threads, "ns-test", &control);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    std::atomic<int> ran{0};
    stages.ForEach(64, [&](int64_t) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 0);
    EXPECT_EQ(stages.stop(), NodeStages::kTimedOut);
  }
}

TEST(NodeStagesTest, FirstRecordedStopReasonIsKept) {
  NodeStages stages(1, "ns-test", nullptr);
  stages.RequestStop(NodeStages::kTimedOut);
  stages.RequestStop(NodeStages::kCancelled);
  EXPECT_EQ(stages.stop(), NodeStages::kTimedOut);
  EXPECT_TRUE(stages.StopRequested());

  // A passed control deadline is recorded as a timeout even when a
  // cancel arrived too: the deadline is polled first.
  ExecutionControl control;
  control.SetDeadlineAfter(std::chrono::milliseconds(1));
  control.RequestCancel();
  NodeStages deadlined(2, "ns-test", &control);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_TRUE(deadlined.StopRequested());
  EXPECT_EQ(deadlined.stop(), NodeStages::kTimedOut);
}

TEST(NodeStagesTest, BodyExceptionReachesCallerAndStagesStayUsable) {
  for (int threads : {1, 3}) {
    SCOPED_TRACE(threads);
    NodeStages stages(threads, "ns-test", nullptr);
    EXPECT_THROW(stages.ForEach(200,
                                [](int64_t i) {
                                  if (i == 5) {
                                    throw std::runtime_error("node");
                                  }
                                }),
                 std::runtime_error);
    // A throw is not a stop: the next stage runs every node.
    EXPECT_EQ(stages.stop(), NodeStages::kRunning);
    std::atomic<int> ran{0};
    stages.ForEach(200, [&](int64_t) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 200);
  }
}

}  // namespace
}  // namespace fastod
