// Thread pool correctness and the parallel-discovery determinism
// guarantee: FASTOD and TANE output is bit-identical across thread
// counts.
//
// Beyond the equivalence checks, three groups pin the per-level loops:
//
//  * stress — 50 seeds of random tables run under the
//    "lattice.node:sleep:1" latency fault, which perturbs per-node
//    completion order on every hit; output must stay bit-identical to an
//    unperturbed one-thread run regardless of interleaving (the CI TSan
//    job runs this too);
//  * fault points — "fail" lands on the engine's cancellation path and
//    "throw" surfaces through the session as a failed Status;
//  * shutdown — a service Submit() racing Shutdown() during a live
//    multi-threaded run fails the session kUnavailable instead of
//    deadlocking.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "algo/fastod.h"
#include "algo/tane.h"
#include "common/fault.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "data/encode.h"
#include "gen/generators.h"
#include "gen/random_table.h"
#include "service/discovery_service.h"

namespace fastod {
namespace {

struct ScheduleGuard {
  ~ScheduleGuard() { fault::Clear(); }
};

TEST(ThreadPoolTest, RunsEveryIterationExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  for (auto& h : hits) h.store(0);
  pool.ParallelFor(1000, [&](int64_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPoolTest, ZeroAndNegativeCountsAreNoOps) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  pool.ParallelFor(0, [&](int64_t) { calls.fetch_add(1); });
  pool.ParallelFor(-5, [&](int64_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPoolTest, SingleIterationWorks) {
  ThreadPool pool(8);
  std::atomic<int64_t> seen{-1};
  pool.ParallelFor(1, [&](int64_t i) { seen.store(i); });
  EXPECT_EQ(seen.load(), 0);
}

TEST(ThreadPoolTest, ReusableAcrossManyLoops) {
  ThreadPool pool(3);
  int64_t total = 0;
  for (int round = 0; round < 50; ++round) {
    std::atomic<int64_t> sum{0};
    pool.ParallelFor(100, [&](int64_t i) { sum.fetch_add(i); });
    total += sum.load();
  }
  EXPECT_EQ(total, 50 * (99 * 100 / 2));
}

TEST(ThreadPoolTest, SingleThreadPoolStillCompletes) {
  ThreadPool pool(1);
  std::atomic<int> count{0};
  pool.ParallelFor(257, [&](int64_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 257);
}

// Regression for the worker boundary: a Submit task that throws must be
// contained there — the worker survives and keeps draining the queue
// (before the fix the exception unwound WorkerMain and std::thread
// called std::terminate).
TEST(ThreadPoolTest, ThrowingSubmitTaskDoesNotKillWorker) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(1);  // one worker: it must survive to run the rest
    EXPECT_TRUE(pool.Submit([] { throw std::runtime_error("boom"); }));
    EXPECT_TRUE(pool.Submit([&] { ran.fetch_add(1); }));
    EXPECT_TRUE(pool.Submit([] { throw 42; }));  // non-std exceptions too
    EXPECT_TRUE(pool.Submit([&] { ran.fetch_add(1); }));
  }  // ~ThreadPool drains the queue without terminate()
  EXPECT_EQ(ran.load(), 2);
}

TEST(ThreadPoolTest, QueueDrainsAfterThrowingTasks) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 8; ++i) {
      EXPECT_TRUE(pool.Submit([] { throw std::runtime_error("boom"); }));
      EXPECT_TRUE(pool.Submit([&] { ran.fetch_add(1); }));
    }
  }  // destructor runs every queued task
  EXPECT_EQ(ran.load(), 8);
}

TEST(ThreadPoolTest, UnevenWorkloadsFinish) {
  ThreadPool pool(4);
  std::atomic<int64_t> sum{0};
  pool.ParallelFor(64, [&](int64_t i) {
    // Skewed work: late iterations cost more.
    volatile int64_t x = 0;
    for (int64_t k = 0; k < i * 1000; ++k) x = x + 1;
    sum.fetch_add(1);
  });
  EXPECT_EQ(sum.load(), 64);
}

struct ParallelParam {
  int threads;
  uint64_t seed;
};

class ParallelFastodTest : public ::testing::TestWithParam<ParallelParam> {};

TEST_P(ParallelFastodTest, OutputIdenticalToSerial) {
  Table t = GenRandomTable(60, 6, 4, GetParam().seed);
  auto rel = EncodedRelation::FromTable(t);
  ASSERT_TRUE(rel.ok());

  FastodResult serial = Fastod().Discover(*rel);
  FastodOptions opt;
  opt.num_threads = GetParam().threads;
  FastodResult parallel = Fastod(opt).Discover(*rel);

  // Bit-identical, including order (merge is in node order).
  EXPECT_EQ(serial.constancy_ods, parallel.constancy_ods);
  EXPECT_EQ(serial.compatibility_ods, parallel.compatibility_ods);
  EXPECT_EQ(serial.num_constancy, parallel.num_constancy);
  EXPECT_EQ(serial.num_compatibility, parallel.num_compatibility);
  EXPECT_EQ(serial.total_nodes, parallel.total_nodes);
  EXPECT_EQ(serial.levels_processed, parallel.levels_processed);
}

INSTANTIATE_TEST_SUITE_P(
    ThreadsAndSeeds, ParallelFastodTest,
    ::testing::Values(ParallelParam{2, 1}, ParallelParam{4, 1},
                      ParallelParam{8, 1}, ParallelParam{2, 7},
                      ParallelParam{4, 7}, ParallelParam{3, 99},
                      ParallelParam{6, 12345}));

TEST(ParallelFastodTest, RealisticDatasetIdenticalAcrossThreads) {
  Table t = GenFlightLike(1500, 12, 42);
  auto rel = EncodedRelation::FromTable(t);
  ASSERT_TRUE(rel.ok());
  FastodResult serial = Fastod().Discover(*rel);
  FastodOptions opt;
  opt.num_threads = 4;
  FastodResult parallel = Fastod(opt).Discover(*rel);
  EXPECT_EQ(serial.constancy_ods, parallel.constancy_ods);
  EXPECT_EQ(serial.compatibility_ods, parallel.compatibility_ods);
}

TEST(ParallelFastodTest, BidirectionalAndApproximateModesParallelize) {
  Table t = GenNcvoterLike(500, 10, 3);
  auto rel = EncodedRelation::FromTable(t);
  ASSERT_TRUE(rel.ok());
  FastodOptions base;
  base.discover_bidirectional = true;
  base.max_error = 0.02;
  FastodResult serial = Fastod(base).Discover(*rel);
  FastodOptions par = base;
  par.num_threads = 4;
  FastodResult parallel = Fastod(par).Discover(*rel);
  EXPECT_EQ(serial.constancy_ods, parallel.constancy_ods);
  EXPECT_EQ(serial.compatibility_ods, parallel.compatibility_ods);
  EXPECT_EQ(serial.bidirectional_ods, parallel.bidirectional_ods);
}

TEST(ParallelTaneTest, OutputIdenticalToSerialAcrossThreadCounts) {
  Table t = GenFlightLike(800, 10, 11);
  auto rel = EncodedRelation::FromTable(t);
  ASSERT_TRUE(rel.ok());
  TaneResult serial = Tane().Discover(*rel);
  for (int threads : {2, 4, 8}) {
    TaneOptions opt;
    opt.num_threads = threads;
    TaneResult parallel = Tane(opt).Discover(*rel);
    EXPECT_EQ(serial.fds, parallel.fds) << threads << " threads";
    EXPECT_EQ(serial.num_fds, parallel.num_fds);
    EXPECT_EQ(serial.total_nodes, parallel.total_nodes);
    EXPECT_EQ(serial.levels_processed, parallel.levels_processed);
    EXPECT_GT(parallel.tasks_spawned, 0);
  }
}

TEST(ParallelFastodTest, TaskCountersPopulatedInParallelRuns) {
  Table t = GenRandomTable(80, 6, 4, 3);
  auto rel = EncodedRelation::FromTable(t);
  ASSERT_TRUE(rel.ok());
  FastodOptions opt;
  opt.num_threads = 4;
  FastodResult r = Fastod(opt).Discover(*rel);
  // Every lattice node was dispatched to the pool exactly once.
  EXPECT_EQ(r.tasks_ready, r.total_nodes);
  EXPECT_EQ(r.tasks_spawned, r.total_nodes);
  FastodResult serial = Fastod().Discover(*rel);
  EXPECT_EQ(serial.tasks_spawned, 0);
  EXPECT_EQ(serial.tasks_ready, 0);
}

TEST(ParallelFastodTest, LevelStatsConsistent) {
  Table t = GenDbtesmaLike(400, 9, 5);
  auto rel = EncodedRelation::FromTable(t);
  ASSERT_TRUE(rel.ok());
  FastodOptions opt;
  opt.num_threads = 4;
  FastodResult r = Fastod(opt).Discover(*rel);
  int64_t found = 0;
  for (const FastodLevelStats& s : r.level_stats) {
    found += s.constancy_found + s.compatibility_found +
             s.bidirectional_found;
  }
  EXPECT_EQ(found, r.NumOds());
}

// ------------------------------------------- randomized stress (50x)

// Latency injection at the per-node fault point scrambles completion
// order; the node-order merge must make the scramble invisible. Runs
// under TSan in the CI sanitizer job, which also makes this the
// per-level loops' data-race certification.
TEST(ParallelStressTest, FiftySeedsDeterministicUnderRandomLatency) {
  ScheduleGuard guard;
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    Table t = GenRandomTable(30, 5, 3, seed);
    auto rel = EncodedRelation::FromTable(t);
    ASSERT_TRUE(rel.ok());
    fault::Clear();
    FastodResult serial = Fastod().Discover(*rel);

    // Sleep from the first hit onward: every node gets a
    // deterministic-per-hit but schedule-shuffling delay.
    ASSERT_TRUE(fault::SetSchedule("lattice.node:sleep:1"));
    for (int threads : {1, 2 + static_cast<int>(seed % 4)}) {  // 1, 2..5
      FastodOptions opt;
      opt.num_threads = threads;
      FastodResult parallel = Fastod(opt).Discover(*rel);

      EXPECT_EQ(serial.constancy_ods, parallel.constancy_ods)
          << "seed " << seed << ", " << threads << " threads";
      EXPECT_EQ(serial.compatibility_ods, parallel.compatibility_ods)
          << "seed " << seed << ", " << threads << " threads";
      EXPECT_EQ(serial.total_nodes, parallel.total_nodes)
          << "seed " << seed << ", " << threads << " threads";
      EXPECT_EQ(serial.levels_processed, parallel.levels_processed)
          << "seed " << seed << ", " << threads << " threads";
      EXPECT_FALSE(parallel.cancelled);
    }
  }
}

TEST(ParallelStressTest, TaneDeterministicUnderRandomLatency) {
  ScheduleGuard guard;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    Table t = GenRandomTable(40, 6, 4, seed * 17);
    auto rel = EncodedRelation::FromTable(t);
    ASSERT_TRUE(rel.ok());
    fault::Clear();
    TaneResult serial = Tane().Discover(*rel);

    ASSERT_TRUE(fault::SetSchedule("lattice.node:sleep:1"));
    TaneOptions opt;
    opt.num_threads = 4;
    TaneResult parallel = Tane(opt).Discover(*rel);

    EXPECT_EQ(serial.fds, parallel.fds) << "seed " << seed;
    EXPECT_EQ(serial.num_fds, parallel.num_fds) << "seed " << seed;
    EXPECT_EQ(serial.total_nodes, parallel.total_nodes) << "seed " << seed;
  }
}

// ------------------------------------------------- fault-point paths

TEST(LatticeFaultTest, FailActionCancelsTheRunCleanly) {
  ScheduleGuard guard;
  Table t = GenFlightLike(300, 8, 5);
  auto rel = EncodedRelation::FromTable(t);
  ASSERT_TRUE(rel.ok());
  for (int threads : {1, 4}) {
    ASSERT_TRUE(fault::SetSchedule("lattice.node:fail:4"));
    FastodOptions opt;
    opt.num_threads = threads;
    FastodResult r = Fastod(opt).Discover(*rel);
    EXPECT_TRUE(r.cancelled) << threads << " threads";
    EXPECT_GE(fault::Hits("lattice.node"), 4) << threads << " threads";
  }
}

TEST(LatticeFaultTest, ThrowActionSurfacesAsFailedSession) {
  ScheduleGuard guard;
  DiscoveryService service(1);
  Result<SessionId> id = service.Create("fastod");
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(service.LoadTable(*id, GenFlightLike(300, 8, 5)).ok());
  ASSERT_TRUE(service.SetOption(*id, "threads", "4").ok());
  ASSERT_TRUE(fault::SetSchedule("lattice.node:throw:4"));
  ASSERT_TRUE(service.Submit(*id).ok());
  Result<SessionState> state = service.Wait(*id);
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(*state, SessionState::kFailed);
  Result<DiscoveryService::PollInfo> info = service.Poll(*id);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->error_code, StatusCode::kInternal);
  EXPECT_NE(info->error.find("injected fault"), std::string::npos)
      << info->error;
  // The worker survived the throwing engine; the next run succeeds.
  fault::Clear();
  Result<SessionId> next = service.Create("fastod");
  ASSERT_TRUE(next.ok());
  ASSERT_TRUE(service.LoadTable(*next, EmployeeTaxTable()).ok());
  ASSERT_TRUE(service.Submit(*next).ok());
  Result<SessionState> next_state = service.Wait(*next);
  ASSERT_TRUE(next_state.ok());
  EXPECT_EQ(*next_state, SessionState::kDone);
}

// --------------------------------------- Submit racing pool shutdown

// Regression: a Submit() landing after Shutdown() began — while a
// multi-threaded session still runs on the only worker —
// must fail that session kUnavailable, not queue it forever (the
// pre-Shutdown service had no way to observe the stopped pool short of
// destruction).
TEST(ServiceShutdownTest, SubmitDuringShutdownFailsUnavailable) {
  DiscoveryService service(1);
  Result<SessionId> running = service.Create("fastod");
  ASSERT_TRUE(running.ok());
  // Big enough that the run comfortably spans the shutdown request.
  ASSERT_TRUE(service.LoadTable(*running, GenFlightLike(3000, 12, 9)).ok());
  ASSERT_TRUE(service.SetOption(*running, "threads", "4").ok());
  ASSERT_TRUE(service.Submit(*running).ok());

  std::thread stopper([&] { service.Shutdown(); });
  // Shutdown() marks the pool stopped immediately (then blocks on the
  // drain); poll until a probe submission observes the refusal.
  Status refused = Status::Ok();
  SessionId probe_id = -1;
  for (int attempt = 0; attempt < 1000; ++attempt) {
    Result<SessionId> probe = service.Create("fastod");
    ASSERT_TRUE(probe.ok());
    probe_id = *probe;
    ASSERT_TRUE(service.LoadTable(probe_id, EmployeeTaxTable()).ok());
    refused = service.Submit(probe_id);
    if (!refused.ok()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(refused.code(), StatusCode::kUnavailable)
      << refused.ToString();
  // The refused session is terminal-failed with the same code — a
  // Wait() on it returns instead of hanging.
  Result<DiscoveryService::PollInfo> info = service.Poll(probe_id);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->state, SessionState::kFailed);
  EXPECT_EQ(info->error_code, StatusCode::kUnavailable);

  stopper.join();  // returns once the running session finished
  Result<SessionState> state = service.Wait(*running);
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(*state, SessionState::kDone);
}

}  // namespace
}  // namespace fastod
