// ThreadPool + ParallelChunkScheduler semantics: task coverage, ordered
// commits, backpressure, exception propagation from both sides of the
// scheduler, worker-index plumbing, and shutdown under load.  The
// archive-level consequences (byte-identical parallel output) live in
// parallel_roundtrip_test.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <thread>

#include "common/error.h"
#include "parallel/chunk_scheduler.h"
#include "parallel/thread_pool.h"

namespace szsec::parallel {
namespace {

TEST(ThreadPool, WorkerIndicesAreDistinctAndInRange) {
  ThreadPool pool(4);
  EXPECT_EQ(ThreadPool::current_worker_index(), ThreadPool::kNotAWorker);
  std::vector<std::atomic<int>> hits(4);
  std::vector<std::future<void>> done;
  for (int i = 0; i < 256; ++i) {
    done.push_back(pool.submit([&] {
      const size_t w = ThreadPool::current_worker_index();
      ASSERT_LT(w, 4u);
      ++hits[w];
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }));
  }
  for (auto& f : done) f.get();
  int total = 0;
  for (auto& h : hits) total += h.load();
  EXPECT_EQ(total, 256);
}

TEST(ThreadPool, DefaultThreadCountHonorsEnv) {
  ::setenv("SZSEC_THREADS", "3", 1);
  EXPECT_EQ(default_thread_count(), 3u);
  ThreadPool pool(0);
  EXPECT_EQ(pool.thread_count(), 3u);
  ::unsetenv("SZSEC_THREADS");
  EXPECT_GE(default_thread_count(), 1u);
}

TEST(ThreadPool, DefaultThreadCountRejectsBadEnvValues) {
  // Anything that is not exactly a decimal integer in [1, 1024] is
  // ignored: the hardware default applies, never a half-parsed prefix
  // (atoi would have read "16x" as 16) and never zero workers.
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const char* bad[] = {"0",     "garbage", "16x",  "-3",
                       "1025",  "",        " 4",   "0x10",
                       "99999999999999999999"};
  for (const char* v : bad) {
    ::setenv("SZSEC_THREADS", v, 1);
    EXPECT_EQ(default_thread_count(), hw) << "SZSEC_THREADS=" << v;
  }
  // In-range values pass through exactly, including the bounds.
  const std::pair<const char*, unsigned> good[] = {
      {"1", 1u}, {"7", 7u}, {"1024", 1024u}};
  for (const auto& [v, expect] : good) {
    ::setenv("SZSEC_THREADS", v, 1);
    EXPECT_EQ(default_thread_count(), expect) << "SZSEC_THREADS=" << v;
  }
  ::unsetenv("SZSEC_THREADS");
}

TEST(ThreadPool, ShutdownUnderLoad) {
  // Many queued tasks, futures dropped, pool destroyed while tasks are
  // still queued/running: the destructor must drain and join cleanly.
  std::atomic<int> done{0};
  {
    ThreadPool pool(3);
    for (int i = 0; i < 500; ++i) {
      (void)pool.submit([&done] {
        std::this_thread::sleep_for(std::chrono::microseconds(20));
        ++done;
      });
    }
  }
  // Everything dequeued before the stop flag was observed has finished;
  // nothing crashed or deadlocked.
  EXPECT_GE(done.load(), 0);
}

TEST(Scheduler, CommitsInIndexOrderUnderSkewedCompletion) {
  ParallelChunkScheduler sched(ChunkSchedulerConfig{4, 8});
  std::vector<size_t> committed;
  sched.run_ordered<size_t>(
      100,
      [](size_t, size_t i) {
        // Early chunks finish last: maximal completion-order skew.
        std::this_thread::sleep_for(
            std::chrono::microseconds((100 - i) * 10));
        return i * 7;
      },
      [&](size_t i, size_t&& r) {
        EXPECT_EQ(r, i * 7);
        committed.push_back(i);
      });
  ASSERT_EQ(committed.size(), 100u);
  for (size_t i = 0; i < committed.size(); ++i) {
    EXPECT_EQ(committed[i], i);  // strictly increasing index order
  }
}

TEST(Scheduler, BackpressureBoundsInFlightWindow) {
  const size_t window = 4;
  ParallelChunkScheduler sched(ChunkSchedulerConfig{2, window});
  EXPECT_EQ(sched.window(), window);
  std::atomic<size_t> started{0};
  std::atomic<size_t> committed{0};
  std::atomic<size_t> max_uncommitted{0};
  sched.run_ordered<int>(
      64,
      [&](size_t, size_t) {
        const size_t uncommitted = ++started - committed.load();
        size_t seen = max_uncommitted.load();
        while (uncommitted > seen &&
               !max_uncommitted.compare_exchange_weak(seen, uncommitted)) {
        }
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        return 0;
      },
      [&](size_t, int&&) { ++committed; });
  EXPECT_EQ(committed.load(), 64u);
  EXPECT_LE(max_uncommitted.load(), window);
}

TEST(Scheduler, ProduceExceptionPropagatesAfterDrain) {
  ParallelChunkScheduler sched(ChunkSchedulerConfig{3, 4});
  std::atomic<int> produced{0};
  EXPECT_THROW(sched.run_ordered<int>(
                   50,
                   [&](size_t, size_t i) {
                     ++produced;
                     if (i == 5) throw Error("chunk 5 failed");
                     return static_cast<int>(i);
                   },
                   [](size_t, int&&) {}),
               Error);
  // Submission stops once the error is recorded: far fewer than all 50
  // chunks run (the window bounds how many were already in flight).
  EXPECT_LT(produced.load(), 50);
}

TEST(Scheduler, CommitExceptionPropagatesAfterDrain) {
  ParallelChunkScheduler sched(ChunkSchedulerConfig{3, 4});
  EXPECT_THROW(sched.run_ordered<int>(
                   50, [](size_t, size_t i) { return static_cast<int>(i); },
                   [](size_t i, int&&) {
                     if (i == 3) throw Error("commit rejected chunk 3");
                   }),
               Error);
}

TEST(Scheduler, WorkerArgumentSelectsPerWorkerState) {
  const unsigned threads = 3;
  ParallelChunkScheduler sched(ChunkSchedulerConfig{threads, 0});
  ASSERT_EQ(sched.thread_count(), threads);
  // One counter per worker slot; concurrent increments to the same slot
  // would race under TSan and miscount under contention.  Each worker
  // only ever touches its own slot, so plain ints are safe — that is
  // exactly the per-worker-state contract the archives rely on.
  std::vector<int> per_worker(threads, 0);
  std::atomic<int> total{0};
  sched.run_ordered<int>(
      200,
      [&](size_t worker, size_t) {
        EXPECT_LT(worker, threads);
        ++per_worker[worker];
        ++total;
        return 0;
      },
      [](size_t, int&&) {});
  int sum = 0;
  for (int c : per_worker) sum += c;
  EXPECT_EQ(sum, 200);
  EXPECT_EQ(total.load(), 200);
}

TEST(Scheduler, ZeroAndSingleChunkRuns) {
  ParallelChunkScheduler sched(ChunkSchedulerConfig{2, 0});
  int commits = 0;
  sched.run_ordered<int>(
      0, [](size_t, size_t) { return 0; }, [&](size_t, int&&) { ++commits; });
  EXPECT_EQ(commits, 0);
  sched.run_ordered<int>(
      1, [](size_t, size_t i) { return static_cast<int>(i) + 41; },
      [&](size_t i, int&& r) {
        EXPECT_EQ(i, 0u);
        EXPECT_EQ(r, 41);
        ++commits;
      });
  EXPECT_EQ(commits, 1);
}

TEST(Scheduler, ReusableAcrossRuns) {
  ParallelChunkScheduler sched(ChunkSchedulerConfig{2, 3});
  for (int round = 0; round < 5; ++round) {
    size_t n_committed = 0;
    sched.run_ordered<size_t>(
        17, [](size_t, size_t i) { return i; },
        [&](size_t i, size_t&& r) {
          EXPECT_EQ(i, r);
          ++n_committed;
        });
    EXPECT_EQ(n_committed, 17u);
  }
}

}  // namespace
}  // namespace szsec::parallel
