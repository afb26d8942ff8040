// Ordered, backpressured fan-out of per-chunk codec work.
//
// Archives are sequences of independently coded chunks, so the natural
// parallel unit is "encode/decode one chunk" — but the archive bytes (and
// every aggregate: stats, metrics, the index) must come out in chunk-index
// order no matter which worker finishes first.  ParallelChunkScheduler
// provides exactly that contract:
//
//   * produce(worker, index) runs on a pool worker, any completion order;
//   * commit(index, result) runs on the CALLING thread in strictly
//     increasing index order — so commit-side state (an output buffer, a
//     PipelineMetrics sink, floating-point stat accumulators) needs no
//     locking and aggregates deterministically;
//   * at most window() indices are submitted-but-uncommitted at any
//     moment.  This is backpressure: peak memory is O(window x chunk),
//     independent of archive length and of how unevenly chunks complete
//     (without it, one slow chunk 0 would let thousands of completed
//     results pile up waiting to commit);
//   * the worker argument of produce (ThreadPool::current_worker_index())
//     indexes per-worker scratch state — BufferPool, RuntimeCache — so
//     workers reuse buffers and key schedules without contending on a
//     shared lock;
//   * an exception from produce surfaces where its index would have
//     committed (so the first failure in index order wins, for every
//     thread count); an exception from commit surfaces at once.  Either
//     way every in-flight task drains before the run's state is released.
//
// The primitive is OrderedRun, a push API (submit one input, commit
// results as they become ready) shared by push-driven codecs and the
// blocking run_ordered loops.  At one thread there is no pool: produce
// runs inline on the caller's thread with worker index 0.
//
// Determinism note: the scheduler never changes WHAT is computed, only
// WHEN.  Chunked archive bytes are identical for any thread count because
// per-chunk IVs are derived from the chunk index before fan-out and
// commits happen in index order (locked by golden_container_test and
// parallel_roundtrip_test).
#pragma once

#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>

#include "parallel/thread_pool.h"

namespace szsec::parallel {

/// Construction-time knobs of a ParallelChunkScheduler.
struct ChunkSchedulerConfig {
  /// Worker threads (0 = default_thread_count(), which honors the
  /// SZSEC_THREADS environment variable).  1 runs every chunk inline on
  /// the calling thread and starts no thread at all.
  unsigned threads = 0;
  /// Backpressure window: maximum chunks submitted but not yet committed
  /// (0 = 2x threads).  Smaller bounds memory tighter; larger absorbs
  /// more completion-order skew before workers idle.
  size_t max_in_flight = 0;
};

/// Fans per-chunk work onto a private ThreadPool (none at one thread)
/// with a bounded in-flight window and commits results on the calling
/// thread in strict chunk-index order (see the file comment for the
/// full contract).  Reusable: any number of runs, one after another.
class ParallelChunkScheduler {
 public:
  /// Spawns the worker pool when more than one thread is resolved; both
  /// config fields accept 0 for defaults.
  explicit ParallelChunkScheduler(const ChunkSchedulerConfig& config = {})
      : threads_(config.threads != 0 ? config.threads
                                     : default_thread_count()),
        window_(config.max_in_flight != 0 ? config.max_in_flight
                                          : 2 * threads_) {
    if (threads_ > 1) pool_ = std::make_unique<ThreadPool>(threads_);
  }

  /// Worker threads (1 = inline on the caller, no pool).
  size_t thread_count() const { return threads_; }
  /// Resolved backpressure window (submitted-but-uncommitted bound).
  size_t window() const { return window_; }

  /// One ordered run, fed by pushes (see the file comment): index i is
  /// the i-th pushed input.  Destruction waits for every in-flight task,
  /// so produce's captures only need to outlive the run.
  template <typename Input, typename Result>
  class OrderedRun {
   public:
    using Produce = std::function<Result(size_t, size_t, Input&&)>;
    using Commit = std::function<void(size_t, Result&&)>;

    OrderedRun(ParallelChunkScheduler& sched, Produce produce, Commit commit)
        : sched_(sched),
          produce_(std::move(produce)),
          commit_(std::move(commit)),
          st_(std::make_shared<Shared>()) {}

    ~OrderedRun() {
      std::unique_lock<std::mutex> lock(st_->mu);
      st_->cv.wait(lock, [&] { return st_->in_flight == 0; });
    }

    /// Inputs pushed so far (the index the next push gets).
    size_t pushed() const { return next_; }

    /// Submits the next index.  Blocks only when window() indices are
    /// outstanding: it then waits for the oldest and commits it first.
    void push(Input&& input) {
      if (next_ - st_->base >= sched_.window_) commit_one(true);
      const size_t index = next_++;
      {
        std::lock_guard<std::mutex> lock(st_->mu);
        st_->slots.emplace_back();
        ++st_->in_flight;
      }
      if (!sched_.pool_) return run_one(st_, produce_, 0, index, input);
      // The input rides to the worker in a shared_ptr: std::function
      // requires copyable callables, and chunk inputs (large buffers)
      // must move, not copy.
      auto in = std::make_shared<Input>(std::move(input));
      sched_.pool_->submit([st = st_, produce = &produce_, index, in] {
        run_one(st, *produce, ThreadPool::current_worker_index(), index,
                *in);
      });
    }

    /// Commits the oldest outstanding index; false when there is none,
    /// or (wait == false) when it has not completed yet.  A produce
    /// exception is rethrown here, in index order.
    bool commit_one(bool wait) {
      std::unique_lock<std::mutex> lock(st_->mu);
      const auto done = [&] {
        return st_->slots.front().result || st_->slots.front().error;
      };
      if (st_->slots.empty() || (!wait && !done())) return false;
      st_->cv.wait(lock, done);
      Slot slot = std::move(st_->slots.front());
      st_->slots.pop_front();
      const size_t index = st_->base++;
      lock.unlock();
      if (slot.error) std::rethrow_exception(slot.error);
      commit_(index, std::move(*slot.result));
      return true;
    }

    /// Commits, in index order, every result already completed.
    void commit_ready() {
      while (commit_one(false)) {
      }
    }

    /// Blocks until every pushed index is committed.
    void finish() {
      while (commit_one(true)) {
      }
    }

   private:
    struct Slot {
      std::optional<Result> result;
      std::exception_ptr error;
    };
    // Completion state lives on the heap, co-owned by every worker task:
    // the drain wait can return (and the run be destroyed) the moment
    // in_flight hits zero, while the worker that decremented it is still
    // between releasing the mutex and its final notify.
    struct Shared {
      std::mutex mu;
      std::condition_variable cv;
      std::deque<Slot> slots;  ///< outstanding indices [base, base + size)
      size_t base = 0;         ///< written by the caller thread only
      size_t in_flight = 0;    ///< pushed, not yet produced
    };

    static void run_one(const std::shared_ptr<Shared>& st,
                        const Produce& produce, size_t worker, size_t index,
                        Input& input) {
      Slot done;
      try {
        done.result.emplace(produce(worker, index, std::move(input)));
      } catch (...) {
        done.error = std::current_exception();
      }
      {
        std::lock_guard<std::mutex> lock(st->mu);
        st->slots[index - st->base] = std::move(done);
        --st->in_flight;
      }
      st->cv.notify_all();
    }

    ParallelChunkScheduler& sched_;
    Produce produce_;
    Commit commit_;
    std::shared_ptr<Shared> st_;
    size_t next_ = 0;
  };

  /// Runs produce(worker, index) for every index in [0, n) across the
  /// pool and feeds each result to commit(index, result) on this thread
  /// in strictly increasing index order, holding at most window() chunks
  /// in flight.  `worker` is in [0, thread_count()).  Exceptions follow
  /// the file comment: the first produce failure in index order (or any
  /// commit failure) is rethrown here after every in-flight task drained.
  template <typename Result>
  void run_ordered(size_t n,
                   const std::function<Result(size_t, size_t)>& produce,
                   const std::function<void(size_t, Result&&)>& commit) {
    struct Nothing {};
    run_ordered_fed<Nothing, Result>(
        n, [](size_t) { return Nothing{}; },
        [&produce](size_t worker, size_t index, Nothing&&) {
          return produce(worker, index);
        },
        commit);
  }

  /// run_ordered with a chunk *producer*: feed(index) runs on the
  /// CALLING thread, in strictly increasing index order, immediately
  /// before index is submitted — so a sequential input stream (a pipe, a
  /// file) can be cut into chunks without pre-reading the whole input.
  /// Its return value is handed to produce.  At most window() fed inputs
  /// + uncommitted results exist at any moment, which is the streaming
  /// codec's memory bound:
  ///   peak ~= window x (fed chunk + produced result).
  /// A loop over OrderedRun; feed exceptions propagate like commit's.
  template <typename Input, typename Result>
  void run_ordered_fed(
      size_t n, const std::function<Input(size_t)>& feed,
      const std::function<Result(size_t, size_t, Input&&)>& produce,
      const std::function<void(size_t, Result&&)>& commit) {
    OrderedRun<Input, Result> run(*this, produce, commit);
    for (size_t i = 0; i < n; ++i) {
      run.push(feed(i));
      run.commit_ready();
    }
    run.finish();
  }

 private:
  unsigned threads_;
  size_t window_;
  std::unique_ptr<ThreadPool> pool_;  ///< null at one thread
};

}  // namespace szsec::parallel
