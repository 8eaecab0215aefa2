// A small persistent worker pool for data-parallel loops.
//
// The pool exists because the solvers' inner loop is "evaluate many
// independent candidates" (center sets, swaps, per-point surrogates):
// spawning std::threads per batch costs more than the work for the
// small batches local search produces, so the workers are created once
// and parked on a condition variable between batches.
//
// Design notes:
//   - ParallelFor(count, fn) invokes fn(worker, index) for every index
//     in [0, count), sharding indices over the workers via an atomic
//     cursor, and blocks until all indices are done. `worker` is a
//     stable id in [0, num_threads()): callers key per-thread scratch
//     (e.g. one ExpectedCostEvaluator per worker) off it.
//   - The calling thread participates as worker 0; a pool of T threads
//     spawns only T-1 background workers. With T == 1 ParallelFor runs
//     the loop inline — zero synchronization, bitwise identical to a
//     plain for loop.
//   - fn must not call back into the same pool (jobs do not nest). fn
//     MAY throw: the first exception (in completion order) is
//     captured, the batch is aborted — workers stop pulling new
//     indices, in-flight indices finish — and the exception is
//     rethrown on the borrowing thread once every worker has drained.
//     A throwing batch therefore leaves the pool reusable instead of
//     terminating the process, but makes no promise about which
//     indices ran.
//   - Determinism is the caller's job and is easy: write results by
//     index into a preallocated buffer and do any reduction as an
//     ordered scan afterwards; never reduce in completion order.

#ifndef UKC_COMMON_THREAD_POOL_H_
#define UKC_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace ukc {

class ThreadPool {
 public:
  /// Creates a pool of `threads` workers (clamped to >= 1); `threads`
  /// <= 0 means HardwareThreads(). The calling thread is worker 0, so
  /// only threads - 1 OS threads are spawned.
  explicit ThreadPool(int threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total worker count, including the calling thread.
  int num_threads() const { return static_cast<int>(workers_.size()) + 1; }

  /// Runs fn(worker, index) for every index in [0, count); blocks until
  /// every index completed. Must be called from one thread at a time
  /// (the pool owner's); jobs do not nest. If fn throws, the batch is
  /// aborted and the first captured exception is rethrown here, on the
  /// borrowing thread, after the pool has drained. If exactly one
  /// worker threw, the original exception is rethrown with its type
  /// preserved; if several workers threw in the same batch, a
  /// std::runtime_error reporting the exception count and the first
  /// exception's message is thrown instead.
  void ParallelFor(size_t count, const std::function<void(int, size_t)>& fn);

  /// std::thread::hardware_concurrency with a floor of 1.
  static int HardwareThreads();

 private:
  void WorkerLoop(int worker);
  // Pulls indices off the shared cursor until the job is drained.
  void RunJob(int worker);

  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable job_ready_;
  std::condition_variable job_done_;
  const std::function<void(int, size_t)>* job_ = nullptr;
  size_t job_count_ = 0;
  uint64_t generation_ = 0;  // Bumped per job so workers see new work.
  std::atomic<size_t> next_{0};
  // Workers that finished the current generation. The caller waits for
  // all of them (not just "none active"), so job_ stays valid until
  // every worker — including ones that wake late to an already-drained
  // cursor — has moved past it.
  size_t finished_workers_ = 0;
  bool stopping_ = false;
  // First exception thrown by the current job's fn, rethrown by
  // ParallelFor on the borrowing thread. job_aborted_ makes workers
  // stop pulling indices so the batch fails fast. When several workers
  // throw in one batch (an abort only stops index *pulls*; in-flight
  // indices can still fail), the count is aggregated into the rethrown
  // error so multi-worker faults are not silently coalesced into one.
  std::atomic<bool> job_aborted_{false};
  std::exception_ptr job_exception_;   // Guarded by mutex_.
  size_t job_exception_count_ = 0;     // Guarded by mutex_.
};

/// Borrow-or-inline resolver for the `ThreadPool* pool` hook carried by
/// the option structs (SurrogateOptions, RefineOptions, ...). A caller
/// hands a solver workers only by lending it a pool; a null pool runs
/// the work inline on the calling thread. The facades get that
/// fallback as ScopedPool(options.pool, 1): a one-worker pool spawns
/// no thread. When `shared` is null a private pool of `threads`
/// workers is constructed for the duration of the call; only
/// ParallelCandidateEvaluator::Options::threads passes anything but 1.
/// The same nesting rule as ThreadPool applies: a shared pool must not
/// be used from inside one of its own ParallelFor jobs.
class ScopedPool {
 public:
  ScopedPool(ThreadPool* shared, int threads)
      : owned_(shared == nullptr ? std::make_unique<ThreadPool>(threads)
                                 : nullptr),
        pool_(shared != nullptr ? shared : owned_.get()) {}

  ScopedPool(const ScopedPool&) = delete;
  ScopedPool& operator=(const ScopedPool&) = delete;

  ThreadPool& operator*() const { return *pool_; }
  ThreadPool* operator->() const { return pool_; }
  ThreadPool* get() const { return pool_; }

 private:
  std::unique_ptr<ThreadPool> owned_;
  ThreadPool* pool_;
};

}  // namespace ukc

#endif  // UKC_COMMON_THREAD_POOL_H_
