// thread_pool.h — execution subsystem: a work-stealing-free, index-batch
// thread pool for the embarrassingly-parallel layers (parameter sweeps,
// bench grids).
//
// Design constraints, in order:
//   1. Determinism — the pool never owns random state and never decides
//      WHAT runs, only WHERE. Callers pre-draw any stochastic inputs
//      serially and index into them, so `threads=N` is bit-identical to
//      `threads=1` (see docs/THREADING.md).
//   2. No surprises — exceptions thrown by a task are captured and the
//      first one is rethrown on the calling thread after the batch
//      drains; a nested parallel_for from inside a worker degrades to a
//      serial loop instead of deadlocking.
//   3. Zero cost when off — a pool with one thread (or a 1-element
//      range) runs inline on the caller with no locks touched.
//
// Thread count resolution: explicit argument > OTEM_THREADS environment
// variable > std::thread::hardware_concurrency().
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace otem::exec {

/// Worker count the library defaults to: `OTEM_THREADS` when set to a
/// positive integer, else std::thread::hardware_concurrency(), else 1.
size_t default_concurrency();

class ThreadPool {
 public:
  /// `threads == 0` resolves to default_concurrency(). The pool spawns
  /// `threads - 1` workers; the calling thread participates in every
  /// batch, so `threads == 1` spawns nothing and runs serially.
  explicit ThreadPool(size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total execution width (workers + the participating caller).
  size_t thread_count() const { return workers_.size() + 1; }

  /// Run `fn(i)` for every i in [0, n), blocking until all complete.
  /// Indices are claimed dynamically, so per-index cost may vary freely.
  /// The first exception thrown by any task is rethrown here once the
  /// batch has drained. Calling parallel_for from inside a pool task
  /// runs the nested range serially on that worker (no deadlock).
  void parallel_for(size_t n, const std::function<void(size_t)>& fn);

  /// Shared process-wide pool sized by default_concurrency(); lazily
  /// constructed on first use.
  static ThreadPool& global();

 private:
  struct Batch;

  void worker_loop();
  void run_batch(Batch& batch);

  std::vector<std::thread> workers_;
  std::mutex batch_mutex_;  ///< serialises whole batches
  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable batch_done_;
  Batch* current_ = nullptr;
  std::uint64_t batch_id_ = 0;
  bool stopping_ = false;
};

/// Convenience: parallel_for on the global pool, honouring `threads`
/// (0 = default_concurrency(), 1 = serial inline, else a dedicated pool
/// of that width for this call).
void parallel_for(size_t n, const std::function<void(size_t)>& fn,
                  size_t threads = 0);

}  // namespace otem::exec
