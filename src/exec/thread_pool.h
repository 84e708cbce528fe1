// thread_pool.h — execution subsystem: a work-stealing-free, index-batch
// thread pool for the embarrassingly-parallel layers (parameter sweeps,
// bench grids), plus a submit() side door for independent long-lived
// tasks (the serve daemon's request dispatch).
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
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace otem::exec {

/// Worker count the library defaults to: `OTEM_THREADS` when set to a
/// positive integer, else std::thread::hardware_concurrency(), else 1.
size_t default_concurrency();

namespace detail {
/// Shared state behind one submitted task; lives until the last
/// TaskHandle and the executing worker both drop it.
struct TaskState {
  std::function<void()> fn;
  std::mutex mutex;
  std::condition_variable done_cv;
  bool done = false;
  std::exception_ptr error;
};
}  // namespace detail

/// Joinable handle to one ThreadPool::submit() task. Handles are cheap
/// shared views: copies wait on the same task. Cancellation is NOT the
/// handle's job — pass the task a StopToken (exec/stop_token.h) and let
/// the work stop cooperatively; the handle then observes completion.
class TaskHandle {
 public:
  TaskHandle() = default;

  bool valid() const { return state_ != nullptr; }

  /// True once the task has finished running (or faulted).
  bool done() const;

  /// Block until the task completes; rethrows the task's exception
  /// here, like parallel_for does for batch tasks. No-op when invalid.
  void wait();

 private:
  friend class ThreadPool;
  explicit TaskHandle(std::shared_ptr<detail::TaskState> state)
      : state_(std::move(state)) {}

  std::shared_ptr<detail::TaskState> state_;
};

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

  /// Map [0, n) through `fn`, collecting results by index.
  template <typename Fn>
  auto parallel_map(size_t n, Fn&& fn)
      -> std::vector<decltype(fn(size_t{0}))> {
    std::vector<decltype(fn(size_t{0}))> out(n);
    parallel_for(n, [&](size_t i) { out[i] = fn(i); });
    return out;
  }

  /// Enqueue one independent task and return immediately with a
  /// joinable handle — the fire-and-join shape the serve daemon's
  /// request dispatch needs, alongside the batch-shaped parallel_for.
  /// Workers prefer batch work over queued tasks, so submit() traffic
  /// never starves an in-flight parallel_for. Two situations run the
  /// task inline on the calling thread before returning (the handle is
  /// already done): a pool with no workers (threads == 1), and a
  /// submit() from inside a pool task (waiting on a queue only this
  /// pool drains could otherwise deadlock a fully-busy pool).
  TaskHandle submit(std::function<void()> fn);

  /// Queued-but-not-started task count (diagnostics; racy by nature).
  size_t pending_tasks() const;

  /// Shared process-wide pool sized by default_concurrency(); lazily
  /// constructed on first use.
  static ThreadPool& global();

 private:
  struct Batch;

  void worker_loop();
  void run_batch(Batch& batch);
  static void run_task(detail::TaskState& task);

  std::vector<std::thread> workers_;
  std::mutex submit_mutex_;  ///< serialises whole batches
  mutable std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable batch_done_;
  Batch* current_ = nullptr;
  std::uint64_t batch_id_ = 0;
  bool stopping_ = false;
  /// Submitted tasks awaiting a worker; drained before shutdown.
  std::deque<std::shared_ptr<detail::TaskState>> tasks_;
};

/// Convenience: parallel_for on the global pool, honouring `threads`
/// (0 = default_concurrency(), 1 = serial inline, else a dedicated pool
/// of that width for this call).
void parallel_for(size_t n, const std::function<void(size_t)>& fn,
                  size_t threads = 0);

}  // namespace otem::exec
