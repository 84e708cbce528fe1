#include "exec/thread_pool.h"

#include <atomic>
#include <cstdlib>
#include <exception>
#include <string>

namespace otem::exec {

namespace {
/// Set while a thread is executing pool work; a nested parallel_for on
/// such a thread must not block on the pool it is servicing.
thread_local bool t_in_pool_task = false;

size_t env_threads() {
  const char* raw = std::getenv("OTEM_THREADS");
  if (raw == nullptr || *raw == '\0') return 0;
  char* end = nullptr;
  const unsigned long v = std::strtoul(raw, &end, 10);
  if (end == raw || *end != '\0') return 0;  // not a clean integer
  // Cap to something sane so a typo cannot fork-bomb the process.
  return static_cast<size_t>(v > 1024 ? 1024 : v);
}
}  // namespace

size_t default_concurrency() {
  const size_t env = env_threads();
  if (env > 0) return env;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<size_t>(hw) : 1;
}

/// One parallel_for invocation. Lives on the caller's stack; workers
/// only hold a pointer while `current_` names it under the mutex.
struct ThreadPool::Batch {
  size_t n = 0;
  const std::function<void(size_t)>* fn = nullptr;
  std::atomic<size_t> next{0};    ///< next unclaimed index
  std::atomic<size_t> done{0};    ///< completed indices
  std::atomic<size_t> active{0};  ///< workers currently inside the batch
  std::exception_ptr error;       ///< first failure, guarded by pool mutex
};

ThreadPool::ThreadPool(size_t threads) {
  if (threads == 0) threads = default_concurrency();
  workers_.reserve(threads - 1);
  try {
    for (size_t i = 0; i + 1 < threads; ++i)
      workers_.emplace_back([this] { worker_loop(); });
  } catch (...) {
    // Could not spawn the full complement (resource limits): run with
    // whatever came up rather than failing the computation.
    if (workers_.empty()) throw;
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  std::uint64_t seen = 0;
  for (;;) {
    Batch* batch = nullptr;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_ready_.wait(lock, [&] {
        return stopping_ || (current_ != nullptr && batch_id_ != seen);
      });
      if (current_ == nullptr || batch_id_ == seen) return;  // stopping
      batch = current_;
      seen = batch_id_;
      // Register under the mutex: the caller cannot retire the batch
      // while any registered worker is inside it.
      batch->active.fetch_add(1, std::memory_order_relaxed);
    }
    run_batch(*batch);
    std::lock_guard<std::mutex> lock(mutex_);
    batch->active.fetch_sub(1, std::memory_order_relaxed);
    batch_done_.notify_all();
  }
}

void ThreadPool::run_batch(Batch& batch) {
  const bool was_in_task = t_in_pool_task;
  t_in_pool_task = true;
  for (;;) {
    const size_t i = batch.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= batch.n) break;
    try {
      (*batch.fn)(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!batch.error) batch.error = std::current_exception();
    }
    batch.done.fetch_add(1, std::memory_order_acq_rel);
  }
  t_in_pool_task = was_in_task;
}

void ThreadPool::parallel_for(size_t n,
                              const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  if (workers_.empty() || n == 1 || t_in_pool_task) {
    // Serial path: inline on the caller, exceptions propagate directly.
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  // One batch at a time: a second caller queues here until the first
  // drains, so concurrent use of a shared pool is safe (if serialised).
  std::lock_guard<std::mutex> serialise(batch_mutex_);
  Batch batch;
  batch.n = n;
  batch.fn = &fn;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    current_ = &batch;
    ++batch_id_;
  }
  work_ready_.notify_all();

  // The caller works the batch too, then waits until every index is
  // complete AND every registered worker has left the batch (a worker
  // that claimed nothing still touched the index counter).
  run_batch(batch);
  {
    std::unique_lock<std::mutex> lock(mutex_);
    batch_done_.wait(lock, [&] {
      return batch.done.load(std::memory_order_acquire) == batch.n &&
             batch.active.load(std::memory_order_relaxed) == 0;
    });
    current_ = nullptr;
  }
  if (batch.error) std::rethrow_exception(batch.error);
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

void parallel_for(size_t n, const std::function<void(size_t)>& fn,
                  size_t threads) {
  if (threads == 1 || n <= 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  if (threads == 0) {
    ThreadPool::global().parallel_for(n, fn);
    return;
  }
  ThreadPool pool(threads);
  pool.parallel_for(n, fn);
}

}  // namespace otem::exec
