#include "exec/parallel_for.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace otem::exec {

namespace {
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

void parallel_for(size_t n, const std::function<void(size_t)>& fn,
                  size_t threads) {
  if (threads == 0) threads = default_concurrency();
  std::atomic<size_t> next{0};
  std::mutex failure_mutex;
  std::exception_ptr failure;
  const auto work = [&] {
    for (;;) {
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        fn(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(failure_mutex);
        if (!failure) failure = std::current_exception();
      }
    }
  };

  std::vector<std::thread> helpers;
  const size_t width = std::min(threads, n);
  try {
    while (helpers.size() + 1 < width) helpers.emplace_back(work);
  } catch (...) {
    // No more threads (resource limits): run with the ones that started.
  }
  work();
  for (std::thread& t : helpers) t.join();
  if (failure) std::rethrow_exception(failure);
}

}  // namespace otem::exec
