// parallel_for.h — the execution subsystem's one fan-out: run fn(i) for
// every index of a range on up to `threads` threads, started per call.
//
// Design constraints, in order:
//   1. Determinism — parallel_for never owns random state and never
//      decides WHAT runs, only WHERE. Callers pre-draw any stochastic
//      inputs serially and index into them, so `threads=N` is
//      bit-identical to `threads=1` (see docs/THREADING.md).
//   2. No surprises — an exception thrown by fn is captured, every
//      other index still runs, and the first exception is rethrown on
//      the calling thread once the range is done.
//   3. Nothing persists — the threads start with the call and are
//      joined before it returns; a call at width 1 starts none.
//
// Thread count resolution: explicit argument > OTEM_THREADS environment
// variable > std::thread::hardware_concurrency().
#pragma once

#include <cstddef>
#include <functional>

namespace otem::exec {

/// Worker count the library defaults to: `OTEM_THREADS` when set to a
/// positive integer, else std::thread::hardware_concurrency(), else 1.
size_t default_concurrency();

/// Run `fn(i)` for every i in [0, n) and return once all have run.
/// `threads == 0` resolves to default_concurrency(). The call starts
/// min(threads, n) − 1 threads and the calling thread works the range
/// too; indices are claimed from one atomic counter, so per-index cost
/// may vary freely, and width 1 runs inline in index order. The first
/// exception thrown by fn is rethrown here after every index has run.
/// If a thread cannot be started, the call runs with those it has. A
/// nested call starts its own threads.
void parallel_for(size_t n, const std::function<void(size_t)>& fn,
                  size_t threads = 0);

}  // namespace otem::exec
