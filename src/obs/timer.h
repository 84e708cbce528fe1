// timer.h — the microsecond steady clock behind sampled step times,
// trace spans and serve latencies.
#pragma once

#include <chrono>

namespace otem::obs {

/// Microseconds since an arbitrary steady epoch.
inline double now_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace otem::obs
