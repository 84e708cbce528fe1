// logging.h — minimal leveled logging, thread-safe by construction.
//
// The library itself is silent by default (level = kWarn); examples and
// benches raise the level for progress output. No global mutable state
// beyond an atomic level and target fd, no allocation on the fast path
// when the level filters the message out.
//
// Each emitted line is fully formatted in memory —
//   2026-08-06T12:34:56.789Z [otem WARN  t03] message
// (ISO-8601 UTC timestamp, level tag, per-thread id) — and handed to
// the OS in a SINGLE write() syscall, so concurrent writers (campaign
// workers, serve requests on the thread pool) can interleave lines but
// never bytes within a line. tests/test_obs.cpp hammers this from the
// pool.
#pragma once

#include <sstream>
#include <string>

namespace otem::log {

enum class Level { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Current threshold; messages below it are dropped. Both accessors
/// are atomic (safe to flip mid-run from any thread).
Level level();
void set_level(Level level);

/// Target file descriptor (default 2 = stderr). Tests point this at a
/// temp file to assert on the emitted lines.
int fd();
void set_fd(int fd);

/// Emit one line at `level` (no-op if filtered). One write() syscall.
void write(Level level, const std::string& message);

namespace detail {
template <typename... Args>
std::string cat(Args&&... args) {
  std::ostringstream os;
  (os << ... << args);
  return os.str();
}

/// The formatted line for `message` as write() would emit it,
/// including the trailing newline — exposed for tests.
std::string format_line(Level level, const std::string& message);
}  // namespace detail

template <typename... Args>
void debug(Args&&... args) {
  if (level() <= Level::kDebug)
    write(Level::kDebug, detail::cat(std::forward<Args>(args)...));
}

template <typename... Args>
void info(Args&&... args) {
  if (level() <= Level::kInfo)
    write(Level::kInfo, detail::cat(std::forward<Args>(args)...));
}

template <typename... Args>
void warn(Args&&... args) {
  if (level() <= Level::kWarn)
    write(Level::kWarn, detail::cat(std::forward<Args>(args)...));
}

template <typename... Args>
void error(Args&&... args) {
  if (level() <= Level::kError)
    write(Level::kError, detail::cat(std::forward<Args>(args)...));
}

}  // namespace otem::log
