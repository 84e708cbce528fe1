// util.h — the benchmark's own helpers: clock, statistics, seeded
// random numbers, a flat JSON reader for daemon replies and a JSON
// writer for the result line. None of this comes from the program under
// test, so a change to the program cannot change how it is measured.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

using Pairs = std::vector<std::pair<std::string, std::string>>;

/// Seconds on the steady clock.
double now_s();

/// Nearest-rank percentile (q in [0, 1]) of `values`; 0 when empty.
double percentile(std::vector<double> values, double q);
/// Interpolated median; 0 when empty.
double median(std::vector<double> values);
double sum(const std::vector<double>& values);

/// Fixed-memory latency histogram: logarithmic buckets 0.2% wide from
/// 0.01 to ~1e8 (units of the caller, here microseconds). Its memory
/// does not grow with the number of samples, so a faster program does
/// not make the benchmark's own footprint grow.
class LogHistogram {
 public:
  LogHistogram();
  void add(double value);
  void merge(const LogHistogram& other);
  std::uint64_t count() const { return total_; }
  /// Nearest-rank quantile (q in [0, 1]) as its bucket's geometric
  /// centre; 0 when empty.
  double quantile(double q) const;

 private:
  std::vector<std::uint32_t> counts_;
  std::uint64_t total_ = 0;
};

/// Per-window view of a measured phase: every completed operation is
/// counted in the window (of `width` seconds) it completed in. A run
/// reports medians over its windows, so interference that covers fewer
/// than half of them moves no reported figure.
struct Windows {
  double start_s = 0.0;
  double width_s = 1.0;
  std::vector<LogHistogram> latency;  ///< one per whole window

  Windows() = default;
  Windows(double start, double width, size_t count)
      : start_s(start), width_s(width), latency(count) {}
  void add(double done_s, double latency_us);
  void merge(const Windows& other);
  double median_rate() const;  ///< operations per second
  double median_quantile(double q) const;
};

/// The CPUs this process may run on.
std::vector<int> allowed_cpus();
/// Let thread `tid` (0 = the caller) run on `cpus` only; best effort.
void set_affinity(long tid, const std::vector<int>& cpus);
void pin(long tid, int cpu);

/// Peak resident set of this process [MB].
double peak_rss_mb();

/// SplitMix64 step; also used to derive independent seeds.
std::uint64_t mix64(std::uint64_t x);
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  double uniform();  ///< [0, 1)
  double normal();   ///< standard normal (Box-Muller)

 private:
  std::uint64_t state_;
};

/// %.17g, so a value read back with strtod is bit-identical.
std::string fmt17(double v);
/// IEEE-754 bit pattern as 16 lower-case hex digits.
std::string hex_bits(double v);
/// JSON string literal (quoted and escaped).
std::string jstr(std::string_view s);
/// JSON number; non-finite values become null.
std::string jnum(double v);

/// A reply flattened to dotted paths ("result.solve.qp_iterations").
/// Only what the benchmark needs from JSON: scalars by path.
class FlatJson {
 public:
  enum class Kind { kNull, kBool, kNumber, kString };
  struct Value {
    Kind kind = Kind::kNull;
    double number = 0.0;
    bool boolean = false;
    std::string text;
  };

  /// False when `text` is not one well-formed JSON value.
  bool parse(const std::string& text);
  const Value* find(std::string_view path) const;
  /// The number at `path`, or NaN when absent, null or not a number.
  double number(std::string_view path) const;
  /// True only when `path` holds the boolean true.
  bool is_true(std::string_view path) const;
  const std::vector<std::pair<std::string, Value>>& fields() const {
    return fields_;
  }

 private:
  bool value(std::string& path, int depth);
  bool string(std::string& out);
  void skip_ws();

  const std::string* s_ = nullptr;
  size_t pos_ = 0;
  std::vector<std::pair<std::string, Value>> fields_;
};

}  // namespace perfbench
