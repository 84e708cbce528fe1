// Tests for the tracing + quantile-sketch layer (src/obs/trace.h,
// src/obs/sketch.h):
//
//   - QuantileSketch correctness: exact quantiles while the stream
//     fits in one compactor, bounded rank error (<= 2% at the default
//     k) against exact quantiles of known distributions, exact
//     count/sum/min/max bookkeeping;
//   - determinism: same stream -> same sketch, and per-chunk sketches
//     merged in chunk order give BIT-IDENTICAL quantiles at every
//     thread count (the property fleet/serve aggregation relies on);
//   - merge associativity: any grouping of the same chunk sequence
//     agrees exactly on count/sum/min/max and within rank tolerance on
//     quantiles;
//   - the Sketch registry instrument: exact count/min/max and integer
//     sum under concurrent recording, kill-switch no-op, k-mismatch
//     re-registration refused;
//   - the span tracer: disabled-by-default records nothing, RAII spans
//     reconstruct parent/child nesting, trace_emit() attaches to the
//     active span, rings cap at kTraceRingCapacity newest-wins,
//     otem.trace.v1 Chrome JSON is well-formed, summaries() aggregate
//     by name, and collect() is safe against concurrent writers (the
//     TSan job runs this binary).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "common/json.h"
#include "common/rng.h"
#include "exec/parallel_for.h"
#include "obs/metrics.h"
#include "obs/sketch.h"
#include "obs/trace.h"
#include "rank_error.h"

namespace otem {
namespace {

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "otem_test_trace_" + name;
}

/// Exact q-quantile under the sketch's definition: the smallest value
/// whose cumulative count reaches ceil(q * n).
double exact_quantile(std::vector<double> sorted, double q) {
  const double target = q * static_cast<double>(sorted.size());
  size_t idx = static_cast<size_t>(std::ceil(target));
  idx = idx > 0 ? idx - 1 : 0;
  idx = std::min(idx, sorted.size() - 1);
  return sorted[idx];
}

void check_rank_errors(const obs::QuantileSketch& sketch,
                       std::vector<double> values, double tol) {
  std::sort(values.begin(), values.end());
  for (double q : {0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999}) {
    const double err = test::rank_error(values, q, sketch.quantile(q));
    EXPECT_LE(err, tol) << "q=" << q;
  }
}

// --- QuantileSketch ----------------------------------------------------

TEST(QuantileSketch, EmptyAndEndpoints) {
  obs::QuantileSketch s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.quantile(0.5), 0.0);
  s.add(3.0);
  s.add(-1.0);
  EXPECT_EQ(s.quantile(0.0), -1.0);
  EXPECT_EQ(s.quantile(1.0), 3.0);
  EXPECT_EQ(s.min(), -1.0);
  EXPECT_EQ(s.max(), 3.0);
  EXPECT_EQ(s.sum(), 2.0);
}

TEST(QuantileSketch, ExactWhileStreamFitsInOneLevel) {
  // n < k: no compaction ever fires, so every quantile is exact.
  obs::QuantileSketch s(64);
  std::vector<double> values;
  Rng rng(7);
  for (int i = 0; i < 63; ++i) {
    const double v = rng.uniform(-100.0, 100.0);
    values.push_back(v);
    s.add(v);
  }
  std::sort(values.begin(), values.end());
  for (double q : {0.1, 0.25, 0.5, 0.75, 0.9})
    EXPECT_EQ(s.quantile(q), exact_quantile(values, q)) << "q=" << q;
}

TEST(QuantileSketch, RankErrorBoundUniform) {
  obs::QuantileSketch s;  // default k
  std::vector<double> values;
  Rng rng(42);
  for (int i = 0; i < 100000; ++i) {
    const double v = rng.uniform(0.0, 1.0);
    values.push_back(v);
    s.add(v);
  }
  EXPECT_EQ(s.count(), 100000u);
  check_rank_errors(s, values, 0.02);
}

TEST(QuantileSketch, RankErrorBoundSkewedAndDuplicates) {
  // Heavy right tail (u^4 spans four decades) plus 20% exact
  // duplicates — the shapes latency streams actually have.
  obs::QuantileSketch s;
  std::vector<double> values;
  Rng rng(43);
  for (int i = 0; i < 100000; ++i) {
    const double u = rng.uniform(0.0, 1.0);
    const double v = (i % 5 == 0) ? 7.0 : u * u * u * u * 1e4;
    values.push_back(v);
    s.add(v);
  }
  check_rank_errors(s, values, 0.02);
}

TEST(QuantileSketch, ExactBookkeeping) {
  obs::QuantileSketch s(8);  // tiny k: lots of compaction
  double sum = 0.0;
  for (int i = 1; i <= 10000; ++i) {
    s.add(static_cast<double>(i));
    sum += static_cast<double>(i);
  }
  // Compaction discards samples but never the exact n / sum / extrema.
  EXPECT_EQ(s.count(), 10000u);
  EXPECT_EQ(s.sum(), sum);
  EXPECT_EQ(s.min(), 1.0);
  EXPECT_EQ(s.max(), 10000.0);
}

TEST(QuantileSketch, SameStreamSameSketch) {
  obs::QuantileSketch a, b;
  Rng ra(9), rb(9);
  for (int i = 0; i < 20000; ++i) a.add(ra.uniform(0.0, 50.0));
  for (int i = 0; i < 20000; ++i) b.add(rb.uniform(0.0, 50.0));
  for (double q = 0.0; q <= 1.0; q += 0.05)
    EXPECT_EQ(a.quantile(q), b.quantile(q)) << "q=" << q;
}

TEST(QuantileSketch, MergeRefusesMismatchedK) {
  obs::QuantileSketch a(64), b(128);
  EXPECT_THROW(a.merge(b), SimError);
}

/// The values of chunk c of the deterministic test stream.
std::vector<double> chunk_values(size_t c, size_t per_chunk) {
  Rng rng(1000 + c);
  std::vector<double> v(per_chunk);
  for (double& x : v) x = rng.uniform(0.0, 1000.0);
  return v;
}

TEST(QuantileSketch, OrderedMergeIsThreadCountInvariant) {
  // The aggregation recipe fleet/serve use: fixed chunking, one private
  // sketch per chunk, merged IN CHUNK ORDER. The result must be
  // bit-identical no matter how many threads built the chunk sketches.
  constexpr size_t kChunks = 8;
  constexpr size_t kPerChunk = 5000;

  auto build_merged = [&](size_t threads) {
    std::vector<obs::QuantileSketch> parts(kChunks);
    exec::parallel_for(
        kChunks,
        [&](size_t c) {
          for (double v : chunk_values(c, kPerChunk)) parts[c].add(v);
        },
        threads);
    obs::QuantileSketch merged;
    for (const obs::QuantileSketch& p : parts) merged.merge(p);
    return merged;
  };

  const obs::QuantileSketch reference = build_merged(1);
  for (size_t threads : {2u, 4u, 8u}) {
    const obs::QuantileSketch merged = build_merged(threads);
    EXPECT_EQ(merged.count(), reference.count());
    EXPECT_EQ(merged.sum(), reference.sum());
    for (double q = 0.0; q <= 1.0; q += 0.01)
      EXPECT_EQ(merged.quantile(q), reference.quantile(q))
          << "threads=" << threads << " q=" << q;
  }
}

TEST(QuantileSketch, MergeAssociativityProperty) {
  // Exact bit-associativity is impossible for a KLL compactor (the
  // grouping changes which compactions fire), so the contract is:
  // count/sum/min/max agree EXACTLY under any grouping, and every
  // grouping's quantiles stay within rank tolerance of the exact
  // stream quantiles.
  constexpr size_t kChunks = 6;
  constexpr size_t kPerChunk = 4000;
  std::vector<obs::QuantileSketch> parts(kChunks);
  std::vector<double> all;
  for (size_t c = 0; c < kChunks; ++c)
    for (double v : chunk_values(c, kPerChunk)) {
      parts[c].add(v);
      all.push_back(v);
    }

  // Grouping 1: left fold ((((a b) c) d) ...).
  obs::QuantileSketch left;
  for (const obs::QuantileSketch& p : parts) left.merge(p);
  // Grouping 2: balanced pairs ((a b) (c d) (e f)).
  obs::QuantileSketch balanced;
  for (size_t c = 0; c + 1 < kChunks; c += 2) {
    obs::QuantileSketch pair = parts[c];
    pair.merge(parts[c + 1]);
    balanced.merge(pair);
  }
  // Grouping 3: right fold (a (b (c ...))).
  obs::QuantileSketch right;
  for (size_t c = kChunks; c-- > 0;) {
    obs::QuantileSketch tail = parts[c];
    tail.merge(right);
    right = tail;
  }

  for (const obs::QuantileSketch* s : {&left, &balanced, &right}) {
    EXPECT_EQ(s->count(), kChunks * kPerChunk);
    // The sum is accumulated in grouping order, so it is only equal up
    // to floating-point reassociation; count/extrema are exact.
    EXPECT_NEAR(s->sum(), left.sum(), 1e-9 * std::abs(left.sum()));
    EXPECT_EQ(s->min(), left.min());
    EXPECT_EQ(s->max(), left.max());
    check_rank_errors(*s, all, 0.02);
  }
}

// --- Sketch registry instrument ----------------------------------------

/// Restores recording even when an assertion aborts the test early.
struct EnabledGuard {
  ~EnabledGuard() { obs::set_enabled(true); }
};

TEST(SketchInstrument, ExactTotalsUnderConcurrentRecording) {
  obs::MetricsRegistry registry;
  obs::Sketch& s = registry.sketch("lat");
  constexpr size_t kTasks = 32;
  constexpr size_t kPerTask = 2000;
  exec::parallel_for(
      kTasks,
      [&](size_t t) {
        for (size_t i = 0; i < kPerTask; ++i)
          s.record(static_cast<double>(t * kPerTask + i));
      },
      8);
  const obs::Sketch::Snapshot snap = s.snapshot();
  constexpr size_t kN = kTasks * kPerTask;
  EXPECT_EQ(snap.count, kN);
  EXPECT_EQ(snap.min, 0.0);
  EXPECT_EQ(snap.max, static_cast<double>(kN - 1));
  // Integer samples sum exactly in a double (< 2^53) in any shard
  // order, so the total matches a serial run at every thread count.
  EXPECT_EQ(snap.sum, static_cast<double>(kN * (kN - 1) / 2));
  // The p50 of 0..N-1 must land near N/2 regardless of how samples
  // were scattered over shards.
  EXPECT_NEAR(snap.p50, static_cast<double>(kN) / 2.0,
              0.03 * static_cast<double>(kN));
}

TEST(SketchInstrument, KillSwitchStopsRecording) {
  const EnabledGuard guard;
  obs::MetricsRegistry registry;
  obs::Sketch& s = registry.sketch("gated");
  obs::set_enabled(false);
  s.record(1.0);
  obs::set_enabled(true);
  s.record(2.0);
  const obs::Sketch::Snapshot snap = s.snapshot();
  EXPECT_EQ(snap.count, 1u);
  EXPECT_EQ(snap.max, 2.0);
}

TEST(SketchInstrument, ReRegistrationWithDifferentKRefused) {
  obs::MetricsRegistry registry;
  obs::Sketch& s = registry.sketch("k_pinned", 64);
  EXPECT_EQ(&registry.sketch("k_pinned", 64), &s);
  EXPECT_THROW(registry.sketch("k_pinned", 128), SimError);
}

TEST(SketchInstrument, MergeInFoldsWorkerSketch) {
  obs::MetricsRegistry registry;
  obs::Sketch& s = registry.sketch("folded");
  obs::QuantileSketch worker;
  for (int i = 1; i <= 100; ++i) worker.add(static_cast<double>(i));
  s.merge_in(worker);
  s.record(1000.0);
  const obs::Sketch::Snapshot snap = s.snapshot();
  EXPECT_EQ(snap.count, 101u);
  EXPECT_EQ(snap.max, 1000.0);
}

// --- span tracer -------------------------------------------------------

/// Turns tracing off and clears the rings when the test ends, so trace
/// state never leaks between tests (tracing is process-global).
struct TraceGuard {
  explicit TraceGuard(bool on) {
    obs::trace_reset();
    obs::set_trace_enabled(on);
  }
  ~TraceGuard() {
    obs::set_trace_enabled(false);
    obs::trace_reset();
  }
};

const obs::SpanRecord* find_span(const std::vector<obs::SpanRecord>& spans,
                                 const std::string& name) {
  for (const obs::SpanRecord& s : spans)
    if (s.name != nullptr && name == s.name) return &s;
  return nullptr;
}

TEST(Trace, DisabledByDefaultRecordsNothing) {
  const TraceGuard guard(false);
  { const obs::TraceSpan span("t.should_not_record"); }
  obs::trace_emit("t.also_not", 0.0, 1.0);
  EXPECT_EQ(find_span(obs::TraceCollector().collect(), "t.should_not_record"),
            nullptr);
  EXPECT_EQ(find_span(obs::TraceCollector().collect(), "t.also_not"),
            nullptr);
}

TEST(Trace, NestingRecordsParentChildChain) {
  const TraceGuard guard(true);
  {
    const obs::TraceSpan outer("t.outer");
    {
      const obs::TraceSpan mid("t.mid");
      const obs::TraceSpan inner("t.inner");
    }
  }
  const std::vector<obs::SpanRecord> spans =
      obs::TraceCollector().collect();
  const obs::SpanRecord* outer = find_span(spans, "t.outer");
  const obs::SpanRecord* mid = find_span(spans, "t.mid");
  const obs::SpanRecord* inner = find_span(spans, "t.inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(mid, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->parent, 0u);
  EXPECT_EQ(mid->parent, outer->id);
  EXPECT_EQ(inner->parent, mid->id);
  EXPECT_EQ(outer->depth, 0u);
  EXPECT_EQ(mid->depth, 1u);
  EXPECT_EQ(inner->depth, 2u);
  // Children nest inside the parent's interval.
  EXPECT_GE(mid->ts_us, outer->ts_us);
  EXPECT_LE(mid->ts_us + mid->dur_us, outer->ts_us + outer->dur_us + 1.0);
}

TEST(Trace, EmitAttachesToActiveSpan) {
  const TraceGuard guard(true);
  {
    const obs::TraceSpan outer("t.emit_parent");
    obs::trace_emit("t.emitted", 123.0, 45.0);
  }
  const std::vector<obs::SpanRecord> spans =
      obs::TraceCollector().collect();
  const obs::SpanRecord* parent = find_span(spans, "t.emit_parent");
  const obs::SpanRecord* emitted = find_span(spans, "t.emitted");
  ASSERT_NE(parent, nullptr);
  ASSERT_NE(emitted, nullptr);
  EXPECT_EQ(emitted->parent, parent->id);
  EXPECT_EQ(emitted->ts_us, 123.0);
  EXPECT_EQ(emitted->dur_us, 45.0);
}

TEST(Trace, RingOverwritesOldestBeyondCapacity) {
  const TraceGuard guard(true);
  for (size_t i = 0; i < 3 * obs::kTraceRingCapacity; ++i)
    obs::trace_emit("t.flood", static_cast<double>(i), 1.0);
  const std::vector<obs::SpanRecord> spans =
      obs::TraceCollector().collect();
  size_t flood = 0;
  double newest_ts = -1.0;
  for (const obs::SpanRecord& s : spans)
    if (s.name != nullptr && std::string("t.flood") == s.name) {
      ++flood;
      newest_ts = std::max(newest_ts, s.ts_us);
    }
  EXPECT_LE(flood, obs::kTraceRingCapacity);
  EXPECT_GE(flood, obs::kTraceRingCapacity / 2);
  // Newest-wins: the very last record survives the overwrites.
  EXPECT_EQ(newest_ts,
            static_cast<double>(3 * obs::kTraceRingCapacity - 1));
}

TEST(Trace, ChromeJsonIsWellFormedV1) {
  const TraceGuard guard(true);
  {
    const obs::TraceSpan outer("t.json_outer");
    const obs::TraceSpan inner("t.json_inner");
  }
  const Json doc = obs::TraceCollector().to_chrome_json();
  const Json* schema = doc.find("schema");
  ASSERT_NE(schema, nullptr);
  EXPECT_EQ(schema->as_string(), "otem.trace.v1");
  const Json* unit = doc.find("displayTimeUnit");
  ASSERT_NE(unit, nullptr);
  EXPECT_EQ(unit->as_string(), "ms");
  const Json* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_GE(events->size(), 2u);
  for (size_t i = 0; i < events->size(); ++i) {
    const Json& e = events->at(i);
    ASSERT_NE(e.find("name"), nullptr);
    ASSERT_NE(e.find("ts"), nullptr);
    ASSERT_NE(e.find("dur"), nullptr);
    ASSERT_NE(e.find("pid"), nullptr);
    ASSERT_NE(e.find("tid"), nullptr);
    EXPECT_EQ(e.find("ph")->as_string(), "X");
    EXPECT_EQ(e.find("cat")->as_string(), "otem");
  }
  // The serialized document must round-trip through the parser (what
  // bench/check_trace.py does to the written file).
  const Json reparsed = Json::parse(doc.dump(0));
  EXPECT_EQ(reparsed.find("schema")->as_string(), "otem.trace.v1");
}

TEST(Trace, ChromeExportIdsAreUniqueAndParentsEncloseTheirChildren) {
  // Nested spans on two threads, read back from the written bytes: no
  // two events may share an id, and every non-zero parent must name an
  // exported span on the child's tid whose interval encloses the child.
  const TraceGuard guard(true);
  constexpr int kOuter = 40;
  const auto nest = [] {
    for (int i = 0; i < kOuter; ++i) {
      const obs::TraceSpan outer("t.export_outer");
      for (int j = 0; j < 3; ++j) {
        const obs::TraceSpan mid("t.export_mid");
        const obs::TraceSpan inner("t.export_inner");
      }
    }
  };
  std::thread other(nest);
  nest();
  other.join();

  const Json doc = Json::parse(obs::TraceCollector().to_chrome_json().dump(0));
  const Json& events = *doc.find("traceEvents");
  struct Event {
    double tid, ts, dur;
  };
  std::map<double, Event> by_id;
  for (size_t i = 0; i < events.size(); ++i) {
    const Json& e = events.at(i);
    const double id = e.find("args")->find("id")->as_number();
    EXPECT_TRUE(by_id
                    .emplace(id, Event{e.find("tid")->as_number(),
                                       e.find("ts")->as_number(),
                                       e.find("dur")->as_number()})
                    .second)
        << "two events share id " << id;
  }
  ASSERT_EQ(events.size(), 2u * kOuter * 7);

  size_t children = 0;
  for (size_t i = 0; i < events.size(); ++i) {
    const Json& e = events.at(i);
    const double parent = e.find("args")->find("parent")->as_number();
    if (parent == 0.0) continue;
    ++children;
    const auto it = by_id.find(parent);
    ASSERT_NE(it, by_id.end()) << "parent " << parent << " is not exported";
    const Event& p = it->second;
    const double tid = e.find("tid")->as_number();
    const double ts = e.find("ts")->as_number();
    const double end = ts + e.find("dur")->as_number();
    EXPECT_EQ(p.tid, tid);
    // Timestamps are written to 12 significant digits.
    const double slack = 1e-11 * std::abs(ts);
    EXPECT_LE(p.ts, ts + slack);
    EXPECT_GE(p.ts + p.dur + slack, end);
  }
  EXPECT_EQ(children, 2u * kOuter * 6);
}

TEST(Trace, ChromeExportKeepsSubMicrosecondPlacementLongAfterBoot) {
  // Two spans 0.25 us apart at 2e11 us of steady clock (2.3 days of
  // uptime). Written as absolute microseconds through the 12-digit
  // number writer both read 200000000000; relative to the earliest
  // exported span they read 0 and 0.25.
  const TraceGuard guard(true);
  obs::trace_emit("t.late_a", 2e11, 1.0);
  obs::trace_emit("t.late_b", 2e11 + 0.25, 1.0);
  const Json doc = Json::parse(obs::TraceCollector().to_chrome_json().dump(0));
  const Json& events = *doc.find("traceEvents");
  ASSERT_EQ(events.size(), 2u);
  std::map<std::string, double> ts;
  for (size_t i = 0; i < events.size(); ++i)
    ts[events.at(i).find("name")->as_string()] =
        events.at(i).find("ts")->as_number();
  EXPECT_EQ(ts.at("t.late_a"), 0.0);
  EXPECT_EQ(ts.at("t.late_b") - ts.at("t.late_a"), 0.25);
}

TEST(Trace, WriteChromeTraceRoundTrips) {
  const TraceGuard guard(true);
  { const obs::TraceSpan span("t.file_span"); }
  const std::string path = temp_path("trace.json");
  obs::TraceCollector().write_chrome_trace(path);
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  const Json doc = Json::parse(buf.str());
  EXPECT_EQ(doc.find("schema")->as_string(), "otem.trace.v1");
  EXPECT_GE(doc.find("traceEvents")->size(), 1u);
  std::remove(path.c_str());
}

TEST(Trace, SummariesAggregateByName) {
  const TraceGuard guard(true);
  for (int i = 0; i < 5; ++i) obs::trace_emit("t.summary", 0.0, 10.0);
  obs::trace_emit("t.summary", 0.0, 30.0);
  const std::vector<obs::TraceCollector::SpanSummary> sums =
      obs::TraceCollector().summaries();
  const auto it = std::find_if(
      sums.begin(), sums.end(),
      [](const auto& s) { return s.name == "t.summary"; });
  ASSERT_NE(it, sums.end());
  EXPECT_EQ(it->count, 6u);
  EXPECT_EQ(it->total_us, 80.0);
  EXPECT_EQ(it->max_us, 30.0);
}

TEST(Trace, ConcurrentWritersAndDrainIsSafe) {
  // Writers hammer their rings while the main thread drains: the TSan
  // CI job runs this test to certify the lock-free recorder. Values
  // are not asserted (a record mid-overwrite may be torn by design) —
  // only that every drained record is structurally sane.
  const TraceGuard guard(true);
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t)
    writers.emplace_back([&stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        const obs::TraceSpan outer("t.hammer_outer");
        const obs::TraceSpan inner("t.hammer_inner");
      }
    });
  for (int i = 0; i < 50; ++i) {
    const std::vector<obs::SpanRecord> spans =
        obs::TraceCollector().collect();
    for (const obs::SpanRecord& s : spans) EXPECT_GT(s.tid, 0u);
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& w : writers) w.join();
}

}  // namespace
}  // namespace otem
