//===- Metrics.h - Process-wide metrics registry --------------------*- C++ -*-===//
//
// Part of the MTE4JNI reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An always-compiled-in, near-zero-overhead observability subsystem: a
/// named registry of counters, gauges and log-scale histograms, plus a
/// bounded ring of recent MTE fault telemetry.
///
/// The paper evaluates MTE4JNI almost entirely through counters it had to
/// collect ad hoc (tag-check overheads, detection rates, per-interface JNI
/// costs); this registry makes those counters first-class so every bench
/// and every Session run can export them.
///
/// Cost model (why instrumented hot paths stay hot):
///
///   * Counter::add is a plain load+store on a cache-line-aligned cell only
///     the calling thread writes, one per thread slot (support/PerThread.h)
///     at any thread count: no atomic RMW, which alone costs tens of
///     nanoseconds on virtualised hosts. With at most 16 live threads it is
///     a TLS load, a compare, and the cell's load and store.
///   * Gauges are single atomics — used only on paths that already hold a
///     lock (heap occupancy) or are cold (high-water marks).
///   * Histogram::record is a log2 bucket pick plus three plain adds and a
///     min/max update on the thread's cell — used for GC phase durations
///     and sampled latencies, not per-access.
///   * Per-access paths add to no registry cell at all: the tag check
///     counts loads, stores, granules and region-cache hits in its own
///     mte::ThreadState, and the mte/access/* names that report them are
///     derived counters summed at snapshot time (registerDerived).
///   * Registration (name lookup) takes a mutex, but instrumented call
///     sites do it once via a function-local static reference:
///
///       static support::Counter &Hits =
///           support::Metrics::counter("core/tagtable/lockfree/acquire_fast");
///       Hits.add();
///
/// snapshot() aggregates everything; exporters render JSON and
/// Prometheus-style text exposition. The registry is a leaked singleton:
/// metric references never dangle, even from thread_local destructors.
///
//===----------------------------------------------------------------------===//

#ifndef MTE4JNI_SUPPORT_METRICS_H
#define MTE4JNI_SUPPORT_METRICS_H

#include "mte4jni/support/Compiler.h"
#include "mte4jni/support/PerThread.h"
#include "mte4jni/support/SpinLock.h"
#include "mte4jni/support/Timer.h"

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace mte4jni::support {

/// Monotonically increasing event count, one cell per thread slot.
class Counter {
public:
  M4J_ALWAYS_INLINE void add(uint64_t N = 1) { ownerAdd(Cells.local().V, N); }

  /// Sum over all cells (relaxed; exact once writers are quiescent).
  uint64_t value() const;
  void reset();

private:
  struct alignas(64) Cell {
    std::atomic<uint64_t> V{0};
  };
  PerThread<Cell> Cells;
};

/// A settable signed level (heap occupancy, live entries, high-water
/// marks). Not sharded: set/max semantics don't distribute.
class Gauge {
public:
  void set(int64_t X) { V.store(X, std::memory_order_relaxed); }
  void add(int64_t N) { V.fetch_add(N, std::memory_order_relaxed); }
  /// Raises the gauge to \p X if it is below (high-water-mark semantics).
  void updateMax(int64_t X) {
    int64_t Cur = V.load(std::memory_order_relaxed);
    while (Cur < X &&
           !V.compare_exchange_weak(Cur, X, std::memory_order_relaxed))
      ;
  }
  int64_t value() const { return V.load(std::memory_order_relaxed); }
  void reset() { V.store(0, std::memory_order_relaxed); }

private:
  std::atomic<int64_t> V{0};
};

/// Log-scale (power-of-two bucket) histogram of a non-negative quantity;
/// instrumented sites record nanoseconds. Bucket B counts values whose
/// bit width is B, i.e. value in [2^(B-1), 2^B) for B >= 1 and {0} for
/// B == 0 — ~2x resolution over the full uint64 range, fixed memory.
class Histogram {
public:
  static constexpr unsigned kBuckets = 64;

  static constexpr unsigned bucketOf(uint64_t Value) {
    // Clamp: bit-width-64 values (>= 2^63) share the top bucket.
    unsigned Width =
        Value == 0 ? 0u
                   : 64u - static_cast<unsigned>(std::countl_zero(Value));
    return Width < kBuckets ? Width : kBuckets - 1;
  }
  /// Exclusive upper bound of bucket \p B (saturates at UINT64_MAX).
  static constexpr uint64_t bucketUpperBound(unsigned B) {
    return B >= 63 ? UINT64_MAX : (uint64_t(1) << B);
  }

  M4J_ALWAYS_INLINE void record(uint64_t Value) {
    Cell &S = Cells.local();
    ownerAdd(S.Buckets[bucketOf(Value)], 1);
    ownerAdd(S.Count, 1);
    ownerAdd(S.Sum, Value);
    if (Value < S.Min.load(std::memory_order_relaxed))
      S.Min.store(Value, std::memory_order_relaxed);
    if (Value > S.Max.load(std::memory_order_relaxed))
      S.Max.store(Value, std::memory_order_relaxed);
  }

  uint64_t count() const;
  uint64_t sum() const;
  /// Smallest / largest value ever recorded; both 0 when empty.
  uint64_t minValue() const;
  uint64_t maxValue() const;
  void reset();

  /// Aggregated buckets (index = bit width, see bucketOf).
  std::array<uint64_t, kBuckets> bucketCounts() const;

private:
  struct Cell;
  /// Folds \p Op over one field of every cell, starting from \p Init.
  template <typename OpT>
  uint64_t fold(std::atomic<uint64_t> Cell::*Field, uint64_t Init,
                OpT Op) const {
    Cells.forEach([&](const Cell &C) {
      Init = Op(Init, (C.*Field).load(std::memory_order_relaxed));
    });
    return Init;
  }

  struct alignas(64) Cell {
    std::atomic<uint64_t> Buckets[kBuckets] = {};
    std::atomic<uint64_t> Count{0};
    std::atomic<uint64_t> Sum{0};
    std::atomic<uint64_t> Min{UINT64_MAX};
    std::atomic<uint64_t> Max{0};
  };
  PerThread<Cell> Cells;
};

// ==== fault telemetry =====================================================

/// One MTE fault, flattened for the telemetry ring. The library layering
/// is support <- mte, so this mirrors (rather than includes) the fields of
/// mte::FaultRecord that matter for triage.
struct FaultEvent {
  uint64_t Sequence = 0; ///< assigned by the ring, starts at 0
  uint64_t TimestampNanos = 0;
  std::string Kind;  ///< e.g. "SEGV_MTESERR (sync tag-check fault)"
  bool HasAddress = false;
  uint64_t Address = 0;
  uint8_t PointerTag = 0;
  uint8_t MemoryTag = 0;
  bool IsWrite = false;
  uint32_t AccessSize = 0;
  uint64_t ThreadId = 0;
  /// Innermost-first frame summary, " <- " separated (bounded).
  std::string Backtrace;
};

/// Bounded last-N ring of fault telemetry. Faults are cold (each one is a
/// detected memory-safety violation), so a spinlock is fine here.
class FaultRing {
public:
  static constexpr size_t kCapacity = 64;

  /// Records \p Event, stamping Sequence and TimestampNanos (if zero).
  void record(FaultEvent Event);

  /// Oldest-first snapshot of the retained window.
  std::vector<FaultEvent> snapshot() const;

  /// Faults ever recorded (including ones that wrapped out of the ring).
  uint64_t totalRecorded() const;

  void clear();

private:
  mutable SpinLock Lock;
  FaultEvent Ring[kCapacity];
  uint64_t Next = 0; ///< == totalRecorded; Ring[Next % kCapacity] is oldest
};

// ==== snapshots and export ================================================

struct CounterSample {
  std::string Name;
  uint64_t Value = 0;
};

struct GaugeSample {
  std::string Name;
  int64_t Value = 0;
};

struct HistogramSample {
  std::string Name;
  uint64_t Count = 0;
  uint64_t Sum = 0;
  uint64_t Min = 0; ///< exact smallest recorded value (0 when empty)
  uint64_t Max = 0; ///< exact largest recorded value (0 when empty)
  std::array<uint64_t, Histogram::kBuckets> Buckets = {};

  double mean() const { return Count ? double(Sum) / double(Count) : 0.0; }
  /// Upper bound of the bucket containing the \p P-th percentile
  /// (P in [0, 100]); 0 when empty.
  uint64_t percentileUpperBound(double P) const;
};

/// A consistent-enough point-in-time aggregation of every registered
/// metric (relaxed reads; exact when writers are quiescent), sorted by
/// name for deterministic export.
struct MetricsSnapshot {
  std::vector<CounterSample> Counters;
  std::vector<GaugeSample> Gauges;
  std::vector<HistogramSample> Histograms;
  std::vector<FaultEvent> Faults;
  uint64_t FaultsTotal = 0;

  /// Counter value by exact name; \p Default when absent.
  uint64_t counterValue(std::string_view Name, uint64_t Default = 0) const;
  int64_t gaugeValue(std::string_view Name, int64_t Default = 0) const;
  const HistogramSample *histogram(std::string_view Name) const;

  /// Machine-readable JSON document (counters/gauges/histograms/faults).
  std::string toJson() const;

  /// toJson() flattened onto a single line (no raw newlines) so a snapshot
  /// can be one record of a JSONL stream. String values are \n-escaped by
  /// jsonEscape, so every newline in the pretty document is inter-token
  /// whitespace and can be dropped wholesale.
  std::string toJsonLine() const;

  /// Prometheus-style text exposition (metric names sanitised to
  /// [a-zA-Z0-9_:] and prefixed "m4j_"; histograms emit cumulative
  /// _bucket{le=...} series plus _sum/_count).
  std::string toPrometheusText() const;
};

/// A derived counter's read callback (capture-free: evaluated at snapshot
/// time, summing other counters or per-thread cells).
using DerivedCounterFn = uint64_t (*)();

/// A derived counter's reset callback, for per-thread cells resetAll()
/// must not write; it records a baseline the read callback subtracts.
using DerivedResetFn = void (*)();

/// The process-wide registry façade.
class Metrics {
public:
  /// Finds or creates the named metric. References stay valid for the
  /// life of the process — cache them in a function-local static at the
  /// instrumented call site. Re-registering a name with a different
  /// metric type is a programming error (asserts).
  static Counter &counter(const char *Name);
  static Gauge &gauge(const char *Name);
  static Histogram &histogram(const char *Name);

  /// Registers a zero-hot-path-cost counter whose value is computed by
  /// \p Fn at snapshot time — for aggregates over per-path counters
  /// ("acquires" = fast + slow + ...) and for the per-thread access cells
  /// of mte::ThreadState. Either kind must read 0 after resetAll(): a sum
  /// of registry counters does by construction, anything else needs
  /// \p Reset. Re-registering a name replaces the callbacks (idempotent
  /// registration). resetAll() calls \p Reset, when given, outside the
  /// registry lock.
  static void registerDerived(const char *Name, DerivedCounterFn Fn,
                              DerivedResetFn Reset = nullptr);

  static FaultRing &faultRing();

  static MetricsSnapshot snapshot();

  /// Zeroes every registered metric (derived ones through their reset
  /// callback) and clears the fault ring. For tests and benchmark phase
  /// boundaries; registration is never undone. The registry is the only
  /// counter store, so after this every counter reads 0.
  static void resetAll();

  /// Number of completed resetAll() calls: a reader that keeps a baseline
  /// snapshot checks it to tell whether the baseline still applies.
  static uint64_t resetCount();
};

/// Escapes \p Text for embedding in a JSON string literal.
std::string jsonEscape(std::string_view Text);

} // namespace mte4jni::support

#endif // MTE4JNI_SUPPORT_METRICS_H
