//===- TraceRing.h - Per-thread flight recorder --------------------*- C++ -*-===//
//
// Part of the MTE4JNI reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A per-thread flight recorder: each thread slot (support/PerThread.h)
/// owns a lock-free ring of fixed-size (24-byte) trace events — JNI
/// crossings, TagTable acquire/release with outcome code, tag-check scans
/// with the store level that resolved them, GC phases, TLAB refills,
/// faults. It is the repository's only tracer, and it is always on at a
/// ~1/64 sampling rate so the last few thousand events per thread are
/// available after the fact — from a tombstone, a bench run, or a hung
/// process — without having asked in advance. A slot's ring outlives its
/// thread: its events stay exportable until the slot's next owner records.
///
/// Three observability levels, selected at run time:
///
///   0 (Off)      hot paths pay one relaxed load + predicted branch
///   1 (Sampled)  default; hot events and latency samples at ~1/64
///   2 (Full)     every event; for tests and trace captures
///
/// Sampling uses a per-thread LCG, not a shared modular counter: in an
/// acquire/release loop a shared counter strides by 2 per operation, so a
/// "(counter & 63) == 0" gate would only ever sample one of the two call
/// sites. Randomness decorrelates sites from loop periodicity.
///
/// Ring slots are triples of relaxed std::atomic<uint64_t> so a concurrent
/// exporter reads them without data races (slices torn across words at
/// wraparound are decoded defensively and dropped). One decision per
/// operation arms both the latency histogram and the flight slice
/// (SampledLatency), so an instrumented hot path costs a TLS load, one
/// 32-bit multiply-add, and a compare when the sample is not taken.
///
/// exportChromeJson() merges the per-thread rings into one Chrome
/// trace-event JSON timeline (loadable in chrome://tracing and Perfetto)
/// with a named lane per thread: Java threads, GC workers, pool workers.
///
//===----------------------------------------------------------------------===//

#ifndef MTE4JNI_SUPPORT_TRACERING_H
#define MTE4JNI_SUPPORT_TRACERING_H

#include "mte4jni/support/Compiler.h"
#include "mte4jni/support/Metrics.h"
#include "mte4jni/support/Timer.h"

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

namespace mte4jni::support {

/// What a flight event describes. Kept to one byte in the ring slot.
enum class FlightKind : uint8_t {
  None = 0,     ///< sentinel: slot empty / latency-only SampledLatency
  JniCrossing,  ///< Trampoline::callNative; Arg = NativeKind
  JniAcquire,   ///< JNI Get*ArrayElements / GetPrimitiveArrayCritical
  JniRelease,   ///< JNI Release*ArrayElements / ReleasePrimitiveArrayCritical
  TagAcquire,   ///< TagAllocator::acquire; Arg = outcome (0 fast,
                ///< 1+reason, or kTagOutcomeMutex)
  TagRelease,   ///< TagAllocator::release; Arg = outcome as TagAcquire
  CheckScan,    ///< mte tag-check range scan; Arg2 = granules
  GcPhase,      ///< Arg = GcFlightPhase
  TlabRefill,   ///< Arg2 = bytes taken from the shared frontier
  Fault,        ///< Arg = 0 sync, 1 async
  kNumKinds
};

/// Why a TagTable acquire/release took the slow path. Exported both as
/// `core/tagtable/slow_reason/<name>` counters and as the outcome byte of
/// TagAcquire/TagRelease flight events (offset by 1; outcome 0 = fast).
/// This is the taxonomy that attributes the ROADMAP's acquire_fast = 0.
enum class TagSlowReason : uint8_t {
  SlotCold = 0,   ///< key not in the slot array: first acquire, or spilled
  FirstHolder,    ///< refcount 0 -> 1: tagging memory must serialize on the shard
  LastHolder,     ///< refcount 1 -> 0: clearing tags must serialize on the shard
  ShardLockWait,  ///< the slow path had to wait for the shard mutex (two
                  ///< try-lock probes failed before blocking) — not merely
                  ///< "held at probe time"
  OverflowSpill,  ///< probe window exhausted; entry lives in the locked map
  Orphan,         ///< release of an entry already at refcount 0
  DeferredReclaim, ///< lingering budget exhausted: the release must clear
                   ///< tags exactly instead of deferring
  kNumReasons
};

/// Outcome byte of TagAcquire/TagRelease events on the TwoTierMutex and
/// GlobalLock table kinds, which take a mutex on every operation
/// ("TagTable.acquire.mutex").
constexpr uint8_t kTagOutcomeMutex = 0xFF;

/// Stable lowercase-underscore name for metrics ("slot_cold", ...).
const char *tagSlowReasonName(TagSlowReason Reason);

/// GC phase ids for GcPhase flight events.
enum class GcFlightPhase : uint8_t {
  Collect = 0,
  Mark,
  Sweep,
  Compact,
  Verify,
  /// The stop-the-world window itself (beginPause..endPause), a superset
  /// of Mark/Sweep/Compact/Verify. Exported so pause slices line up with
  /// the rt/gc/pause_nanos histogram tails.
  Pause,
  /// Time-to-safepoint: from the pause request until the last critical
  /// section drained (the front of the Pause slice). Lines up with the
  /// rt/gc/ttsp_nanos histogram.
  Ttsp,
  kNumPhases
};

/// Runtime flight-recorder mode (mirrors obs levels 1/2/0; the odd
/// ordering keeps Sampled the zero-initialised default).
enum class FlightMode : uint8_t { Sampled = 0, Full = 1, Off = 2 };

namespace obs {

/// Runtime observability level: 0 off, 1 sampled, 2 full. Relaxed loads
/// only on hot paths.
extern std::atomic<uint8_t> LevelFlag;

/// Per-thread LCG state for sampleTick(). constinit zero, on this
/// declaration too: plain TLS load, no dynamic-init guard; the LCG walks
/// the full 2^32 period from any seed.
extern thread_local constinit uint32_t SampleLcg;

/// Sets the runtime level (values above 2 mean 2).
void setLevel(unsigned Level);
unsigned level();

/// FlightMode (api surface) -> level mapping.
void setMode(FlightMode Mode);

/// Advances the per-thread LCG; true on ~1/64 of calls.
M4J_ALWAYS_INLINE bool sampleTick() {
  uint32_t S = SampleLcg * 1664525u + 1013904223u;
  SampleLcg = S;
  return (S >> 26) == 0;
}

/// Gate for hot-path events: false at level 0, ~1/64 at level 1, always
/// at level 2.
M4J_ALWAYS_INLINE bool armSampled() {
  unsigned L = LevelFlag.load(std::memory_order_relaxed);
  if (M4J_LIKELY(L == 1))
    return sampleTick();
  return L != 0;
}

/// Gate for cold events (GC phases, TLAB refills, faults): recorded at
/// every level except Off.
M4J_ALWAYS_INLINE bool coldArmed() {
  return LevelFlag.load(std::memory_order_relaxed) != 0;
}

} // namespace obs

/// Static facade over the per-thread rings.
class FlightRecorder {
public:
  /// Events retained per thread. 2048 * 24 bytes = 48 KiB per ring, one
  /// ring per thread slot.
  static constexpr size_t kRingEvents = 2048;

  /// Appends one event to the calling thread's ring (taking over its
  /// slot's ring on first use). Callers gate on obs::armSampled()/coldArmed(); record()
  /// itself never samples. DurNanos saturates at ~4.29 s (32 bits).
  static void record(FlightKind Kind, uint8_t Arg, uint32_t Arg2,
                     uint64_t StartNanos, uint64_t DurNanos);

  /// Names the calling thread's lane in exported traces ("main",
  /// "gc-worker-3", ...). Last writer wins.
  static void setThreadLabel(std::string_view Label);

  /// Merges every thread's ring into Chrome trace-event JSON: "X" slices
  /// with microsecond (fractional) timestamps, one tid lane per ring,
  /// process/thread metadata records, and a top-level droppedEvents count
  /// for events that wrapped out of a ring.
  static std::string exportChromeJson();

  /// Events currently retained across all rings (post-wrap).
  static uint64_t eventCount();

  /// Events ever recorded (including wrapped-out ones).
  static uint64_t totalRecorded();

  /// Empties every ring (retained for reuse). For tests and bench phases.
  static void clear();
};

/// RAII flight slice for paths without a latency histogram. Arms at
/// construction via obs::armSampled(); Arg/Arg2 may be filled in mid-scope
/// once the outcome is known.
class FlightScope {
public:
  explicit FlightScope(FlightKind Kind, uint8_t Arg = 0, uint32_t Arg2 = 0)
      : Kind(Kind), Arg(Arg), Arg2(Arg2),
        StartNanos(obs::armSampled() ? monotonicNanos() : 0) {}

  ~FlightScope() {
    if (StartNanos != 0)
      FlightRecorder::record(Kind, Arg, Arg2, StartNanos,
                             monotonicNanos() - StartNanos);
  }

  FlightScope(const FlightScope &) = delete;
  FlightScope &operator=(const FlightScope &) = delete;

  bool armed() const { return StartNanos != 0; }
  void setArg(uint8_t A) { Arg = A; }
  void setArg2(uint32_t A) { Arg2 = A; }

private:
  FlightKind Kind;
  uint8_t Arg;
  uint32_t Arg2;
  uint64_t StartNanos;
};

/// RAII: one sampling decision arms BOTH a latency-histogram record and
/// (when Kind != None) a flight slice — the cost of instrumenting a hot
/// path is paid once, and the 2x clock_gettime is only taken on sampled
/// iterations. This is what keeps the <3% overhead budget: timing every
/// call costs ~40 ns of clock reads, ~28% of a ~140 ns acquire.
class SampledLatency {
public:
  explicit SampledLatency(Histogram &H, FlightKind Kind = FlightKind::None,
                          uint8_t Arg = 0, uint32_t Arg2 = 0)
      : H(H), Kind(Kind), Arg(Arg), Arg2(Arg2),
        StartNanos(obs::armSampled() ? monotonicNanos() : 0) {}

  ~SampledLatency() {
    if (StartNanos == 0)
      return;
    uint64_t Dur = monotonicNanos() - StartNanos;
    H.record(Dur);
    if (Kind != FlightKind::None)
      FlightRecorder::record(Kind, Arg, Arg2, StartNanos, Dur);
  }

  SampledLatency(const SampledLatency &) = delete;
  SampledLatency &operator=(const SampledLatency &) = delete;

  bool armed() const { return StartNanos != 0; }
  void setArg(uint8_t A) { Arg = A; }
  void setArg2(uint32_t A) { Arg2 = A; }

private:
  Histogram &H;
  FlightKind Kind;
  uint8_t Arg;
  uint32_t Arg2;
  uint64_t StartNanos;
};

} // namespace mte4jni::support

#endif // MTE4JNI_SUPPORT_TRACERING_H
