//===- TraceRing.cpp - Per-thread flight recorder -------------------------===//
//
// Part of the MTE4JNI reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "mte4jni/support/TraceRing.h"

#include <array>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <mutex>
#include <vector>

namespace mte4jni::support {

namespace obs {

std::atomic<uint8_t> LevelFlag{1};
thread_local constinit uint32_t SampleLcg = 0;

void setLevel(unsigned Level) {
  if (Level > 2)
    Level = 2;
  LevelFlag.store(static_cast<uint8_t>(Level), std::memory_order_relaxed);
}

unsigned level() { return LevelFlag.load(std::memory_order_relaxed); }

void setMode(FlightMode Mode) {
  switch (Mode) {
  case FlightMode::Off:
    setLevel(0);
    break;
  case FlightMode::Sampled:
    setLevel(1);
    break;
  case FlightMode::Full:
    setLevel(2);
    break;
  }
}

} // namespace obs

const char *tagSlowReasonName(TagSlowReason Reason) {
  switch (Reason) {
  case TagSlowReason::SlotCold:
    return "slot_cold";
  case TagSlowReason::FirstHolder:
    return "first_holder";
  case TagSlowReason::LastHolder:
    return "last_holder";
  case TagSlowReason::ShardLockWait:
    return "shard_lock_wait";
  case TagSlowReason::OverflowSpill:
    return "overflow_spill";
  case TagSlowReason::Orphan:
    return "orphan";
  case TagSlowReason::DeferredReclaim:
    return "deferred_reclaim";
  case TagSlowReason::kNumReasons:
    break;
  }
  return "unknown";
}

namespace {

/// One ring entry: three independently-atomic words so writer and exporter
/// never race in the data-race sense. A slot being rewritten while read
/// decodes to a bogus combination at worst; the exporter drops those.
struct Slot {
  std::atomic<uint64_t> Start{0};   ///< monotonic nanoseconds; 0 = empty
  std::atomic<uint64_t> DurArg2{0}; ///< [dur_ns:32 | arg2:32]
  std::atomic<uint64_t> Meta{0};    ///< [.. | kind:8 | arg:8]
};

struct ThreadRing {
  std::array<Slot, FlightRecorder::kRingEvents> Slots;
  /// Next write position; Slots[(Head - k) % N] is the k-th newest event.
  std::atomic<uint64_t> Head{0};
  uint32_t Tid = 0;  ///< lane id: the thread slot + 1
  std::string Label; ///< guarded by Registry::Lock
};

/// One ring per thread slot, created by the slot's first recording owner
/// and reused by its later owners.
struct Registry {
  std::mutex Lock;
  PerThread<std::atomic<ThreadRing *>> Rings;
};

/// Leaked singleton: rings must outlive thread_local destructors.
Registry &registry() {
  static Registry *R = new Registry;
  return *R;
}

/// Whether this thread has cleared its slot's ring of a previous owner's.
thread_local constinit bool OwnsRing = false;

ThreadRing &threadRing() {
  Registry &R = registry();
  std::atomic<ThreadRing *> &Cell = R.Rings.local();
  ThreadRing *Ring = Cell.load(std::memory_order_relaxed);
  if (M4J_LIKELY(Ring != nullptr && OwnsRing))
    return *Ring;
  std::lock_guard<std::mutex> Guard(R.Lock);
  if (Ring == nullptr) {
    Ring = new ThreadRing;
    Ring->Tid = threadSlot() + 1;
    Cell.store(Ring, std::memory_order_release);
  } else {
    // The slot's previous owner exited; its events end here.
    Ring->Head.store(0, std::memory_order_relaxed);
    Ring->Label.clear();
  }
  OwnsRing = true;
  return *Ring;
}

/// Calls \p Fn on every ring, under Registry::Lock.
template <typename Fn> void forEachRing(Fn &&F) {
  Registry &R = registry();
  std::lock_guard<std::mutex> Guard(R.Lock);
  R.Rings.forEach([&](const std::atomic<ThreadRing *> &Cell) {
    if (ThreadRing *Ring = Cell.load(std::memory_order_acquire))
      F(*Ring);
  });
}

const char *flightCategory(FlightKind Kind) {
  switch (Kind) {
  case FlightKind::JniCrossing:
  case FlightKind::JniAcquire:
  case FlightKind::JniRelease:
    return "jni";
  case FlightKind::TagAcquire:
  case FlightKind::TagRelease:
    return "core/tagtable";
  case FlightKind::CheckScan:
    return "mte";
  case FlightKind::GcPhase:
    return "rt/gc";
  case FlightKind::TlabRefill:
    return "rt/heap";
  case FlightKind::Fault:
    return "mte/fault";
  case FlightKind::None:
  case FlightKind::kNumKinds:
    break;
  }
  return "?";
}

/// Display name for (kind, arg). All literals: export allocates nothing
/// per event beyond the output string.
const char *flightEventName(FlightKind Kind, uint8_t Arg) {
  switch (Kind) {
  case FlightKind::JniCrossing:
    switch (Arg) {
    case 0:
      return "JNI.call";
    case 1:
      return "JNI.call.fast";
    case 2:
      return "JNI.call.critical";
    default:
      return "JNI.call.?";
    }
  case FlightKind::JniAcquire:
    return "JNI.acquire";
  case FlightKind::JniRelease:
    return "JNI.release";
  case FlightKind::TagAcquire:
  case FlightKind::TagRelease: {
    const bool Acq = Kind == FlightKind::TagAcquire;
    if (Arg == 0)
      return Acq ? "TagTable.acquire.fast" : "TagTable.release.fast";
    if (Arg == kTagOutcomeMutex)
      return Acq ? "TagTable.acquire.mutex" : "TagTable.release.mutex";
    switch (static_cast<TagSlowReason>(Arg - 1)) {
    case TagSlowReason::SlotCold:
      return Acq ? "TagTable.acquire.slow:slot_cold"
                 : "TagTable.release.slow:slot_cold";
    case TagSlowReason::FirstHolder:
      return "TagTable.acquire.slow:first_holder";
    case TagSlowReason::LastHolder:
      return "TagTable.release.slow:last_holder";
    case TagSlowReason::ShardLockWait:
      return Acq ? "TagTable.acquire.slow:shard_lock_wait"
                 : "TagTable.release.slow:shard_lock_wait";
    case TagSlowReason::OverflowSpill:
      return Acq ? "TagTable.acquire.slow:overflow_spill"
                 : "TagTable.release.slow:overflow_spill";
    case TagSlowReason::Orphan:
      return "TagTable.release.slow:orphan";
    case TagSlowReason::DeferredReclaim:
      return "TagTable.release.slow:deferred_reclaim";
    case TagSlowReason::kNumReasons:
      break;
    }
    return Acq ? "TagTable.acquire.slow" : "TagTable.release.slow";
  }
  case FlightKind::CheckScan:
    return "Access.checkRange";
  case FlightKind::GcPhase:
    switch (static_cast<GcFlightPhase>(Arg)) {
    case GcFlightPhase::Collect:
      return "GC.collect";
    case GcFlightPhase::Mark:
      return "GC.mark";
    case GcFlightPhase::Sweep:
      return "GC.sweep";
    case GcFlightPhase::Compact:
      return "GC.compact";
    case GcFlightPhase::Verify:
      return "GC.verify";
    case GcFlightPhase::Pause:
      return "GC.pause";
    case GcFlightPhase::Ttsp:
      return "GC.ttsp";
    case GcFlightPhase::kNumPhases:
      break;
    }
    return "GC.?";
  case FlightKind::TlabRefill:
    return "Heap.tlabRefill";
  case FlightKind::Fault:
    return Arg == 0 ? "MTE.fault.sync" : "MTE.fault.async";
  case FlightKind::None:
  case FlightKind::kNumKinds:
    break;
  }
  return "?";
}

void appendFormat(std::string &Out, const char *Fmt, ...)
    __attribute__((format(printf, 2, 3)));

void appendFormat(std::string &Out, const char *Fmt, ...) {
  char Buf[256];
  va_list Args;
  va_start(Args, Fmt);
  int N = vsnprintf(Buf, sizeof(Buf), Fmt, Args);
  va_end(Args);
  if (N > 0)
    Out.append(Buf, static_cast<size_t>(N) < sizeof(Buf)
                        ? static_cast<size_t>(N)
                        : sizeof(Buf) - 1);
}

} // namespace

void FlightRecorder::record(FlightKind Kind, uint8_t Arg, uint32_t Arg2,
                            uint64_t StartNanos, uint64_t DurNanos) {
  ThreadRing &Ring = threadRing();
  uint64_t Head = Ring.Head.load(std::memory_order_relaxed);
  Slot &S = Ring.Slots[Head % kRingEvents];
  uint64_t Dur = DurNanos > UINT32_MAX ? UINT32_MAX : DurNanos;
  S.Start.store(StartNanos, std::memory_order_relaxed);
  S.DurArg2.store(Dur << 32 | Arg2, std::memory_order_relaxed);
  S.Meta.store(uint64_t(static_cast<uint8_t>(Kind)) << 8 | Arg,
               std::memory_order_relaxed);
  // Publish after the payload so the exporter never reads past-the-head
  // garbage in a slot that was never written.
  Ring.Head.store(Head + 1, std::memory_order_release);
}

void FlightRecorder::setThreadLabel(std::string_view Label) {
  ThreadRing &Ring = threadRing();
  std::lock_guard<std::mutex> Guard(registry().Lock);
  Ring.Label.assign(Label);
}

std::string FlightRecorder::exportChromeJson() {
  struct RingRef {
    ThreadRing *Ring;
    uint32_t Tid;
    std::string Label;
  };
  std::vector<RingRef> Refs;
  forEachRing([&](ThreadRing &Ring) {
    Refs.push_back({&Ring, Ring.Tid, Ring.Label});
  });

  std::string Out;
  Out.reserve(4096);
  Out += "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  Out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
         "\"args\":{\"name\":\"mte4jni\"}}";

  uint64_t Dropped = 0;
  for (const RingRef &Ref : Refs) {
    std::string Label = Ref.Label.empty()
                            ? "thread-" + std::to_string(Ref.Tid)
                            : Ref.Label;
    appendFormat(Out,
                 ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                 "\"tid\":%u,\"args\":{\"name\":\"%s\"}}",
                 Ref.Tid, jsonEscape(Label).c_str());

    uint64_t Head = Ref.Ring->Head.load(std::memory_order_acquire);
    uint64_t Retained = Head < kRingEvents ? Head : kRingEvents;
    if (Head > kRingEvents)
      Dropped += Head - kRingEvents;
    for (uint64_t I = Head - Retained; I < Head; ++I) {
      const Slot &S = Ref.Ring->Slots[I % kRingEvents];
      uint64_t Start = S.Start.load(std::memory_order_relaxed);
      uint64_t DurArg2 = S.DurArg2.load(std::memory_order_relaxed);
      uint64_t Meta = S.Meta.load(std::memory_order_relaxed);
      auto Kind = static_cast<FlightKind>((Meta >> 8) & 0xFF);
      auto Arg = static_cast<uint8_t>(Meta & 0xFF);
      if (Start == 0 || Kind == FlightKind::None ||
          Kind >= FlightKind::kNumKinds)
        continue; // empty or torn slot
      double TsMicros = double(Start) / 1000.0;
      double DurMicros = double(DurArg2 >> 32) / 1000.0;
      uint32_t Arg2 = static_cast<uint32_t>(DurArg2);
      appendFormat(Out,
                   ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                   "\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f",
                   flightEventName(Kind, Arg), flightCategory(Kind), Ref.Tid,
                   TsMicros, DurMicros);
      if (Arg2 != 0)
        appendFormat(Out, ",\"args\":{\"arg2\":%" PRIu32 "}", Arg2);
      Out += "}";
    }
  }
  appendFormat(Out, "],\"droppedEvents\":%" PRIu64 "}", Dropped);
  return Out;
}

uint64_t FlightRecorder::eventCount() {
  uint64_t Total = 0;
  forEachRing([&](ThreadRing &Ring) {
    uint64_t Head = Ring.Head.load(std::memory_order_acquire);
    Total += Head < kRingEvents ? Head : kRingEvents;
  });
  return Total;
}

uint64_t FlightRecorder::totalRecorded() {
  uint64_t Total = 0;
  forEachRing([&](ThreadRing &Ring) {
    Total += Ring.Head.load(std::memory_order_acquire);
  });
  return Total;
}

void FlightRecorder::clear() {
  forEachRing([](ThreadRing &Ring) {
    Ring.Head.store(0, std::memory_order_relaxed);
  });
}

} // namespace mte4jni::support
