//===- Gc.cpp - Stop-the-world mark-sweep collector --------------------------------===//
//
// Part of the MTE4JNI reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "mte4jni/rt/Gc.h"

#include "mte4jni/mte/Access.h"
#include "mte4jni/mte/ThreadState.h"
#include "mte4jni/rt/Runtime.h"
#include "mte4jni/support/Backtrace.h"
#include "mte4jni/support/Metrics.h"
#include "mte4jni/support/SpinLock.h"
#include "mte4jni/support/Syscall.h"
#include "mte4jni/support/ThreadPool.h"
#include "mte4jni/support/TraceRing.h"

#include <algorithm>
#include <chrono>
#include <unordered_map>
#include <vector>

namespace mte4jni::rt {

namespace {

/// Pause-time composition: where the stop-the-world window actually goes
/// (mark vs sweep vs compact vs the §3.3 verify pass), plus reclaim volume
/// and a live-bytes gauge sampled at the end of each cycle.
struct GcMetrics {
  support::Counter &Cycles = support::Metrics::counter("rt/gc/cycles");
  support::Counter &BytesFreed =
      support::Metrics::counter("rt/gc/bytes_freed");
  support::Counter &ObjectsFreed =
      support::Metrics::counter("rt/gc/objects_freed");
  support::Histogram &CollectNanos =
      support::Metrics::histogram("rt/gc/collect_nanos");
  support::Histogram &PauseNanos =
      support::Metrics::histogram("rt/gc/pause_nanos");
  support::Histogram &MarkNanos =
      support::Metrics::histogram("rt/gc/mark_nanos");
  support::Histogram &SweepNanos =
      support::Metrics::histogram("rt/gc/sweep_nanos");
  support::Histogram &CompactNanos =
      support::Metrics::histogram("rt/gc/compact_nanos");
  support::Histogram &VerifyNanos =
      support::Metrics::histogram("rt/gc/verify_nanos");
  support::Gauge &HeapBytesLive =
      support::Metrics::gauge("rt/heap/bytes_live");
  support::Gauge &ParallelWorkers =
      support::Metrics::gauge("rt/gc/parallel_workers");
};

GcMetrics &gcMetrics() {
  static GcMetrics M;
  return M;
}

/// Work-stealing mark tuning: how much of the shared frontier a worker
/// claims per grab, and the local-stack depth past which it spills half
/// back to the shared overflow for other workers to steal.
constexpr size_t kMarkGrabBatch = 32;
constexpr size_t kMarkSpillThreshold = 1024;

/// GC phases are cold (a handful per cycle), so their flight slices are
/// recorded at every observability level except Off — a trace of a bench
/// run always shows the pause composition even under default sampling.
void recordGcPhaseFlight(support::GcFlightPhase Phase, uint64_t StartNanos,
                         uint64_t EndNanos) {
  if (support::obs::coldArmed())
    support::FlightRecorder::record(support::FlightKind::GcPhase,
                                    static_cast<uint8_t>(Phase), 0, StartNanos,
                                    EndNanos - StartNanos);
}

} // namespace

GcController::GcController(Runtime &RT, const GcConfig &Config)
    : RT(RT), Config(Config) {
  Workers = Config.Parallelism != 0
                ? Config.Parallelism
                : static_cast<unsigned>(
                      std::min<size_t>(support::hardwareThreads(), 8));
}

GcController::~GcController() {
  stop();
  Pool.reset();
}

void GcController::start() {
  if (Running.exchange(true))
    return;
  StopRequested.store(false);
  Worker = std::thread([this] { backgroundLoop(); });
}

void GcController::stop() {
  if (!Running.exchange(false))
    return;
  {
    std::lock_guard<std::mutex> Guard(WakeLock);
    StopRequested.store(true);
  }
  WakeCv.notify_all();
  if (Worker.joinable())
    Worker.join();
}

void GcController::backgroundLoop() {
  // The GC is a runtime support thread: its heap pointers are untagged and
  // never pass through JNI. With correct §3.3 TCO handling its checks stay
  // suppressed; the SuppressTagChecks=false configuration reproduces the
  // crash the paper warns about.
  mte::ThreadState::current().setTco(Config.SuppressTagChecks);
  support::ScopedFrame GcFrame("art::gc::ConcurrentGCTask", "libart.so");
  support::FlightRecorder::setThreadLabel("gc-background");

  while (!StopRequested.load(std::memory_order_acquire)) {
    collect();
    // Sleeping is a syscall (nanosleep): async faults latched during the
    // verify pass surface here.
    support::syscallBarrier("nanosleep");
    std::unique_lock<std::mutex> Guard(WakeLock);
    WakeCv.wait_for(Guard, std::chrono::milliseconds(Config.IntervalMillis),
                    [this] { return StopRequested.load(); });
  }
}

void GcController::runStriped(unsigned NumStripes,
                              const std::function<void(size_t)> &Body) {
  if (Workers <= 1 || NumStripes <= 1) {
    for (unsigned I = 0; I < NumStripes; ++I)
      Body(I);
    return;
  }
  // Lazily created: a Parallelism>1 controller that never collects (or a
  // heap too small to matter) pays no worker threads. collect() bodies are
  // serialised by the world pause, so creation is race-free.
  if (!Pool)
    Pool = std::make_unique<support::ThreadPool>(Workers, "gc-worker");
  Pool->parallelFor(NumStripes, Body);
}

uint64_t GcController::clearMarks() {
  // Bitmap-segment striping: each stripe owns a disjoint word range, so
  // workers never touch the same object.
  unsigned Stripes = Workers <= 1 ? 1 : Workers * 4;
  std::atomic<uint64_t> Total{0};
  runStriped(Stripes, [&](size_t Stripe) {
    uint64_t Local = 0;
    RT.heap().forEachObjectShard(
        static_cast<unsigned>(Stripe), Stripes, [&](ObjectHeader *Obj) {
          Obj->setMarked(false);
          ++Local;
        });
    Total.fetch_add(Local, std::memory_order_relaxed);
  });
  return Total.load(std::memory_order_relaxed);
}

void GcController::markFromRoots(std::vector<ObjectHeader *> Roots) {
  // Tracing in rounds (runStriped runs a round inline at one worker):
  // workers grab batches of the shared frontier (root partitioning via an
  // atomic cursor), trace into a local stack, and spill half of an
  // overgrown stack to a shared overflow that seeds the next round — work
  // stealing through the spill. tryMark is the claim: exactly one worker
  // traces each object's children, and marks only ever go 0->1 during this
  // phase, so the rounds terminate.
  std::vector<ObjectHeader *> Frontier(std::move(Roots));
  std::vector<ObjectHeader *> Overflow;
  support::SpinLock OverflowLock;
  while (!Frontier.empty()) {
    std::atomic<size_t> Cursor{0};
    runStriped(Workers, [&](size_t) {
      std::vector<ObjectHeader *> Local;
      for (;;) {
        if (Local.empty()) {
          size_t Begin =
              Cursor.fetch_add(kMarkGrabBatch, std::memory_order_relaxed);
          if (Begin >= Frontier.size())
            break;
          size_t End = std::min(Begin + kMarkGrabBatch, Frontier.size());
          Local.insert(Local.end(), Frontier.begin() + Begin,
                       Frontier.begin() + End);
        }
        while (!Local.empty()) {
          ObjectHeader *Obj = Local.back();
          Local.pop_back();
          if (!Obj || !Obj->tryMark())
            continue;
          if (Obj->kind() == ObjectKind::RefArray) {
            ObjectHeader **Slots = refArraySlots(Obj);
            for (uint32_t I = 0; I < Obj->Length; ++I)
              if (Slots[I] && !Slots[I]->isMarked())
                Local.push_back(Slots[I]);
          }
          if (Local.size() > kMarkSpillThreshold) {
            std::lock_guard<support::SpinLock> Guard(OverflowLock);
            Overflow.insert(Overflow.end(),
                            Local.begin() + Local.size() / 2, Local.end());
            Local.resize(Local.size() / 2);
          }
        }
      }
    });
    Frontier.clear();
    Frontier.swap(Overflow);
  }
}

void GcController::sweep(GcResult &Result) {
  // Striped over disjoint bitmap segments. Every block a collection frees
  // joins the collecting thread's free list at every parallelism, as the
  // one-worker sweep does, so that thread's next same-size allocation
  // reuses it. Each stripe frees its dead objects in one batch, taking
  // that list's lock once rather than once per block.
  JavaHeap &Heap = RT.heap();
  const JavaHeap::FreeListId Into = JavaHeap::callerFreeList();
  unsigned Stripes = Workers <= 1 ? 1 : Workers * 4;
  std::atomic<uint64_t> FreedObjects{0}, FreedBytes{0};
  runStriped(Stripes, [&](size_t Stripe) {
    std::vector<ObjectHeader *> Dead;
    Heap.forEachObjectShard(
        static_cast<unsigned>(Stripe), Stripes, [&](ObjectHeader *Obj) {
          if (!Obj->isMarked() && Obj->pinCount() == 0)
            Dead.push_back(Obj);
        });
    // freeAll fires the heap's freed-range hook before any block is
    // reusable, which reclaims lingering (deferred tag-clear) tags on the
    // payload — a swept object must never keep a valid granule tag, or a
    // dangling native pointer into it would still pass the check.
    FreedBytes.fetch_add(Heap.freeAll(Dead, Into), std::memory_order_relaxed);
    FreedObjects.fetch_add(Dead.size(), std::memory_order_relaxed);
  });
  Result.ObjectsFreed += FreedObjects.load(std::memory_order_relaxed);
  Result.BytesFreed += FreedBytes.load(std::memory_order_relaxed);
}

GcResult GcController::collect() {
  GcResult Result;
  // The collector is runtime-internal code: whatever thread drives it, its
  // heap walks use untagged pointers and must run with the configured TCO
  // (suppressed under correct §3.3 handling; the broken-configuration demo
  // sets SuppressTagChecks=false to reproduce the spurious faults).
  // Parallel phase workers read only headers (mark/sweep never touch
  // payloads), so they need no TCO setup of their own.
  mte::ScopedTco TcoForGc(Config.SuppressTagChecks);
  GcMetrics &GM = gcMetrics();
  uint64_t CollectStart = support::monotonicNanos();
  // The stop-the-world window: from the pause *request* (mutators may be
  // blocked from here on) until endPause clears it and mutators may run
  // again. This is the number a tenant's tail latency actually pays, so it
  // is exported both as the rt/gc/pause_nanos histogram and as a GC.pause
  // flight slice on this thread's lane (gc-background for the background
  // collector). It ends at endPause's own timestamp, not when the call
  // returns: waking the parked mutators can take longer than the pause
  // itself, and the woken ones run meanwhile.
  uint64_t PauseStart = CollectStart;
  RT.beginPause();
  GM.ParallelWorkers.set(Workers);

  // Mark phase: everything TRANSITIVELY reachable from handle-scope
  // roots; reference arrays are traced through their slots.
  uint64_t MarkStart = support::monotonicNanos();
  std::vector<ObjectHeader *> Roots = RT.snapshotRoots();
  Result.ObjectsScanned = clearMarks();
  markFromRoots(std::move(Roots));
  uint64_t MarkEnd = support::monotonicNanos();
  GM.MarkNanos.record(MarkEnd - MarkStart);
  recordGcPhaseFlight(support::GcFlightPhase::Mark, MarkStart, MarkEnd);

  // Sweep phase: free unmarked, unpinned objects.
  uint64_t SweepStart = support::monotonicNanos();
  sweep(Result);
  uint64_t SweepEnd = support::monotonicNanos();
  GM.SweepNanos.record(SweepEnd - SweepStart);
  recordGcPhaseFlight(support::GcFlightPhase::Sweep, SweepStart, SweepEnd);

  // Compaction phase (mark-compact mode): slide survivors toward the
  // heap base; JNI-pinned objects stay in place. Roots are rewritten.
  if (Config.Mode == GcMode::Compacting) {
    uint64_t CompactStart = support::monotonicNanos();
    auto Moved = RT.heap().compact();
    Result.ObjectsMoved = Moved.size();
    RT.updateRootsAfterMove(Moved);
    // Reference-array slots hold object pointers too: rewrite them. Each
    // stripe owns disjoint objects, so the rewrites never race.
    unsigned Stripes = Workers <= 1 ? 1 : Workers * 4;
    std::atomic<uint64_t> Pinned{0};
    std::unordered_map<ObjectHeader *, ObjectHeader *> Map(Moved.begin(),
                                                           Moved.end());
    runStriped(Stripes, [&](size_t Stripe) {
      uint64_t LocalPinned = 0;
      RT.heap().forEachObjectShard(
          static_cast<unsigned>(Stripe), Stripes, [&](ObjectHeader *Obj) {
            if (Obj->pinCount() > 0)
              ++LocalPinned;
            if (Map.empty() || Obj->kind() != ObjectKind::RefArray)
              return;
            ObjectHeader **Slots = refArraySlots(Obj);
            for (uint32_t I = 0; I < Obj->Length; ++I) {
              auto It = Map.find(Slots[I]);
              if (It != Map.end())
                Slots[I] = It->second;
            }
          });
      Pinned.fetch_add(LocalPinned, std::memory_order_relaxed);
    });
    Result.ObjectsPinnedInPlace = Pinned.load(std::memory_order_relaxed);
    uint64_t CompactEnd = support::monotonicNanos();
    GM.CompactNanos.record(CompactEnd - CompactStart);
    recordGcPhaseFlight(support::GcFlightPhase::Compact, CompactStart,
                        CompactEnd);
  }

  // Optional verification pass (reads payloads with untagged pointers).
  if (Config.VerifyObjectBodies) {
    uint64_t VerifyStart = support::monotonicNanos();
    Result.ObjectsVerified = 0;
    Result.PayloadBytesVerified = 0;
    verifyPass(Result);
    uint64_t VerifyEnd = support::monotonicNanos();
    GM.VerifyNanos.record(VerifyEnd - VerifyStart);
    recordGcPhaseFlight(support::GcFlightPhase::Verify, VerifyStart,
                        VerifyEnd);
  }

  uint64_t PauseEnd = RT.endPause();
  GM.PauseNanos.record(PauseEnd - PauseStart);
  recordGcPhaseFlight(support::GcFlightPhase::Pause, PauseStart, PauseEnd);
  Cycles.fetch_add(1, std::memory_order_relaxed);
  GM.Cycles.add();
  GM.BytesFreed.add(Result.BytesFreed);
  GM.ObjectsFreed.add(Result.ObjectsFreed);
  GM.HeapBytesLive.set(static_cast<int64_t>(RT.heap().stats().BytesLive));
  uint64_t CollectEnd = support::monotonicNanos();
  GM.CollectNanos.record(CollectEnd - CollectStart);
  recordGcPhaseFlight(support::GcFlightPhase::Collect, CollectStart,
                      CollectEnd);
  return Result;
}

void GcController::verifyPass(GcResult &Result) {
  support::ScopedFrame Frame("art::gc::VerifyHeapReferences", "libart.so");
  uint8_t Sink = 0;
  RT.heap().forEachObject([&](ObjectHeader *Obj) {
    // Header read (its granule is never tagged: headers are metadata).
    Sink ^= static_cast<uint8_t>(Obj->Length);
    // Payload read through an *untagged* pointer — exactly the access the
    // paper's §3.3 says would fault if this thread's checks were enabled
    // while a native thread holds the object tagged.
    const uint64_t Bytes = Obj->dataBytes();
    auto Ptr = mte::TaggedPtr<const uint8_t>::fromRaw(
        static_cast<const uint8_t *>(Obj->data()), 0);
    uint64_t Step = mte::kGranuleSize;
    for (uint64_t Offset = 0; Offset < Bytes; Offset += Step)
      Sink ^= mte::load<const uint8_t>(Ptr + static_cast<ptrdiff_t>(Offset));
    ++Result.ObjectsVerified;
    Result.PayloadBytesVerified += Bytes;
  });
  VerifySink = Sink;
}

} // namespace mte4jni::rt
