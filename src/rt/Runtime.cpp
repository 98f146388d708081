//===- Runtime.cpp - Mini-ART runtime ---------------------------------------------===//
//
// Part of the MTE4JNI reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "mte4jni/rt/Runtime.h"

#include "mte4jni/mte/MteSystem.h"
#include "mte4jni/mte/ThreadState.h"
#include "mte4jni/rt/JavaString.h"
#include "mte4jni/support/Metrics.h"
#include "mte4jni/support/Syscall.h"
#include "mte4jni/support/Timer.h"
#include "mte4jni/support/TraceRing.h"

#include <algorithm>
#include <unordered_map>

namespace mte4jni::rt {
namespace {
Runtime *LiveRuntime = nullptr;
thread_local std::unique_ptr<JavaThread> AttachedThread;
} // namespace

Runtime *Runtime::currentOrNull() { return LiveRuntime; }

Runtime::Runtime(const RuntimeConfig &Config) : Config(Config) {
  M4J_ASSERT(LiveRuntime == nullptr,
             "only one Runtime may be live at a time");

  // Configure the process-wide MTE simulator for this scheme, like an app
  // process would at startup: reset, seed, prctl(TCF mode).
  mte::MteSystem &System = mte::MteSystem::instance();
  System.reset();
  System.setRngSeed(Config.Seed);
  System.setProcessCheckMode(Config.CheckMode);

  Heap = std::make_unique<JavaHeap>(Config.Heap);
  Gc = std::make_unique<GcController>(*this, Config.Gc);

  LiveRuntime = this;
  if (Config.Gc.BackgroundThread)
    Gc->start();
}

Runtime::~Runtime() {
  Gc->stop();
  Gc.reset();
  Heap.reset();
  mte::MteSystem::instance().setProcessCheckMode(mte::CheckMode::None);
  LiveRuntime = nullptr;
}

JavaThread &Runtime::attachCurrentThread(std::string Name, ThreadKind Kind) {
  M4J_ASSERT(JavaThread::currentOrNull() == nullptr,
             "thread already attached");
  support::FlightRecorder::setThreadLabel(Name);
  AttachedThread.reset(new JavaThread(*this, std::move(Name), Kind));
  // Thread attach enters the kernel (clone/futex): a syscall boundary.
  support::syscallBarrier("clone");
  return *AttachedThread;
}

void Runtime::detachCurrentThread() {
  M4J_ASSERT(AttachedThread != nullptr, "thread not attached");
  // Thread teardown is a syscall boundary: pending async MTE faults for
  // this thread surface no later than here.
  support::syscallBarrier("exit");
  if (Config.TagChecksInNative)
    mte::ThreadState::current().setTco(false); // restore hardware default
  AttachedThread.reset();
}

// Allocation and rooting must be one atomic step with respect to the
// collector: a freshly allocated object is unmarked, unpinned and not yet
// reachable from any handle scope, so a GC cycle landing between
// JavaHeap::alloc* and HandleScope::root() sweeps it and hands the caller
// a pointer into poisoned memory. Holding a runtime critical section
// (mutually exclusive with Runtime::beginPause) closes the window; it
// also serialises the root-vector push against snapshotRoots(), which
// only runs inside a pause.

ObjectHeader *Runtime::newPrimArray(HandleScope &Scope, PrimType Elem,
                                    uint32_t Length) {
  {
    ScopedCritical Guard(*this);
    if (ObjectHeader *Obj = Heap->allocPrimArray(Elem, Length))
      return Scope.root(Obj);
  }
  // Like ART: collect and retry once before surfacing OutOfMemoryError.
  // beginPause parks any critical section the caller already holds (the
  // callNative bracket), so collecting from here cannot self-deadlock.
  Gc->collect();
  ScopedCritical Guard(*this);
  ObjectHeader *Obj = Heap->allocPrimArray(Elem, Length);
  if (!Obj)
    return nullptr; // OutOfMemoryError: never root a null allocation
  return Scope.root(Obj);
}

ObjectHeader *Runtime::newRefArray(HandleScope &Scope, uint32_t Length) {
  {
    ScopedCritical Guard(*this);
    if (ObjectHeader *Obj = Heap->allocRefArray(Length))
      return Scope.root(Obj);
  }
  Gc->collect();
  ScopedCritical Guard(*this);
  ObjectHeader *Obj = Heap->allocRefArray(Length);
  if (!Obj)
    return nullptr; // OutOfMemoryError: never root a null allocation
  return Scope.root(Obj);
}

ObjectHeader *Runtime::newString(HandleScope &Scope,
                                 std::u16string_view Units) {
  ScopedCritical Guard(*this);
  return Scope.root(rt::newString(*Heap, Units));
}

ObjectHeader *Runtime::newStringUtf8(HandleScope &Scope,
                                     std::string_view Utf8) {
  ScopedCritical Guard(*this);
  return Scope.root(rt::newStringUtf8(*Heap, Utf8));
}

void Runtime::registerScope(HandleScope *Scope) {
  std::lock_guard<std::mutex> Guard(ScopeLock);
  Scopes.push_back(Scope);
}

void Runtime::unregisterScope(HandleScope *Scope) {
  std::lock_guard<std::mutex> Guard(ScopeLock);
  auto It = std::find(Scopes.begin(), Scopes.end(), Scope);
  M4J_ASSERT(It != Scopes.end(), "unregistering unknown scope");
  Scopes.erase(It);
}

std::vector<ObjectHeader *> Runtime::snapshotRoots() const {
  std::lock_guard<std::mutex> Guard(ScopeLock);
  std::vector<ObjectHeader *> Roots;
  for (const HandleScope *Scope : Scopes)
    Roots.insert(Roots.end(), Scope->roots().begin(), Scope->roots().end());
  return Roots;
}

void Runtime::updateRootsAfterMove(
    const std::vector<std::pair<ObjectHeader *, ObjectHeader *>> &Moved) {
  if (Moved.empty())
    return;
  std::unordered_map<ObjectHeader *, ObjectHeader *> Map;
  Map.reserve(Moved.size());
  for (auto &[Old, New] : Moved)
    Map.emplace(Old, New);
  std::lock_guard<std::mutex> Guard(ScopeLock);
  for (HandleScope *Scope : Scopes)
    for (ObjectHeader *&Slot : Scope->mutableRoots()) {
      auto It = Map.find(Slot);
      if (It != Map.end())
        Slot = It->second;
    }
}

uint32_t Runtime::criticalDepth() const {
  // Attached threads report their own nesting depth (what the JNI
  // CheckJNI-style assertions care about); unattached callers see the
  // number of threads currently inside a critical section.
  if (const JavaThread *Thread = JavaThread::currentOrNull())
    return Thread->CriticalDepth;
  return CriticalCount.load(std::memory_order_seq_cst);
}

void Runtime::enterCritical() {
  JavaThread *Thread = JavaThread::currentOrNull();
  // Nested enter: this thread already holds its world-visible claim and a
  // pause cannot begin while it does, so the bookkeeping is thread-local.
  if (Thread && Thread->CriticalDepth > 0) {
    ++Thread->CriticalDepth;
    return;
  }
  for (;;) {
    // Fast path: no pause pending — one RMW, no mutex. seq_cst pairs with
    // beginPause's PauseActive store + CriticalCount load: in the seq_cst
    // total order either our increment precedes the collector's drain
    // check (it waits for us) or the collector's store precedes our
    // re-check (we back out) — both sides missing is impossible.
    if (M4J_LIKELY(!PauseActive.load(std::memory_order_seq_cst))) {
      CriticalCount.fetch_add(1, std::memory_order_seq_cst);
      if (M4J_LIKELY(!PauseActive.load(std::memory_order_seq_cst)))
        break;
      // A pause began between the load and the increment: back out, and
      // wake the collector unconditionally — it may be waiting on exactly
      // this decrement. The notify runs under PauseLock, so a collector
      // that saw a non-zero count under the same lock cannot miss it.
      CriticalCount.fetch_sub(1, std::memory_order_seq_cst);
      {
        std::lock_guard<std::mutex> Wake(PauseLock);
        DrainCv.notify_one();
      }
    }
    // Slow path: wait for the pause to finish.
    std::unique_lock<std::mutex> Guard(PauseLock);
    ResumeCv.wait(Guard, [this] {
      return !PauseActive.load(std::memory_order_seq_cst);
    });
  }
  if (Thread)
    Thread->CriticalDepth = 1;
}

void Runtime::exitCritical() {
  JavaThread *Thread = JavaThread::currentOrNull();
  if (Thread) {
    M4J_ASSERT(Thread->CriticalDepth > 0, "exitCritical underflow");
    if (--Thread->CriticalDepth > 0)
      return; // still nested: the world-visible claim stays
  }
  uint32_t Prev = CriticalCount.fetch_sub(1, std::memory_order_seq_cst);
  M4J_ASSERT(Prev > 0, "critical count underflow");
  (void)Prev;
  // Publish-then-wake: the decrement is already visible (seq_cst) and the
  // notify happens under PauseLock, so the collector either sees count==0
  // at its locked predicate check or receives this notify — the rendezvous
  // cannot lose the wakeup (this replaced beginPause's wait_for polling).
  // DrainCv's only possible waiter is the pause owner: notify_one, and no
  // blocked mutator is disturbed by a mid-drain exit.
  if (M4J_UNLIKELY(PauseActive.load(std::memory_order_seq_cst))) {
    std::lock_guard<std::mutex> Wake(PauseLock);
    DrainCv.notify_one();
  }
}

void Runtime::safepointPoll() {
  // Fast path: no pause requested — one seq_cst load, no shared writes.
  if (M4J_LIKELY(!PauseActive.load(std::memory_order_seq_cst)))
    return;
  JavaThread *Thread = JavaThread::currentOrNull();
  const bool ParkClaim = Thread && Thread->CriticalDepth > 0;
  if (ParkClaim)
    CriticalCount.fetch_sub(1, std::memory_order_seq_cst);
  static support::Counter &Blocks =
      support::Metrics::counter("rt/gc/safepoint_blocks");
  Blocks.add();
  std::unique_lock<std::mutex> Guard(PauseLock);
  // The collector may be waiting on exactly the decrement above.
  DrainCv.notify_one();
  ResumeCv.wait(Guard, [this] {
    return !PauseActive.load(std::memory_order_seq_cst);
  });
  // Re-claim under PauseLock: no new pause can begin before we do (the
  // pinned buffers this thread holds stayed valid throughout — pins block
  // sweep and compaction; only payload access had to stop).
  if (ParkClaim)
    CriticalCount.fetch_add(1, std::memory_order_seq_cst);
}

void Runtime::beginPause() {
  // A collector that is itself inside a critical section (a mutator whose
  // allocation failed under callNative's bracket and now collects) parks
  // its own claim for the duration of the pause: it sits at a safepoint
  // by definition. endPause restores the claim. Without this, the thread
  // would deadlock waiting for its own critical section to drain.
  JavaThread *Self = JavaThread::currentOrNull();
  const bool ParkedOwnClaim = Self && Self->CriticalDepth > 0;
  if (ParkedOwnClaim) {
    CriticalCount.fetch_sub(1, std::memory_order_seq_cst);
    // Another collector may already be draining: hand it the decrement.
    if (PauseActive.load(std::memory_order_seq_cst)) {
      std::lock_guard<std::mutex> Wake(PauseLock);
      DrainCv.notify_one();
    }
  }

  std::unique_lock<std::mutex> Guard(PauseLock);
  // Serialise collectors: one pause at a time (queued collectors wait with
  // the blocked mutators and are released by the owner's endPause).
  ResumeCv.wait(Guard, [this] {
    return !PauseActive.load(std::memory_order_seq_cst);
  });
  const uint64_t RequestNanos = support::monotonicNanos();
  PauseActive.store(true, std::memory_order_seq_cst);
  // The rendezvous: wait for every thread inside a critical section to
  // reach its safepoint (exitCritical, safepointPoll or the enterCritical
  // backout — all publish their decrement with seq_cst and notify DrainCv
  // under PauseLock). This thread is DrainCv's only possible waiter: it
  // owns PauseActive. A plain condition wait suffices; no timeout crutch.
  DrainCv.wait(Guard, [this] {
    return CriticalCount.load(std::memory_order_seq_cst) == 0;
  });
  const uint64_t ReachedNanos = support::monotonicNanos();

  // Time-to-safepoint: how long the world took to actually stop after the
  // pause was requested. The pause_nanos histogram (recorded around the
  // whole collect window) is a superset of this.
  static support::Histogram &TtspNanos =
      support::Metrics::histogram("rt/gc/ttsp_nanos");
  TtspNanos.record(ReachedNanos - RequestNanos);
  if (support::obs::coldArmed())
    support::FlightRecorder::record(
        support::FlightKind::GcPhase,
        static_cast<uint8_t>(support::GcFlightPhase::Ttsp), 0, RequestNanos,
        ReachedNanos - RequestNanos);
}

void Runtime::endPause() {
  JavaThread *Self = JavaThread::currentOrNull();
  std::lock_guard<std::mutex> Guard(PauseLock);
  // Restore the claim beginPause parked, before any mutator can resume —
  // no new pause can slip in between (PauseLock is held, and a beginPause
  // already past its own-claim check waits for !PauseActive under it).
  if (Self && Self->CriticalDepth > 0)
    CriticalCount.fetch_add(1, std::memory_order_seq_cst);
  PauseActive.store(false, std::memory_order_seq_cst);
  // The one broadcast per pause: release every blocked mutator (and any
  // queued collector) together.
  ResumeCv.notify_all();
}

} // namespace mte4jni::rt
