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
// LiveLock guards LiveRuntime. A JavaThread unlinks itself under it, so
// it can tell whether the runtime it attached to is still live without
// touching a runtime that is gone.
std::mutex LiveLock;
Runtime *LiveRuntime = nullptr;
std::atomic<uint64_t> NextRuntimeId{1};
thread_local std::unique_ptr<JavaThread> AttachedThread;
} // namespace

Runtime::Runtime(const RuntimeConfig &Config)
    : Config(Config),
      Id(NextRuntimeId.fetch_add(1, std::memory_order_relaxed)) {
  // Configure the process-wide MTE simulator for this scheme, like an app
  // process would at startup: reset, seed, prctl(TCF mode).
  mte::MteSystem &System = mte::MteSystem::instance();
  System.reset();
  System.setRngSeed(Config.Seed);
  System.setProcessCheckMode(Config.CheckMode);

  Heap = std::make_unique<JavaHeap>(Config.Heap);
  Gc = std::make_unique<GcController>(*this, Config.Gc);

  {
    std::lock_guard<std::mutex> Guard(LiveLock);
    M4J_ASSERT(LiveRuntime == nullptr,
               "only one Runtime may be live at a time");
    LiveRuntime = this;
  }
  if (Config.Gc.BackgroundThread)
    Gc->start();
}

Runtime::~Runtime() {
  Gc->stop();
  Gc.reset();
  Heap.reset();
  mte::MteSystem::instance().setProcessCheckMode(mte::CheckMode::None);
  // Threads still attached now outlive this runtime: unlinkThread leaves
  // them alone from here on.
  std::lock_guard<std::mutex> Guard(LiveLock);
  LiveRuntime = nullptr;
}

JavaThread &Runtime::attachCurrentThread(std::string Name, ThreadKind Kind) {
  M4J_ASSERT(JavaThread::currentOrNull() == nullptr,
             "thread already attached");
  support::FlightRecorder::setThreadLabel(Name);
  AttachedThread.reset(new JavaThread(*this, Id, std::move(Name), Kind));
  {
    std::lock_guard<std::mutex> Guard(PauseLock);
    Threads.push_back(AttachedThread.get());
  }
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
  AttachedThread.reset(); // ~JavaThread unlinks it
}

void Runtime::unlinkThread(JavaThread &Thread) {
  std::lock_guard<std::mutex> Live(LiveLock);
  if (LiveRuntime == nullptr || LiveRuntime->Id != Thread.RuntimeId)
    return; // its runtime is gone
  Runtime &RT = *LiveRuntime;
  std::lock_guard<std::mutex> Guard(RT.PauseLock);
  auto It = std::find(RT.Threads.begin(), RT.Threads.end(), &Thread);
  M4J_ASSERT(It != RT.Threads.end(), "unlinking a thread never attached");
  RT.Threads.erase(It);
  // A thread that exits inside a critical section takes its claim with
  // it; a draining collector must re-check.
  RT.DrainCv.notify_one();
}

// Allocation and rooting must be one atomic step with respect to the
// collector: a freshly allocated object is unmarked, unpinned and not yet
// reachable from any handle scope, so a GC cycle landing between
// JavaHeap::alloc* and HandleScope::root() sweeps it and hands the caller
// a pointer into poisoned memory. Holding a runtime critical section
// (mutually exclusive with Runtime::beginPause) closes the window; it
// also serialises the root-vector push against snapshotRoots(), which
// only runs inside a pause.

template <typename AllocFn>
ObjectHeader *Runtime::allocRooted(HandleScope &Scope, AllocFn Alloc) {
  {
    ScopedCritical Guard(*this);
    if (ObjectHeader *Obj = Alloc(*Heap))
      return Scope.root(Obj);
  }
  // Like ART: collect and retry once before surfacing OutOfMemoryError.
  // beginPause parks any critical section the caller already holds (the
  // callNative bracket), so collecting from here cannot self-deadlock.
  Gc->collect();
  ScopedCritical Guard(*this);
  // A null allocation (OutOfMemoryError) is never rooted.
  return Scope.root(Alloc(*Heap));
}

ObjectHeader *Runtime::newPrimArray(HandleScope &Scope, PrimType Elem,
                                    uint32_t Length) {
  return allocRooted(Scope, [&](JavaHeap &H) {
    return H.allocPrimArray(Elem, Length);
  });
}

ObjectHeader *Runtime::newRefArray(HandleScope &Scope, uint32_t Length) {
  return allocRooted(Scope,
                     [&](JavaHeap &H) { return H.allocRefArray(Length); });
}

ObjectHeader *Runtime::newString(HandleScope &Scope,
                                 std::u16string_view Units) {
  return allocRooted(Scope,
                     [&](JavaHeap &H) { return rt::newString(H, Units); });
}

ObjectHeader *Runtime::newStringUtf8(HandleScope &Scope,
                                     std::string_view Utf8) {
  return newString(Scope, utf8ToUtf16(Utf8));
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
  const JavaThread *Thread = JavaThread::currentOrNull();
  M4J_ASSERT(Thread != nullptr, "criticalDepth: attach first");
  return Thread->CriticalDepth;
}

bool Runtime::worldDrained() const {
  for (const JavaThread *Thread : Threads)
    if (Thread->Claim.load(std::memory_order_seq_cst) != 0)
      return false;
  return true;
}

void Runtime::parkUntilResumed(JavaThread *Thread) {
  const bool InCritical = Thread && Thread->CriticalDepth > 0;
  // An entry that saw the pause before claiming holds no claim to release.
  const bool Release =
      InCritical && Thread->Claim.load(std::memory_order_relaxed) != 0;
  if (Release)
    Thread->Claim.store(0, std::memory_order_seq_cst);
  std::unique_lock<std::mutex> Guard(PauseLock);
  // The collector may be waiting on exactly the claim released above. The
  // notify runs under PauseLock, so a collector that saw the claim under
  // the same lock cannot miss it. DrainCv's only possible waiter is the
  // pause owner: notify_one, and no blocked mutator is disturbed.
  if (Release)
    DrainCv.notify_one();
  ResumeCv.wait(Guard, [this] {
    return !PauseActive.load(std::memory_order_seq_cst);
  });
  // Claim under PauseLock: a new pause sets PauseActive and checks the
  // claims under this lock, so it sees this claim. Pinned buffers stayed
  // valid throughout (pins block sweep and compaction); only payload
  // access had to stop.
  if (InCritical)
    Thread->Claim.store(1, std::memory_order_seq_cst);
}

void Runtime::wakeCollector() {
  std::lock_guard<std::mutex> Wake(PauseLock);
  DrainCv.notify_one();
}

void Runtime::safepointPoll() {
  // Fast path: no pause requested — one seq_cst load, no shared writes.
  if (M4J_LIKELY(!PauseActive.load(std::memory_order_seq_cst)))
    return;
  static support::Counter &Blocks =
      support::Metrics::counter("rt/gc/safepoint_blocks");
  Blocks.add();
  parkUntilResumed(JavaThread::currentOrNull());
}

void Runtime::beginPause() {
  // A collector that is itself inside a critical section (a mutator whose
  // allocation failed under callNative's bracket and now collects) parks
  // its own claim for the duration of the pause: it sits at a safepoint
  // by definition. endPause restores the claim. Without this, the thread
  // would deadlock waiting for its own critical section to drain.
  JavaThread *Self = JavaThread::currentOrNull();
  if (Self && Self->CriticalDepth > 0) {
    Self->Claim.store(0, std::memory_order_seq_cst);
    // Another collector may already be draining: hand it the release.
    if (PauseActive.load(std::memory_order_seq_cst))
      wakeCollector();
  }

  std::unique_lock<std::mutex> Guard(PauseLock);
  // Serialise collectors: one pause at a time (queued collectors wait with
  // the blocked mutators and are released by the owner's endPause).
  ResumeCv.wait(Guard, [this] {
    return !PauseActive.load(std::memory_order_seq_cst);
  });
  const uint64_t RequestNanos = support::monotonicNanos();
  PauseActive.store(true, std::memory_order_seq_cst);
  // The rendezvous: wait for every attached thread inside a critical
  // section to reach its safepoint (exitCritical, safepointPoll, the
  // enterCritical backout or unlinking — all publish their claim release
  // with seq_cst and notify DrainCv under PauseLock). This thread is
  // DrainCv's only possible waiter: it owns PauseActive. A plain condition
  // wait suffices; no timeout crutch.
  DrainCv.wait(Guard, [this] { return worldDrained(); });
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

uint64_t Runtime::endPause() {
  JavaThread *Self = JavaThread::currentOrNull();
  std::lock_guard<std::mutex> Guard(PauseLock);
  // Restore the claim beginPause parked, before any mutator can resume —
  // no new pause can slip in between (PauseLock is held, and a beginPause
  // already past its own-claim check waits for !PauseActive under it).
  if (Self && Self->CriticalDepth > 0)
    Self->Claim.store(1, std::memory_order_seq_cst);
  PauseActive.store(false, std::memory_order_seq_cst);
  // The world restarts here: a parked mutator resumes only after it
  // re-takes PauseLock, so none runs before this time. The broadcast and
  // the unlock below can take longer than the pause's own work.
  const uint64_t ResumeNanos = support::monotonicNanos();
  // The one broadcast per pause: release every blocked mutator (and any
  // queued collector) together.
  ResumeCv.notify_all();
  return ResumeNanos;
}

} // namespace mte4jni::rt
