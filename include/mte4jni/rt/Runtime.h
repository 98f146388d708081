//===- Runtime.h - Mini-ART runtime ----------------------------------*- C++ -*-===//
//
// Part of the MTE4JNI reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The runtime object that ties the substrate together: heap, GC, thread
/// registry, root scopes and JNI critical-section accounting. It also owns
/// the process-level MTE configuration (check mode, heap PROT_MTE
/// registration) for the active protection scheme.
///
/// Only one Runtime may be live at a time (it configures the process-wide
/// MTE simulator), mirroring one ART per app process.
///
//===----------------------------------------------------------------------===//

#ifndef MTE4JNI_RT_RUNTIME_H
#define MTE4JNI_RT_RUNTIME_H

#include "mte4jni/mte/Tag.h"
#include "mte4jni/rt/Gc.h"
#include "mte4jni/rt/Handle.h"
#include "mte4jni/rt/Heap.h"
#include "mte4jni/rt/JavaThread.h"

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

namespace mte4jni::rt {

struct RuntimeConfig {
  HeapConfig Heap;
  GcConfig Gc;

  /// Process-wide TCF mode installed via the simulated prctl.
  mte::CheckMode CheckMode = mte::CheckMode::None;

  /// §3.3/§4.3: toggle TCO at native-code boundaries. True for the
  /// MTE4JNI schemes; mutator threads then run with checks suppressed
  /// except while inside native methods.
  bool TagChecksInNative = false;

  /// Seed for the MTE simulator's per-thread IRG RNGs.
  uint64_t Seed = 1;
};

class Runtime {
public:
  explicit Runtime(const RuntimeConfig &Config);
  ~Runtime();

  Runtime(const Runtime &) = delete;
  Runtime &operator=(const Runtime &) = delete;

  const RuntimeConfig &config() const { return Config; }
  JavaHeap &heap() { return *Heap; }
  GcController &gc() { return *Gc; }

  // -- threads -----------------------------------------------------------
  /// Attaches the calling thread; sets up its MTE thread state per the
  /// active scheme (TCO suppressed outside native code).
  JavaThread &attachCurrentThread(std::string Name,
                                  ThreadKind Kind = ThreadKind::Mutator);

  /// Detaches the calling thread (a simulated syscall boundary: thread
  /// teardown enters the kernel).
  void detachCurrentThread();

  // -- object factory -------------------------------------------------------
  /// Allocates and roots a primitive array (zero-initialised).
  ObjectHeader *newPrimArray(HandleScope &Scope, PrimType Elem,
                             uint32_t Length);

  /// Allocates and roots an Object[] of null slots.
  ObjectHeader *newRefArray(HandleScope &Scope, uint32_t Length);

  /// Allocates and roots a string. Every factory call collects and
  /// retries once before reporting OutOfMemoryError (null).
  ObjectHeader *newString(HandleScope &Scope, std::u16string_view Units);
  ObjectHeader *newStringUtf8(HandleScope &Scope, std::string_view Utf8);

  // -- GC root scopes ------------------------------------------------------
  void registerScope(HandleScope *Scope);
  void unregisterScope(HandleScope *Scope);
  std::vector<ObjectHeader *> snapshotRoots() const;

  /// Rewrites every root slot per \p Moved (old -> new); used by the
  /// compacting collector after sliding objects.
  void updateRootsAfterMove(
      const std::vector<std::pair<ObjectHeader *, ObjectHeader *>> &Moved);

  // -- runtime critical sections (safepoint exclusion) ---------------------
  /// Enters a runtime critical section. Critical sections are the mutator
  /// side of the safepoint handshake: while a thread holds one, a GC
  /// stop-the-world pause cannot begin, and entering one blocks while a
  /// pause is active. Used by the JNI critical interfaces
  /// (GetPrimitiveArrayCritical / GetStringCritical), by every JNI
  /// operation that touches an object payload (pin/unpin, region copies),
  /// and by rt::callNative, which brackets the whole native method body —
  /// making native-call entry the natural safepoint. The calling thread
  /// must be attached. The outermost enter and exit each store to the
  /// thread's own claim and load PauseActive; nested ones touch only the
  /// thread's nesting depth. Header-inline: every native call and JNI pin
  /// runs several of these brackets.
  M4J_ALWAYS_INLINE void enterCritical() {
    JavaThread *Thread = JavaThread::currentOrNull();
    M4J_ASSERT(Thread != nullptr, "enterCritical: attach first");
    // Nested enter: this thread already holds its claim and a pause cannot
    // begin while it does, so the bookkeeping is thread-local.
    if (Thread->CriticalDepth++ > 0)
      return;
    // Claim, then check for a pause: a store to this thread's own line and
    // a load, both seq_cst. They pair with beginPause's PauseActive store
    // and claim loads: in the seq_cst total order either the claim precedes
    // the collector's drain check (it waits for us) or the collector's
    // store precedes our load (we back out) — both missing is impossible.
    // A pause seen before claiming is waited out without claiming, so
    // that entry never wakes the collector.
    if (M4J_LIKELY(!PauseActive.load(std::memory_order_seq_cst))) {
      Thread->Claim.store(1, std::memory_order_seq_cst);
      if (M4J_LIKELY(!PauseActive.load(std::memory_order_seq_cst)))
        return;
    }
    parkUntilResumed(Thread);
  }
  M4J_ALWAYS_INLINE void exitCritical() {
    JavaThread *Thread = JavaThread::currentOrNull();
    M4J_ASSERT(Thread != nullptr && Thread->CriticalDepth > 0,
               "exitCritical underflow");
    if (--Thread->CriticalDepth > 0)
      return; // still nested: the claim stays
    // Publish-then-wake. The release is seq_cst: a release store would let
    // the PauseActive load pass it, and a collector that then read the
    // stale claim would wait forever. The wakeup runs under PauseLock, so
    // the collector either sees the claim clear at its locked predicate
    // check or receives the notify.
    Thread->Claim.store(0, std::memory_order_seq_cst);
    if (M4J_UNLIKELY(PauseActive.load(std::memory_order_seq_cst)))
      wakeCollector();
  }

  /// The calling thread's critical nesting depth. The calling thread must
  /// be attached.
  uint32_t criticalDepth() const;

  /// Safepoint checkpoint for long-running native sections (per-char
  /// string-critical scans and similar). One seq_cst load when no pause is
  /// pending; when one is, the calling thread parks its critical claim
  /// (its pinned buffers stay valid: pins block sweep and compaction),
  /// lets the pause run, and re-claims before returning. Callers must not
  /// be mid-write to an object payload across a poll.
  void safepointPoll();

  // -- world pause (GC) ------------------------------------------------------
  /// Acquires the world pause: blocks new critical sections and waits for
  /// outstanding ones to drain (rendezvous, no polling). If the calling
  /// thread itself holds a critical section (a mutator collecting after a
  /// failed allocation), its claim is parked for the duration of the pause
  /// — it is at a safepoint — and restored by endPause(). Records the
  /// rt/gc/ttsp_nanos (time-to-safepoint) histogram and a GC.ttsp flight
  /// slice for the request->drained window. Paired with endPause(), which
  /// returns the monotonic time at which it cleared the pause: no parked
  /// mutator resumes before it.
  void beginPause();
  uint64_t endPause();

private:
  friend class JavaThread;

  /// Removes \p Thread from the thread list of the runtime it attached
  /// to, if that runtime is still live; a no-op once it is gone.
  static void unlinkThread(JavaThread &Thread);

  /// True when no attached thread holds a claim. PauseLock must be held.
  bool worldDrained() const;

  /// Waits out the active pause at a safepoint: releases \p Thread's claim
  /// if it holds one and wakes the collector, then, if \p Thread is inside
  /// a critical section, claims under PauseLock once the pause ends, so no
  /// new pause can begin before the claim is back.
  M4J_NOINLINE void parkUntilResumed(JavaThread *Thread);

  /// Notifies the pause owner, under PauseLock, that a claim was released.
  M4J_NOINLINE void wakeCollector();

  /// The object factory's one path: runs \p Alloc (JavaHeap & ->
  /// ObjectHeader *) and roots its result inside a critical section; when
  /// the heap is full, collects once and retries before returning null.
  template <typename AllocFn>
  ObjectHeader *allocRooted(HandleScope &Scope, AllocFn Alloc);

  RuntimeConfig Config;
  /// Never reused, unlike the address: see JavaThread::RuntimeId.
  const uint64_t Id;
  std::unique_ptr<JavaHeap> Heap;
  std::unique_ptr<GcController> Gc;

  mutable std::mutex ScopeLock;
  std::vector<HandleScope *> Scopes;

  // Critical-section / pause coordination. The critical fast path (no GC
  // pause pending) is lock-free and writes only the calling thread's own
  // cache line: benchmark comparisons of the policies' own locking
  // (Figure 6) must not be drowned by a shared runtime word.
  //
  // Protocol invariants (see DESIGN.md §11 for the state diagram):
  //   * Each attached thread publishes one claim, JavaThread::Claim: 1
  //     while it is inside >= 1 critical section and not parked at a
  //     safepoint. Only that thread stores it; nesting lives in
  //     JavaThread::CriticalDepth and never touches the claim.
  //   * Every claim store and every PauseActive load/store on the
  //     handshake paths is seq_cst (an xchg on the thread's own line):
  //     either the entering mutator observes PauseActive or the collector
  //     observes the claim — the store-buffering outcome where both miss
  //     is excluded, per thread.
  //   * The world has drained when every thread in Threads has claim 0.
  //     The collector evaluates that under PauseLock, and attach and
  //     unlink change Threads under PauseLock.
  //   * Every claim release that can unblock a waiting collector notifies
  //     DrainCv while holding PauseLock, so the collector (whose predicate
  //     check runs under the same lock) cannot lose the wakeup. DrainCv
  //     has at most ONE waiter (the pause owner) and is notify_one;
  //     mutators blocked on the pause wait on ResumeCv and are woken once
  //     per pause by endPause — keeping the two populations on one cv made
  //     every mid-drain exitCritical spuriously wake every blocked mutator
  //     (an O(threads^2) scheduler storm per pause on small machines).
  std::mutex PauseLock;
  std::condition_variable DrainCv;  ///< pause owner waits for worldDrained()
  std::condition_variable ResumeCv; ///< mutators/queued collectors wait !PauseActive
  std::atomic<bool> PauseActive{false};
  std::vector<JavaThread *> Threads; ///< attached threads, in attach order
};

/// RAII runtime critical section: the bracket JNI payload operations and
/// rt::callNative place around payload-touching work so it is mutually
/// exclusive with the GC stop-the-world window.
class ScopedCritical {
public:
  explicit ScopedCritical(Runtime &RT) : RT(RT) { RT.enterCritical(); }
  ~ScopedCritical() { RT.exitCritical(); }

  ScopedCritical(const ScopedCritical &) = delete;
  ScopedCritical &operator=(const ScopedCritical &) = delete;

private:
  Runtime &RT;
};

} // namespace mte4jni::rt

#endif // MTE4JNI_RT_RUNTIME_H
