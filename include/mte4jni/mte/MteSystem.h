//===- MteSystem.h - Process-level MTE simulator state --------------*- C++ -*-===//
//
// Part of the MTE4JNI reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The process-wide face of the MTE simulator: registered PROT_MTE regions,
/// the prctl-style default check mode, the GCR exclude mask used by IRG,
/// and the fault log/handler. Instruction and fault counts live in the
/// metrics registry (mte/instr/*, mte/access/mismatch_*, mte/fault/*).
///
/// Mirrors of real interfaces:
///   * registerRegion            <-> mmap/mprotect with PROT_MTE (§4.1)
///   * setProcessCheckMode       <-> prctl(PR_SET_TAGGED_ADDR_CTRL, TCF)
///   * setIrgExcludeMask         <-> GCR_EL1.Exclude
///
//===----------------------------------------------------------------------===//

#ifndef MTE4JNI_MTE_MTESYSTEM_H
#define MTE4JNI_MTE_MTESYSTEM_H

#include "mte4jni/mte/Fault.h"
#include "mte4jni/mte/TagStorage.h"
#include "mte4jni/mte/ThreadState.h"
#include "mte4jni/support/SpinLock.h"

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

namespace mte4jni::mte {

class MteSystem;

/// RAII read-side critical section over the region snapshot. Construction
/// publishes the observed publish epoch into the calling thread's epoch
/// slot (so publishRegions defers freeing any RegionList this thread may
/// still be walking), then loads the snapshot; destruction restores the
/// slot. Nesting is safe (inner pins restore the outer epoch). This is the
/// ONLY way to walk regions concurrently with register/unregister churn —
/// MteSystem::regions() is for quiescent callers (tests, diagnostics).
class RegionPin {
public:
  explicit RegionPin(const MteSystem &System);
  ~RegionPin();

  RegionPin(const RegionPin &) = delete;
  RegionPin &operator=(const RegionPin &) = delete;

  const RegionList *operator->() const { return List; }
  const RegionList &list() const { return *List; }
  /// The publish epoch under which this snapshot was observed; the value
  /// per-thread region caches must stamp.
  uint64_t epoch() const { return Epoch; }

private:
  std::atomic<uint64_t> *Slot;
  uint64_t Saved;
  const RegionList *List;
  uint64_t Epoch;
};

class MteSystem {
public:
  /// The process singleton.
  static MteSystem &instance();

  MteSystem(const MteSystem &) = delete;
  MteSystem &operator=(const MteSystem &) = delete;

  /// Restores the process defaults: mode None, empty fault log, default
  /// exclude mask, no fault handler. Thread TCO/TCF values of live threads
  /// are reset too. PROT_MTE regions stay registered: each belongs to
  /// whoever registered it (a heap, an arena), which unregisters it when
  /// it dies. Intended for tests and for switching schemes between
  /// benchmark phases.
  void reset();

  // -- prctl analogs ----------------------------------------------------
  /// Sets the process-default TCF mode and pushes it to every live thread.
  void setProcessCheckMode(CheckMode Mode);
  CheckMode processCheckMode() const {
    return ProcessMode.load(std::memory_order_relaxed);
  }

  /// GCR exclude mask: bit N set => IRG never produces tag N. The default
  /// excludes tag 0 so freed/untagged memory is distinguishable.
  void setIrgExcludeMask(uint16_t Mask);
  uint16_t irgExcludeMask() const {
    return IrgExclude.load(std::memory_order_relaxed);
  }

  // -- PROT_MTE regions ---------------------------------------------------
  /// Registers [Begin, Begin+Size) as tag-checked memory. Begin and Size
  /// must be granule-aligned.
  void registerRegion(void *Begin, uint64_t Size);

  /// Unregisters a region previously registered at \p Begin.
  void unregisterRegion(void *Begin);

  /// Current immutable region snapshot (never null). Safe only for
  /// quiescent callers: a snapshot returned here may be freed once a later
  /// publish retires it. Concurrent walkers use RegionPin.
  M4J_ALWAYS_INLINE const RegionList *regions() const {
    return RegionsSnapshot.load(std::memory_order_acquire);
  }

  bool isTaggedAddress(uint64_t Addr) const;

  /// Retired-but-not-yet-freed snapshots (diagnostics/tests: the deferred
  /// retire list must stay bounded under churn).
  size_t retiredSnapshotCount() const;

  /// Memory tag of \p Addr, or 0 when the address is not in any region.
  TagValue memoryTagAt(uint64_t Addr) const;

  // -- fault plumbing ----------------------------------------------------
  FaultLog &faultLog() { return Log; }
  const FaultLog &faultLog() const { return Log; }

  /// Installs a fault handler (nullptr to remove). The handler runs on the
  /// faulting thread.
  void setFaultHandler(FaultHandler Handler, void *Context);

  /// Records \p Record, invokes the handler, honours FaultAction::Abort.
  void deliverFault(FaultRecord Record);

  // -- thread registry (used by ThreadState) -------------------------------
  void registerThread(ThreadState *State);
  /// Also folds the thread's access counts into the exited-thread totals.
  void unregisterThread(ThreadState *State);

  /// Cell \p Which summed over live and exited threads, since the last
  /// Metrics::resetAll(). Each mte/access/* derived counter is a sum of
  /// these (AccessCount).
  uint64_t accessCount(AccessCount Which);
  /// Metrics::resetAll() hook: makes accessCount(Which) read 0 from now
  /// on by recording the current sum as the baseline it subtracts. The
  /// threads' own cells are never written from here: each has one writer.
  void rebaseAccessCount(AccessCount Which);

  /// Deterministic seed base for per-thread IRG RNGs.
  void setRngSeed(uint64_t Seed) {
    RngSeed.store(Seed, std::memory_order_relaxed);
  }
  uint64_t nextThreadSeed();

private:
  MteSystem();
  friend class RegionPin;

  void publishRegions(std::vector<std::shared_ptr<TaggedRegion>> NewRegions);

  /// Live plus exited threads' total of \p Which. Caller holds ThreadLock.
  uint64_t accessCountSumLocked(AccessCount Which) const;

  /// Frees retired snapshots no pinned reader can still hold. Caller holds
  /// RegionLock; takes ThreadLock (that nesting order is load-bearing).
  void reclaimRetiredLocked();

  std::atomic<CheckMode> ProcessMode{CheckMode::None};
  std::atomic<uint16_t> IrgExclude{0x0001}; // exclude tag 0 by default

  // Region snapshots: published via atomic pointer. A superseded snapshot
  // is parked on RetiredSnapshots stamped with the epoch at which it was
  // swapped out, and freed once every thread's RegionPin epoch slot shows
  // it can no longer be referencing it (see reclaimRetiredLocked).
  struct RetiredSnapshot {
    uint64_t Epoch;
    std::unique_ptr<const RegionList> List;
  };
  std::atomic<const RegionList *> RegionsSnapshot;
  std::vector<RetiredSnapshot> RetiredSnapshots;
  std::vector<std::shared_ptr<TaggedRegion>> LiveRegions;
  mutable support::SpinLock RegionLock;

  FaultLog Log;
  std::atomic<FaultHandler> Handler{nullptr};
  std::atomic<void *> HandlerContext{nullptr};

  std::vector<ThreadState *> Threads;
  support::SpinLock ThreadLock;
  // Access-count totals of exited threads, and the sums resetAll last
  // rebased to; both guarded by ThreadLock.
  std::array<uint64_t, kNumAccessCounts> ExitedAccessCounts = {};
  std::array<uint64_t, kNumAccessCounts> AccessCountBaseline = {};

  std::atomic<uint64_t> RngSeed{0x4d54453434a4e49ULL}; // "MTE4JNI"-ish
  std::atomic<uint64_t> ThreadSeedCounter{0};
};

} // namespace mte4jni::mte

#endif // MTE4JNI_MTE_MTESYSTEM_H
