//===- ThreadState.h - Per-thread MTE control state ----------------*- C++ -*-===//
//
// Part of the MTE4JNI reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-thread MTE state:
///
///   * TCO ("Tag Check Override") system register — when set, tag checks
///     are suppressed for this thread. This is the register the paper's
///     trampolines flip (§3.3): cleared when a Java thread enters native
///     code, set again on return, and left set on support threads such as
///     the GC so their untagged pointers never fault.
///   * TCF check mode (sync/async/none), initialised from the process
///     default and adjustable per thread, mirroring Linux's per-thread
///     prctl(PR_SET_TAGGED_ADDR_CTRL).
///   * TFSR — the async-fault latch drained at simulated syscalls.
///
/// It also carries the thread's checked-access counts, which MteSystem
/// sums into the mte/access/* derived counters.
///
//===----------------------------------------------------------------------===//

#ifndef MTE4JNI_MTE_THREADSTATE_H
#define MTE4JNI_MTE_THREADSTATE_H

#include "mte4jni/mte/Tag.h"
#include "mte4jni/support/Compiler.h"
#include "mte4jni/support/Rng.h"

#include <atomic>
#include <cstdint>
#include <memory>

namespace mte4jni::mte {

class MteSystem;
class TaggedRegion;
class ThreadState;

namespace detail {
/// The calling thread's ThreadState once created, else null. constinit on
/// the declaration too, so every read is a plain TLS load with no
/// dynamic-initialization guard call.
extern thread_local constinit ThreadState *CurrentThreadState;
} // namespace detail

/// Per-thread checked-access counts; each is a cell of ThreadState that
/// only its own thread writes. A region-cache hit bumps one cell, so the
/// mte/access/* names are sums of these (MteSystem): checked_loads is
/// LoadHits + SlowLoads, checked_stores StoreHits + SlowStores,
/// region_cache_hit LoadHits + StoreHits, and checked_granules all five,
/// since every counted access covers at least one granule.
enum class AccessCount : unsigned {
  LoadHits,      ///< checked loads the region cache served
  StoreHits,     ///< checked stores the region cache served
  SlowLoads,     ///< checked loads the slow paths served
  SlowStores,    ///< checked stores the slow paths served
  ExtraGranules, ///< granules past the first of each counted access
  kNumCounts
};
inline constexpr unsigned kNumAccessCounts = unsigned(AccessCount::kNumCounts);

class ThreadState {
public:
  /// The calling thread's state; lazily created and registered with the
  /// MteSystem on first use. After that, one TLS load.
  M4J_ALWAYS_INLINE static ThreadState &current() {
    ThreadState *State = detail::CurrentThreadState;
    if (M4J_LIKELY(State != nullptr))
      return *State;
    return createCurrent();
  }

  // -- TCO ------------------------------------------------------------
  /// TCO=1 suppresses tag checks (the hardware meaning).
  void setTco(bool Suppress) {
    Tco = Suppress;
    refreshChecksOn();
  }
  bool tco() const { return Tco; }

  // -- TCF ------------------------------------------------------------
  void setCheckMode(CheckMode NewMode) {
    Mode = NewMode;
    refreshChecksOn();
  }
  CheckMode checkMode() const { return Mode; }

  /// True when an access by this thread must be tag-checked.
  M4J_ALWAYS_INLINE bool checksOn() const {
    return ChecksOn.load(std::memory_order_relaxed);
  }

  // -- TFSR (async latch) ----------------------------------------------
  /// Latches an async mismatch; only the first pending one keeps details.
  void latchAsyncFault(uint64_t DebugAddress, TagValue PointerTag,
                       TagValue MemoryTag, bool IsWrite, uint32_t Size);

  bool asyncPending() const { return AsyncPending; }

  /// Delivers a pending async fault (invoked from the syscall barrier on
  /// this thread). No-op when nothing is latched.
  void drainAsync(const char *SyscallName);

  // -- checked-access counts ----------------------------------------------
  /// Counts one check the region cache served that covered
  /// 1 + \p ExtraGranules in-region granules: one cell, plus a second for
  /// an access that straddles granules.
  M4J_ALWAYS_INLINE void countHit(bool IsWrite, uint64_t ExtraGranules) {
    bump(IsWrite ? AccessCount::StoreHits : AccessCount::LoadHits, 1);
    if (M4J_UNLIKELY(ExtraGranules != 0))
      bump(AccessCount::ExtraGranules, ExtraGranules);
  }
  /// Counts one slow-path check that covered \p Granules (at least one)
  /// in-region granules.
  void countSlow(bool IsWrite, uint64_t Granules) {
    bump(IsWrite ? AccessCount::SlowStores : AccessCount::SlowLoads, 1);
    bump(AccessCount::ExtraGranules, Granules - 1);
  }
  /// Granules this thread has tag-checked.
  uint64_t checksPerformed() const {
    uint64_t Sum = 0;
    for (unsigned I = 0; I < kNumAccessCounts; ++I)
      Sum += accessCount(AccessCount(I));
    return Sum;
  }

  /// Per-thread RNG used by the IRG instruction.
  support::Xoshiro256 &irgRng() { return IrgRng; }

  uint64_t threadId() const { return Id; }

  // -- region cache (same-thread only; the checked-access fast path) ------
  /// The last region this thread's checked accesses hit: its begin, size
  /// and packed shadow, read directly by the fast paths. Valid only while
  /// cachedRegionEpoch() still equals detail::RegionPublishEpoch — any
  /// registerRegion/unregisterRegion invalidates every thread's cache by
  /// bumping the epoch. An empty cache has epoch 0, which the publish
  /// epoch (starting at 1) never equals. A shared_ptr keeps the cached
  /// TaggedRegion, and so its shadow, alive across unregistration, so a
  /// stale shadow pointer can never dangle; the epoch check merely keeps
  /// it from validating accesses.
  uint64_t cachedRegionEpoch() const { return CachedRegionEpoch; }
  uint64_t cachedRegionBegin() const { return CachedRegionBegin; }
  const uint8_t *cachedRegionShadow() const { return CachedRegionShadow; }
  /// True when \p Bytes bytes at offset \p Off from cachedRegionBegin()
  /// lie inside the cached region. One range compare on the offset: an
  /// address below the region wraps to a huge Off, and a \p Bytes larger
  /// than the region cannot underflow size - Off once Off < size.
  M4J_ALWAYS_INLINE bool cachedRegionCovers(uint64_t Off,
                                            uint64_t Bytes) const {
    return Off < CachedRegionSize && Bytes <= CachedRegionSize - Off;
  }

  /// Installs \p Region (observed under publish epoch \p Epoch) as the
  /// thread's last-hit region. Null clears the cache.
  void cacheRegion(std::shared_ptr<const TaggedRegion> Region,
                   uint64_t Epoch);

  /// This thread's read-side epoch slot for the snapshot retire protocol:
  /// 0 when quiescent, otherwise the publish epoch observed on entering a
  /// region walk (see MteSystem::RegionPin).
  std::atomic<uint64_t> &regionEpochSlot() { return ActiveRegionEpoch; }

  // -- tag-slot memo (same-thread only; TagAllocator's acquire/release
  //    fast paths) -------------------------------------------------------
  /// A small direct-mapped cache of (owner, begin) -> slot pointer: the
  /// only slot cache. A Release on the thread that ran the Get, and the
  /// next Get of the same range, skip the table probe and go straight to
  /// the slot CAS; a miss (another thread, or an evicted entry) costs one
  /// probe. A hit is the key's slot: a tag-table slot keeps its key for
  /// the table's lifetime, and \p Owner is the allocator's never-reused
  /// identity so a destroyed allocator's entries can never validate. The
  /// slot's (epoch, resident, refcount) CAS still decides whether its tags
  /// are valid. Stored as void* to keep this layer ignorant of
  /// core::TagTable.
  static constexpr unsigned kTagSlotMemoSize = 16;
  M4J_ALWAYS_INLINE void *tagSlotMemoLookup(uint64_t Owner,
                                            uint64_t Key) const {
    const TagSlotMemoEntry &E = TagSlotMemo[tagSlotMemoIndex(Key)];
    return (E.Owner == Owner && E.Key == Key) ? E.Slot : nullptr;
  }
  M4J_ALWAYS_INLINE void tagSlotMemoStore(uint64_t Owner, uint64_t Key,
                                          void *Slot) {
    TagSlotMemo[tagSlotMemoIndex(Key)] = {Owner, Key, Slot};
  }

private:
  ThreadState();
  ~ThreadState();
  friend class MteSystem;

  /// Constructs the calling thread's state on its first current().
  static M4J_NOINLINE ThreadState &createCurrent();

  /// Safe from any thread (relaxed read of a single-writer cell).
  uint64_t accessCount(AccessCount Which) const {
    return Counts[unsigned(Which)].load(std::memory_order_relaxed);
  }
  /// Single writer, so a relaxed load+store instead of an atomic RMW; the
  /// atomics keep concurrent snapshot reads race-free.
  M4J_ALWAYS_INLINE void bump(AccessCount Which, uint64_t N) {
    std::atomic<uint64_t> &Cell = Counts[unsigned(Which)];
    Cell.store(Cell.load(std::memory_order_relaxed) + N,
               std::memory_order_relaxed);
  }

  void refreshChecksOn() {
    ChecksOn.store(Mode != CheckMode::None && !Tco,
                   std::memory_order_relaxed);
  }

  bool Tco = false;
  CheckMode Mode = CheckMode::None;
  // Atomic because MteSystem::setProcessCheckMode may refresh it from
  // another thread at a quiescent point.
  std::atomic<bool> ChecksOn{false};

  bool AsyncPending = false;
  uint64_t PendingDebugAddress = 0;
  TagValue PendingPointerTag = 0;
  TagValue PendingMemoryTag = 0;
  bool PendingIsWrite = false;
  uint32_t PendingSize = 0;

  uint64_t CachedRegionEpoch = 0;
  uint64_t CachedRegionBegin = 0;
  uint64_t CachedRegionSize = 0;
  const uint8_t *CachedRegionShadow = nullptr;
  std::shared_ptr<const TaggedRegion> CachedRegionRef;
  std::atomic<uint64_t> Counts[kNumAccessCounts] = {};
  std::atomic<uint64_t> ActiveRegionEpoch{0};

  struct TagSlotMemoEntry {
    uint64_t Owner = 0; ///< allocator identity; 0 = empty
    uint64_t Key = 0;
    void *Slot = nullptr;
  };
  static unsigned tagSlotMemoIndex(uint64_t Key) {
    // Fibonacci-mix the granule index; the top bits select the entry.
    return static_cast<unsigned>(
               ((Key >> kGranuleShift) * 0x9E3779B97F4A7C15ull) >> 60) &
           (kTagSlotMemoSize - 1);
  }
  TagSlotMemoEntry TagSlotMemo[kTagSlotMemoSize];

  support::Xoshiro256 IrgRng;
  uint64_t Id;
};

/// RAII: suppress (or enable) tag checks for the current scope, restoring
/// the previous TCO value on exit — the building block trampolines use.
class ScopedTco {
public:
  explicit ScopedTco(bool Suppress)
      : Saved(ThreadState::current().tco()) {
    ThreadState::current().setTco(Suppress);
  }
  ~ScopedTco() { ThreadState::current().setTco(Saved); }

  ScopedTco(const ScopedTco &) = delete;
  ScopedTco &operator=(const ScopedTco &) = delete;

private:
  bool Saved;
};

} // namespace mte4jni::mte

#endif // MTE4JNI_MTE_THREADSTATE_H
