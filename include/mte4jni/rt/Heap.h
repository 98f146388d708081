//===- Heap.h - Mini-ART Java heap allocator ------------------------*- C++ -*-===//
//
// Part of the MTE4JNI reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Java heap: a contiguous arena with thread-local allocation buffers
/// (TLABs) bumping off a shared frontier, per-thread segregated free lists
/// refilled by the GC sweep, and an object-start liveness bitmap. Two knobs
/// reproduce the paper's §4.1 modifications:
///
///   * Alignment — ART's default is 8 bytes; MTE4JNI raises it to 16 so no
///     two objects ever share a tag granule.
///   * ProtMte — when set, the arena is registered with the MTE simulator
///     (the analog of mapping the heap with PROT_MTE).
///
/// Allocation pipeline:
///
///   * Every thread slot (support/PerThread.h) has its own TLAB, free list
///     and stat cells. The common alloc is a bump in the caller's TLAB — no
///     lock, no shared cache line; refills carve the arena under a mutex.
///   * Free lists are indexed by size class (direct array up to 256
///     classes, map beyond) under an uncontended spinlock. A single free()
///     joins the freeing thread's list; a collection's freed blocks join
///     the collecting thread's list at every GC parallelism, whichever
///     worker swept them. An allocation tries its own list, then its TLAB,
///     and other threads' lists only once the bump frontier is exhausted.
///   * Liveness is an atomic side bitmap over alignment granules:
///     isLiveObject is a lock-free O(1) bit test, and forEachObject walks
///     the bitmap linearly WITHOUT holding any heap lock — callbacks may
///     allocate and free.
///
//===----------------------------------------------------------------------===//

#ifndef MTE4JNI_RT_HEAP_H
#define MTE4JNI_RT_HEAP_H

#include "mte4jni/rt/Object.h"
#include "mte4jni/support/MathExtras.h"
#include "mte4jni/support/PerThread.h"
#include "mte4jni/support/SpinLock.h"

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

namespace mte4jni::rt {

struct HeapConfig {
  uint64_t CapacityBytes = 64ull << 20;
  /// Object alignment: 8 (stock ART) or 16 (MTE4JNI, §4.1).
  unsigned Alignment = 8;
  /// Register the arena as a PROT_MTE region with the MTE simulator.
  bool ProtMte = false;
};

struct HeapStats {
  uint64_t BytesAllocated = 0; ///< cumulative
  uint64_t BytesLive = 0;
  uint64_t ObjectsAllocated = 0; ///< cumulative
  uint64_t ObjectsLive = 0;
  uint64_t ObjectsFreed = 0;
  uint64_t FreeListHits = 0;
};

class JavaHeap {
public:
  explicit JavaHeap(const HeapConfig &Config);
  ~JavaHeap();

  JavaHeap(const JavaHeap &) = delete;
  JavaHeap &operator=(const JavaHeap &) = delete;

  /// Allocates a primitive array object; returns nullptr when the heap is
  /// exhausted (callers surface OutOfMemoryError).
  ObjectHeader *allocPrimArray(PrimType Elem, uint32_t Length);

  /// Allocates a string object backed by \p Length UTF-16 units.
  ObjectHeader *allocString(uint32_t Length);

  /// Allocates an Object[] of \p Length null slots.
  ObjectHeader *allocRefArray(uint32_t Length);

  /// Frees an object onto the calling thread's free list, so this
  /// thread's next same-size allocation returns the same address.
  /// Thread-safe.
  void free(ObjectHeader *Obj);

  /// Names one thread's free list; see callerFreeList().
  enum class FreeListId : unsigned {};
  /// The calling thread's free list: free() pushes onto it, and this
  /// thread's allocations pop from it before bumping the TLAB.
  static FreeListId callerFreeList();

  /// The GC sweep's batch free: retires every object of \p Objs as free()
  /// does (live bit, stats, freed-range hook, header poison), then pushes
  /// all of their blocks onto free list \p Into under one hold of its
  /// lock. The sweep passes the collecting thread's list, so where a
  /// collection's blocks land does not depend on which worker swept them.
  /// Returns the bytes freed. Thread-safe.
  uint64_t freeAll(std::span<ObjectHeader *const> Objs, FreeListId Into);

  /// Hook invoked with an object's payload range whenever that memory
  /// stops belonging to the object: on free()/GC sweep, and for the OLD
  /// location of every object compact() moves. The MTE4JNI session wires
  /// this to TagAllocator::reclaimRange so a deferred tag-clear can never
  /// leave a dead (or moved-away-from) object with valid granule tags —
  /// the security-critical reclaim path. A raw function pointer plus
  /// context (not std::function) so an uninstalled hook costs one
  /// predicted branch per free. Install before mutator traffic starts and
  /// clear only after the GC is stopped: free() reads the pair unlocked.
  using FreedRangeHook = void (*)(void *Ctx, uint64_t PayloadBegin,
                                  uint64_t PayloadBytes);
  void setFreedRangeHook(FreedRangeHook Hook, void *Ctx) {
    FreedHookCtx = Ctx;
    FreedHook = Hook;
  }

  /// Calls \p Fn for every live object, walking the liveness bitmap in
  /// address order WITHOUT holding any heap lock: \p Fn may allocate and
  /// free (including the visited object itself). Objects allocated after
  /// the walk passes their bitmap word may be missed; the caller must
  /// prevent concurrent frees of objects it did not free itself (the GC
  /// runs this inside a world pause).
  void forEachObject(const std::function<void(ObjectHeader *)> &Fn);

  /// forEachObject restricted to stripe \p Stripe of \p NumStripes equal
  /// bitmap segments — the parallel-sweep partitioning. Every live object
  /// is visited by exactly one stripe.
  void forEachObjectShard(unsigned Stripe, unsigned NumStripes,
                          const std::function<void(ObjectHeader *)> &Fn);

  /// Mark-compact support: slides live objects toward the heap base in
  /// address order, skipping pinned objects (which stay exactly where
  /// native code's raw pointers expect them). Returns the mapping of
  /// moved objects (old header -> new header); the caller (the GC) must
  /// update every root. The world must be paused.
  std::vector<std::pair<ObjectHeader *, ObjectHeader *>> compact();

  bool contains(const void *Ptr) const {
    uint64_t Addr = reinterpret_cast<uint64_t>(Ptr);
    return Addr >= Base && Addr < Base + Config.CapacityBytes;
  }

  /// True if \p Ptr points at the header of a live object. Lock-free O(1)
  /// bitmap test.
  bool isLiveObject(ObjectHeader *Ptr) const;

  const HeapConfig &config() const { return Config; }
  HeapStats stats() const;

  uint64_t base() const { return Base; }
  uint64_t capacity() const { return Config.CapacityBytes; }
  /// Side-bitmap memory overhead (one bit per alignment granule).
  uint64_t liveBitmapBytes() const { return NumBitWords * 8; }

private:
  /// See setFreedRangeHook. Written before traffic / after GC stop only.
  FreedRangeHook FreedHook = nullptr;
  void *FreedHookCtx = nullptr;

  M4J_ALWAYS_INLINE void notifyFreedRange(ObjectHeader *Obj, uint64_t Size) {
    if (M4J_UNLIKELY(FreedHook != nullptr) && Size > sizeof(ObjectHeader))
      FreedHook(FreedHookCtx, Obj->dataAddress(),
                Size - sizeof(ObjectHeader));
  }

  /// Free-list size classes directly indexed by (Size >> AlignShift);
  /// larger blocks fall into a map.
  static constexpr unsigned kNumSmallClasses = 256;
  /// TLAB size carved per refill, before the CapacityBytes/16 clamp.
  static constexpr uint64_t kTlabSize = 64 << 10;

  /// One thread slot's share of the heap. Only the owner bumps the TLAB
  /// (compact() resets it with the world paused) and adds to the stats.
  /// Other threads push onto and take from the free list under its lock.
  struct alignas(64) ThreadHeap {
    /// Next free byte / one-past-the-end of the TLAB.
    std::atomic<uint64_t> TlabCur{0};
    std::atomic<uint64_t> TlabEnd{0};
    std::atomic<int64_t> BytesAllocated{0};
    std::atomic<int64_t> BytesLive{0};
    std::atomic<int64_t> ObjectsAllocated{0};
    std::atomic<int64_t> ObjectsLive{0};
    std::atomic<int64_t> ObjectsFreed{0};
    std::atomic<int64_t> FreeListHits{0};
    /// Own cache line: other threads take this lock.
    alignas(64) support::SpinLock Lock;
    /// Blocks across all lists; a relaxed hint that lets the alloc fast
    /// path skip the lock when the list is empty.
    std::atomic<uint64_t> Count{0};
    std::vector<uint64_t> Small[kNumSmallClasses];
    std::unordered_map<uint64_t, std::vector<uint64_t>> Large;
  };

  ObjectHeader *allocObject(uint32_t ClassWord, uint32_t Length,
                            uint64_t PayloadBytes);

  /// Refill-lock slow path: TLAB refill or a big object's direct carve,
  /// then, once the frontier is exhausted, any thread's free list. Sets
  /// \p FreeListHit when the block came from a free list.
  uint64_t allocSlow(uint64_t Size, bool &FreeListHit);

  /// Pops an exact-size block from \p TH's free list; 0 when none.
  uint64_t takeFree(ThreadHeap &TH, uint64_t Size);
  /// The body of free() and freeAll(): retires \p Objs, then pushes their
  /// blocks onto \p Into's free list under one hold of its lock. Inlined
  /// into both, so the one-object free() compiles to straight-line code.
  uint64_t freeInto(std::span<ObjectHeader *const> Objs, ThreadHeap &Into);

  /// Bytes left between the aligned bump frontier and the arena's end.
  uint64_t frontierRoom() const;
  /// Carves [result, result+Bytes) from the bump frontier; 0 when the
  /// arena is exhausted. RefillLock must be held.
  uint64_t carveLocked(uint64_t Bytes);

  // -- liveness bitmap ----------------------------------------------------
  uint64_t bitIndexOf(uint64_t Addr) const {
    return (Addr - Base) >> AlignShift;
  }
  void setLiveBit(uint64_t Addr, std::memory_order Order);
  /// Clears the bit; asserts it was set ("freeing unknown object").
  void clearLiveBit(uint64_t Addr);

  HeapConfig Config;
  std::unique_ptr<uint8_t[]> Storage;
  uint64_t Base = 0;
  unsigned AlignShift = 3;
  /// kTlabSize clamped to CapacityBytes/16.
  uint64_t TlabSize = 0;

  /// Allocation frontier, guarded by RefillLock for writes; readable
  /// lock-free (forEachObject bounds its walk with it).
  std::atomic<uint64_t> BumpOffset{0};
  mutable std::mutex RefillLock;

  /// One bit per alignment granule, set at the granule holding a live
  /// object's header.
  std::unique_ptr<std::atomic<uint64_t>[]> LiveBits;
  uint64_t NumBitWords = 0;

  support::PerThread<ThreadHeap> Threads;
};

} // namespace mte4jni::rt

#endif // MTE4JNI_RT_HEAP_H
