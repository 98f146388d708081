//===- Heap.cpp - Mini-ART Java heap allocator -----------------------------------===//
//
// Part of the MTE4JNI reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "mte4jni/rt/Heap.h"

#include "mte4jni/mte/MteSystem.h"
#include "mte4jni/mte/Tag.h"
#include "mte4jni/support/TraceRing.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <vector>

namespace mte4jni::rt {

namespace {

/// Allocation-pipeline composition: how often the TLAB bump wins, how often
/// it refills, and how often an allocation bypasses it entirely (big
/// objects). Free-list reuse is tracked in HeapStats (per heap); these are
/// process-wide rates.
struct HeapMetrics {
  support::Counter &TlabHit = support::Metrics::counter("rt/heap/tlab_hit");
  support::Counter &TlabRefill =
      support::Metrics::counter("rt/heap/tlab_refill");
  support::Counter &TlabFallback =
      support::Metrics::counter("rt/heap/tlab_fallback");
  support::Counter &FreeListSteal =
      support::Metrics::counter("rt/heap/freelist_steal");
  support::Gauge &BitmapBytes =
      support::Metrics::gauge("rt/heap/bitmap_bytes");
  /// Why an allocation left the TLAB bump path (fast-path attribution):
  /// refill = normal TLAB exhaustion; big_object = Size * 4 > TLAB size;
  /// frontier_exhausted = the bump frontier ran out and the free lists
  /// were scavenged.
  support::Counter &SlowRefill =
      support::Metrics::counter("rt/heap/tlab_slow_reason/refill");
  support::Counter &SlowBigObject =
      support::Metrics::counter("rt/heap/tlab_slow_reason/big_object");
  support::Counter &SlowFrontierExhausted = support::Metrics::counter(
      "rt/heap/tlab_slow_reason/frontier_exhausted");
};

HeapMetrics &heapMetrics() {
  static HeapMetrics M;
  return M;
}

} // namespace

JavaHeap::JavaHeap(const HeapConfig &Config) : Config(Config) {
  M4J_ASSERT(Config.Alignment == 8 || Config.Alignment == 16,
             "heap alignment must be 8 (stock ART) or 16 (MTE4JNI)");
  this->Config.CapacityBytes =
      support::alignTo(Config.CapacityBytes, mte::kGranuleSize);
  Storage.reset(new uint8_t[this->Config.CapacityBytes + mte::kGranuleSize]);
  Base = support::alignTo(reinterpret_cast<uint64_t>(Storage.get()),
                          mte::kGranuleSize);
  AlignShift = Config.Alignment == 16 ? 4 : 3;

  // One bit per alignment granule: 1/64th (align 8) or 1/128th (align 16)
  // of the arena. Value-initialised to all-dead.
  NumBitWords = ((this->Config.CapacityBytes >> AlignShift) + 63) / 64;
  LiveBits.reset(new std::atomic<uint64_t>[NumBitWords]());
  heapMetrics().BitmapBytes.set(static_cast<int64_t>(NumBitWords * 8));

  // Clamp the TLAB so tiny test heaps (4 KiB OOM fixtures) are not eaten
  // by the first refill.
  TlabSize = support::alignTo(
      std::min<uint64_t>(kTlabSize,
                         std::max<uint64_t>(this->Config.CapacityBytes / 16,
                                            mte::kGranuleSize)),
      Config.Alignment);

  if (Config.ProtMte)
    mte::MteSystem::instance().registerRegion(
        reinterpret_cast<void *>(Base), this->Config.CapacityBytes);
}

JavaHeap::~JavaHeap() {
  if (Config.ProtMte)
    mte::MteSystem::instance().unregisterRegion(
        reinterpret_cast<void *>(Base));
}

void JavaHeap::setLiveBit(uint64_t Addr, std::memory_order Order) {
  uint64_t Idx = bitIndexOf(Addr);
  LiveBits[Idx >> 6].fetch_or(uint64_t(1) << (Idx & 63), Order);
}

void JavaHeap::clearLiveBit(uint64_t Addr) {
  uint64_t Idx = bitIndexOf(Addr);
  uint64_t Bit = uint64_t(1) << (Idx & 63);
  uint64_t Prev = LiveBits[Idx >> 6].fetch_and(~Bit,
                                               std::memory_order_acq_rel);
  M4J_ASSERT(Prev & Bit, "freeing unknown object");
  (void)Prev;
}

uint64_t JavaHeap::frontierRoom() const {
  uint64_t Aligned = support::alignTo(
      Base + BumpOffset.load(std::memory_order_relaxed), Config.Alignment);
  uint64_t Limit = Base + Config.CapacityBytes;
  return Aligned < Limit ? Limit - Aligned : 0;
}

uint64_t JavaHeap::carveLocked(uint64_t Bytes) {
  uint64_t Room = frontierRoom();
  if (Room < Bytes)
    return 0;
  uint64_t Aligned = Base + Config.CapacityBytes - Room;
  BumpOffset.store((Aligned + Bytes) - Base, std::memory_order_release);
  return Aligned;
}

uint64_t JavaHeap::takeFree(ThreadHeap &TH, uint64_t Size) {
  std::lock_guard<support::SpinLock> Guard(TH.Lock);
  if (TH.Count.load(std::memory_order_relaxed) == 0)
    return 0;
  std::vector<uint64_t> *List = nullptr;
  uint64_t Class = Size >> AlignShift;
  if (Class < kNumSmallClasses) {
    if (!TH.Small[Class].empty())
      List = &TH.Small[Class];
  } else {
    auto It = TH.Large.find(Size);
    if (It != TH.Large.end() && !It->second.empty())
      List = &It->second;
  }
  if (!List)
    return 0;
  uint64_t Addr = List->back();
  List->pop_back();
  TH.Count.fetch_sub(1, std::memory_order_relaxed);
  return Addr;
}

uint64_t JavaHeap::allocSlow(uint64_t Size, bool &FreeListHit) {
  // TLAB-worthy sizes refill the caller's buffer; big objects carve
  // exactly what they need.
  HeapMetrics &HM = heapMetrics();
  bool Big = Size * 4 > TlabSize;
  (Big ? HM.SlowBigObject : HM.SlowRefill).add();
  // Once the rest of the arena cannot hold the request, the refill lock
  // cannot help: an unlocked look at the frontier skips it.
  if (frontierRoom() >= Size) {
    uint64_t Addr = 0, Bytes = 0;
    {
      std::lock_guard<std::mutex> Guard(RefillLock);
      Bytes = Big ? Size : std::min(TlabSize, frontierRoom());
      Addr = Bytes >= Size ? carveLocked(Bytes) : 0;
    }
    if (Addr && Big) {
      HM.TlabFallback.add();
      return Addr;
    }
    if (Addr) {
      HM.TlabRefill.add();
      // TLAB refills are cold: always in the flight ring unless Off.
      if (support::obs::coldArmed())
        support::FlightRecorder::record(support::FlightKind::TlabRefill, 0,
                                        static_cast<uint32_t>(Bytes),
                                        support::monotonicNanos(), 0);
      ThreadHeap &Own = Threads.local();
      Own.TlabCur.store(Addr + Size, std::memory_order_relaxed);
      Own.TlabEnd.store(Addr + Bytes, std::memory_order_relaxed);
      return Addr;
    }
  }

  // Frontier exhausted: scavenge an exact-size block from ANY thread's
  // free list, starting at the caller's own, before conceding
  // OutOfMemoryError.
  HM.SlowFrontierExhausted.add();
  unsigned Own = support::threadSlot();
  unsigned NumSlots = support::threadSlotHighWater();
  for (unsigned I = 0; I < NumSlots; ++I) {
    unsigned Victim = (Own + I) % NumSlots;
    ThreadHeap *TH = Threads.find(Victim);
    if (!TH || TH->Count.load(std::memory_order_relaxed) == 0)
      continue;
    if (uint64_t Addr = takeFree(*TH, Size)) {
      FreeListHit = true;
      if (Victim != Own)
        HM.FreeListSteal.add();
      return Addr;
    }
  }
  return 0;
}

ObjectHeader *JavaHeap::allocObject(uint32_t ClassWord, uint32_t Length,
                                    uint64_t PayloadBytes) {
  uint64_t Size = support::alignTo(sizeof(ObjectHeader) + PayloadBytes,
                                   Config.Alignment);
  if (Size > UINT32_MAX)
    return nullptr;

  static support::Histogram &AllocNanos =
      support::Metrics::histogram("rt/heap/alloc_nanos");
  support::SampledLatency Lat(AllocNanos);

  ThreadHeap &Own = Threads.local();

  // Fast path: same-size reuse from the caller's own list (kept ahead of
  // the TLAB so a free-then-realloc round trip returns the same address,
  // like the seed allocator), then the TLAB bump. The reuse check is one
  // relaxed load when the list is empty.
  uint64_t Addr = 0;
  bool FreeListHit = false;
  if (M4J_UNLIKELY(Own.Count.load(std::memory_order_relaxed) != 0)) {
    Addr = takeFree(Own, Size);
    FreeListHit = Addr != 0;
  }
  if (!Addr) {
    uint64_t Cur = Own.TlabCur.load(std::memory_order_relaxed);
    uint64_t End = Own.TlabEnd.load(std::memory_order_relaxed);
    if (M4J_LIKELY(Cur != 0 && Size <= End - Cur)) {
      Own.TlabCur.store(Cur + Size, std::memory_order_relaxed);
      Addr = Cur;
      heapMetrics().TlabHit.add();
    } else {
      Addr = allocSlow(Size, FreeListHit);
    }
  }
  if (!Addr)
    return nullptr; // OutOfMemoryError territory

  auto *Obj = reinterpret_cast<ObjectHeader *>(Addr);
  Obj->ClassWord = ClassWord;
  Obj->Length = Length;
  Obj->SizeBytes = static_cast<uint32_t>(Size);
  Obj->Flags = 0;
  std::memset(Obj->data(), 0, Size - sizeof(ObjectHeader));

  // Publish: release so a lock-free isLiveObject/forEachObject that sees
  // the bit also sees the initialised header.
  setLiveBit(Addr, std::memory_order_release);

  support::ownerAdd(Own.BytesAllocated, static_cast<int64_t>(Size));
  support::ownerAdd(Own.BytesLive, static_cast<int64_t>(Size));
  support::ownerAdd(Own.ObjectsAllocated, 1);
  support::ownerAdd(Own.ObjectsLive, 1);
  if (FreeListHit)
    support::ownerAdd(Own.FreeListHits, 1);
  return Obj;
}

ObjectHeader *JavaHeap::allocPrimArray(PrimType Elem, uint32_t Length) {
  return allocObject(makeClassWord(ObjectKind::PrimArray, Elem), Length,
                     static_cast<uint64_t>(Length) * primSize(Elem));
}

ObjectHeader *JavaHeap::allocString(uint32_t Length) {
  return allocObject(makeClassWord(ObjectKind::String, PrimType::Char),
                     Length, static_cast<uint64_t>(Length) * 2);
}

ObjectHeader *JavaHeap::allocRefArray(uint32_t Length) {
  return allocObject(makeClassWord(ObjectKind::RefArray, PrimType::Long),
                     Length,
                     static_cast<uint64_t>(Length) * sizeof(ObjectHeader *));
}

M4J_ALWAYS_INLINE uint64_t
JavaHeap::freeInto(std::span<ObjectHeader *const> Objs, ThreadHeap &Into) {
  int64_t Bytes = 0;
  for (ObjectHeader *Obj : Objs) {
    uint64_t Addr = reinterpret_cast<uint64_t>(Obj);
    M4J_ASSERT(contains(Obj) && (Addr & (Config.Alignment - 1)) == 0,
               "freeing unknown object");
    // Unpublish first: a lock-free isLiveObject never observes a poisoned
    // live object. Also asserts the bit was set (double-free detector).
    clearLiveBit(Addr);
    uint64_t Size = Obj->SizeBytes;
    Bytes += static_cast<int64_t>(Size);
    // A dead object must not keep valid granule tags: give the tag
    // allocator its chance to reclaim a deferred (lingering) tag-clear
    // before the block can be handed out again.
    notifyFreedRange(Obj, Size);
    // Poison the header so stale references are recognisable in tests.
    Obj->ClassWord = 0xDEADDEAD;
  }

  // Stats go to the calling thread's own cells.
  ThreadHeap &Own = Threads.local();
  int64_t N = static_cast<int64_t>(Objs.size());
  support::ownerAdd(Own.BytesLive, -Bytes);
  support::ownerAdd(Own.ObjectsLive, -N);
  support::ownerAdd(Own.ObjectsFreed, N);

  // The blocks go to the list the caller named, not necessarily its own:
  // free() keeps same-thread reuse local, and a GC sweep worker hands its
  // stripe's blocks to the collecting thread in one lock hold.
  std::lock_guard<support::SpinLock> Guard(Into.Lock);
  for (ObjectHeader *Obj : Objs) {
    uint64_t Size = Obj->SizeBytes;
    uint64_t Class = Size >> AlignShift;
    uint64_t Addr = reinterpret_cast<uint64_t>(Obj);
    if (Class < kNumSmallClasses)
      Into.Small[Class].push_back(Addr);
    else
      Into.Large[Size].push_back(Addr);
  }
  Into.Count.fetch_add(Objs.size(), std::memory_order_relaxed);
  return static_cast<uint64_t>(Bytes);
}

JavaHeap::FreeListId JavaHeap::callerFreeList() {
  return FreeListId{support::threadSlot()};
}

void JavaHeap::free(ObjectHeader *Obj) {
  freeInto({&Obj, 1}, Threads.local());
}

uint64_t JavaHeap::freeAll(std::span<ObjectHeader *const> Objs,
                           FreeListId Into) {
  return Objs.empty()
             ? 0
             : freeInto(Objs, Threads.at(static_cast<unsigned>(Into)));
}

std::vector<std::pair<ObjectHeader *, ObjectHeader *>> JavaHeap::compact() {
  // The world is paused (no mutator bumps its TLAB, no concurrent free);
  // the refill lock still serialises against stray direct allocations.
  std::lock_guard<std::mutex> Guard(RefillLock);

  uint64_t OldFrontier = BumpOffset.load(std::memory_order_relaxed);
  uint64_t WordEnd =
      std::min<uint64_t>(NumBitWords, ((OldFrontier >> AlignShift) + 63) / 64);

  // Live objects in address order — the bitmap walk is naturally sorted.
  std::vector<ObjectHeader *> Sorted;
  for (uint64_t W = 0; W < WordEnd; ++W) {
    uint64_t Bits = LiveBits[W].load(std::memory_order_relaxed);
    while (Bits) {
      unsigned B = static_cast<unsigned>(std::countr_zero(Bits));
      Bits &= Bits - 1;
      Sorted.push_back(reinterpret_cast<ObjectHeader *>(
          Base + (((W << 6) + B) << AlignShift)));
    }
  }

  std::vector<std::pair<ObjectHeader *, ObjectHeader *>> Moved;
  std::vector<ObjectHeader *> Final;
  Final.reserve(Sorted.size());
  uint64_t Cursor = Base;
  for (ObjectHeader *Obj : Sorted) {
    uint64_t Size = Obj->SizeBytes;
    if (Obj->pinCount() > 0) {
      // Pinned by JNI: native code holds a raw pointer; must not move.
      // The compaction cursor jumps over it.
      Cursor = std::max(Cursor,
                        reinterpret_cast<uint64_t>(Obj) + Size);
      Final.push_back(Obj);
      continue;
    }
    uint64_t Target = support::alignTo(Cursor, Config.Alignment);
    if (Target >= reinterpret_cast<uint64_t>(Obj)) {
      // Already packed (or a pinned object blocks any gain).
      Cursor = reinterpret_cast<uint64_t>(Obj) + Size;
      Final.push_back(Obj);
      continue;
    }
    // The object leaves this address: reclaim any lingering JNI tag on
    // the old payload before fresh allocations land here, or they would
    // start life with a valid-looking foreign tag. (Pinned objects never
    // reach this branch, so a moved object can have no live holder.)
    notifyFreedRange(Obj, Size);
    std::memmove(reinterpret_cast<void *>(Target), Obj, Size);
    auto *NewObj = reinterpret_cast<ObjectHeader *>(Target);
    Moved.emplace_back(Obj, NewObj);
    Final.push_back(NewObj);
    Cursor = Target + Size;
  }

  // Rebuild the liveness bitmap and reset the allocation frontier: all
  // fragmentation is gone, so the free lists and outstanding TLABs die
  // too (the carved-but-unbumped tail of a TLAB would otherwise alias
  // memory handed out again below the new frontier).
  for (uint64_t W = 0; W < WordEnd; ++W)
    LiveBits[W].store(0, std::memory_order_relaxed);
  uint64_t Frontier = Base;
  for (ObjectHeader *Obj : Final) {
    setLiveBit(reinterpret_cast<uint64_t>(Obj), std::memory_order_relaxed);
    Frontier = std::max(Frontier,
                        reinterpret_cast<uint64_t>(Obj) + Obj->SizeBytes);
  }
  BumpOffset.store(Frontier - Base, std::memory_order_release);
  Threads.forEach([](ThreadHeap &TH) {
    std::lock_guard<support::SpinLock> Guard(TH.Lock);
    for (auto &List : TH.Small)
      List.clear();
    TH.Large.clear();
    TH.Count.store(0, std::memory_order_relaxed);
    TH.TlabCur.store(0, std::memory_order_relaxed);
    TH.TlabEnd.store(0, std::memory_order_relaxed);
  });
  return Moved;
}

void JavaHeap::forEachObjectShard(
    unsigned Stripe, unsigned NumStripes,
    const std::function<void(ObjectHeader *)> &Fn) {
  // Lock-free: bound the walk by the frontier, snapshot one word at a
  // time. The callback runs with no heap lock held, so it may allocate
  // and free (including the object it was handed).
  uint64_t Frontier = BumpOffset.load(std::memory_order_acquire);
  uint64_t WordEnd =
      std::min<uint64_t>(NumBitWords, ((Frontier >> AlignShift) + 63) / 64);
  uint64_t PerStripe = (WordEnd + NumStripes - 1) / NumStripes;
  uint64_t Lo = std::min<uint64_t>(WordEnd, uint64_t(Stripe) * PerStripe);
  uint64_t Hi = std::min<uint64_t>(WordEnd, Lo + PerStripe);
  for (uint64_t W = Lo; W < Hi; ++W) {
    uint64_t Bits = LiveBits[W].load(std::memory_order_acquire);
    while (Bits) {
      unsigned B = static_cast<unsigned>(std::countr_zero(Bits));
      Bits &= Bits - 1;
      Fn(reinterpret_cast<ObjectHeader *>(Base +
                                          (((W << 6) + B) << AlignShift)));
    }
  }
}

void JavaHeap::forEachObject(
    const std::function<void(ObjectHeader *)> &Fn) {
  forEachObjectShard(0, 1, Fn);
}

bool JavaHeap::isLiveObject(ObjectHeader *Ptr) const {
  uint64_t Addr = reinterpret_cast<uint64_t>(Ptr);
  if (Addr < Base || Addr >= Base + Config.CapacityBytes ||
      (Addr & (Config.Alignment - 1)) != 0)
    return false;
  uint64_t Idx = bitIndexOf(Addr);
  return (LiveBits[Idx >> 6].load(std::memory_order_acquire) >>
          (Idx & 63)) &
         1;
}

HeapStats JavaHeap::stats() const {
  // Sum the threads' cells: exact once writers are quiescent (same contract
  // as the metrics registry). A thread's live counts go negative when it
  // frees what another thread allocated; the unsigned sums wrap back.
  HeapStats S;
  auto Add = [](uint64_t &Sum, const std::atomic<int64_t> &Cell) {
    Sum += static_cast<uint64_t>(Cell.load(std::memory_order_relaxed));
  };
  Threads.forEach([&](const ThreadHeap &TH) {
    Add(S.BytesAllocated, TH.BytesAllocated);
    Add(S.BytesLive, TH.BytesLive);
    Add(S.ObjectsAllocated, TH.ObjectsAllocated);
    Add(S.ObjectsLive, TH.ObjectsLive);
    Add(S.ObjectsFreed, TH.ObjectsFreed);
    Add(S.FreeListHits, TH.FreeListHits);
  });
  return S;
}

} // namespace mte4jni::rt
