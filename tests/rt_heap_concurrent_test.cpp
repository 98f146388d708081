//===- rt_heap_concurrent_test.cpp - TLAB allocator under contention ------------------===//
//
// Part of the MTE4JNI reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// The scalable-allocation contract: N threads alloc/free through their
// TLABs and sharded free lists while the (optionally parallel) GC runs,
// and the sharded stats still reconcile exactly; isLiveObject stays a
// lock-free bit test under churn; forEachObject no longer self-deadlocks
// when the callback touches the heap; and compaction reclaims a moved
// object's lingering JNI tags at its old address. Runs under TSan in CI.
//
//===----------------------------------------------------------------------===//

#include "mte4jni/core/TagAllocator.h"
#include "mte4jni/mte/Instructions.h"
#include "mte4jni/mte/MteSystem.h"
#include "mte4jni/rt/Runtime.h"
#include "mte4jni/rt/Trampoline.h"
#include "mte4jni/support/Metrics.h"

#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <chrono>
#include <thread>
#include <vector>

namespace {

using namespace mte4jni;
using namespace mte4jni::rt;

// Sized for TSan's ~10x slowdown on the CI runners.
constexpr unsigned kThreads = 4;
constexpr unsigned kItersPerThread = 3000;

HeapConfig plainHeapConfig() {
  HeapConfig C;
  C.CapacityBytes = 64 << 20;
  return C;
}

/// Ground truth from a bitmap walk (no allocator metadata involved).
std::pair<uint64_t, uint64_t> countLive(JavaHeap &Heap) {
  uint64_t Objects = 0, Bytes = 0;
  Heap.forEachObject([&](ObjectHeader *Obj) {
    ++Objects;
    Bytes += Obj->SizeBytes;
  });
  return {Objects, Bytes};
}

TEST(RtHeapConcurrent, StatsReconcileAfterParallelChurn) {
  JavaHeap Heap(plainHeapConfig());
  std::atomic<uint64_t> Freed{0};

  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < kThreads; ++T)
    Threads.emplace_back([&, T] {
      // Ring of live objects: steady-state alloc/free churn with mixed
      // size classes, everything allocated by this thread freed by it.
      constexpr unsigned kRing = 64;
      ObjectHeader *Ring[kRing] = {};
      uint64_t LocalFreed = 0;
      for (unsigned I = 0; I < kItersPerThread; ++I) {
        uint32_t Len = 8u << ((I + T) % 4); // 8..64 ints
        ObjectHeader *Obj = Heap.allocPrimArray(PrimType::Int, Len);
        ASSERT_NE(Obj, nullptr);
        ASSERT_TRUE(Heap.isLiveObject(Obj));
        unsigned Slot = I % kRing;
        if (Ring[Slot]) {
          Heap.free(Ring[Slot]);
          ++LocalFreed;
        }
        Ring[Slot] = Obj;
      }
      for (ObjectHeader *Obj : Ring)
        if (Obj) {
          Heap.free(Obj);
          ++LocalFreed;
        }
      Freed.fetch_add(LocalFreed);
    });
  for (auto &Th : Threads)
    Th.join();

  HeapStats Stats = Heap.stats();
  EXPECT_EQ(Stats.ObjectsAllocated, uint64_t(kThreads) * kItersPerThread);
  EXPECT_EQ(Stats.ObjectsFreed, Freed.load());
  EXPECT_EQ(Stats.ObjectsFreed, Stats.ObjectsAllocated)
      << "every ring slot was drained";
  EXPECT_EQ(Stats.ObjectsLive, 0u);
  EXPECT_EQ(Stats.BytesLive, 0u);
  auto [LiveObjects, LiveBytes] = countLive(Heap);
  EXPECT_EQ(LiveObjects, 0u);
  EXPECT_EQ(LiveBytes, 0u);
}

TEST(RtHeapConcurrent, IsLiveObjectLockFreeUnderChurn) {
  JavaHeap Heap(plainHeapConfig());

  // A stable set the reader polls while writers churn around it.
  std::vector<ObjectHeader *> Stable;
  for (int I = 0; I < 32; ++I)
    Stable.push_back(Heap.allocPrimArray(PrimType::Long, 16));

  std::atomic<bool> Stop{false};
  std::thread Reader([&] {
    while (!Stop.load(std::memory_order_acquire))
      for (ObjectHeader *Obj : Stable)
        ASSERT_TRUE(Heap.isLiveObject(Obj));
  });

  std::vector<std::thread> Writers;
  for (unsigned T = 0; T < 2; ++T)
    Writers.emplace_back([&] {
      for (unsigned I = 0; I < kItersPerThread; ++I) {
        ObjectHeader *Obj = Heap.allocPrimArray(PrimType::Int, 32);
        ASSERT_NE(Obj, nullptr);
        Heap.free(Obj);
      }
    });
  for (auto &Th : Writers)
    Th.join();
  Stop.store(true, std::memory_order_release);
  Reader.join();

  EXPECT_EQ(Heap.stats().ObjectsLive, Stable.size());
}

TEST(RtHeapConcurrent, ForEachObjectCallbackMayTouchHeap) {
  // Regression: the seed held the heap lock across the callback, so a
  // callback that allocated or freed self-deadlocked.
  JavaHeap Heap(plainHeapConfig());
  for (int I = 0; I < 8; ++I)
    Heap.allocPrimArray(PrimType::Int, 16);

  // Allocating from the callback must not deadlock. The walk may or may
  // not visit the new objects (they land inside the snapshotted frontier),
  // so cap the callback's allocations and only bound Visited from below.
  uint64_t Visited = 0;
  std::vector<ObjectHeader *> Extra;
  Heap.forEachObject([&](ObjectHeader *Obj) {
    ++Visited;
    (void)Obj;
    if (Extra.size() < 8)
      Extra.push_back(Heap.allocPrimArray(PrimType::Byte, 8));
  });
  EXPECT_GE(Visited, 8u);

  // Freeing the visited object itself from the callback must work too
  // (exactly what the parallel sweep does).
  uint64_t Swept = 0;
  Heap.forEachObject([&](ObjectHeader *Obj) {
    Heap.free(Obj);
    ++Swept;
  });
  EXPECT_EQ(Swept, 8u + Extra.size());
  EXPECT_EQ(Heap.stats().ObjectsLive, 0u);
}

TEST(RtHeapConcurrent, MoreThreadsThanShardsReconcile) {
  // More threads than inline thread slots: the later threads' TLABs, free
  // lists and stat cells live in chunks, and the stats must stay exact.
  JavaHeap Heap(plainHeapConfig());
  constexpr unsigned kManyThreads = 20;
  constexpr unsigned kIters = 300;

  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < kManyThreads; ++T)
    Threads.emplace_back([&] {
      std::vector<ObjectHeader *> Mine;
      for (unsigned I = 0; I < kIters; ++I) {
        ObjectHeader *Obj = Heap.allocPrimArray(PrimType::Int, 64);
        ASSERT_NE(Obj, nullptr);
        Mine.push_back(Obj);
      }
      for (ObjectHeader *Obj : Mine)
        Heap.free(Obj);
    });
  for (auto &Th : Threads)
    Th.join();

  HeapStats Stats = Heap.stats();
  EXPECT_EQ(Stats.ObjectsAllocated, uint64_t(kManyThreads) * kIters);
  EXPECT_EQ(Stats.ObjectsFreed, Stats.ObjectsAllocated);
  EXPECT_EQ(Stats.ObjectsLive, 0u);
  EXPECT_EQ(Stats.BytesLive, 0u);
}

TEST(RtHeapConcurrent, EveryLiveThreadBumpsItsOwnTlab) {
  // More than 16 threads allocate at once, in a heap whose frontier does
  // not run out: each has a TLAB of its own, so no small allocation takes
  // the locked direct carve (rt/heap/tlab_fallback).
  JavaHeap Heap(plainHeapConfig());
  constexpr unsigned kManyThreads = 24;
  constexpr unsigned kIters = 200;
  static_assert(kManyThreads > support::kInlineThreadSlots);
  support::MetricsSnapshot Before = support::Metrics::snapshot();
  std::barrier Live(kManyThreads);
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < kManyThreads; ++T)
    Threads.emplace_back([&] {
      Live.arrive_and_wait();
      for (unsigned I = 0; I < kIters; ++I)
        EXPECT_NE(Heap.allocPrimArray(PrimType::Int, 16), nullptr);
      Live.arrive_and_wait(); // no thread exits while another allocates
    });
  for (auto &Th : Threads)
    Th.join();

  support::MetricsSnapshot After = support::Metrics::snapshot();
  auto Delta = [&](const char *Name) {
    return After.counterValue(Name) - Before.counterValue(Name);
  };
  EXPECT_EQ(Delta("rt/heap/tlab_fallback"), 0u);
  EXPECT_EQ(Delta("rt/heap/tlab_hit") + Delta("rt/heap/tlab_refill"),
            uint64_t(kManyThreads) * kIters);
  EXPECT_EQ(Heap.stats().ObjectsAllocated, uint64_t(kManyThreads) * kIters);
}

TEST(RtHeapConcurrent, AllocWhileBackgroundGcRuns) {
  RuntimeConfig C;
  C.Heap.CapacityBytes = 16 << 20;
  C.Gc.BackgroundThread = true;
  C.Gc.IntervalMillis = 1;
  C.Gc.Parallelism = 2;
  // Body verification against live mutators: the safepoint handshake
  // makes the stop-the-world window real, so the verify pass no longer
  // races mutator payload writes (this was forced off before the
  // handshake existed).
  C.Gc.VerifyObjectBodies = true;
  Runtime RT(C);

  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < kThreads; ++T)
    Threads.emplace_back([&] {
      RT.attachCurrentThread("mutator");
      for (unsigned Batch = 0; Batch < 15; ++Batch) {
        HandleScope Scope(RT);
        for (unsigned I = 0; I < 100; ++I) {
          // Rooted allocation through the runtime factory...
          ObjectHeader *Obj = RT.newPrimArray(Scope, PrimType::Int, 16);
          ASSERT_NE(Obj, nullptr);
          // ...plus unrooted garbage straight off the heap for the
          // concurrent sweep to reclaim (may fail near a GC cycle).
          // Raw heap allocation bypasses the factory's critical bracket,
          // so take one here: the zero-init write must not overlap the
          // pause's verify reads.
          ScopedCritical Bracket(RT);
          RT.heap().allocPrimArray(PrimType::Int, 8);
        }
        // Scope exit unroots the batch: it becomes sweep fodder.
      }
      RT.detachCurrentThread();
    });
  for (auto &Th : Threads)
    Th.join();

  RT.gc().stop();
  RT.gc().collect();
  HeapStats Stats = RT.heap().stats();
  EXPECT_EQ(Stats.ObjectsLive, 0u)
      << "nothing rooted remains after the final collection";
  EXPECT_EQ(Stats.BytesLive, 0u);
  EXPECT_GT(RT.gc().completedCycles(), 0u);
}

TEST(RtHeapConcurrent, VerifyRacesCallNativePayloadWriters) {
  // The safepoint-correctness test TSan actually exercises: a background
  // collector with VerifyObjectBodies=true reads every live payload during
  // its pause while mutator threads write payloads from inside
  // rt::callNative bodies. The callNative bracket is the only thing
  // ordering those writes against the verify reads — if the handshake has
  // a hole (lost wakeup, store-buffering miss, backout race), TSan flags
  // the payload bytes.
  RuntimeConfig C;
  C.Heap.CapacityBytes = 16 << 20;
  C.Gc.BackgroundThread = true;
  C.Gc.IntervalMillis = 1;
  C.Gc.VerifyObjectBodies = true;
  Runtime RT(C);

  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < kThreads; ++T)
    Threads.emplace_back([&, T] {
      JavaThread &Self = RT.attachCurrentThread("writer");
      HandleScope Scope(RT);
      ObjectHeader *Mine = RT.newPrimArray(Scope, PrimType::Int, 256);
      ASSERT_NE(Mine, nullptr);
      for (unsigned Round = 0; Round < 600; ++Round) {
        callNative(Self, NativeKind::Regular, "payload_writer", [&] {
          int32_t *Data = arrayData<int32_t>(Mine);
          for (unsigned I = 0; I < 256; ++I)
            Data[I] = static_cast<int32_t>(Round * kThreads + T);
          return 0;
        });
        // Garbage between writes keeps the sweep busy so pauses keep
        // landing in the middle of the write traffic.
        RT.newPrimArray(Scope, PrimType::Int, 16);
        if ((Round & 63) == 0) {
          HandleScope Churn(RT);
          RT.newPrimArray(Churn, PrimType::Byte, 64);
        }
      }
      RT.detachCurrentThread();
    });
  for (auto &Th : Threads)
    Th.join();

  // The writers can finish before the background thread's first collect()
  // begins, and stop() joins a cycle under way but starts none: wait for
  // one to complete.
  for (int Spin = 0; Spin < 2000 && RT.gc().completedCycles() == 0; ++Spin)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  RT.gc().stop();
  EXPECT_GT(RT.gc().completedCycles(), 0u)
      << "the collector must actually have verified against the writers";
}

TEST(RtHeapConcurrent, ParallelCollectMatchesSequentialSemantics) {
  for (unsigned Parallelism : {1u, 4u}) {
    RuntimeConfig C;
    C.Heap.CapacityBytes = 16 << 20;
    C.Gc.Parallelism = Parallelism;
    Runtime RT(C);
    RT.attachCurrentThread("main");
    {
      HandleScope Scope(RT);
      // A reference graph the mark phase must trace transitively: a
      // rooted spine of ref-arrays, each holding prim-array leaves.
      ObjectHeader *Spine = RT.newRefArray(Scope, 8);
      ObjectHeader *Node = Spine;
      uint64_t Reachable = 1;
      for (int Depth = 0; Depth < 40; ++Depth) {
        ObjectHeader *Next = RT.heap().allocRefArray(8);
        refArraySlots(Node)[0] = Next;
        ++Reachable;
        for (int Leaf = 1; Leaf < 8; ++Leaf) {
          refArraySlots(Node)[Leaf] =
              RT.heap().allocPrimArray(PrimType::Int, 16);
          ++Reachable;
        }
        Node = Next;
      }
      constexpr uint64_t kGarbage = 500;
      for (uint64_t I = 0; I < kGarbage; ++I)
        RT.heap().allocPrimArray(PrimType::Int, 24);

      GcResult Result = RT.gc().collect();
      EXPECT_EQ(RT.gc().workers(), Parallelism);
      EXPECT_EQ(Result.ObjectsScanned, Reachable + kGarbage);
      EXPECT_EQ(Result.ObjectsFreed, kGarbage);
      // Every graph node survived.
      uint64_t Live = 0;
      RT.heap().forEachObject([&](ObjectHeader *) { ++Live; });
      EXPECT_EQ(Live, Reachable);
      EXPECT_EQ(RT.heap().stats().ObjectsLive, Reachable);

      // A second cycle frees nothing: the graph is still fully rooted.
      GcResult Again = RT.gc().collect();
      EXPECT_EQ(Again.ObjectsFreed, 0u);
      EXPECT_EQ(Again.ObjectsScanned, Reachable);
    }
    RT.detachCurrentThread();
  }
}

TEST(RtHeapConcurrent, CompactionReclaimsLingeringJniTagsAtOldAddress) {
  // A deferred release leaves an object's JNI tags in place. When
  // compaction moves the object, the heap's freed-range hook must reclaim
  // them at the old address, or the next allocation landing there would
  // start life with a valid-looking foreign tag.
  RuntimeConfig C;
  C.Heap.CapacityBytes = 4 << 20;
  C.Heap.Alignment = 16;
  C.Heap.ProtMte = true;
  C.Gc.Mode = GcMode::Compacting;
  Runtime RT(C);
  core::TagAllocator Alloc; // lock-free, deferred tag-clear by default
  ASSERT_TRUE(Alloc.deferredTagClear());
  RT.heap().setFreedRangeHook(
      [](void *Ctx, uint64_t Begin, uint64_t Bytes) {
        static_cast<core::TagAllocator *>(Ctx)->reclaimRange(Begin,
                                                             Begin + Bytes);
      },
      &Alloc);
  RT.attachCurrentThread("main");
  {
    HandleScope Scope(RT);
    ObjectHeader *A = RT.newPrimArray(Scope, PrimType::Int, 64);
    ObjectHeader *Garbage = RT.heap().allocPrimArray(PrimType::Int, 64);
    ObjectHeader *B = RT.newPrimArray(Scope, PrimType::Int, 64);
    (void)A;
    (void)Garbage;
    const uint64_t OldData = B->dataAddress();
    const uint64_t OldBytes = B->dataBytes();
    uint64_t Bits = Alloc.acquire(OldData, OldData + OldBytes);
    Alloc.release(OldData, OldData + OldBytes);
    ASSERT_EQ(mte::ldgTag(OldData), mte::pointerTagOf(Bits))
        << "the release must linger for this test to mean anything";

    GcResult Result = RT.gc().collect();
    ASSERT_EQ(Result.ObjectsMoved, 1u);
    ASSERT_NE(Scope.roots()[1], B);
    for (uint64_t Addr = OldData; Addr < OldData + OldBytes;
         Addr += mte::kGranuleSize)
      EXPECT_EQ(mte::ldgTag(Addr), 0)
          << "lingering tag left at " << std::hex << Addr;
  }
  RT.detachCurrentThread();
  RT.heap().setFreedRangeHook(nullptr, nullptr);
}

TEST(RtHeapConcurrent, TlabMetricsAndBitmapGauge) {
  support::MetricsSnapshot Before = support::Metrics::snapshot();
  JavaHeap Heap(plainHeapConfig());
  for (int I = 0; I < 1000; ++I)
    Heap.allocPrimArray(PrimType::Int, 16);

  support::MetricsSnapshot After = support::Metrics::snapshot();
  uint64_t Hits = After.counterValue("rt/heap/tlab_hit") -
                  Before.counterValue("rt/heap/tlab_hit");
  uint64_t Refills = After.counterValue("rt/heap/tlab_refill") -
                     Before.counterValue("rt/heap/tlab_refill");
  EXPECT_GE(Refills, 1u) << "first allocation must refill";
  EXPECT_GE(Hits, 900u) << "small allocs are TLAB bumps";
  EXPECT_EQ(Hits + Refills, 1000u);
  EXPECT_EQ(After.gaugeValue("rt/heap/bitmap_bytes"),
            static_cast<int64_t>(Heap.liveBitmapBytes()));
  EXPECT_EQ(Heap.liveBitmapBytes(),
            Heap.capacity() / (Heap.config().Alignment * 8))
      << "one bit per alignment granule";
}

} // namespace
