//===- rt_gc_test.cpp - Mark-sweep GC behaviour ---------------------------------------===//
//
// Part of the MTE4JNI reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "mte4jni/rt/JavaString.h"
#include "mte4jni/rt/Runtime.h"

#include <gtest/gtest.h>

#include <set>
#include <thread>

namespace {

using namespace mte4jni;
using namespace mte4jni::rt;

RuntimeConfig baseConfig() {
  RuntimeConfig C;
  C.Heap.CapacityBytes = 8 << 20;
  return C;
}

TEST(RtGc, RootedObjectsSurvive) {
  Runtime RT(baseConfig());
  RT.attachCurrentThread("main");
  {
    HandleScope Scope(RT);
    ObjectHeader *Rooted = RT.newPrimArray(Scope, PrimType::Int, 16);
    ObjectHeader *Unrooted = RT.heap().allocPrimArray(PrimType::Int, 16);

    GcResult Result = RT.gc().collect();
    EXPECT_EQ(Result.ObjectsFreed, 1u);
    EXPECT_TRUE(RT.heap().isLiveObject(Rooted));
    EXPECT_FALSE(RT.heap().isLiveObject(Unrooted));
  }
  RT.detachCurrentThread();
}

TEST(RtGc, ScopeExitUnroots) {
  Runtime RT(baseConfig());
  RT.attachCurrentThread("main");
  ObjectHeader *Obj;
  {
    HandleScope Scope(RT);
    Obj = RT.newPrimArray(Scope, PrimType::Int, 16);
    RT.gc().collect();
    EXPECT_TRUE(RT.heap().isLiveObject(Obj));
  }
  RT.gc().collect();
  EXPECT_FALSE(RT.heap().isLiveObject(Obj));
  RT.detachCurrentThread();
}

TEST(RtGc, PinnedObjectsAreNotSwept) {
  // JNI Get* pins; the GC must not reclaim memory native code holds.
  Runtime RT(baseConfig());
  RT.attachCurrentThread("main");
  ObjectHeader *Obj = RT.heap().allocPrimArray(PrimType::Int, 16);
  Obj->pin();
  RT.gc().collect();
  EXPECT_TRUE(RT.heap().isLiveObject(Obj));
  Obj->unpin();
  RT.gc().collect();
  EXPECT_FALSE(RT.heap().isLiveObject(Obj));
  RT.detachCurrentThread();
}

TEST(RtGc, VerifyPassReadsEveryPayload) {
  RuntimeConfig C = baseConfig();
  C.Gc.VerifyObjectBodies = true;
  Runtime RT(C);
  RT.attachCurrentThread("main");
  HandleScope Scope(RT);
  for (int I = 0; I < 10; ++I)
    RT.newPrimArray(Scope, PrimType::Long, 100);
  GcResult Result = RT.gc().collect();
  EXPECT_EQ(Result.ObjectsVerified, 10u);
  EXPECT_EQ(Result.PayloadBytesVerified, 10u * 800u);
  RT.detachCurrentThread();
}

TEST(RtGc, CriticalSectionBlocksCollection) {
  Runtime RT(baseConfig());
  RT.attachCurrentThread("main");

  RT.enterCritical();
  std::atomic<bool> GcDone{false};
  std::thread Gc([&] {
    RT.gc().collect();
    GcDone.store(true);
  });

  // The collector must be stuck waiting for the critical section.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(GcDone.load());

  RT.exitCritical();
  Gc.join();
  EXPECT_TRUE(GcDone.load());
  RT.detachCurrentThread();
}

TEST(RtGc, ReentrantCriticalDoesNotDeadlock) {
  Runtime RT(baseConfig());
  RT.attachCurrentThread("main");
  RT.enterCritical();
  RT.enterCritical(); // nested
  EXPECT_EQ(RT.criticalDepth(), 2u);
  RT.exitCritical();
  RT.exitCritical();
  EXPECT_EQ(RT.criticalDepth(), 0u);
  RT.gc().collect(); // must not hang
  RT.detachCurrentThread();
}

TEST(RtGc, BackgroundThreadCollects) {
  RuntimeConfig C = baseConfig();
  C.Gc.BackgroundThread = true;
  C.Gc.IntervalMillis = 1;
  Runtime RT(C);
  RT.attachCurrentThread("main");

  // Allocate garbage; the background thread should reclaim it.
  for (int I = 0; I < 50; ++I)
    RT.heap().allocPrimArray(PrimType::Int, 64);

  // collect() counts its cycle only after the pause ends, and the sweep's
  // frees show in the heap stats before that: wait for both.
  for (int Spin = 0; Spin < 200 && (RT.heap().stats().ObjectsLive > 0 ||
                                    RT.gc().completedCycles() == 0);
       ++Spin)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_EQ(RT.heap().stats().ObjectsLive, 0u);
  EXPECT_GT(RT.gc().completedCycles(), 0u);
  RT.detachCurrentThread();
}

TEST(RtGc, StartStopIdempotent) {
  RuntimeConfig C = baseConfig();
  Runtime RT(C);
  RT.gc().start();
  RT.gc().start(); // second start is a no-op
  RT.gc().stop();
  RT.gc().stop(); // second stop is a no-op
}

TEST(RtGc, AllocationFailureTriggersCollectAndRetry) {
  // Like ART: the factory path collects once before giving up.
  RuntimeConfig C;
  C.Heap.CapacityBytes = 1 << 20; // 1 MiB heap
  Runtime RT(C);
  RT.attachCurrentThread("main");
  {
    // Fill the heap with garbage (unrooted).
    HandleScope Temp(RT);
    while (RT.heap().allocPrimArray(PrimType::Long, 1024) != nullptr) {
    }
  }
  {
    // The direct heap call fails...
    EXPECT_EQ(RT.heap().allocPrimArray(PrimType::Long, 1024), nullptr);
    // ...but the runtime factory reclaims the garbage and succeeds.
    HandleScope Scope(RT);
    EXPECT_NE(RT.newPrimArray(Scope, PrimType::Long, 1024), nullptr);
  }
  RT.detachCurrentThread();
}

TEST(RtGc, StringAllocationFailureTriggersCollectAndRetry) {
  // Strings take the same factory path as arrays.
  RuntimeConfig C;
  C.Heap.CapacityBytes = 1 << 20; // 1 MiB heap
  Runtime RT(C);
  RT.attachCurrentThread("main");
  const std::string Text(500, 's');
  // Fill the heap with unrooted strings.
  while (newStringUtf8(RT.heap(), Text) != nullptr) {
  }
  EXPECT_EQ(newStringUtf8(RT.heap(), Text), nullptr);
  {
    HandleScope Scope(RT);
    EXPECT_NE(RT.newStringUtf8(Scope, Text), nullptr);
  }
  EXPECT_EQ(RT.gc().completedCycles(), 1u);
  RT.detachCurrentThread();
}

TEST(RtGc, FreeListMemoryIsReusedAfterGc) {
  Runtime RT(baseConfig());
  RT.attachCurrentThread("main");
  ObjectHeader *Garbage = RT.heap().allocPrimArray(PrimType::Int, 256);
  uint64_t Addr = reinterpret_cast<uint64_t>(Garbage);
  RT.gc().collect();
  ObjectHeader *Reused = RT.heap().allocPrimArray(PrimType::Int, 256);
  EXPECT_EQ(reinterpret_cast<uint64_t>(Reused), Addr);
  RT.detachCurrentThread();
}

TEST(RtGc, FreeListReuseAfterGcAtEveryParallelism) {
  // The same round trip with the worker count pinned: whichever worker
  // sweeps a block, it joins the collecting thread's free list. With 256
  // objects the garbage spans several TLABs, so every stripe of a
  // parallel sweep has blocks and several workers push onto the one list
  // at once.
  for (unsigned Parallelism : {1u, 2u, 4u, 8u}) {
    for (unsigned Objects : {1u, 256u}) {
      SCOPED_TRACE(testing::Message() << "Parallelism=" << Parallelism
                                      << " Objects=" << Objects);
      RuntimeConfig C = baseConfig();
      C.Gc.Parallelism = Parallelism;
      Runtime RT(C);
      ASSERT_EQ(RT.gc().workers(), Parallelism);
      RT.attachCurrentThread("main");
      std::set<uint64_t> Swept;
      for (unsigned I = 0; I < Objects; ++I)
        Swept.insert(reinterpret_cast<uint64_t>(
            RT.heap().allocPrimArray(PrimType::Int, 256)));
      EXPECT_EQ(RT.gc().collect().ObjectsFreed, Objects);
      // As many same-size allocations empty the set only if each one
      // reused a distinct swept block.
      for (unsigned I = 0; I < Objects; ++I)
        Swept.erase(reinterpret_cast<uint64_t>(
            RT.heap().allocPrimArray(PrimType::Int, 256)));
      EXPECT_EQ(Swept.size(), 0u) << "swept blocks left unused";
      RT.detachCurrentThread();
    }
  }
}

} // namespace
