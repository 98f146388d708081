//===- rt_compaction_test.cpp - Mark-compact GC and JNI pins --------------------------===//
//
// Part of the MTE4JNI reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// ART's collectors move objects; JNI's Get* interfaces pin the ones native
// code holds raw pointers into. The compacting GC mode makes that
// interaction observable: unpinned survivors slide toward the heap base
// (handle roots rewritten), JNI-held objects stay put, and data survives
// the move bit-for-bit.
//
//===----------------------------------------------------------------------===//

#include "mte4jni/core/Mte4JniPolicy.h"
#include "mte4jni/jni/JniEnv.h"
#include "mte4jni/mte/Access.h"
#include "mte4jni/mte/MteSystem.h"
#include "mte4jni/rt/Runtime.h"
#include "mte4jni/rt/Trampoline.h"
#include "mte4jni/support/Rng.h"

#include <gtest/gtest.h>

namespace {

using namespace mte4jni;
using namespace mte4jni::rt;

RuntimeConfig compactingConfig() {
  RuntimeConfig C;
  C.Heap.CapacityBytes = 4 << 20;
  C.Gc.Mode = GcMode::Compacting;
  return C;
}

TEST(Compaction, SurvivorsSlideTowardBase) {
  Runtime RT(compactingConfig());
  RT.attachCurrentThread("main");
  {
    HandleScope Scope(RT);
    // A, garbage, B — after collection B should slide into garbage's slot.
    ObjectHeader *A = RT.newPrimArray(Scope, PrimType::Int, 64);
    ObjectHeader *Garbage = RT.heap().allocPrimArray(PrimType::Int, 64);
    ObjectHeader *B = RT.newPrimArray(Scope, PrimType::Int, 64);
    rt::arrayData<int32_t>(B)[0] = 1234;
    uint64_t GarbageAddr = reinterpret_cast<uint64_t>(Garbage);
    uint64_t OldB = reinterpret_cast<uint64_t>(B);

    GcResult Result = RT.gc().collect();
    EXPECT_EQ(Result.ObjectsFreed, 1u);
    EXPECT_EQ(Result.ObjectsMoved, 1u);

    // The root slot now points at the moved object.
    ObjectHeader *NewB = Scope.roots()[1];
    EXPECT_NE(reinterpret_cast<uint64_t>(NewB), OldB);
    EXPECT_EQ(reinterpret_cast<uint64_t>(NewB), GarbageAddr)
        << "B should have slid into the freed gap";
    EXPECT_EQ(rt::arrayData<int32_t>(NewB)[0], 1234)
        << "payload must survive the move";
    EXPECT_TRUE(RT.heap().isLiveObject(NewB));
    EXPECT_FALSE(RT.heap().isLiveObject(B));
    (void)A;
  }
  RT.detachCurrentThread();
}

TEST(Compaction, PinnedObjectsDoNotMove) {
  Runtime RT(compactingConfig());
  RT.attachCurrentThread("main");
  {
    HandleScope Scope(RT);
    ObjectHeader *Garbage = RT.heap().allocPrimArray(PrimType::Int, 64);
    ObjectHeader *Held = RT.newPrimArray(Scope, PrimType::Int, 64);
    (void)Garbage;
    uint64_t HeldAddr = reinterpret_cast<uint64_t>(Held);

    Held->pin(); // what a JNI Get does
    GcResult Result = RT.gc().collect();
    EXPECT_EQ(Result.ObjectsMoved, 0u)
        << "the only survivor is pinned: nothing may move";
    EXPECT_EQ(Result.ObjectsPinnedInPlace, 1u);
    EXPECT_EQ(reinterpret_cast<uint64_t>(Scope.roots()[0]), HeldAddr);
    Held->unpin();

    // Once released, the next cycle slides it down.
    GcResult Second = RT.gc().collect();
    EXPECT_EQ(Second.ObjectsMoved, 1u);
    EXPECT_NE(reinterpret_cast<uint64_t>(Scope.roots()[0]), HeldAddr);
  }
  RT.detachCurrentThread();
}

TEST(Compaction, JniHeldArraySurvivesCompactionEndToEnd) {
  // Through the whole stack, under MTE4JNI with a compacting collector:
  // native code holds an array across a collection that frees the garbage
  // in front of it. The JNI Get's pin must keep the array in place, so the
  // tagged pointer native code holds stays valid; once released, the next
  // cycle is free to move it.
  RuntimeConfig C = compactingConfig();
  C.Heap.Alignment = 16;
  C.Heap.ProtMte = true;
  C.CheckMode = mte::CheckMode::Sync;
  C.TagChecksInNative = true;
  Runtime RT(C);
  core::Mte4JniPolicy Policy;
  JavaThread &Main = RT.attachCurrentThread("main");
  {
    jni::JniEnv Env(RT, Policy);
    HandleScope Scope(RT);
    ObjectHeader *Garbage = RT.heap().allocPrimArray(PrimType::Int, 64);
    (void)Garbage;
    jni::jarray Array = Env.NewIntArray(Scope, 128);
    const uint64_t ArrayAddr = reinterpret_cast<uint64_t>(Array);

    GcResult Held;
    rt::callNative(Main, NativeKind::Regular, "holder", [&] {
      jni::jboolean IsCopy;
      auto P = Env.GetIntArrayElements(Array, &IsCopy);
      mte::store<jni::jint>(P, 42);
      Held = RT.gc().collect();
      // The pointer (and its tag) must still be good.
      EXPECT_EQ(mte::load<jni::jint>(P), 42);
      Env.ReleaseIntArrayElements(Array, P, 0);
      return 0;
    });
    EXPECT_EQ(Held.ObjectsFreed, 1u);
    EXPECT_EQ(Held.ObjectsMoved, 0u);
    EXPECT_EQ(Held.ObjectsPinnedInPlace, 1u);
    EXPECT_EQ(reinterpret_cast<uint64_t>(Scope.roots()[0]), ArrayAddr);

    // Released: the next cycle slides the array into the freed gap.
    GcResult Released = RT.gc().collect();
    EXPECT_EQ(Released.ObjectsMoved, 1u);
    EXPECT_NE(reinterpret_cast<uint64_t>(Scope.roots()[0]), ArrayAddr);
    EXPECT_EQ(rt::arrayData<int32_t>(Scope.roots()[0])[0], 42);
  }
  EXPECT_EQ(mte::MteSystem::instance().faultLog().totalCount(), 0u);
  RT.detachCurrentThread();
}

TEST(Compaction, AllocationReusesReclaimedSpace) {
  Runtime RT(compactingConfig());
  RT.attachCurrentThread("main");
  HandleScope Scope(RT);

  // Fill a small heap with garbage, collect, and verify the space is
  // allocatable again (compaction resets the bump frontier).
  uint64_t Before = RT.heap().stats().BytesLive;
  for (int I = 0; I < 100; ++I)
    RT.heap().allocPrimArray(PrimType::Long, 512);
  RT.gc().collect();
  EXPECT_EQ(RT.heap().stats().BytesLive, Before);
  // This would not fit if the frontier had not been pulled back.
  for (int I = 0; I < 100; ++I)
    ASSERT_NE(RT.heap().allocPrimArray(PrimType::Long, 512), nullptr);
  RT.gc().collect();
  RT.detachCurrentThread();
}

TEST(Compaction, ManyObjectsManyCycles) {
  Runtime RT(compactingConfig());
  RT.attachCurrentThread("main");
  HandleScope Scope(RT);
  support::Xoshiro256 Rng(5);

  // Interleave rooted and garbage objects, collect repeatedly, verify
  // every rooted payload survives every cycle.
  std::vector<uint32_t> Expected;
  for (int I = 0; I < 40; ++I) {
    ObjectHeader *Obj = RT.newPrimArray(Scope, PrimType::Int, 32);
    uint32_t Token = static_cast<uint32_t>(Rng.next());
    rt::arrayData<int32_t>(Obj)[7] = static_cast<int32_t>(Token);
    Expected.push_back(Token);
    for (int G = 0; G < 3; ++G)
      RT.heap().allocPrimArray(PrimType::Int, 16 + (I % 5) * 8);
  }

  for (int Cycle = 0; Cycle < 5; ++Cycle) {
    GcResult Result = RT.gc().collect();
    if (Cycle == 0) {
      EXPECT_EQ(Result.ObjectsFreed, 120u);
    }
    const auto &Roots = Scope.roots();
    ASSERT_EQ(Roots.size(), 40u);
    for (size_t I = 0; I < Roots.size(); ++I)
      ASSERT_EQ(static_cast<uint32_t>(rt::arrayData<int32_t>(Roots[I])[7]),
                Expected[I])
          << "cycle " << Cycle << " object " << I;
  }
  RT.detachCurrentThread();
}

} // namespace
