//===- hardening_test.cpp - Adjacent-tag-exclusion hardening --------------------------===//
//
// Part of the MTE4JNI reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// The paper's Algorithm 1 draws the tag with IRG excluding only tag 0, so
// an overflow from object A into an adjacent, concurrently-tagged object
// B escapes detection whenever B happened to draw A's tag (p = 1/15 per
// pair). The ExcludeAdjacentTags hardening additionally excludes the
// neighbouring granules' current tags at generation time, making the
// adjacent-overflow case deterministic. These tests pin down both the
// baseline's probabilistic gap and the hardening's guarantee.
//
//===----------------------------------------------------------------------===//

#include "mte4jni/api/Session.h"
#include "mte4jni/core/TagAllocator.h"
#include "mte4jni/mte/MteSystem.h"
#include "mte4jni/mte/Access.h"
#include "mte4jni/mte/Instructions.h"
#include "mte4jni/mte/TaggedArena.h"

#include <gtest/gtest.h>

namespace {

using namespace mte4jni;

class HardeningTest : public ::testing::Test {
protected:
  void SetUp() override {
    mte::MteSystem::instance().reset();
    Arena = std::make_unique<mte::TaggedArena>(1 << 20);
  }
  void TearDown() override {
    Arena.reset();
    mte::MteSystem::instance().reset();
  }
  std::unique_ptr<mte::TaggedArena> Arena;
};

TEST_F(HardeningTest, AdjacentObjectsNeverShareTags) {
  core::TagAllocatorOptions Options;
  Options.ExcludeAdjacentTags = true;
  core::TagAllocator Alloc(Options);

  // 64 adjacent 32-byte blocks tagged one after another: with the
  // hardening, no two neighbours may ever carry the same tag. (Without
  // it, over 63 adjacent pairs a collision is near-certain:
  // 1 - (14/15)^63 ≈ 98.7%.)
  uint8_t *Base = static_cast<uint8_t *>(Arena->allocate(64 * 32));
  std::vector<uint64_t> Bits;
  for (int I = 0; I < 64; ++I) {
    uint64_t Begin = reinterpret_cast<uint64_t>(Base) + I * 32u;
    Bits.push_back(Alloc.acquire(Begin, Begin + 32));
  }
  for (int I = 1; I < 64; ++I)
    EXPECT_NE(mte::pointerTagOf(Bits[I]), mte::pointerTagOf(Bits[I - 1]))
        << "adjacent blocks " << I - 1 << "/" << I;
  for (int I = 0; I < 64; ++I) {
    uint64_t Begin = reinterpret_cast<uint64_t>(Base) + I * 32u;
    Alloc.release(Begin, Begin + 32);
  }
}

TEST_F(HardeningTest, BaselineCanCollide) {
  // Sanity check of the probabilistic gap this hardening closes: with
  // plain Algorithm 1, adjacent tags DO collide eventually.
  core::TagAllocator Alloc(core::TagTableKind::TwoTierMutex);
  uint8_t *Base = static_cast<uint8_t *>(Arena->allocate(512 * 32));
  bool Collision = false;
  mte::TagValue Prev = 0;
  for (int I = 0; I < 512 && !Collision; ++I) {
    uint64_t Begin = reinterpret_cast<uint64_t>(Base) + I * 32u;
    mte::TagValue Tag = mte::pointerTagOf(Alloc.acquire(Begin, Begin + 32));
    if (I > 0 && Tag == Prev)
      Collision = true;
    Prev = Tag;
  }
  EXPECT_TRUE(Collision)
      << "512 draws from 15 tags without an adjacent repeat is ~1e-16";
}

// Standalone (not TEST_F): constructing a Session resets the process-wide
// MteSystem, which must not happen while the fixture's arena is alive.
TEST(HardeningEndToEnd, AdjacentOverflowAlwaysCaughtEndToEnd) {
  // End-to-end through the Session: A and B tagged simultaneously, native
  // code overflows linearly from A into B. Must fault on EVERY run.
  for (uint64_t Seed = 1; Seed <= 20; ++Seed) {
    api::SessionConfig C;
    C.Protection = api::Scheme::Mte4JniSync;
    C.ExcludeAdjacentTags = true;
    C.Seed = Seed;
    api::Session S(C);
    api::ScopedAttach Main(S, "main");
    rt::HandleScope Scope(S.runtime());

    jni::jarray A = Main.env().NewIntArray(Scope, 4); // 16B payload
    jni::jarray B = Main.env().NewIntArray(Scope, 4);

    rt::callNative(Main.thread(), rt::NativeKind::Regular, "overflow", [&] {
      jni::jboolean IsCopy;
      auto PA = Main.env().GetIntArrayElements(A, &IsCopy);
      auto PB = Main.env().GetIntArrayElements(B, &IsCopy);
      // Linear overflow from A's payload into B's payload.
      ptrdiff_t DeltaInts = static_cast<ptrdiff_t>(
          (B->dataAddress() - A->dataAddress()) / sizeof(jni::jint));
      volatile jni::jint V = mte::load<jni::jint>(PA + DeltaInts);
      (void)V;
      Main.env().ReleaseIntArrayElements(B, PB, jni::JNI_ABORT);
      Main.env().ReleaseIntArrayElements(A, PA, jni::JNI_ABORT);
      return 0;
    });

    EXPECT_EQ(S.faults().countOf(mte::FaultKind::TagMismatchSync), 1u)
        << "seed " << Seed;
  }
}

TEST_F(HardeningTest, SharedTagStillSharedBetweenHolders) {
  // The hardening must not break §3.1 tag sharing for the SAME object.
  core::TagAllocatorOptions Options;
  Options.ExcludeAdjacentTags = true;
  core::TagAllocator Alloc(Options);
  uint64_t Begin =
      reinterpret_cast<uint64_t>(Arena->allocate(128));
  uint64_t B1 = Alloc.acquire(Begin, Begin + 128);
  uint64_t B2 = Alloc.acquire(Begin, Begin + 128);
  EXPECT_EQ(B1, B2);
  Alloc.release(Begin, Begin + 128);
  Alloc.release(Begin, Begin + 128);
}

} // namespace
