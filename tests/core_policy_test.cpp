//===- core_policy_test.cpp - The Mte4JniPolicy ---------------------------------------===//
//
// Part of the MTE4JNI reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "mte4jni/core/Mte4JniPolicy.h"
#include "mte4jni/mte/Access.h"
#include "mte4jni/mte/Instructions.h"
#include "mte4jni/mte/MteSystem.h"
#include "mte4jni/mte/TaggedArena.h"

#include <gtest/gtest.h>

namespace {

using namespace mte4jni;
using core::Mte4JniPolicy;
using core::TagAllocatorOptions;

class CorePolicyTest : public ::testing::Test {
protected:
  void SetUp() override {
    mte::MteSystem::instance().reset();
    Arena = std::make_unique<mte::TaggedArena>(1 << 20);
  }
  void TearDown() override {
    Arena.reset();
    mte::MteSystem::instance().reset();
  }

  jni::JniBufferInfo infoFor(void *Data, uint64_t Bytes) {
    jni::JniBufferInfo Info;
    Info.DataBegin = reinterpret_cast<uint64_t>(Data);
    Info.Bytes = Bytes;
    Info.Interface = "Test";
    return Info;
  }

  std::unique_ptr<mte::TaggedArena> Arena;
};

/// Options pinning the paper's exact Algorithm 2 semantics (last release
/// clears tags immediately); the deferred-clear default gets its own
/// coverage in core_allocator_test and integration_gc_test.
static TagAllocatorOptions exactClearOptions() {
  TagAllocatorOptions Options;
  Options.DeferredTagClear = false;
  return Options;
}

TEST_F(CorePolicyTest, AcquireReturnsDirectTaggedPointer) {
  Mte4JniPolicy Policy(exactClearOptions());
  void *Data = Arena->allocate(64);
  bool IsCopy = true;
  uint64_t Bits = Policy.acquire(infoFor(Data, 64), IsCopy);
  EXPECT_FALSE(IsCopy) << "MTE4JNI hands out the original payload";
  EXPECT_EQ(mte::addressOf(Bits), reinterpret_cast<uint64_t>(Data));
  EXPECT_NE(mte::pointerTagOf(Bits), 0);
  EXPECT_EQ(mte::ldgTag(reinterpret_cast<uint64_t>(Data)),
            mte::pointerTagOf(Bits));
  Policy.release(infoFor(Data, 64), Bits, 0);
  EXPECT_EQ(mte::ldgTag(reinterpret_cast<uint64_t>(Data)), 0);
}

TEST_F(CorePolicyTest, JniCommitKeepsTagAlive) {
  Mte4JniPolicy Policy(exactClearOptions());
  void *Data = Arena->allocate(64);
  bool IsCopy;
  uint64_t Bits = Policy.acquire(infoFor(Data, 64), IsCopy);
  Policy.release(infoFor(Data, 64), Bits, jni::JNI_COMMIT);
  EXPECT_EQ(mte::ldgTag(reinterpret_cast<uint64_t>(Data)),
            mte::pointerTagOf(Bits))
      << "JNI_COMMIT: caller keeps using the pointer";
  Policy.release(infoFor(Data, 64), Bits, 0);
  EXPECT_EQ(mte::ldgTag(reinterpret_cast<uint64_t>(Data)), 0);
}

TEST_F(CorePolicyTest, ScratchBuffersAreTagged) {
  Mte4JniPolicy Policy;
  uint64_t Bits = Policy.acquireScratch(40, "GetStringUTFChars");
  ASSERT_NE(mte::addressOf(Bits), 0u);
  EXPECT_NE(mte::pointerTagOf(Bits), 0);
  EXPECT_EQ(mte::ldgTag(mte::addressOf(Bits)), mte::pointerTagOf(Bits));

  // OOB on the scratch buffer is detectable.
  mte::MteSystem::instance().setProcessCheckMode(mte::CheckMode::Sync);
  mte::ThreadState::current().setTco(false);
  auto P = mte::TaggedPtr<char>::fromBits(Bits);
  volatile char C = mte::load<char>(P + 100); // past the 40 bytes
  (void)C;
  EXPECT_GE(mte::MteSystem::instance().faultLog().totalCount(), 1u);
  mte::MteSystem::instance().setProcessCheckMode(mte::CheckMode::None);

  Policy.releaseScratch(Bits, 40, "ReleaseStringUTFChars");
  EXPECT_EQ(mte::ldgTag(mte::addressOf(Bits)), 0);
}

TEST_F(CorePolicyTest, ScratchExhaustionReturnsZero) {
  Mte4JniPolicy Policy({}, /*ScratchArenaBytes=*/64);
  EXPECT_EQ(Policy.acquireScratch(1 << 20, "GetStringUTFChars"), 0u);
}

TEST_F(CorePolicyTest, ConcurrentHoldersShareTag) {
  Mte4JniPolicy Policy(exactClearOptions());
  void *Data = Arena->allocate(256);
  bool IsCopy;
  uint64_t Bits1 = Policy.acquire(infoFor(Data, 256), IsCopy);
  uint64_t Bits2 = Policy.acquire(infoFor(Data, 256), IsCopy);
  EXPECT_EQ(Bits1, Bits2);
  Policy.release(infoFor(Data, 256), Bits1, 0);
  // Still tagged for the second holder.
  EXPECT_EQ(mte::ldgTag(reinterpret_cast<uint64_t>(Data)),
            mte::pointerTagOf(Bits2));
  Policy.release(infoFor(Data, 256), Bits2, 0);
  EXPECT_EQ(mte::ldgTag(reinterpret_cast<uint64_t>(Data)), 0);
}

TEST_F(CorePolicyTest, OptionsArePlumbedThrough) {
  TagAllocatorOptions Options;
  Options.Locks = core::TagTableKind::GlobalLock;
  Options.NumTables = 4;
  Mte4JniPolicy Policy(Options);
  EXPECT_EQ(Policy.allocator().tableKind(), core::TagTableKind::GlobalLock);
  EXPECT_EQ(Policy.allocator().table().numTables(), 4u);
  EXPECT_TRUE(Policy.exposesDirectPointers());
  EXPECT_STREQ(Policy.name(), "mte4jni");
}

TEST_F(CorePolicyTest, ZeroLengthAcquireIsSafe) {
  Mte4JniPolicy Policy;
  void *Data = Arena->allocate(16);
  bool IsCopy;
  uint64_t Bits = Policy.acquire(infoFor(Data, 0), IsCopy);
  EXPECT_EQ(mte::addressOf(Bits), reinterpret_cast<uint64_t>(Data));
  // No granules tagged for an empty range.
  EXPECT_EQ(mte::ldgTag(reinterpret_cast<uint64_t>(Data)), 0);
  Policy.release(infoFor(Data, 0), Bits, 0);
}

} // namespace
