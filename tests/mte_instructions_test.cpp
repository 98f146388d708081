//===- mte_instructions_test.cpp - IRG/LDG/STG/ST2G analogs -------------------------===//
//
// Part of the MTE4JNI reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "mte4jni/mte/Instructions.h"
#include "mte4jni/mte/MteSystem.h"
#include "mte4jni/mte/TaggedArena.h"
#include "mte4jni/mte/ThreadState.h"
#include "mte4jni/support/Metrics.h"

#include <gtest/gtest.h>

#include <set>
#include <thread>

namespace {

using namespace mte4jni::mte;
namespace support = mte4jni::support;

class MteInstructionsTest : public ::testing::Test {
protected:
  void SetUp() override {
    MteSystem::instance().reset();
    Arena = std::make_unique<TaggedArena>(1 << 20);
  }
  void TearDown() override {
    Arena.reset();
    MteSystem::instance().reset();
  }
  std::unique_ptr<TaggedArena> Arena;
};

TEST_F(MteInstructionsTest, IrgExcludesTagZeroByDefault) {
  std::set<TagValue> Seen;
  for (int I = 0; I < 500; ++I)
    Seen.insert(irgTag());
  EXPECT_EQ(Seen.count(0), 0u);
  // With 500 draws over 15 tags we should see nearly all of them.
  EXPECT_GE(Seen.size(), 12u);
}

TEST_F(MteInstructionsTest, IrgRetagsPointer) {
  void *Buf = Arena->allocate(16);
  auto P = TaggedPtr<void>::fromRaw(Buf, 0);
  auto Tagged = irg(P);
  EXPECT_EQ(Tagged.raw(), Buf);
  EXPECT_NE(Tagged.tag(), 0);
}

TEST_F(MteInstructionsTest, IrgHonoursSystemExcludeMask) {
  MteSystem::instance().setIrgExcludeMask(0x7FFF); // only tag 15 allowed
  for (int I = 0; I < 50; ++I)
    EXPECT_EQ(irgTag(), 15);
  MteSystem::instance().setIrgExcludeMask(0x0001);
}

TEST_F(MteInstructionsTest, StgTagsOneGranule) {
  uint8_t *Buf = static_cast<uint8_t *>(Arena->allocate(48));
  stg(TaggedPtr<void>::fromRaw(Buf + 16, 9));
  EXPECT_EQ(ldgTag(reinterpret_cast<uint64_t>(Buf)), 0);
  EXPECT_EQ(ldgTag(reinterpret_cast<uint64_t>(Buf) + 16), 9);
  EXPECT_EQ(ldgTag(reinterpret_cast<uint64_t>(Buf) + 32), 0);
}

TEST_F(MteInstructionsTest, St2gTagsTwoGranules) {
  uint8_t *Buf = static_cast<uint8_t *>(Arena->allocate(64));
  st2g(TaggedPtr<void>::fromRaw(Buf, 4));
  EXPECT_EQ(ldgTag(reinterpret_cast<uint64_t>(Buf)), 4);
  EXPECT_EQ(ldgTag(reinterpret_cast<uint64_t>(Buf) + 16), 4);
  EXPECT_EQ(ldgTag(reinterpret_cast<uint64_t>(Buf) + 32), 0);
}

TEST_F(MteInstructionsTest, LdgReturnsRetaggedPointer) {
  uint8_t *Buf = static_cast<uint8_t *>(Arena->allocate(16));
  stg(TaggedPtr<void>::fromRaw(Buf, 11));
  auto P = ldg(TaggedPtr<void>::fromRaw(Buf, 3)); // wrong tag in
  EXPECT_EQ(P.tag(), 11);                          // true tag out
  EXPECT_EQ(P.raw(), Buf);
}

TEST_F(MteInstructionsTest, SetTagRangeCoversPartialGranules) {
  uint8_t *Buf = static_cast<uint8_t *>(Arena->allocate(64));
  // 20 bytes from a granule-aligned base: 2 granules.
  setTagRange(TaggedPtr<void>::fromRaw(Buf, 6), 20);
  EXPECT_EQ(ldgTag(reinterpret_cast<uint64_t>(Buf)), 6);
  EXPECT_EQ(ldgTag(reinterpret_cast<uint64_t>(Buf) + 16), 6);
  EXPECT_EQ(ldgTag(reinterpret_cast<uint64_t>(Buf) + 32), 0);
}

TEST_F(MteInstructionsTest, SetTagRangeZeroBytesIsNoOp) {
  uint8_t *Buf = static_cast<uint8_t *>(Arena->allocate(16));
  setTagRange(TaggedPtr<void>::fromRaw(Buf, 6), 0);
  EXPECT_EQ(ldgTag(reinterpret_cast<uint64_t>(Buf)), 0);
}

TEST_F(MteInstructionsTest, ClearTagRange) {
  uint8_t *Buf = static_cast<uint8_t *>(Arena->allocate(64));
  setTagRange(TaggedPtr<void>::fromRaw(Buf, 6), 64);
  clearTagRange(reinterpret_cast<uint64_t>(Buf) + 16, 32);
  EXPECT_EQ(ldgTag(reinterpret_cast<uint64_t>(Buf)), 6);
  EXPECT_EQ(ldgTag(reinterpret_cast<uint64_t>(Buf) + 16), 0);
  EXPECT_EQ(ldgTag(reinterpret_cast<uint64_t>(Buf) + 32), 0);
  EXPECT_EQ(ldgTag(reinterpret_cast<uint64_t>(Buf) + 48), 6);
}

TEST_F(MteInstructionsTest, ClearTagRangeStripsPointerTag) {
  // clearTagRange takes an address that may still carry a tag.
  uint8_t *Buf = static_cast<uint8_t *>(Arena->allocate(16));
  setTagRange(TaggedPtr<void>::fromRaw(Buf, 6), 16);
  uint64_t TaggedAddr = withPointerTag(reinterpret_cast<uint64_t>(Buf), 6);
  clearTagRange(TaggedAddr, 16);
  EXPECT_EQ(ldgTag(reinterpret_cast<uint64_t>(Buf)), 0);
}

TEST_F(MteInstructionsTest, StatsCountInstructionActivity) {
  support::Metrics::resetAll();
  uint8_t *Buf = static_cast<uint8_t *>(Arena->allocate(64));
  (void)irgTag();
  setTagRange(TaggedPtr<void>::fromRaw(Buf, 2), 64); // 4 granules
  (void)ldgTag(reinterpret_cast<uint64_t>(Buf));

  support::MetricsSnapshot Snap = support::Metrics::snapshot();
  EXPECT_EQ(Snap.counterValue("mte/instr/irg"), 1u);
  EXPECT_EQ(Snap.counterValue("mte/instr/stg_granules"), 4u);
  EXPECT_EQ(Snap.counterValue("mte/instr/ldg"), 1u);
}

// Standalone (not TEST_F): resets the MteSystem mid-test, so it must not
// hold a TaggedArena across the reset.
TEST(MteInstructionsSeed, IrgDeterministicAcrossRunsWithSeed) {
  // Per-thread RNGs are seeded from the system seed: a fresh thread with
  // the same system seed draws the same tag sequence.
  MteSystem::instance().reset();
  MteSystem::instance().setRngSeed(777);
  std::vector<TagValue> First;
  std::thread([&] {
    for (int I = 0; I < 16; ++I)
      First.push_back(irgTag());
  }).join();

  MteSystem::instance().reset();
  MteSystem::instance().setRngSeed(777);
  std::vector<TagValue> Second;
  std::thread([&] {
    for (int I = 0; I < 16; ++I)
      Second.push_back(irgTag());
  }).join();

  EXPECT_EQ(First, Second);
  MteSystem::instance().reset();
}

} // namespace
