//===- mte_access_test.cpp - Checked load/store behaviour ------------------------===//
//
// Part of the MTE4JNI reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Unit tests for the simulated MTE data path: tag checks fire exactly when
// (a) the thread's TCF mode is sync/async, (b) TCO is clear, (c) the address
// is inside a PROT_MTE region, and (d) pointer tag != granule tag.
//
//===----------------------------------------------------------------------===//

#include "mte4jni/mte/Access.h"
#include "mte4jni/mte/Instructions.h"
#include "mte4jni/mte/MteSystem.h"
#include "mte4jni/mte/TaggedArena.h"
#include "mte4jni/support/Metrics.h"

#include <gtest/gtest.h>

namespace {

using namespace mte4jni;
using mte::CheckMode;
using mte::MteSystem;
using mte::TaggedPtr;
using mte::ThreadState;

class MteAccessTest : public ::testing::Test {
protected:
  void SetUp() override {
    MteSystem::instance().reset();
    Arena = std::make_unique<mte::TaggedArena>(1 << 20);
  }
  void TearDown() override {
    Arena.reset();
    MteSystem::instance().reset();
  }

  /// An int buffer inside the PROT_MTE arena.
  int32_t *allocInts(size_t N) {
    return static_cast<int32_t *>(Arena->allocate(N * sizeof(int32_t)));
  }

  std::unique_ptr<mte::TaggedArena> Arena;
};

TEST_F(MteAccessTest, NoChecksWhenModeNone) {
  int32_t *Buf = allocInts(4);
  // Tag the memory but keep mode None: accesses with a mismatching pointer
  // tag must not fault.
  auto P = TaggedPtr<int32_t>::fromRaw(Buf, 5);
  mte::setTagRange(P.cast<void>(), 4 * sizeof(int32_t));
  auto Wrong = P.withTag(9);
  mte::store<int32_t>(Wrong, 42);
  EXPECT_EQ(mte::load<int32_t>(Wrong), 42);
  EXPECT_EQ(MteSystem::instance().faultLog().totalCount(), 0u);
}

TEST_F(MteAccessTest, SyncFaultOnTagMismatch) {
  MteSystem::instance().setProcessCheckMode(CheckMode::Sync);
  ThreadState::current().setTco(false);

  int32_t *Buf = allocInts(4);
  auto P = TaggedPtr<int32_t>::fromRaw(Buf, 5);
  mte::setTagRange(P.cast<void>(), 4 * sizeof(int32_t));

  // Matching tag: no fault.
  mte::store<int32_t>(P, 7);
  EXPECT_EQ(mte::load<int32_t>(P), 7);
  EXPECT_EQ(MteSystem::instance().faultLog().totalCount(), 0u);

  // Mismatching tag: a sync fault with a precise address.
  auto Wrong = P.withTag(6);
  mte::store<int32_t>(Wrong, 8);
  auto Faults = MteSystem::instance().faultLog().snapshot();
  ASSERT_EQ(Faults.size(), 1u);
  EXPECT_EQ(Faults[0].Kind, mte::FaultKind::TagMismatchSync);
  EXPECT_TRUE(Faults[0].HasAddress);
  EXPECT_EQ(Faults[0].Address, reinterpret_cast<uint64_t>(Buf));
  EXPECT_EQ(Faults[0].PointerTag, 6);
  EXPECT_EQ(Faults[0].MemoryTag, 5);
  EXPECT_TRUE(Faults[0].IsWrite);
}

TEST_F(MteAccessTest, TcoSuppressesChecks) {
  MteSystem::instance().setProcessCheckMode(CheckMode::Sync);
  ThreadState::current().setTco(false);

  int32_t *Buf = allocInts(4);
  auto P = TaggedPtr<int32_t>::fromRaw(Buf, 3);
  mte::setTagRange(P.cast<void>(), 4 * sizeof(int32_t));
  auto Wrong = P.withTag(12);

  {
    mte::ScopedTco Suppress(true);
    mte::store<int32_t>(Wrong, 1); // suppressed: no fault
  }
  EXPECT_EQ(MteSystem::instance().faultLog().totalCount(), 0u);

  mte::store<int32_t>(Wrong, 2); // TCO restored: faults
  EXPECT_EQ(MteSystem::instance().faultLog().totalCount(), 1u);
}

TEST_F(MteAccessTest, AddressesOutsideRegionsAreUnchecked) {
  MteSystem::instance().setProcessCheckMode(CheckMode::Sync);
  ThreadState::current().setTco(false);

  int32_t Stack[4] = {0, 0, 0, 0};
  auto P = TaggedPtr<int32_t>::fromRaw(Stack, 9); // bogus tag
  mte::store<int32_t>(P, 5);
  EXPECT_EQ(Stack[0], 5);
  EXPECT_EQ(MteSystem::instance().faultLog().totalCount(), 0u);
}

TEST_F(MteAccessTest, OutOfBoundsInheritedTagFaults) {
  // The paper's core scenario: pointer arithmetic inherits the tag, the
  // out-of-bounds granule has a different (zero) tag.
  MteSystem::instance().setProcessCheckMode(CheckMode::Sync);
  ThreadState::current().setTco(false);

  int32_t *Buf = allocInts(18); // like Figure 3's 18-int array
  auto P = TaggedPtr<int32_t>::fromRaw(Buf, 4);
  mte::setTagRange(P.cast<void>(), 18 * sizeof(int32_t));

  mte::store<int32_t>(P + 17, 1); // last element: fine
  EXPECT_EQ(MteSystem::instance().faultLog().totalCount(), 0u);

  mte::store<int32_t>(P + 21, 1); // Figure 3's faulting index
  auto Faults = MteSystem::instance().faultLog().snapshot();
  ASSERT_EQ(Faults.size(), 1u);
  EXPECT_EQ(Faults[0].Address, reinterpret_cast<uint64_t>(Buf + 21));
  EXPECT_EQ(Faults[0].PointerTag, 4);
}

TEST_F(MteAccessTest, StraddlingAccessChecksBothGranules) {
  MteSystem::instance().setProcessCheckMode(CheckMode::Sync);
  ThreadState::current().setTco(false);

  // 32 bytes = 2 granules; tag only the first one.
  uint8_t *Buf = static_cast<uint8_t *>(Arena->allocate(32));
  auto G0 = TaggedPtr<uint8_t>::fromRaw(Buf, 7);
  mte::setTagRange(G0.cast<void>(), 16);

  // An 8-byte access at offset 12 touches granule 0 (tag 7) and granule 1
  // (tag 0): must fault even though it starts in tagged memory.
  auto P64 = TaggedPtr<uint64_t>::fromRaw(
      reinterpret_cast<uint64_t *>(Buf + 12), 7);
  mte::store<uint64_t>(P64, 1);
  EXPECT_EQ(MteSystem::instance().faultLog().totalCount(), 1u);
}

TEST_F(MteAccessTest, AsyncFaultDeferredToSyscall) {
  MteSystem::instance().setProcessCheckMode(CheckMode::Async);
  ThreadState::current().setTco(false);

  int32_t *Buf = allocInts(8);
  auto P = TaggedPtr<int32_t>::fromRaw(Buf, 2);
  mte::setTagRange(P.cast<void>(), 8 * sizeof(int32_t));

  mte::store<int32_t>(P.withTag(11), 1);
  // Latched, not yet delivered.
  EXPECT_TRUE(ThreadState::current().asyncPending());
  EXPECT_EQ(MteSystem::instance().faultLog().totalCount(), 0u);

  mte::simulatedSyscall("getuid");
  EXPECT_FALSE(ThreadState::current().asyncPending());
  auto Faults = MteSystem::instance().faultLog().snapshot();
  ASSERT_EQ(Faults.size(), 1u);
  EXPECT_EQ(Faults[0].Kind, mte::FaultKind::TagMismatchAsync);
  // SEGV_MTEAERR carries no address; the simulator keeps ground truth in
  // DebugAddress only.
  EXPECT_FALSE(Faults[0].HasAddress);
  EXPECT_EQ(Faults[0].Address, 0u);
  EXPECT_EQ(Faults[0].DebugAddress, reinterpret_cast<uint64_t>(Buf));
  EXPECT_EQ(Faults[0].DeliveredAtSyscall, "getuid");
}

TEST_F(MteAccessTest, AsyncTfsrIsSticky) {
  MteSystem::instance().setProcessCheckMode(CheckMode::Async);
  ThreadState::current().setTco(false);

  int32_t *Buf = allocInts(8);
  auto P = TaggedPtr<int32_t>::fromRaw(Buf, 2);
  mte::setTagRange(P.cast<void>(), 8 * sizeof(int32_t));

  // Three mismatching accesses, one delivery (first one kept).
  support::Metrics::resetAll();
  mte::store<int32_t>(P.withTag(3), 1);
  mte::store<int32_t>((P + 1).withTag(4), 1);
  mte::store<int32_t>((P + 2).withTag(5), 1);
  mte::simulatedSyscall("write");

  auto Faults = MteSystem::instance().faultLog().snapshot();
  ASSERT_EQ(Faults.size(), 1u);
  EXPECT_EQ(Faults[0].PointerTag, 3);
  support::MetricsSnapshot Snap = support::Metrics::snapshot();
  EXPECT_EQ(Snap.counterValue("mte/access/mismatch_async"), 3u);
  EXPECT_EQ(Snap.counterValue("mte/fault/async_delivered"), 1u);
}

TEST_F(MteAccessTest, BulkHelpersCheckPerGranule) {
  MteSystem::instance().setProcessCheckMode(CheckMode::Sync);
  ThreadState::current().setTco(false);

  uint8_t *Buf = static_cast<uint8_t *>(Arena->allocate(64));
  auto P = TaggedPtr<uint8_t>::fromRaw(Buf, 5);
  mte::setTagRange(P.cast<void>(), 64);

  uint64_t ChecksBefore = ThreadState::current().checksPerformed();
  mte::fillBytes(P.cast<void>(), 0xAB, 64);
  uint64_t Checks = ThreadState::current().checksPerformed() - ChecksBefore;
  EXPECT_EQ(Checks, 4u); // 64 bytes = 4 granules
  EXPECT_EQ(Buf[63], 0xAB);

  // Copy with a mismatching destination tag faults.
  uint8_t Host[64] = {};
  mte::readBytes(Host, P.cast<const void>(), 64);
  EXPECT_EQ(Host[0], 0xAB);
  mte::writeBytes(P.withTag(1).cast<void>(), Host, 64);
  EXPECT_GT(MteSystem::instance().faultLog().totalCount(), 0u);
}

TEST_F(MteAccessTest, CheckedSpanRoundTrip) {
  MteSystem::instance().setProcessCheckMode(CheckMode::Sync);
  ThreadState::current().setTco(false);

  int32_t *Buf = allocInts(16);
  auto P = TaggedPtr<int32_t>::fromRaw(Buf, 8);
  mte::setTagRange(P.cast<void>(), 16 * sizeof(int32_t));

  mte::CheckedSpan<int32_t> Span(P, 16);
  for (uint64_t I = 0; I < Span.size(); ++I)
    Span.set(I, static_cast<int32_t>(I * I));
  for (uint64_t I = 0; I < Span.size(); ++I)
    EXPECT_EQ(Span.get(I), static_cast<int32_t>(I * I));
  EXPECT_EQ(MteSystem::instance().faultLog().totalCount(), 0u);
}

TEST_F(MteAccessTest, IrgRespectsExcludeMask) {
  // Default GCR excludes tag 0.
  for (int I = 0; I < 200; ++I)
    EXPECT_NE(mte::irgTag(), 0);

  // Exclude everything except tag 9.
  uint16_t Exclude = static_cast<uint16_t>(~(1u << 9));
  for (int I = 0; I < 50; ++I)
    EXPECT_EQ(mte::irgTag(Exclude), 9);

  // All excluded -> hardware yields 0.
  EXPECT_EQ(mte::irgTag(0xFFFF), 0);
}

TEST_F(MteAccessTest, LdgReadsBackStoredTags) {
  uint8_t *Buf = static_cast<uint8_t *>(Arena->allocate(48));
  auto P = TaggedPtr<uint8_t>::fromRaw(Buf, 13);
  mte::setTagRange(P.cast<void>(), 48);
  for (int G = 0; G < 3; ++G)
    EXPECT_EQ(mte::ldgTag(reinterpret_cast<uint64_t>(Buf) + G * 16), 13);
  mte::clearTagRange(reinterpret_cast<uint64_t>(Buf), 48);
  for (int G = 0; G < 3; ++G)
    EXPECT_EQ(mte::ldgTag(reinterpret_cast<uint64_t>(Buf) + G * 16), 0);
}

TEST_F(MteAccessTest, FaultHandlerReceivesRecord) {
  MteSystem::instance().setProcessCheckMode(CheckMode::Sync);
  ThreadState::current().setTco(false);

  static int HandlerCalls;
  HandlerCalls = 0;
  MteSystem::instance().setFaultHandler(
      [](void *, const mte::FaultRecord &R) {
        ++HandlerCalls;
        EXPECT_EQ(R.Kind, mte::FaultKind::TagMismatchSync);
        return mte::FaultAction::Continue;
      },
      nullptr);

  int32_t *Buf = allocInts(4);
  auto P = TaggedPtr<int32_t>::fromRaw(Buf, 5);
  mte::setTagRange(P.cast<void>(), 16);
  mte::store<int32_t>(P.withTag(1), 1);
  EXPECT_EQ(HandlerCalls, 1);
  MteSystem::instance().setFaultHandler(nullptr, nullptr);
}

} // namespace
