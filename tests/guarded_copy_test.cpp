//===- guarded_copy_test.cpp - The guarded-copy baseline -----------------------------===//
//
// Part of the MTE4JNI reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "mte4jni/guarded/GuardedCopy.h"
#include "mte4jni/mte/MteSystem.h"
#include "mte4jni/support/Logging.h"
#include "mte4jni/support/Metrics.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

namespace {

using namespace mte4jni;
using guarded::GuardedCopyOptions;
using guarded::GuardedCopyPolicy;

class GuardedCopyTest : public ::testing::Test {
protected:
  void SetUp() override {
    mte::MteSystem::instance().reset();
    support::Metrics::resetAll();
  }
  void TearDown() override { mte::MteSystem::instance().reset(); }

  static uint64_t counter(const char *Name) {
    return support::Metrics::snapshot().counterValue(Name);
  }

  jni::JniBufferInfo infoFor(std::vector<uint8_t> &Payload) {
    jni::JniBufferInfo Info;
    Info.DataBegin = reinterpret_cast<uint64_t>(Payload.data());
    Info.Bytes = Payload.size();
    Info.Interface = "TestInterface";
    return Info;
  }
};

TEST_F(GuardedCopyTest, AcquireCopiesPayload) {
  GuardedCopyPolicy Policy;
  std::vector<uint8_t> Payload(64);
  for (size_t I = 0; I < 64; ++I)
    Payload[I] = static_cast<uint8_t>(I);

  bool IsCopy = false;
  uint64_t Bits = Policy.acquire(infoFor(Payload), IsCopy);
  EXPECT_TRUE(IsCopy);
  auto *Copy = reinterpret_cast<uint8_t *>(Bits);
  EXPECT_NE(Copy, Payload.data());
  EXPECT_EQ(std::memcmp(Copy, Payload.data(), 64), 0);
  Policy.release(infoFor(Payload), Bits, 0);
  EXPECT_TRUE(mte::MteSystem::instance().faultLog().empty());
}

TEST_F(GuardedCopyTest, CopyBackOnRelease) {
  GuardedCopyPolicy Policy;
  std::vector<uint8_t> Payload(32, 0);
  bool IsCopy;
  uint64_t Bits = Policy.acquire(infoFor(Payload), IsCopy);
  reinterpret_cast<uint8_t *>(Bits)[5] = 0xAA;
  Policy.release(infoFor(Payload), Bits, 0);
  EXPECT_EQ(Payload[5], 0xAA);
}

TEST_F(GuardedCopyTest, JniAbortSkipsCopyBack) {
  GuardedCopyPolicy Policy;
  std::vector<uint8_t> Payload(32, 0);
  bool IsCopy;
  uint64_t Bits = Policy.acquire(infoFor(Payload), IsCopy);
  reinterpret_cast<uint8_t *>(Bits)[5] = 0xAA;
  Policy.release(infoFor(Payload), Bits, jni::JNI_ABORT);
  EXPECT_EQ(Payload[5], 0x00) << "JNI_ABORT discards modifications";
}

TEST_F(GuardedCopyTest, OverflowDetectedWithOffset) {
  GuardedCopyPolicy Policy;
  std::vector<uint8_t> Payload(72, 0); // 18 ints, like Figure 3
  bool IsCopy;
  uint64_t Bits = Policy.acquire(infoFor(Payload), IsCopy);
  // Write at "index 21": byte offset 84.
  reinterpret_cast<uint8_t *>(Bits)[84] = 0x41;
  Policy.release(infoFor(Payload), Bits, 0);

  auto Faults = mte::MteSystem::instance().faultLog().snapshot();
  ASSERT_EQ(Faults.size(), 1u);
  EXPECT_EQ(Faults[0].Kind, mte::FaultKind::GuardedCopyCorruption);
  EXPECT_NE(Faults[0].Description.find("offset 84"), std::string::npos)
      << Faults[0].Description;
  EXPECT_NE(Faults[0].Description.find("overflow"), std::string::npos);
  EXPECT_EQ(counter("guarded/corruptions_detected"), 1u);
}

TEST_F(GuardedCopyTest, UnderflowDetectedWithNegativeOffset) {
  GuardedCopyPolicy Policy;
  std::vector<uint8_t> Payload(32, 0);
  bool IsCopy;
  uint64_t Bits = Policy.acquire(infoFor(Payload), IsCopy);
  reinterpret_cast<uint8_t *>(Bits)[-3] = 0x41; // 3 bytes before payload
  Policy.release(infoFor(Payload), Bits, 0);

  auto Faults = mte::MteSystem::instance().faultLog().snapshot();
  ASSERT_EQ(Faults.size(), 1u);
  EXPECT_NE(Faults[0].Description.find("underflow"), std::string::npos);
  EXPECT_NE(Faults[0].Description.find("-3"), std::string::npos)
      << Faults[0].Description;
}

TEST_F(GuardedCopyTest, WriteBeyondRedZoneIsMissed) {
  GuardedCopyOptions Options;
  Options.RedZoneBytes = 64;
  GuardedCopyPolicy Policy(Options);
  std::vector<uint8_t> Payload(32, 0);
  bool IsCopy;
  uint64_t Bits = Policy.acquire(infoFor(Payload), IsCopy);
  // §2.3 limitation: skipping past the red zone is invisible. Write into
  // our own decoy so the test itself is memory-safe.
  static volatile uint8_t Decoy[1];
  Decoy[0] = 1;
  volatile uint8_t Readback = Decoy[0];
  (void)Readback;
  Policy.release(infoFor(Payload), Bits, 0);
  EXPECT_TRUE(mte::MteSystem::instance().faultLog().empty());
}

TEST_F(GuardedCopyTest, ReadsAreInvisible) {
  GuardedCopyPolicy Policy;
  std::vector<uint8_t> Payload(32, 0);
  bool IsCopy;
  uint64_t Bits = Policy.acquire(infoFor(Payload), IsCopy);
  volatile uint8_t Oob = reinterpret_cast<uint8_t *>(Bits)[40]; // OOB read
  (void)Oob;
  Policy.release(infoFor(Payload), Bits, 0);
  EXPECT_TRUE(mte::MteSystem::instance().faultLog().empty());
}

TEST_F(GuardedCopyTest, BogusReleasePointerReported) {
  GuardedCopyPolicy Policy;
  std::vector<uint8_t> Payload(32, 0);
  uint8_t Bogus[8];
  Policy.release(infoFor(Payload), reinterpret_cast<uint64_t>(Bogus), 0);
  EXPECT_EQ(mte::MteSystem::instance().faultLog().countOf(
                mte::FaultKind::JniCheckError),
            1u);
}

TEST_F(GuardedCopyTest, JniCommitKeepsBlockAlive) {
  GuardedCopyPolicy Policy;
  std::vector<uint8_t> Payload(32, 0);
  bool IsCopy;
  uint64_t Bits = Policy.acquire(infoFor(Payload), IsCopy);
  reinterpret_cast<uint8_t *>(Bits)[0] = 7;
  Policy.release(infoFor(Payload), Bits, jni::JNI_COMMIT);
  EXPECT_EQ(Payload[0], 7) << "committed";
  // The commit copied back but released nothing.
  EXPECT_EQ(counter("guarded/releases"), 0u);
  EXPECT_EQ(counter("guarded/bytes_copied"), 2u * 32u);
  // Buffer still usable and releasable.
  reinterpret_cast<uint8_t *>(Bits)[0] = 9;
  Policy.release(infoFor(Payload), Bits, 0);
  EXPECT_EQ(Payload[0], 9);
  EXPECT_EQ(counter("guarded/acquires"), 1u);
  EXPECT_EQ(counter("guarded/releases"), 1u);
  EXPECT_TRUE(mte::MteSystem::instance().faultLog().empty());
}

TEST_F(GuardedCopyTest, ScratchBuffersVerified) {
  GuardedCopyPolicy Policy;
  uint64_t Bits = Policy.acquireScratch(24, "GetStringUTFChars");
  auto *Buf = reinterpret_cast<uint8_t *>(Bits);
  std::memset(Buf, 'x', 24); // in-bounds fill is fine
  Buf[30] = 1;               // overflow into the back red zone
  Policy.releaseScratch(Bits, 24, "ReleaseStringUTFChars");
  EXPECT_EQ(mte::MteSystem::instance().faultLog().countOf(
                mte::FaultKind::GuardedCopyCorruption),
            1u);
}

TEST_F(GuardedCopyTest, AbortAfterModifyLogsWarning) {
  support::LogBuffer::clear();
  GuardedCopyPolicy Policy;
  std::vector<uint8_t> Payload(32, 0);
  bool IsCopy;
  uint64_t Bits = Policy.acquire(infoFor(Payload), IsCopy);
  reinterpret_cast<uint8_t *>(Bits)[1] = 0x55; // modify...
  Policy.release(infoFor(Payload), Bits, jni::JNI_ABORT); // ...then abort
  bool SawWarning = false;
  for (const auto &R : support::LogBuffer::snapshot())
    if (R.Severity == support::LogSeverity::Warn &&
        R.Message.find("JNI_ABORT") != std::string::npos)
      SawWarning = true;
  EXPECT_TRUE(SawWarning);
  support::LogBuffer::clear();
}

TEST_F(GuardedCopyTest, StatsAccumulate) {
  GuardedCopyPolicy Policy;
  std::vector<uint8_t> Payload(100, 0);
  bool IsCopy;
  for (int I = 0; I < 5; ++I) {
    uint64_t Bits = Policy.acquire(infoFor(Payload), IsCopy);
    Policy.release(infoFor(Payload), Bits, 0);
  }
  EXPECT_EQ(counter("guarded/acquires"), 5u);
  EXPECT_EQ(counter("guarded/releases"), 5u);
  EXPECT_EQ(counter("guarded/bytes_copied"), 5u * 100u * 2u); // in + out
}

TEST_F(GuardedCopyTest, ZeroLengthPayload) {
  GuardedCopyPolicy Policy;
  std::vector<uint8_t> Payload;
  jni::JniBufferInfo Info;
  Info.DataBegin = 0;
  Info.Bytes = 0;
  Info.Interface = "Test";
  bool IsCopy;
  uint64_t Bits = Policy.acquire(Info, IsCopy);
  EXPECT_NE(Bits, 0u);
  Policy.release(Info, Bits, jni::JNI_ABORT);
  EXPECT_TRUE(mte::MteSystem::instance().faultLog().empty());
}

} // namespace
