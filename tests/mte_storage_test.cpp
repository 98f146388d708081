//===- mte_storage_test.cpp - Shadow regions and the MteSystem ----------------------===//
//
// Part of the MTE4JNI reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "mte4jni/mte/MteSystem.h"
#include "mte4jni/mte/TagStorage.h"
#include "mte4jni/mte/Tombstone.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

namespace {

using namespace mte4jni::mte;

class MteStorageTest : public ::testing::Test {
protected:
  void SetUp() override { MteSystem::instance().reset(); }
  void TearDown() override { MteSystem::instance().reset(); }
};

TEST_F(MteStorageTest, RegionTagsStartZero) {
  alignas(16) static uint8_t Buf[256];
  TaggedRegion Region(reinterpret_cast<uint64_t>(Buf), 256);
  EXPECT_EQ(Region.granuleCount(), 16u);
  for (int G = 0; G < 16; ++G)
    EXPECT_EQ(Region.tagAt(Region.begin() + G * 16), 0);
}

TEST_F(MteStorageTest, SetAndReadSingleGranule) {
  alignas(16) static uint8_t Buf[64];
  TaggedRegion Region(reinterpret_cast<uint64_t>(Buf), 64);
  Region.setTagAt(Region.begin() + 17, 0xC); // mid-granule address
  EXPECT_EQ(Region.tagAt(Region.begin() + 16), 0xC);
  EXPECT_EQ(Region.tagAt(Region.begin() + 31), 0xC);
  EXPECT_EQ(Region.tagAt(Region.begin() + 32), 0);
}

TEST_F(MteStorageTest, SetTagRangeClampsToRegion) {
  alignas(16) static uint8_t Buf[64];
  TaggedRegion Region(reinterpret_cast<uint64_t>(Buf), 64);
  // Range extends past the end: only in-region granules written.
  uint64_t Written =
      Region.setTagRange(Region.begin() + 32, Region.end() + 128, 5);
  EXPECT_EQ(Written, 2u);
  EXPECT_EQ(Region.tagAt(Region.begin() + 32), 5);
  EXPECT_EQ(Region.tagAt(Region.begin() + 48), 5);
  EXPECT_EQ(Region.tagAt(Region.begin()), 0);
}

TEST_F(MteStorageTest, PackedShadowGeometry) {
  // Two granule tags per shadow byte, half the seed's byte-per-granule
  // footprint; an odd granule count rounds up to a whole byte.
  alignas(16) static uint8_t Buf[272];
  for (uint64_t Granules : {uint64_t(1), uint64_t(16), uint64_t(17)}) {
    TaggedRegion Region(reinterpret_cast<uint64_t>(Buf),
                        Granules * kGranuleSize);
    EXPECT_EQ(Region.granuleCount(), Granules);
    EXPECT_EQ(Region.shadowBytes(), (Granules + 1) / 2) << Granules;
  }
}

TEST_F(MteStorageTest, FindMismatch) {
  alignas(16) static uint8_t Buf[128];
  TaggedRegion Region(reinterpret_cast<uint64_t>(Buf), 128);
  Region.setTagRange(Region.begin(), Region.end(), 7);
  EXPECT_EQ(Region.findMismatch(0, 7, 7), UINT64_MAX);
  Region.setTagAt(Region.begin() + 5 * 16, 3);
  EXPECT_EQ(Region.findMismatch(0, 7, 7), 5u);
  EXPECT_EQ(Region.findMismatch(0, 4, 7), UINT64_MAX);
  EXPECT_EQ(Region.findMismatch(6, 7, 7), UINT64_MAX);
}

TEST_F(MteStorageTest, SystemRegisterAndLookup) {
  alignas(16) static uint8_t BufA[256];
  alignas(16) static uint8_t BufB[256];
  MteSystem &Sys = MteSystem::instance();
  Sys.registerRegion(BufA, 256);
  Sys.registerRegion(BufB, 256);

  EXPECT_TRUE(Sys.isTaggedAddress(reinterpret_cast<uint64_t>(BufA) + 100));
  EXPECT_TRUE(Sys.isTaggedAddress(reinterpret_cast<uint64_t>(BufB)));
  EXPECT_FALSE(Sys.isTaggedAddress(0x1234));

  const RegionList *Regions = Sys.regions();
  EXPECT_EQ(Regions->size(), 2u);
  EXPECT_NE(Regions->find(reinterpret_cast<uint64_t>(BufA)), nullptr);

  Sys.unregisterRegion(BufA);
  EXPECT_FALSE(Sys.isTaggedAddress(reinterpret_cast<uint64_t>(BufA)));
  EXPECT_TRUE(Sys.isTaggedAddress(reinterpret_cast<uint64_t>(BufB)));
  Sys.unregisterRegion(BufB);
}

TEST_F(MteStorageTest, MemoryTagAtOutsideRegionsIsZero) {
  EXPECT_EQ(MteSystem::instance().memoryTagAt(0xDEADBEEF), 0);
}

TEST_F(MteStorageTest, ResetClearsEverything) {
  alignas(16) static uint8_t Buf[64];
  MteSystem &Sys = MteSystem::instance();
  Sys.registerRegion(Buf, 64);
  Sys.setProcessCheckMode(CheckMode::Sync);
  Sys.setIrgExcludeMask(0x00FF);
  FaultRecord R;
  Sys.faultLog().append(std::move(R));

  Sys.reset();
  EXPECT_EQ(Sys.processCheckMode(), CheckMode::None);
  EXPECT_EQ(Sys.irgExcludeMask(), 0x0001);
  EXPECT_TRUE(Sys.faultLog().empty());
  // Regions are not the system's to drop: the one registered here stays
  // until its owner unregisters it.
  EXPECT_EQ(Sys.regions()->size(), 1u);
  EXPECT_TRUE(Sys.isTaggedAddress(reinterpret_cast<uint64_t>(Buf)));
  Sys.unregisterRegion(Buf);
  EXPECT_EQ(Sys.regions()->size(), 0u);
}

TEST_F(MteStorageTest, FaultLogBounded) {
  // Past the storage bound the log drops its oldest records, so the
  // snapshot (oldest first) ends at the latest fault and a tombstone of
  // "the most recent fault" renders that one; the counters count all.
  MteSystem &Sys = MteSystem::instance();
  const size_t Total = FaultLog::kMaxStored + 100;
  for (size_t I = 0; I < Total; ++I) {
    FaultRecord R;
    R.Kind = FaultKind::TagMismatchSync;
    R.HasAddress = true;
    R.Address = 0x10000 + I * kGranuleSize;
    Sys.faultLog().append(std::move(R));
  }
  std::vector<FaultRecord> Records = Sys.faultLog().snapshot();
  ASSERT_EQ(Records.size(), FaultLog::kMaxStored);
  for (size_t I = 0; I < Records.size(); ++I)
    ASSERT_EQ(Records[I].Address, 0x10000 + (I + 100) * kGranuleSize) << I;
  EXPECT_EQ(Sys.faultLog().totalCount(), Total);
  EXPECT_EQ(Sys.faultLog().countOf(FaultKind::TagMismatchSync), Total);

  std::string Out;
  ASSERT_TRUE(renderLatestTombstone(Out));
  char Latest[48];
  std::snprintf(Latest, sizeof(Latest), "fault addr 0x%016llx",
                static_cast<unsigned long long>(0x10000 +
                                                (Total - 1) * kGranuleSize));
  EXPECT_NE(Out.find(Latest), std::string::npos) << Out;
}

TEST_F(MteStorageTest, FaultRecordRendering) {
  FaultRecord R;
  R.Kind = FaultKind::TagMismatchSync;
  R.HasAddress = true;
  R.Address = 0x1234;
  R.PointerTag = 5;
  R.MemoryTag = 0;
  R.IsWrite = true;
  R.AccessSize = 4;
  R.Backtrace = {{"test_ofb", "libapp.so"}};
  std::string Out = R.str();
  EXPECT_NE(Out.find("SEGV_MTESERR"), std::string::npos);
  EXPECT_NE(Out.find("ptr tag 5"), std::string::npos);
  EXPECT_NE(Out.find("test_ofb"), std::string::npos);

  FaultRecord Async;
  Async.Kind = FaultKind::TagMismatchAsync;
  Async.HasAddress = false;
  Async.DeliveredAtSyscall = "getuid";
  std::string AsyncOut = Async.str();
  EXPECT_NE(AsyncOut.find("not available"), std::string::npos);
  EXPECT_NE(AsyncOut.find("getuid"), std::string::npos);
}

} // namespace
