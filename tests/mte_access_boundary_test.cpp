//===- mte_access_boundary_test.cpp - Region-boundary check behaviour -----------===//
//
// Part of the MTE4JNI reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Regression tests for the region-boundary bugs the fast-path rework
// exposed: accesses that begin BELOW a PROT_MTE region and extend into it,
// tails that run past a region's end, spans across adjacent regions, and
// the per-thread region cache + snapshot-reclamation machinery under
// register/unregister churn. Also pins the SWAR scan kernel to the
// scalar reference on randomised shadow contents, and the derived
// mte/access/* counters to exact per-thread counts.
//
//===----------------------------------------------------------------------===//

#include "mte4jni/mte/Access.h"
#include "mte4jni/mte/Instructions.h"
#include "mte4jni/mte/MteSystem.h"
#include "mte4jni/mte/TaggedArena.h"
#include "mte4jni/support/Metrics.h"

#include <gtest/gtest.h>

#include <atomic>
#include <random>
#include <thread>
#include <vector>

namespace {

using namespace mte4jni;
using mte::CheckMode;
using mte::kGranuleSize;
using mte::MteSystem;
using mte::TaggedPtr;
using mte::ThreadState;

class MteAccessBoundaryTest : public ::testing::Test {
protected:
  void SetUp() override {
    MteSystem::instance().reset();
    MteSystem::instance().setProcessCheckMode(CheckMode::Sync);
    ThreadState::current().setTco(false);
  }
  void TearDown() override { MteSystem::instance().reset(); }

  uint64_t faults() { return MteSystem::instance().faultLog().totalCount(); }
};

// An access that STARTS below the region and extends into it must still
// check the in-region granules. The seed's single find(Address) lookup
// resolved the (unregistered) first granule and skipped the check.
TEST_F(MteAccessBoundaryTest, ScalarAccessStartingBelowRegionFaults) {
  alignas(16) uint8_t Buf[64] = {};
  // Register only the upper half: [Buf+32, Buf+64).
  MteSystem::instance().registerRegion(Buf + 32, 32);
  auto R = TaggedPtr<uint8_t>::fromRaw(Buf + 32, 7);
  mte::setTagRange(R.cast<void>(), 32);

  // 8-byte store at Buf+28 covers [28, 36): granule 1 (unregistered,
  // unchecked) and granule 2 (in-region, tag 7). Pointer tag 3 != 7.
  auto P = TaggedPtr<uint64_t>::fromRaw(
      reinterpret_cast<uint64_t *>(Buf + 28), 3);
  mte::store<uint64_t>(P, 1);
  auto Faults = MteSystem::instance().faultLog().snapshot();
  ASSERT_EQ(Faults.size(), 1u);
  EXPECT_EQ(Faults[0].PointerTag, 3);
  EXPECT_EQ(Faults[0].MemoryTag, 7);

  // Same shape with the matching tag: clean, and exactly the one in-region
  // granule is counted as checked.
  uint64_t Before = ThreadState::current().checksPerformed();
  mte::store<uint64_t>(P.withTag(7), 2);
  EXPECT_EQ(ThreadState::current().checksPerformed() - Before, 1u);
  EXPECT_EQ(faults(), 1u);
  MteSystem::instance().unregisterRegion(Buf + 32);
}

TEST_F(MteAccessBoundaryTest, RangeStartingBelowRegionFaults) {
  alignas(16) uint8_t Buf[96] = {};
  MteSystem::instance().registerRegion(Buf + 48, 48);
  auto R = TaggedPtr<uint8_t>::fromRaw(Buf + 48, 9);
  mte::setTagRange(R.cast<void>(), 48);

  // Range [Buf+8, Buf+72): three granules below the region, granules 3..4
  // inside it. A mismatching pointer tag must fault on the first in-region
  // granule.
  auto P = TaggedPtr<void>::fromRaw(Buf + 8, 4);
  mte::fillBytes(P, 0xCD, 64);
  auto Faults = MteSystem::instance().faultLog().snapshot();
  ASSERT_EQ(Faults.size(), 1u);
  EXPECT_EQ(Faults[0].MemoryTag, 9);
  // The reported address is inside the access AND inside the region.
  EXPECT_GE(Faults[0].Address, reinterpret_cast<uint64_t>(Buf + 48));
  EXPECT_LT(Faults[0].Address, reinterpret_cast<uint64_t>(Buf + 72));

  // Matching tag: clean; only the two in-region granules are checked.
  uint64_t Before = ThreadState::current().checksPerformed();
  mte::fillBytes(P.withTag(9), 0xCD, 64);
  EXPECT_EQ(ThreadState::current().checksPerformed() - Before, 2u);
  EXPECT_EQ(faults(), 1u);
  MteSystem::instance().unregisterRegion(Buf + 48);
}

// A tail running PAST the region's end is unchecked, like any other
// non-PROT_MTE memory — hardware checks per granule against the page it
// lives in, and pages past the mapping are not PROT_MTE.
TEST_F(MteAccessBoundaryTest, TailPastRegionEndIsUnchecked) {
  alignas(16) uint8_t Buf[64] = {};
  MteSystem::instance().registerRegion(Buf, 32);
  auto R = TaggedPtr<uint8_t>::fromRaw(Buf, 5);
  mte::setTagRange(R.cast<void>(), 32);

  // Range [Buf+16, Buf+56): granule 1 in-region (tag 5, matches), granules
  // 2..3 past the end. No fault.
  mte::fillBytes(TaggedPtr<void>::fromRaw(Buf + 16, 5), 0xEE, 40);
  EXPECT_EQ(faults(), 0u);

  // Scalar flavour: 8-byte store at Buf+28 covers [28, 36) — granule 1
  // matches, granule 2 is out of region. Still clean.
  mte::store<uint64_t>(
      TaggedPtr<uint64_t>::fromRaw(reinterpret_cast<uint64_t *>(Buf + 28), 5),
      3);
  EXPECT_EQ(faults(), 0u);
  MteSystem::instance().unregisterRegion(Buf);
}

TEST_F(MteAccessBoundaryTest, SubGranuleSizesAtBoundaries) {
  alignas(16) uint8_t Buf[64] = {};
  MteSystem::instance().registerRegion(Buf + 16, 32);
  auto R = TaggedPtr<uint8_t>::fromRaw(Buf + 16, 6);
  mte::setTagRange(R.cast<void>(), 32);

  // 1-byte accesses hugging the region boundaries.
  mte::store<uint8_t>(TaggedPtr<uint8_t>::fromRaw(Buf + 15, 13), 1);
  EXPECT_EQ(faults(), 0u); // last byte below the region: unchecked
  mte::store<uint8_t>(TaggedPtr<uint8_t>::fromRaw(Buf + 16, 6), 1);
  EXPECT_EQ(faults(), 0u); // first in-region byte, matching tag
  mte::store<uint8_t>(TaggedPtr<uint8_t>::fromRaw(Buf + 47, 6), 1);
  EXPECT_EQ(faults(), 0u); // last in-region byte, matching tag
  mte::store<uint8_t>(TaggedPtr<uint8_t>::fromRaw(Buf + 48, 6), 1);
  EXPECT_EQ(faults(), 0u); // first byte past the end: unchecked

  mte::store<uint8_t>(TaggedPtr<uint8_t>::fromRaw(Buf + 47, 2), 1);
  EXPECT_EQ(faults(), 1u); // in-region, mismatching tag

  // A 2-byte access at Buf+47 straddles the region end: byte 47 checked
  // (matches), byte 48 unchecked.
  mte::store<uint16_t>(
      TaggedPtr<uint16_t>::fromRaw(reinterpret_cast<uint16_t *>(Buf + 47), 6),
      1);
  EXPECT_EQ(faults(), 1u);
  MteSystem::instance().unregisterRegion(Buf + 16);
}

TEST_F(MteAccessBoundaryTest, SpanAcrossAdjacentRegions) {
  alignas(16) uint8_t Buf[64] = {};
  MteSystem::instance().registerRegion(Buf, 32);
  MteSystem::instance().registerRegion(Buf + 32, 32);
  mte::setTagRange(TaggedPtr<void>::fromRaw(Buf, 8), 32);
  mte::setTagRange(TaggedPtr<void>::fromRaw(Buf + 32, 8), 32);

  // Both regions tagged 8: a range spanning the seam is clean and every
  // granule on both sides is checked.
  uint64_t Before = ThreadState::current().checksPerformed();
  mte::fillBytes(TaggedPtr<void>::fromRaw(Buf, 8), 0x11, 64);
  EXPECT_EQ(ThreadState::current().checksPerformed() - Before, 4u);
  EXPECT_EQ(faults(), 0u);

  // Scalar store straddling the seam.
  mte::store<uint64_t>(
      TaggedPtr<uint64_t>::fromRaw(reinterpret_cast<uint64_t *>(Buf + 28), 8),
      1);
  EXPECT_EQ(faults(), 0u);

  // Retag the second region: the same span must now fault on its side of
  // the seam.
  mte::setTagRange(TaggedPtr<void>::fromRaw(Buf + 32, 3), 32);
  mte::fillBytes(TaggedPtr<void>::fromRaw(Buf, 8), 0x22, 64);
  auto Faults = MteSystem::instance().faultLog().snapshot();
  ASSERT_EQ(Faults.size(), 1u);
  EXPECT_EQ(Faults[0].MemoryTag, 3);
  EXPECT_GE(Faults[0].Address, reinterpret_cast<uint64_t>(Buf + 32));
  MteSystem::instance().unregisterRegion(Buf);
  MteSystem::instance().unregisterRegion(Buf + 32);
}

// The per-thread region cache must be invalidated by unregister (stale
// epoch), and a re-registered region starts untagged.
TEST_F(MteAccessBoundaryTest, RegionCacheInvalidatedByUnregister) {
  mte::TaggedArena Arena(1 << 16);
  auto *Buf = static_cast<uint8_t *>(Arena.allocate(64));
  auto P = TaggedPtr<uint8_t>::fromRaw(Buf, 5);
  mte::setTagRange(P.cast<void>(), 64);

  // Populate the cache with a clean checked access.
  mte::store<uint8_t>(P, 1);
  EXPECT_EQ(faults(), 0u);

  // Drop the arena's region: the same (now dangling-tag) access must go
  // unchecked — a stale cache hit would wrongly keep checking tag 5.
  MteSystem::instance().unregisterRegion(reinterpret_cast<void *>(
      Arena.begin()));
  mte::store<uint8_t>(P.withTag(12), 2);
  EXPECT_EQ(faults(), 0u);

  // Re-register: shadow memory is fresh (all granule tags 0), so the old
  // tag-5 pointer now mismatches.
  MteSystem::instance().registerRegion(
      reinterpret_cast<void *>(Arena.begin()), Arena.capacity());
  mte::store<uint8_t>(P, 3);
  auto Faults = MteSystem::instance().faultLog().snapshot();
  ASSERT_EQ(Faults.size(), 1u);
  EXPECT_EQ(Faults[0].PointerTag, 5);
  EXPECT_EQ(Faults[0].MemoryTag, 0);
}

// Register/unregister churn with no pinned readers must not accumulate
// retired snapshots.
TEST_F(MteAccessBoundaryTest, RetiredSnapshotsStayBounded) {
  alignas(16) uint8_t Buf[256] = {};
  for (int I = 0; I < 200; ++I) {
    MteSystem::instance().registerRegion(Buf, 64);
    MteSystem::instance().registerRegion(Buf + 128, 64);
    MteSystem::instance().unregisterRegion(Buf + 128);
    MteSystem::instance().unregisterRegion(Buf);
  }
  // The quiescent main thread holds no pin, so at most the snapshots
  // retired since the last reclaim sweep linger.
  EXPECT_LE(MteSystem::instance().retiredSnapshotCount(), 2u);
}

// Checked loads racing register/unregister churn: the TSan job runs this
// to validate the epoch-based snapshot reclamation (a reader's pinned
// RegionList must never be freed under it). Matching tags throughout, so
// no faults regardless of interleaving.
TEST_F(MteAccessBoundaryTest, CheckedLoadsVsRegionChurn) {
  mte::TaggedArena Stable(1 << 16);
  auto *Buf = static_cast<uint8_t *>(Stable.allocate(256));
  auto P = TaggedPtr<uint8_t>::fromRaw(Buf, 7);
  mte::setTagRange(P.cast<void>(), 256);

  std::atomic<bool> Stop{false};
  std::vector<std::thread> Readers;
  for (int T = 0; T < 3; ++T) {
    Readers.emplace_back([&] {
      ThreadState::current().setTco(false);
      while (!Stop.load(std::memory_order_relaxed)) {
        for (int I = 0; I < 256; I += 16)
          (void)mte::load<uint8_t>(P + I);
        mte::checkReadRange(P.cast<const void>(), 256);
      }
    });
  }

  alignas(16) static uint8_t Churn[4096];
  for (int I = 0; I < 500; ++I) {
    MteSystem::instance().registerRegion(Churn, sizeof(Churn));
    MteSystem::instance().unregisterRegion(Churn);
  }
  Stop.store(true, std::memory_order_relaxed);
  for (auto &R : Readers)
    R.join();
  EXPECT_EQ(faults(), 0u);
}

// The mte/access/* counters are derived from per-thread ThreadState cells.
// With more threads than the registry has exclusive shards, half of them
// exited before the snapshot and half still live, every count must still
// be exact; snapshots taken while threads count must be race-free (the
// TSan job runs this); and resetAll must zero all four names.
TEST_F(MteAccessBoundaryTest, DerivedAccessCountersAreExact) {
  constexpr unsigned kThreads = 40;
  static_assert(kThreads > support::kMetricShards);
  const char *const kNames[] = {
      "mte/access/checked_loads", "mte/access/checked_stores",
      "mte/access/checked_granules", "mte/access/region_cache_hit"};
  // One 1 KiB slice per thread, so the stores do not race.
  mte::TaggedArena Arena(1 << 16);
  auto *Buf = static_cast<uint8_t *>(Arena.allocate(kThreads * 1024));
  auto P = TaggedPtr<uint8_t>::fromRaw(Buf, 6);
  mte::setTagRange(P.cast<void>(), kThreads * 1024);

  // Thread T makes 64 * (T+1) rounds. A round is 3 one-granule loads, one
  // load straddling two granules, 2 one-granule stores and one straddling
  // store. The straddles are naturally aligned 12-byte accesses.
  struct Triple {
    uint32_t V[3];
  };
  auto Rounds = [](unsigned T) { return 64 * (uint64_t(T) + 1); };
  std::atomic<unsigned> Finished{0};
  std::atomic<bool> Release{false};
  support::MetricsSnapshot Before = support::Metrics::snapshot();
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < kThreads; ++T)
    Threads.emplace_back([&, T] {
      for (uint64_t R = 0; R < Rounds(T); ++R) {
        TaggedPtr<uint8_t> Base = P + ptrdiff_t(T * 1024 + (R % 16) * 64);
        for (int I = 0; I < 3; ++I)
          (void)mte::load<uint32_t>((Base + 4 * I).cast<uint32_t>());
        (void)mte::load<Triple>((Base + 8).cast<Triple>()); // granules 0-1
        mte::store<uint32_t>((Base + 16).cast<uint32_t>(), 1);
        mte::store<uint16_t>((Base + 20).cast<uint16_t>(), 2);
        mte::store<Triple>((Base + 24).cast<Triple>(), {}); // granules 1-2
      }
      Finished.fetch_add(1);
      if (T % 2 == 1) // odd threads stay live across the snapshot
        while (!Release.load())
          std::this_thread::yield();
    });

  uint64_t Seen = 0;
  while (Finished.load() < kThreads) {
    uint64_t Now = support::Metrics::snapshot().counterValue(kNames[0]);
    EXPECT_GE(Now, Seen);
    Seen = Now;
  }
  for (unsigned T = 0; T < kThreads; T += 2)
    Threads[T].join();

  uint64_t AllRounds = 0;
  for (unsigned T = 0; T < kThreads; ++T)
    AllRounds += Rounds(T);
  // A round checks 3 + 2 load granules and 1 + 1 + 2 store granules. Each
  // thread's first access misses the cold cache; the rest hit it.
  const uint64_t Expected[] = {4 * AllRounds, 3 * AllRounds,
                               (5 + 4) * AllRounds, 7 * AllRounds - kThreads};
  support::MetricsSnapshot Mixed = support::Metrics::snapshot();
  for (int I = 0; I < 4; ++I)
    EXPECT_EQ(Mixed.counterValue(kNames[I]) - Before.counterValue(kNames[I]),
              Expected[I])
        << kNames[I];

  Release.store(true);
  for (unsigned T = 1; T < kThreads; T += 2)
    Threads[T].join();
  support::MetricsSnapshot Exited = support::Metrics::snapshot();
  for (int I = 0; I < 4; ++I)
    EXPECT_EQ(Exited.counterValue(kNames[I]), Mixed.counterValue(kNames[I]))
        << kNames[I] << " changed when its threads exited";

  support::Metrics::resetAll();
  support::MetricsSnapshot Reset = support::Metrics::snapshot();
  for (const char *Name : kNames)
    EXPECT_EQ(Reset.counterValue(Name, UINT64_MAX), 0u) << Name;
  EXPECT_EQ(faults(), 0u);
}

// The SWAR scan kernel agrees with the scalar reference on randomised
// shadow contents, lengths and mismatch positions.
TEST_F(MteAccessBoundaryTest, ScanKernelsMatchScalarReference) {
  std::mt19937_64 Rng(0xB0A5u);
  for (int Trial = 0; Trial < 2000; ++Trial) {
    uint64_t Count = 1 + Rng() % 200;
    mte::TagValue Expected = static_cast<mte::TagValue>(Rng() & 0xF);
    std::vector<uint8_t> Tags(Count, Expected);
    // Sprinkle mismatches with ~25% probability per trial.
    if ((Rng() & 3u) == 0) {
      uint64_t Flips = 1 + Rng() % 3;
      for (uint64_t F = 0; F < Flips; ++F)
        Tags[Rng() % Count] = static_cast<uint8_t>((Expected + 1) & 0xF);
    }
    uint64_t Ref = mte::detail::scanMismatchScalar(Tags.data(), Count, Expected);
    EXPECT_EQ(mte::detail::scanMismatch(Tags.data(), Count, Expected), Ref);
  }
}

// Unaligned scan starts: kernels must honour arbitrary base offsets (the
// region fast path hands them Tags + FirstIdx).
TEST_F(MteAccessBoundaryTest, ScanKernelsHandleUnalignedStarts) {
  std::vector<uint8_t> Tags(128, 11);
  Tags[97] = 4;
  for (uint64_t Off = 0; Off < 64; ++Off) {
    uint64_t Ref =
        mte::detail::scanMismatchScalar(Tags.data() + Off, 128 - Off, 11);
    EXPECT_EQ(mte::detail::scanMismatch(Tags.data() + Off, 128 - Off, 11),
              Ref);
  }
}

} // namespace
