//===- core_allocator_test.cpp - Algorithm 1/2 semantics --------------------------===//
//
// Part of the MTE4JNI reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Unit tests for the paper's tag allocation (Algorithm 1) and release
// (Algorithm 2): reference counting, tag sharing between concurrent
// holders, tag clearing when the last holder releases, every tag-table
// kind under contention, and the per-thread slot memo.
//
//===----------------------------------------------------------------------===//

#include "mte4jni/core/TagAllocator.h"
#include "mte4jni/core/TagTable.h"
#include "mte4jni/mte/Access.h"
#include "mte4jni/mte/Instructions.h"
#include "mte4jni/mte/MteSystem.h"
#include "mte4jni/mte/TaggedArena.h"
#include "mte4jni/mte/ThreadState.h"
#include "mte4jni/support/Metrics.h"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <thread>
#include <vector>

namespace {

using namespace mte4jni;
using core::TagAllocator;
using core::TagTable;
using mte::MteSystem;

/// A core/tagallocator/* registry count. The fixtures below reset the
/// registry in SetUp, so this is the test's own count.
uint64_t count(const char *Name) {
  return support::Metrics::snapshot().counterValue(
      (std::string("core/tagallocator/") + Name).c_str());
}

class TagAllocatorTest
    : public ::testing::TestWithParam<core::TagTableKind> {
protected:
  void SetUp() override {
    MteSystem::instance().reset();
    support::Metrics::resetAll();
    Arena = std::make_unique<mte::TaggedArena>(4 << 20);
  }
  void TearDown() override {
    Arena.reset();
    MteSystem::instance().reset();
  }

  uint64_t allocRange(uint64_t Bytes) {
    void *P = Arena->allocate(Bytes);
    EXPECT_NE(P, nullptr);
    return reinterpret_cast<uint64_t>(P);
  }

  std::unique_ptr<mte::TaggedArena> Arena;
};

/// Options for the paper's exact Algorithm 2 semantics: the last release
/// clears granule tags immediately. The tests that assert clear-on-release
/// behaviour use this; deferred-clear semantics get their own tests below.
core::TagAllocatorOptions exactOptions(core::TagTableKind Kind) {
  core::TagAllocatorOptions Options;
  Options.Locks = Kind;
  Options.DeferredTagClear = false;
  return Options;
}

TEST_P(TagAllocatorTest, FirstAcquireGeneratesAndAppliesTag) {
  TagAllocator Alloc(GetParam());
  uint64_t Begin = allocRange(64);

  uint64_t Bits = Alloc.acquire(Begin, Begin + 64);
  mte::TagValue Tag = mte::pointerTagOf(Bits);
  EXPECT_NE(Tag, 0); // GCR excludes 0
  EXPECT_EQ(mte::addressOf(Bits), Begin);
  // Every granule got the tag.
  for (int G = 0; G < 4; ++G)
    EXPECT_EQ(mte::ldgTag(Begin + G * 16), Tag);

  EXPECT_EQ(count("tags_generated"), 1u);
  EXPECT_EQ(count("tags_shared"), 0u);
}

TEST_P(TagAllocatorTest, SecondAcquireSharesTheTag) {
  TagAllocator Alloc(exactOptions(GetParam()));
  uint64_t Begin = allocRange(128);

  uint64_t Bits1 = Alloc.acquire(Begin, Begin + 128);
  uint64_t Bits2 = Alloc.acquire(Begin, Begin + 128);
  EXPECT_EQ(Bits1, Bits2); // same tag, same address
  EXPECT_EQ(count("tags_generated"), 1u);
  EXPECT_EQ(count("tags_shared"), 1u);

  // Releasing once keeps the tag (refcount 2 -> 1).
  Alloc.release(Begin, Begin + 128);
  EXPECT_EQ(mte::ldgTag(Begin), mte::pointerTagOf(Bits1));
  EXPECT_EQ(count("tags_cleared"), 0u);

  // Last release clears it.
  Alloc.release(Begin, Begin + 128);
  EXPECT_EQ(mte::ldgTag(Begin), 0);
  EXPECT_EQ(count("tags_cleared"), 1u);
}

TEST_P(TagAllocatorTest, ReleaseWithoutAcquireIsANoOp) {
  TagAllocator Alloc(GetParam());
  uint64_t Begin = allocRange(32);
  Alloc.release(Begin, Begin + 32);
  EXPECT_EQ(count("orphan_releases"), 1u);
  EXPECT_EQ(count("tags_cleared"), 0u);
}

TEST_P(TagAllocatorTest, DoubleReleaseIsTolerated) {
  TagAllocator Alloc(exactOptions(GetParam()));
  uint64_t Begin = allocRange(32);
  Alloc.acquire(Begin, Begin + 32);
  Alloc.release(Begin, Begin + 32);
  Alloc.release(Begin, Begin + 32); // count already 0
  EXPECT_EQ(count("tags_cleared"), 1u);
}

TEST_P(TagAllocatorTest, EntryKeptAfterReleaseAndReused) {
  // Algorithm 2 as published clears the tags on the last release and
  // leaves the {referenceNum, mutexAddr} tuple in place for reuse.
  TagAllocator Alloc(exactOptions(GetParam()));
  uint64_t Begin = allocRange(32);
  for (int Round = 0; Round < 2; ++Round) {
    Alloc.acquire(Begin, Begin + 32);
    EXPECT_EQ(Alloc.table().occupiedEntries(), 1u);
    Alloc.release(Begin, Begin + 32);
    EXPECT_EQ(Alloc.table().occupiedEntries(), 1u);
    EXPECT_EQ(Alloc.table().liveEntries(), 0u);
  }
  // Keys are never erased, so occupancy is the number of entries created.
  EXPECT_EQ(Alloc.table().occupiedEntries(), 1u);
  EXPECT_EQ(count("tags_generated"), 2u);
  EXPECT_EQ(count("tags_cleared"), 2u);
}

TEST_P(TagAllocatorTest, UseAfterReleaseFaults) {
  // Algorithm 2's motivation: clearing tags makes dangling tagged
  // pointers detectable.
  MteSystem::instance().setProcessCheckMode(mte::CheckMode::Sync);
  mte::ThreadState::current().setTco(false);

  TagAllocator Alloc(exactOptions(GetParam()));
  uint64_t Begin = allocRange(64);
  uint64_t Bits = Alloc.acquire(Begin, Begin + 64);
  auto P = mte::TaggedPtr<int32_t>::fromBits(Bits);

  mte::store<int32_t>(P, 42);
  EXPECT_EQ(MteSystem::instance().faultLog().totalCount(), 0u);

  Alloc.release(Begin, Begin + 64);
  mte::store<int32_t>(P, 43); // dangling tagged pointer
  EXPECT_EQ(MteSystem::instance().faultLog().totalCount(), 1u);
}

TEST_P(TagAllocatorTest, DistinctObjectsGetIndependentTags) {
  TagAllocator Alloc(exactOptions(GetParam()));
  // With 4-bit tags collisions are expected; just verify independence of
  // refcounts and ranges.
  uint64_t A = allocRange(64);
  uint64_t B = allocRange(64);
  uint64_t BitsA = Alloc.acquire(A, A + 64);
  uint64_t BitsB = Alloc.acquire(B, B + 64);
  Alloc.release(A, A + 64);
  // A's tags cleared, B's intact.
  EXPECT_EQ(mte::ldgTag(A), 0);
  EXPECT_EQ(mte::ldgTag(B), mte::pointerTagOf(BitsB));
  Alloc.release(B, B + 64);
  EXPECT_EQ(mte::ldgTag(B), 0);
  (void)BitsA;
}

TEST_P(TagAllocatorTest, ConcurrentAcquireReleaseOnSameObject) {
  TagAllocator Alloc(GetParam());
  uint64_t Begin = allocRange(4096);

  constexpr int kThreads = 8;
  constexpr int kIters = 2000;
  std::vector<std::thread> Threads;
  for (int T = 0; T < kThreads; ++T) {
    Threads.emplace_back([&] {
      for (int I = 0; I < kIters; ++I) {
        uint64_t Bits = Alloc.acquire(Begin, Begin + 4096);
        // While held, the granule tag must equal our pointer tag.
        ASSERT_EQ(mte::ldgTag(Begin), mte::pointerTagOf(Bits));
        Alloc.release(Begin, Begin + 4096);
      }
    });
  }
  for (auto &T : Threads)
    T.join();

  EXPECT_EQ(count("acquires"), uint64_t(kThreads) * kIters);
  EXPECT_EQ(count("releases"), uint64_t(kThreads) * kIters);
  // Deferred clear (on by default for the lock-free kind) may leave the
  // last release's tags lingering; drain before the exactness asserts.
  Alloc.reclaimAll();
  EXPECT_EQ(Alloc.table().liveEntries(), 0u);
  EXPECT_EQ(mte::ldgTag(Begin), 0);
  // Shared + generated must cover all acquires.
  EXPECT_EQ(count("tags_generated") + count("tags_shared"),
            uint64_t(kThreads) * kIters);
  // Every generated tag is eventually cleared once resident tags drain.
  EXPECT_EQ(count("tags_generated"), count("tags_cleared"));
}

TEST_P(TagAllocatorTest, ConcurrentDisjointObjects) {
  TagAllocator Alloc(GetParam());
  constexpr int kThreads = 8;
  constexpr int kIters = 2000;

  std::vector<uint64_t> Ranges;
  for (int T = 0; T < kThreads; ++T)
    Ranges.push_back(allocRange(1024));

  std::vector<std::thread> Threads;
  for (int T = 0; T < kThreads; ++T) {
    Threads.emplace_back([&, T] {
      uint64_t Begin = Ranges[static_cast<size_t>(T)];
      for (int I = 0; I < kIters; ++I) {
        uint64_t Bits = Alloc.acquire(Begin, Begin + 1024);
        ASSERT_EQ(mte::ldgTag(Begin + 512), mte::pointerTagOf(Bits));
        Alloc.release(Begin, Begin + 1024);
      }
    });
  }
  for (auto &T : Threads)
    T.join();
  Alloc.reclaimAll();
  EXPECT_EQ(Alloc.table().liveEntries(), 0u);
}

INSTANTIATE_TEST_SUITE_P(TableKinds, TagAllocatorTest,
                         ::testing::Values(core::TagTableKind::LockFree,
                                           core::TagTableKind::TwoTierMutex,
                                           core::TagTableKind::GlobalLock),
                         [](const auto &Info) {
                           switch (Info.param) {
                           case core::TagTableKind::LockFree:
                             return "LockFree";
                           case core::TagTableKind::TwoTierMutex:
                             return "TwoTier";
                           default:
                             return "GlobalLock";
                           }
                         });

// ---- TagTable-specific behaviour -------------------------------------------

TEST(TagTableTest, ShardIndexMatchesAlgorithm1) {
  TagTable Table(16);
  // (begin / 16) mod 16
  EXPECT_EQ(Table.shardIndexOf(0x0), 0u);
  EXPECT_EQ(Table.shardIndexOf(0x10), 1u);
  EXPECT_EQ(Table.shardIndexOf(0xF0), 15u);
  EXPECT_EQ(Table.shardIndexOf(0x100), 0u);
  EXPECT_EQ(Table.shardIndexOf(0x130), 3u);
}

TEST(TagTableTest, LookupOrCreateIsIdempotent) {
  TagTable Table(16);
  TagTable::Entry &A = Table.lookupOrCreate(0x1000);
  TagTable::Entry &B = Table.lookupOrCreate(0x1000);
  EXPECT_EQ(&A, &B);
  // Structural occupancy: the entry exists even though nobody holds it
  // yet (liveEntries would be 0 here — it counts holders, not storage).
  EXPECT_EQ(Table.occupiedEntries(), 1u);
  EXPECT_EQ(Table.liveEntries(), 0u);
}

TEST(TagTableTest, WorksWithNonDefaultTableCounts) {
  for (unsigned K : {1u, 2u, 7u, 64u}) {
    TagTable Table(K);
    for (uint64_t Addr = 0; Addr < 64 * 16; Addr += 16)
      Table.lookupOrCreate(Addr);
    EXPECT_EQ(Table.occupiedEntries(), 64u);
  }
}

// ---- Deferred tag-clear (lingering) semantics ------------------------------

class DeferredTagClearTest : public ::testing::Test {
protected:
  void SetUp() override {
    MteSystem::instance().reset();
    support::Metrics::resetAll();
    Arena = std::make_unique<mte::TaggedArena>(4 << 20);
  }
  void TearDown() override {
    Arena.reset();
    MteSystem::instance().reset();
  }

  uint64_t allocRange(uint64_t Bytes) {
    void *P = Arena->allocate(Bytes);
    EXPECT_NE(P, nullptr);
    return reinterpret_cast<uint64_t>(P);
  }

  std::unique_ptr<mte::TaggedArena> Arena;
};

TEST_F(DeferredTagClearTest, ReleaseLeavesTagsResidentUntilReclaim) {
  // Deferral is the lock-free default.
  TagAllocator Alloc(core::TagTableKind::LockFree);
  ASSERT_TRUE(Alloc.deferredTagClear());
  uint64_t Begin = allocRange(64);

  uint64_t Bits = Alloc.acquire(Begin, Begin + 64);
  // The first holder's publish charges the budget for the tags' whole
  // residency, so the charge is visible from the acquire onward.
  EXPECT_EQ(Alloc.table().residentBytes(), 64u);
  Alloc.release(Begin, Begin + 64);
  // Lingering: tags in place, bytes still charged, nothing cleared yet.
  EXPECT_EQ(mte::ldgTag(Begin), mte::pointerTagOf(Bits));
  EXPECT_EQ(Alloc.table().residentBytes(), 64u);
  EXPECT_EQ(count("tags_cleared"), 0u);

  // Warm re-acquire: same tag, shared (not regenerated). The charge stays
  // in place — only clearing the tags refunds it — which is what keeps
  // the warm cycle down to one CAS per direction.
  uint64_t Bits2 = Alloc.acquire(Begin, Begin + 64);
  EXPECT_EQ(Bits2, Bits);
  EXPECT_EQ(count("tags_generated"), 1u);
  EXPECT_EQ(count("tags_shared"), 1u);
  EXPECT_EQ(Alloc.table().residentBytes(), 64u);
  Alloc.release(Begin, Begin + 64);

  // Reclaim drains the lingering state and settles the clear accounting.
  EXPECT_EQ(Alloc.reclaimAll(), 1u);
  EXPECT_EQ(mte::ldgTag(Begin), 0);
  EXPECT_EQ(Alloc.table().residentBytes(), 0u);
  EXPECT_EQ(count("tags_cleared"), 1u);
  EXPECT_EQ(Alloc.table().liveEntries(), 0u);
}

TEST_F(DeferredTagClearTest, ReclaimRangeTargetsOneKey) {
  TagAllocator Alloc(core::TagTableKind::LockFree);
  uint64_t A = allocRange(64);
  uint64_t B = allocRange(64);
  uint64_t BitsA = Alloc.acquire(A, A + 64);
  uint64_t BitsB = Alloc.acquire(B, B + 64);
  Alloc.release(A, A + 64);
  Alloc.release(B, B + 64);

  EXPECT_TRUE(Alloc.reclaimRange(A, A + 64));
  EXPECT_EQ(mte::ldgTag(A), 0);
  EXPECT_EQ(mte::ldgTag(B), mte::pointerTagOf(BitsB)); // B still lingers
  EXPECT_FALSE(Alloc.reclaimRange(A, A + 64)); // nothing left to reclaim
  EXPECT_TRUE(Alloc.reclaimRange(B, B + 64));
  EXPECT_EQ(mte::ldgTag(B), 0);
  (void)BitsA;
}

TEST_F(DeferredTagClearTest, ReclaimLeavesHeldRangesAlone) {
  TagAllocator Alloc(core::TagTableKind::LockFree);
  uint64_t Begin = allocRange(64);
  uint64_t Bits = Alloc.acquire(Begin, Begin + 64);
  EXPECT_FALSE(Alloc.reclaimRange(Begin, Begin + 64)); // held, not lingering
  EXPECT_EQ(mte::ldgTag(Begin), mte::pointerTagOf(Bits));
  Alloc.release(Begin, Begin + 64);
}

TEST_F(DeferredTagClearTest, DisabledReproducesExactAlgorithm2) {
  core::TagAllocatorOptions Options;
  Options.Locks = core::TagTableKind::LockFree;
  Options.DeferredTagClear = false;
  TagAllocator Alloc(Options);
  ASSERT_FALSE(Alloc.deferredTagClear());
  uint64_t Begin = allocRange(64);

  Alloc.acquire(Begin, Begin + 64);
  Alloc.release(Begin, Begin + 64);
  // Exact semantics: the last release cleared the tags synchronously.
  EXPECT_EQ(mte::ldgTag(Begin), 0);
  EXPECT_EQ(Alloc.table().residentBytes(), 0u);
  EXPECT_EQ(count("tags_cleared"), 1u);
  EXPECT_EQ(Alloc.reclaimAll(), 0u); // nothing ever lingers
}

TEST_F(DeferredTagClearTest, BudgetOverflowFallsBackToExactClear) {
  core::TagAllocatorOptions Options;
  Options.Locks = core::TagTableKind::LockFree;
  Options.NumTables = 1; // one shard, so the budget is not split
  Options.MaxResidentBytes = 100; // fits one 64-byte range, not two
  TagAllocator Alloc(Options);

  uint64_t A = allocRange(64);
  uint64_t B = allocRange(64);
  uint64_t BitsA = Alloc.acquire(A, A + 64);
  Alloc.release(A, A + 64); // defers: resident 64 <= 100
  EXPECT_EQ(mte::ldgTag(A), mte::pointerTagOf(BitsA));
  EXPECT_EQ(Alloc.table().residentBytes(), 64u);

  // B's publish pushes the shard to 128 resident bytes, over budget: its
  // release falls back to the exact clear (and refunds B's charge).
  Alloc.acquire(B, B + 64);
  EXPECT_EQ(Alloc.table().residentBytes(), 128u);
  Alloc.release(B, B + 64);
  EXPECT_EQ(mte::ldgTag(B), 0);
  EXPECT_EQ(Alloc.table().residentBytes(), 64u);
  EXPECT_EQ(count("tags_cleared"), 1u);
}

TEST_F(DeferredTagClearTest, UseAfterReleaseDetectedOnceReclaimed) {
  MteSystem::instance().setProcessCheckMode(mte::CheckMode::Sync);
  mte::ThreadState::current().setTco(false);

  TagAllocator Alloc(core::TagTableKind::LockFree);
  uint64_t Begin = allocRange(64);
  uint64_t Bits = Alloc.acquire(Begin, Begin + 64);
  auto P = mte::TaggedPtr<int32_t>::fromBits(Bits);

  Alloc.release(Begin, Begin + 64);
  // The documented detection gap: inside the lingering window a dangling
  // tagged pointer still matches. This is the tradeoff DeferredTagClear
  // buys speed with (and why the heap's free/sweep hook is mandatory).
  mte::store<int32_t>(P, 42);
  EXPECT_EQ(MteSystem::instance().faultLog().totalCount(), 0u);

  // Once reclaimed — the freed-object hook path — the access faults.
  ASSERT_TRUE(Alloc.reclaimRange(Begin, Begin + 64));
  mte::store<int32_t>(P, 43);
  EXPECT_EQ(MteSystem::instance().faultLog().totalCount(), 1u);
}

// ---- Per-thread slot memo ---------------------------------------------------

/// On the lock-free table the memo is the only slot cache. These pin its
/// three edges: an entry outliving its allocator, a release on a thread
/// whose memo never saw the range, and more held ranges than entries.
class TagSlotMemoTest : public DeferredTagClearTest {};

TEST_F(TagSlotMemoTest, DestroyedAllocatorEntriesNeverValidate) {
  // Both allocators live at the same address, but each has its own owner
  // id. The first one's memo entry points into a slot array that dies with
  // it, so reading that entry would be a heap use-after-free (ASan).
  const core::TagAllocatorOptions Options =
      exactOptions(core::TagTableKind::LockFree);
  std::optional<TagAllocator> Alloc;
  Alloc.emplace(Options);
  uint64_t Begin = allocRange(64);
  Alloc->acquire(Begin, Begin + 64);
  Alloc->release(Begin, Begin + 64);

  Alloc.emplace(Options);
  support::Metrics::resetAll(); // count the second allocator only
  uint64_t Bits = Alloc->acquire(Begin, Begin + 64);
  EXPECT_EQ(count("tags_generated"), 1u);
  EXPECT_EQ(count("tags_shared"), 0u);
  EXPECT_EQ(mte::ldgTag(Begin), mte::pointerTagOf(Bits));
  Alloc->release(Begin, Begin + 64);
  EXPECT_EQ(mte::ldgTag(Begin), 0);
}

TEST_F(TagSlotMemoTest, CrossThreadReleaseFindsTheSlotByProbe) {
  TagAllocator Alloc(exactOptions(core::TagTableKind::LockFree));
  uint64_t Begin = allocRange(64);
  uint64_t Bits = Alloc.acquire(Begin, Begin + 64);
  ASSERT_EQ(mte::ldgTag(Begin), mte::pointerTagOf(Bits));

  support::MetricsSnapshot Before = support::Metrics::snapshot();
  std::thread([&] { Alloc.release(Begin, Begin + 64); }).join();
  support::MetricsSnapshot After = support::Metrics::snapshot();
  auto Delta = [&](const char *Name) {
    return After.counterValue(Name) - Before.counterValue(Name);
  };
  // The releasing thread's memo never saw this range, so the probe found
  // the slot: the slow path is the exact last holder, not a cold miss.
  EXPECT_EQ(Delta("core/tagtable/slow_reason/slot_cold"), 0u);
  EXPECT_EQ(Delta("core/tagtable/slow_reason/last_holder"), 1u);
  EXPECT_EQ(count("orphan_releases"), 0u);
  EXPECT_EQ(count("tags_cleared"), 1u);
  EXPECT_EQ(mte::ldgTag(Begin), 0);
  EXPECT_EQ(Alloc.table().liveEntries(), 0u);
}

TEST_F(TagSlotMemoTest, MoreHeldRangesThanMemoEntries) {
  TagAllocator Alloc(exactOptions(core::TagTableKind::LockFree));
  constexpr unsigned kRanges = mte::ThreadState::kTagSlotMemoSize + 8;
  std::vector<uint64_t> Begins;
  for (unsigned I = 0; I < kRanges; ++I)
    Begins.push_back(allocRange(64));
  // Two holders each: the second acquire and the first release take the
  // fast path, which must find the slot even where another range evicted
  // its memo entry.
  for (int Round = 0; Round < 2; ++Round)
    for (uint64_t Begin : Begins)
      Alloc.acquire(Begin, Begin + 64);
  EXPECT_EQ(count("tags_generated"), kRanges);
  EXPECT_EQ(count("tags_shared"), kRanges);
  for (int Round = 0; Round < 2; ++Round)
    for (uint64_t Begin : Begins)
      Alloc.release(Begin, Begin + 64);

  EXPECT_EQ(count("orphan_releases"), 0u);
  EXPECT_EQ(count("tags_cleared"), kRanges);
  EXPECT_EQ(Alloc.table().liveEntries(), 0u);
  for (uint64_t Begin : Begins)
    EXPECT_EQ(mte::ldgTag(Begin), 0);
}

} // namespace
