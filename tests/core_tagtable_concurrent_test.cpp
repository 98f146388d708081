//===- core_tagtable_concurrent_test.cpp - Lock-free TagTable races ----------------===//
//
// Part of the MTE4JNI reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Hammers the lock-free TagTable fast path from many threads: the
// resurrection race (a release dropping to zero while an acquire
// re-tags), deferred releases and reclaims, probe-window overflow into the
// locked map, and the invariants the state-word design guarantees — the
// reference count never goes negative (orphan counter stays zero for
// balanced workloads), tags read back valid while held, and liveEntries
// converges to zero once every holder is gone.
//
// Designed to run under TSan: configure with -DM4J_SANITIZE=thread.
//
//===----------------------------------------------------------------------===//

#include "mte4jni/core/TagAllocator.h"
#include "mte4jni/core/TagTable.h"
#include "mte4jni/mte/Instructions.h"
#include "mte4jni/mte/MteSystem.h"
#include "mte4jni/mte/TaggedArena.h"
#include "mte4jni/support/Metrics.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

namespace {

using namespace mte4jni;
using core::TagAllocator;
using core::TagAllocatorOptions;
using core::TagTable;
using core::TagTableKind;

class TagTableConcurrentTest : public ::testing::Test {
protected:
  void SetUp() override {
    mte::MteSystem::instance().reset();
    support::Metrics::resetAll();
    Arena = std::make_unique<mte::TaggedArena>(8 << 20);
  }
  void TearDown() override {
    Arena.reset();
    mte::MteSystem::instance().reset();
  }

  uint64_t allocRange(uint64_t Bytes) {
    void *P = Arena->allocate(Bytes);
    EXPECT_NE(P, nullptr);
    return reinterpret_cast<uint64_t>(P);
  }

  /// A core/tagallocator/* registry count since SetUp.
  static uint64_t count(const char *Name) {
    return support::Metrics::snapshot().counterValue(
        (std::string("core/tagallocator/") + Name).c_str());
  }

  std::unique_ptr<mte::TaggedArena> Arena;
};

/// Every thread loops acquire/verify/release on the SAME object: the
/// refcount rides the 0<->1 boundary constantly, which is exactly the
/// resurrection race (an acquire re-tagging while a release clears).
TEST_F(TagTableConcurrentTest, ResurrectionRaceOnOneObject) {
  TagAllocatorOptions Options;
  Options.Locks = TagTableKind::LockFree;
  TagAllocator Alloc(Options);
  uint64_t Begin = allocRange(256);

  constexpr int kThreads = 8;
  constexpr int kIters = 3000;
  std::vector<std::thread> Threads;
  for (int T = 0; T < kThreads; ++T) {
    Threads.emplace_back([&] {
      for (int I = 0; I < kIters; ++I) {
        uint64_t Bits = Alloc.acquire(Begin, Begin + 256);
        // While we hold a reference the count is >= 1, so the granule
        // tags cannot be cleared or regenerated under us.
        ASSERT_EQ(mte::ldgTag(Begin), mte::pointerTagOf(Bits));
        ASSERT_EQ(mte::ldgTag(Begin + 240), mte::pointerTagOf(Bits));
        Alloc.release(Begin, Begin + 256);
      }
    });
  }
  for (auto &T : Threads)
    T.join();

  EXPECT_EQ(count("acquires"), uint64_t(kThreads) * kIters);
  EXPECT_EQ(count("releases"), uint64_t(kThreads) * kIters);
  // Balanced acquire/release means a refcount that never went negative:
  // no release ever found the count at zero.
  EXPECT_EQ(count("orphan_releases"), 0u);
  // Drain the deferred (lingering) tags, then every generated tag has
  // been cleared by an exact last holder or a reclaim.
  Alloc.reclaimAll();
  EXPECT_EQ(count("tags_generated"), count("tags_cleared"));
  EXPECT_EQ(count("tags_generated") + count("tags_shared"),
            count("acquires"));
  EXPECT_EQ(Alloc.table().liveEntries(), 0u);
  EXPECT_EQ(mte::ldgTag(Begin), 0);
}

/// Threads hammer a mix of private and shared objects so fast-path
/// increments, slow-path 0->1 transitions, deferred releases and warm
/// re-acquires all interleave across shards.
TEST_F(TagTableConcurrentTest, MixedObjectsConvergeToEmpty) {
  TagAllocatorOptions Options;
  Options.Locks = TagTableKind::LockFree;
  TagAllocator Alloc(Options);

  constexpr int kThreads = 8;
  constexpr int kIters = 2000;
  constexpr int kShared = 4;
  std::vector<uint64_t> Shared;
  for (int I = 0; I < kShared; ++I)
    Shared.push_back(allocRange(1024));
  std::vector<uint64_t> Private;
  for (int T = 0; T < kThreads; ++T)
    Private.push_back(allocRange(1024));

  std::vector<std::thread> Threads;
  for (int T = 0; T < kThreads; ++T) {
    Threads.emplace_back([&, T] {
      for (int I = 0; I < kIters; ++I) {
        uint64_t Begin =
            (I % 3) ? Shared[static_cast<size_t>(I % kShared)]
                    : Private[static_cast<size_t>(T)];
        uint64_t Bits = Alloc.acquire(Begin, Begin + 1024);
        ASSERT_EQ(mte::ldgTag(Begin + 512), mte::pointerTagOf(Bits));
        Alloc.release(Begin, Begin + 1024);
      }
    });
  }
  for (auto &T : Threads)
    T.join();

  EXPECT_EQ(count("orphan_releases"), 0u);
  Alloc.reclaimAll();
  EXPECT_EQ(count("tags_generated"), count("tags_cleared"));
  EXPECT_EQ(Alloc.table().liveEntries(), 0u);
}

/// A tiny slot array (one shard, one probe window) forces most entries
/// through the overflow map: the lock-free array and the locked overflow
/// path must agree on reference counting and tag lifecycle.
TEST_F(TagTableConcurrentTest, ProbeWindowOverflowSpillsToLockedMap) {
  TagAllocatorOptions Options;
  Options.Locks = TagTableKind::LockFree;
  Options.NumTables = 1;
  Options.SlotsPerShard = TagTable::kProbeWindow; // minimum legal array
  TagAllocator Alloc(Options);

  constexpr int kObjects = 64; // 4x the slot capacity
  std::vector<uint64_t> Begins;
  for (int I = 0; I < kObjects; ++I)
    Begins.push_back(allocRange(128));

  constexpr int kThreads = 4;
  constexpr int kIters = 1500;
  std::vector<std::thread> Threads;
  for (int T = 0; T < kThreads; ++T) {
    Threads.emplace_back([&, T] {
      for (int I = 0; I < kIters; ++I) {
        uint64_t Begin =
            Begins[static_cast<size_t>((I * kThreads + T) % kObjects)];
        uint64_t Bits = Alloc.acquire(Begin, Begin + 128);
        ASSERT_EQ(mte::ldgTag(Begin), mte::pointerTagOf(Bits));
        Alloc.release(Begin, Begin + 128);
      }
    });
  }
  for (auto &T : Threads)
    T.join();

  EXPECT_EQ(count("orphan_releases"), 0u);
  Alloc.reclaimAll();
  EXPECT_EQ(count("tags_generated"), count("tags_cleared"));
  EXPECT_EQ(Alloc.table().liveEntries(), 0u);
  for (uint64_t Begin : Begins)
    EXPECT_EQ(mte::ldgTag(Begin), 0);
}

/// Nested holds from many threads: the count climbs well above one, every
/// holder sees the same shared tag, and only the very last release clears.
TEST_F(TagTableConcurrentTest, DeepNestingSharesOneTag) {
  TagAllocatorOptions Options;
  Options.Locks = TagTableKind::LockFree;
  TagAllocator Alloc(Options);
  uint64_t Begin = allocRange(512);

  constexpr int kThreads = 8;
  constexpr int kDepth = 64;
  std::atomic<uint32_t> TagsSeen{0};
  std::vector<std::thread> Threads;
  for (int T = 0; T < kThreads; ++T) {
    Threads.emplace_back([&] {
      uint64_t Bits[kDepth];
      for (int D = 0; D < kDepth; ++D) {
        Bits[D] = Alloc.acquire(Begin, Begin + 512);
        TagsSeen.fetch_or(1u << mte::pointerTagOf(Bits[D]));
      }
      for (int D = kDepth - 1; D >= 0; --D) {
        ASSERT_EQ(Bits[D], Bits[0]); // nested pins share the tag
        Alloc.release(Begin, Begin + 512);
      }
    });
  }
  for (auto &T : Threads)
    T.join();

  // All threads overlapped on one object whose count never hit zero after
  // the first acquire... or hit zero between waves; either way at most a
  // handful of distinct tags, never tag 0.
  EXPECT_EQ(TagsSeen.load() & 1u, 0u);
  EXPECT_EQ(count("orphan_releases"), 0u);
  Alloc.reclaimAll();
  EXPECT_EQ(mte::ldgTag(Begin), 0);
  EXPECT_EQ(count("tags_generated"), count("tags_cleared"));
}

/// Single-threaded sanity for the slot primitives themselves: probe,
/// fast-path accept/reject, and a released slot keeping its key.
TEST_F(TagTableConcurrentTest, SlotPrimitives) {
  TagTable Table(4, TagTableKind::LockFree, 64);
  uint64_t Begin = 0x4000;
  bool Warm = false;
  bool Deferred = false;

  // Absent: probe misses, fast paths refuse.
  EXPECT_EQ(Table.probeSlot(Begin), nullptr);

  // Insert under the shard lock.
  {
    auto Lock = Table.lockShard(Begin);
    TagTable::Slot *S = Table.slotLocked(Begin, /*Create=*/true, Lock);
    ASSERT_NE(S, nullptr);
    // Fresh slot: count 0 — the fast acquire path must refuse (the tag
    // work has not happened).
    EXPECT_FALSE(Table.acquireFast(*S, Begin, Warm));
    S->State.store(TagTable::packState(1, 1), std::memory_order_release);
  }

  TagTable::Slot *S = Table.probeSlot(Begin);
  ASSERT_NE(S, nullptr);
  EXPECT_TRUE(Table.acquireFast(*S, Begin, Warm)); // 1 -> 2
  EXPECT_FALSE(Warm);
  EXPECT_TRUE(Table.releaseFast(*S, Begin, Deferred)); // 2 -> 1
  EXPECT_FALSE(Deferred);
  // Count 1 with no resident budget: releasing to zero must go to the
  // slow path.
  EXPECT_FALSE(Table.releaseFast(*S, Begin, Deferred));
  // Wrong key: both fast paths refuse.
  EXPECT_FALSE(Table.acquireFast(*S, Begin + 16, Warm));
  EXPECT_FALSE(Table.releaseFast(*S, Begin + 16, Deferred));

  // Exact last release: the slot is no longer live but keeps its key for
  // the table's lifetime, so the next acquire finds the same slot.
  S->State.store(TagTable::packState(1, 0), std::memory_order_release);
  EXPECT_EQ(Table.probeSlot(Begin), S);
  EXPECT_EQ(Table.liveEntries(), 0u);
  EXPECT_EQ(Table.occupiedEntries(), 1u);
}

/// The reclaim-ABA property under deferred tag-clear: a warm CAS that
/// stalled while its slot was lingering must never succeed once the slot
/// has been reclaimed — nor after a new first holder re-tagged the range
/// and a deferred release brought back the same {0, resident} shape over
/// different tags. The slot's key never changes, so only the epoch bumps
/// of the reclaim and of the first holder tell those states apart; this
/// test replays the stalled CAS against each of them.
TEST_F(TagTableConcurrentTest, ReclaimAbaUnderDeferredClear) {
  TagAllocator Alloc(TagTableKind::LockFree);
  ASSERT_TRUE(Alloc.deferredTagClear());
  // Reclaim really clears granule tags, which asserts outside a
  // registered region, so the range comes from the arena.
  const uint64_t Begin = allocRange(64);
  Alloc.acquire(Begin, Begin + 64);
  Alloc.release(Begin, Begin + 64);
  TagTable::Slot *S = Alloc.table().probeSlot(Begin);
  ASSERT_NE(S, nullptr);

  // A thread stalls here: it read the lingering state and passed the key
  // check, and is about to CAS State -> State+1 (the warm acquire).
  const uint64_t StalledState = S->State.load(std::memory_order_acquire);
  ASSERT_EQ(TagTable::refCountOf(StalledState), 0u);
  ASSERT_TRUE(TagTable::residentOf(StalledState));

  auto StalledCasSucceeds = [&] {
    uint64_t Expected = StalledState;
    return S->State.compare_exchange_strong(Expected, StalledState + 1,
                                            std::memory_order_acq_rel,
                                            std::memory_order_acquire);
  };

  // Stage 1 — reclaim (TagTable::reclaimKey, the freed-object hook): the
  // tags are cleared and the epoch bump invalidates the stalled state
  // word even though the refcount is still 0.
  ASSERT_TRUE(Alloc.reclaimRange(Begin, Begin + 64));
  EXPECT_EQ(mte::ldgTag(Begin), 0);
  EXPECT_FALSE(StalledCasSucceeds());

  // Stage 2 — a new first holder re-tags the range through the same slot
  // (cold, not warm: a fresh IRG draw), and a deferred release brings
  // back the {0, resident} shape the stalled thread saw. Only the epoch
  // differs, so the stalled CAS still loses.
  Alloc.acquire(Begin, Begin + 64);
  Alloc.release(Begin, Begin + 64);
  EXPECT_EQ(Alloc.table().probeSlot(Begin), S);
  EXPECT_EQ(count("tags_generated"), 2u);
  const uint64_t Recurred = S->State.load(std::memory_order_acquire);
  ASSERT_EQ(TagTable::refCountOf(Recurred), 0u);
  ASSERT_TRUE(TagTable::residentOf(Recurred));
  EXPECT_NE(TagTable::epochOf(Recurred), TagTable::epochOf(StalledState));
  EXPECT_FALSE(StalledCasSucceeds());
}

/// liveEntries must mean the same thing for all three table kinds: holders
/// (and, under deferral, lingering tags) — not storage. Before the fix the
/// lock-free build counted every claimed slot as live, so an identical
/// workload disagreed across kinds.
TEST_F(TagTableConcurrentTest, LiveEntriesAgreeAcrossKinds) {
  constexpr size_t kObjects = 12;
  std::vector<uint64_t> Begins;
  for (size_t I = 0; I < kObjects; ++I)
    Begins.push_back(allocRange(128));

  for (TagTableKind Kind :
       {TagTableKind::LockFree, TagTableKind::TwoTierMutex,
        TagTableKind::GlobalLock}) {
    TagAllocatorOptions Options;
    Options.Locks = Kind;
    Options.DeferredTagClear = false; // liveness without lingering
    TagAllocator Alloc(Options);

    for (uint64_t B : Begins)
      Alloc.acquire(B, B + 128);
    EXPECT_EQ(Alloc.table().liveEntries(), kObjects)
        << core::tagTableKindName(Kind);

    for (size_t I = 0; I < kObjects / 2; ++I)
      Alloc.release(Begins[I], Begins[I] + 128);
    EXPECT_EQ(Alloc.table().liveEntries(), kObjects - kObjects / 2)
        << core::tagTableKindName(Kind);

    for (size_t I = kObjects / 2; I < kObjects; ++I)
      Alloc.release(Begins[I], Begins[I] + 128);
    EXPECT_EQ(Alloc.table().liveEntries(), 0u)
        << core::tagTableKindName(Kind);
  }

  // With deferral ON, a lingering range still counts as live (its tags
  // are), and reclaiming converges all kinds to the same answer again.
  TagAllocatorOptions Options;
  Options.Locks = TagTableKind::LockFree;
  TagAllocator Deferred(Options);
  uint64_t B = Begins[0];
  Deferred.acquire(B, B + 128);
  Deferred.release(B, B + 128);
  EXPECT_EQ(Deferred.table().liveEntries(), 1u); // lingering counts
  Deferred.reclaimAll();
  EXPECT_EQ(Deferred.table().liveEntries(), 0u);
}

} // namespace
