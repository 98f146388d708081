//===- TagTable.cpp - Reference-count tables for Algorithm 1/2 ---------------------===//
//
// Part of the MTE4JNI reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "mte4jni/core/TagTable.h"

#include "mte4jni/mte/Instructions.h"
#include "mte4jni/support/MathExtras.h"
#include "mte4jni/support/Metrics.h"

#include <algorithm>

namespace mte4jni::core {

const char *tagTableKindName(TagTableKind Kind) {
  switch (Kind) {
  case TagTableKind::LockFree:
    return "lock-free";
  case TagTableKind::TwoTierMutex:
    return "two-tier";
  case TagTableKind::GlobalLock:
    return "global-lock";
  }
  return "?";
}

TagTable::TagTable(unsigned NumTables, TagTableKind Kind,
                   unsigned SlotsPerShard, uint64_t ResidentBudgetBytes)
    : Kind(Kind), NumTables(NumTables) {
  M4J_ASSERT(NumTables > 0, "need at least one hash table");
  if (Kind == TagTableKind::LockFree) {
    // Power-of-two array, and never smaller than the probe window (so a
    // window scan visits each slot at most once).
    size_t N = support::nextPowerOf2(
        std::max<unsigned>(SlotsPerShard, kProbeWindow));
    SlotMask = N - 1;
    // Ceil division: a non-zero budget must let every shard defer at
    // least something, or small budgets would silently disable deferral
    // on most shards.
    ShardResidentBudget =
        ResidentBudgetBytes ? (ResidentBudgetBytes + NumTables - 1) / NumTables
                            : 0;
  }
  Shards.reserve(NumTables);
  for (unsigned I = 0; I < NumTables; ++I) {
    auto S = std::make_unique<Shard>();
    if (Kind == TagTableKind::LockFree)
      S->Slots = std::make_unique<Slot[]>(SlotMask + 1);
    Shards.push_back(std::move(S));
  }
}

TagTable::Entry &TagTable::lookupOrCreate(uint64_t Begin) {
  Shard &S = *Shards[shardIndexOf(Begin)];
  std::lock_guard<std::mutex> TableGuard(S.TableLock);
  return S.Map.try_emplace(Begin).first->second;
}

TagTable::Entry *TagTable::lookup(uint64_t Begin) {
  Shard &S = *Shards[shardIndexOf(Begin)];
  std::lock_guard<std::mutex> TableGuard(S.TableLock);
  auto It = S.Map.find(Begin);
  return It != S.Map.end() ? &It->second : nullptr;
}

TagTable::Slot *TagTable::probeSlot(uint64_t Begin) {
  if (!SlotMask || Begin == kEmptyKey)
    return nullptr;
  Shard &S = *Shards[shardIndexOf(Begin)];
  size_t Home = slotHomeOf(Begin);
  for (unsigned I = 0; I < kProbeWindow; ++I) {
    Slot &Candidate = S.Slots[(Home + I) & SlotMask];
    uint64_t Key = Candidate.Key.load(std::memory_order_acquire);
    if (Key == Begin)
      return &Candidate;
    // Inserts claim the first empty slot of the window and a claimed slot
    // keeps its key, so a key is always located before the first empty
    // slot of its window.
    if (Key == kEmptyKey)
      return nullptr;
  }
  return nullptr;
}

std::unique_lock<std::mutex> TagTable::lockShard(uint64_t Begin,
                                                 bool *Contended) {
  std::mutex &M = Shards[shardIndexOf(Begin)]->TableLock;
  std::unique_lock<std::mutex> Lock(M, std::try_to_lock);
  if (!Lock.owns_lock()) {
    // First probe failed — the mutex was held at probe time. That alone
    // is not "had to wait": critical sections here are tens of
    // nanoseconds, so the holder is often gone immediately. Probe once
    // more and attribute shard_lock_wait only when we actually fall
    // through to a blocking lock().
    if (!Lock.try_lock()) {
      if (Contended != nullptr)
        *Contended = true;
      Lock.lock();
    }
  }
  return Lock;
}

TagTable::Slot *TagTable::slotLocked(uint64_t Begin, bool Create,
                                     const std::unique_lock<std::mutex> &Lock) {
  M4J_ASSERT(Lock.owns_lock(), "shard mutex not held");
  if (!SlotMask || Begin == kEmptyKey)
    return nullptr;
  Shard &S = *Shards[shardIndexOf(Begin)];
  size_t Home = slotHomeOf(Begin);
  for (unsigned I = 0; I < kProbeWindow; ++I) {
    Slot &Candidate = S.Slots[(Home + I) & SlotMask];
    uint64_t Key = Candidate.Key.load(std::memory_order_relaxed);
    if (Key == Begin)
      return &Candidate;
    if (Key != kEmptyKey)
      continue;
    if (!Create)
      return nullptr;
    // A key that spilled to the overflow map found its whole window
    // claimed, and claimed slots stay claimed, so it never reaches here:
    // one object cannot end up with two reference counts.
    // Release-publish the key so lock-free probes see a claimed slot.
    Candidate.Key.store(Begin, std::memory_order_release);
    return &Candidate;
  }
  return nullptr;
}

uint64_t TagTable::reclaimSlotLocked(Shard &Sh, Slot &S) {
  uint64_t St = S.State.load(std::memory_order_acquire);
  for (;;) {
    // Only the lingering state {refcount=0, resident=1} reclaims. A held
    // slot keeps its tags; a non-resident slot has nothing to clear.
    if (refCountOf(St) != 0 || !residentOf(St))
      return 0;
    // Epoch bump first, tag clear second: once the CAS lands no warm
    // acquire can succeed (resident bit gone, epoch moved), so nobody can
    // be handed the tags we are about to erase.
    if (S.State.compare_exchange_weak(
            St, packState(epochOf(St) + 1, 0),
            std::memory_order_acq_rel, std::memory_order_acquire)) {
      uint64_t Key = S.Key.load(std::memory_order_relaxed);
      uint64_t Bytes = S.Bytes.load(std::memory_order_relaxed);
      if (Bytes > 0)
        mte::clearTagRange(Key, Bytes);
      Sh.ResidentBytes.fetch_sub(Bytes, std::memory_order_relaxed);
      support::Metrics::counter("core/tagtable/lockfree/deferred_reclaims")
          .add();
      return Bytes;
    }
  }
}

TagTable::ReclaimResult TagTable::reclaimKey(uint64_t Begin) {
  ReclaimResult R;
  if (!SlotMask || Begin == kEmptyKey)
    return R;
  // Cheap lock-free pre-check: most freed objects were never pinned (no
  // slot) or were released exactly (not resident). Only a genuine
  // lingering hit pays the shard mutex.
  Slot *Probe = probeSlot(Begin);
  if (Probe == nullptr)
    return R;
  uint64_t St = Probe->State.load(std::memory_order_acquire);
  if (refCountOf(St) != 0 || !residentOf(St))
    return R;
  auto Lock = lockShard(Begin);
  if (Slot *S = slotLocked(Begin, /*Create=*/false, Lock)) {
    uint64_t Bytes = reclaimSlotLocked(*Shards[shardIndexOf(Begin)], *S);
    if (Bytes > 0) {
      R.Slots = 1;
      R.Bytes = Bytes;
    }
  }
  return R;
}

TagTable::ReclaimResult TagTable::reclaimAllResident() {
  ReclaimResult R;
  for (const auto &Sh : Shards) {
    if (!Sh->Slots)
      continue;
    std::lock_guard<std::mutex> Guard(Sh->TableLock);
    for (size_t I = 0; I <= SlotMask; ++I) {
      if (Sh->Slots[I].Key.load(std::memory_order_relaxed) == kEmptyKey)
        continue;
      uint64_t Bytes = reclaimSlotLocked(*Sh, Sh->Slots[I]);
      if (Bytes > 0) {
        ++R.Slots;
        R.Bytes += Bytes;
      }
    }
  }
  return R;
}

uint64_t TagTable::residentBytes() const {
  uint64_t Total = 0;
  for (const auto &Sh : Shards)
    Total += Sh->ResidentBytes.load(std::memory_order_relaxed);
  return Total;
}

size_t TagTable::liveEntries() const {
  size_t Total = 0;
  for (const auto &S : Shards) {
    std::lock_guard<std::mutex> Guard(S->TableLock);
    for (const auto &[Key, Entry] : S->Map)
      if (Entry.RefCount.load(std::memory_order_relaxed) > 0)
        ++Total;
    if (S->Slots)
      for (size_t I = 0; I <= SlotMask; ++I) {
        if (S->Slots[I].Key.load(std::memory_order_relaxed) == kEmptyKey)
          continue;
        uint64_t St = S->Slots[I].State.load(std::memory_order_relaxed);
        // refcount > 0: held. refcount 0 + resident: lingering (tags
        // still in place). Claimed slots at {0, resident=0} — released
        // exactly, or mid-insert before the first-holder store — are
        // occupancy, not liveness; counting them made LockFree disagree
        // with TwoTierMutex for identical workloads.
        if (refCountOf(St) > 0 || residentOf(St))
          ++Total;
      }
  }
  return Total;
}

size_t TagTable::occupiedEntries() const {
  size_t Total = 0;
  for (const auto &S : Shards) {
    std::lock_guard<std::mutex> Guard(S->TableLock);
    Total += S->Map.size();
    if (S->Slots)
      for (size_t I = 0; I <= SlotMask; ++I)
        if (S->Slots[I].Key.load(std::memory_order_relaxed) != kEmptyKey)
          ++Total;
  }
  return Total;
}

} // namespace mte4jni::core
