//===- MteSystem.cpp - Process-level MTE simulator state ------------------------===//
//
// Part of the MTE4JNI reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "mte4jni/mte/MteSystem.h"

#include "mte4jni/support/Logging.h"
#include "mte4jni/support/Metrics.h"
#include "mte4jni/support/Syscall.h"

#include <algorithm>
#include <cstdio>
#include <mutex>

namespace mte4jni::mte {
namespace {

/// Syscall observer: drains the calling thread's pending async fault.
void drainAsyncAtSyscall(void *Context, const char *SyscallName) {
  (void)Context;
  ThreadState &TS = ThreadState::current();
  if (M4J_UNLIKELY(TS.asyncPending()))
    TS.drainAsync(SyscallName);
}

/// Exposes a sum of per-thread access cells as a registry counter: read
/// by summing the threads' cells at snapshot time, zeroed by resetAll
/// through the cells' baselines, so the checked-access paths never touch a
/// registry cell.
template <AccessCount... Cells> void registerAccessCounter(const char *Name) {
  support::Metrics::registerDerived(
      Name, +[] { return (MteSystem::instance().accessCount(Cells) + ...); },
      +[] { (MteSystem::instance().rebaseAccessCount(Cells), ...); });
}

} // namespace

MteSystem &MteSystem::instance() {
  static MteSystem System;
  return System;
}

MteSystem::MteSystem() {
  publishRegions({});
  support::addSyscallObserver(drainAsyncAtSyscall, this);
  using enum AccessCount;
  registerAccessCounter<LoadHits, SlowLoads>("mte/access/checked_loads");
  registerAccessCounter<StoreHits, SlowStores>("mte/access/checked_stores");
  // Every counted access covers at least one granule.
  registerAccessCounter<LoadHits, StoreHits, SlowLoads, SlowStores,
                        ExtraGranules>("mte/access/checked_granules");
  registerAccessCounter<LoadHits, StoreHits>("mte/access/region_cache_hit");
}

RegionPin::RegionPin(const MteSystem &System) {
  ThreadState &TS = ThreadState::current();
  Slot = &TS.regionEpochSlot();
  Saved = Slot->load(std::memory_order_relaxed);
  // seq_cst on the epoch read, slot publish and snapshot load pairs with
  // the writer's exchange -> epoch bump -> fence -> slot scan sequence: if
  // our snapshot load observed a list that was later retired at epoch R,
  // the epoch we published here is <= R and the reclaimer's scan is
  // guaranteed to see it (classic store-load ordering, needs seq_cst).
  Epoch = detail::RegionPublishEpoch.load(std::memory_order_seq_cst);
  // Nested pins keep the OLDER epoch pinned: it protects a superset of the
  // snapshots the inner walk can touch.
  uint64_t Pinned = Saved != 0 ? std::min(Saved, Epoch) : Epoch;
  Slot->store(Pinned, std::memory_order_seq_cst);
  std::atomic_thread_fence(std::memory_order_seq_cst);
  List = System.RegionsSnapshot.load(std::memory_order_seq_cst);
}

RegionPin::~RegionPin() { Slot->store(Saved, std::memory_order_release); }

void MteSystem::publishRegions(
    std::vector<std::shared_ptr<TaggedRegion>> NewRegions) {
  auto *NewList = new RegionList(std::move(NewRegions));
  // Shadow-footprint gauges track the CURRENT region set (set, not add, so
  // unregister and reset are reflected). shadow_bytes is the packed shadow,
  // regionSize/32, which is what the CI RSS assertion checks.
  {
    static support::Gauge &ShadowBytes =
        support::Metrics::gauge("mte/tagstore/shadow_bytes");
    static support::Gauge &RegionBytes =
        support::Metrics::gauge("mte/tagstore/region_bytes");
    uint64_t Shadow = 0, Covered = 0;
    for (const auto &Region : NewList->regions()) {
      Shadow += Region->shadowBytes();
      Covered += Region->size();
    }
    ShadowBytes.set(Shadow);
    RegionBytes.set(Covered);
  }
  const RegionList *Old =
      RegionsSnapshot.exchange(NewList, std::memory_order_seq_cst);
  // Bump AFTER the swap: a reader that still observed the pre-bump epoch
  // may hold Old, so Old is retired under that epoch. The bump also
  // invalidates every thread's cached last-hit region.
  uint64_t RetireEpoch =
      detail::RegionPublishEpoch.fetch_add(1, std::memory_order_seq_cst);
  if (Old)
    RetiredSnapshots.push_back(
        {RetireEpoch, std::unique_ptr<const RegionList>(Old)});
  reclaimRetiredLocked();
}

void MteSystem::reclaimRetiredLocked() {
  if (RetiredSnapshots.empty())
    return;
  std::atomic_thread_fence(std::memory_order_seq_cst);
  // A snapshot retired at epoch R may still be held by a reader whose slot
  // shows an epoch A <= R (the reader entered before the swap). Readers
  // with A > R provably loaded a newer list. Quiescent threads (slot 0)
  // hold nothing.
  uint64_t MinActive = UINT64_MAX;
  {
    std::lock_guard<support::SpinLock> Guard(ThreadLock);
    for (ThreadState *TS : Threads) {
      uint64_t A = TS->regionEpochSlot().load(std::memory_order_seq_cst);
      if (A != 0)
        MinActive = std::min(MinActive, A);
    }
  }
  std::erase_if(RetiredSnapshots, [MinActive](const RetiredSnapshot &R) {
    return R.Epoch < MinActive;
  });
}

size_t MteSystem::retiredSnapshotCount() const {
  std::lock_guard<support::SpinLock> Guard(RegionLock);
  return RetiredSnapshots.size();
}

void MteSystem::reset() {
  ProcessMode.store(CheckMode::None, std::memory_order_relaxed);
  IrgExclude.store(0x0001, std::memory_order_relaxed);
  Handler.store(nullptr, std::memory_order_relaxed);
  HandlerContext.store(nullptr, std::memory_order_relaxed);
  Log.clear();
  ThreadSeedCounter.store(0, std::memory_order_relaxed);
  {
    std::lock_guard<support::SpinLock> Guard(ThreadLock);
    for (ThreadState *TS : Threads) {
      TS->Tco = false;
      TS->Mode = CheckMode::None;
      TS->refreshChecksOn();
    }
  }
}

void MteSystem::setProcessCheckMode(CheckMode Mode) {
  ProcessMode.store(Mode, std::memory_order_relaxed);
  std::lock_guard<support::SpinLock> Guard(ThreadLock);
  for (ThreadState *TS : Threads) {
    TS->Mode = Mode;
    TS->refreshChecksOn();
  }
}

void MteSystem::setIrgExcludeMask(uint16_t Mask) {
  IrgExclude.store(Mask, std::memory_order_relaxed);
}

void MteSystem::registerRegion(void *Begin, uint64_t Size) {
  std::lock_guard<support::SpinLock> Guard(RegionLock);
  uint64_t BeginAddr = reinterpret_cast<uint64_t>(Begin);
  for (const auto &Region : LiveRegions)
    M4J_ASSERT(BeginAddr >= Region->end() || BeginAddr + Size <= Region->begin(),
               "overlapping PROT_MTE regions");
  LiveRegions.push_back(std::make_shared<TaggedRegion>(BeginAddr, Size));
  publishRegions(LiveRegions);
}

void MteSystem::unregisterRegion(void *Begin) {
  std::lock_guard<support::SpinLock> Guard(RegionLock);
  uint64_t BeginAddr = reinterpret_cast<uint64_t>(Begin);
  auto It = std::find_if(
      LiveRegions.begin(), LiveRegions.end(),
      [BeginAddr](const auto &Region) { return Region->begin() == BeginAddr; });
  M4J_ASSERT(It != LiveRegions.end(), "unregistering unknown region");
  LiveRegions.erase(It);
  publishRegions(LiveRegions);
}

bool MteSystem::isTaggedAddress(uint64_t Addr) const {
  RegionPin Pin(*this);
  return Pin->find(Addr) != nullptr;
}

TagValue MteSystem::memoryTagAt(uint64_t Addr) const {
  RegionPin Pin(*this);
  const TaggedRegion *Region = Pin->find(Addr);
  return Region ? Region->tagAt(Addr) : TagValue(0);
}

void MteSystem::setFaultHandler(FaultHandler NewHandler, void *Context) {
  HandlerContext.store(Context, std::memory_order_relaxed);
  Handler.store(NewHandler, std::memory_order_release);
}

void MteSystem::deliverFault(FaultRecord Record) {
  FaultHandler H = Handler.load(std::memory_order_acquire);
  void *Context = HandlerContext.load(std::memory_order_relaxed);
  // Keep a copy in the log before consulting the handler so an aborting
  // handler still leaves a trace.
  FaultRecord Copy = Record;
  Log.append(std::move(Record));
  FaultAction Action = FaultAction::Continue;
  if (H)
    Action = H(Context, Copy);
  if (Action == FaultAction::Abort) {
    std::fputs(Copy.str().c_str(), stderr);
    std::fputs("mte4jni: emulating device behaviour: abort()\n", stderr);
    std::fflush(stderr);
    std::abort();
  }
}

void MteSystem::registerThread(ThreadState *State) {
  std::lock_guard<support::SpinLock> Guard(ThreadLock);
  Threads.push_back(State);
}

void MteSystem::unregisterThread(ThreadState *State) {
  std::lock_guard<support::SpinLock> Guard(ThreadLock);
  auto It = std::find(Threads.begin(), Threads.end(), State);
  if (It == Threads.end())
    return;
  for (unsigned I = 0; I < kNumAccessCounts; ++I)
    ExitedAccessCounts[I] += State->accessCount(AccessCount(I));
  Threads.erase(It);
}

uint64_t MteSystem::accessCountSumLocked(AccessCount Which) const {
  uint64_t Sum = ExitedAccessCounts[unsigned(Which)];
  for (const ThreadState *TS : Threads)
    Sum += TS->accessCount(Which);
  return Sum;
}

uint64_t MteSystem::accessCount(AccessCount Which) {
  std::lock_guard<support::SpinLock> Guard(ThreadLock);
  return accessCountSumLocked(Which) - AccessCountBaseline[unsigned(Which)];
}

void MteSystem::rebaseAccessCount(AccessCount Which) {
  std::lock_guard<support::SpinLock> Guard(ThreadLock);
  AccessCountBaseline[unsigned(Which)] = accessCountSumLocked(Which);
}

uint64_t MteSystem::nextThreadSeed() {
  uint64_t Counter = ThreadSeedCounter.fetch_add(1, std::memory_order_relaxed);
  return RngSeed.load(std::memory_order_relaxed) * 0x9e3779b97f4a7c15ULL +
         Counter;
}

} // namespace mte4jni::mte
