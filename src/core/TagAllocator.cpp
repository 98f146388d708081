//===- TagAllocator.cpp - Algorithms 1 and 2 of the paper --------------------------===//
//
// Part of the MTE4JNI reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "mte4jni/core/TagAllocator.h"

#include "mte4jni/mte/Instructions.h"
#include "mte4jni/mte/ThreadState.h"
#include "mte4jni/support/MathExtras.h"
#include "mte4jni/support/Metrics.h"
#include "mte4jni/support/TraceRing.h"

#include <array>

namespace mte4jni::core {

namespace {

/// Where Algorithm 1/2 operations actually land, per scheme: the lock-free
/// CAS fast path vs the shard-mutex slow path vs the overflow (spill-map)
/// fallback.
///
/// Cost discipline: the lock-free fast paths pay one sharded relaxed add
/// each (via the Counter references TagAllocator caches at construction),
/// plus one for a warm re-acquire or a deferred release; everything else
/// here is touched only from paths that already take a mutex or
/// CAS-retry. The aggregate metrics the exporters show
/// ("core/tagallocator/acquires", "releases", "tags_shared") are derived
/// counters: computed at snapshot time from the per-path counters, so the
/// hot paths never bump them.
struct AllocMetrics {
  support::Counter &TagsGenerated =
      support::Metrics::counter("core/tagallocator/tags_generated");
  /// Slow-path shares only (lock-free raced-CAS resurrect + two-tier
  /// refcount > 1). Fast-path shares == acquire_fast by construction, so
  /// total tags_shared is derived as acquire_fast + tags_shared_slow.
  support::Counter &TagsSharedSlow =
      support::Metrics::counter("core/tagallocator/tags_shared_slow");
  support::Counter &TagsCleared =
      support::Metrics::counter("core/tagallocator/tags_cleared");
  support::Counter &OrphanReleases =
      support::Metrics::counter("core/tagallocator/orphan_releases");

  support::Counter &LfAcquireSlow =
      support::Metrics::counter("core/tagtable/lockfree/acquire_slow");
  support::Counter &LfReleaseSlow =
      support::Metrics::counter("core/tagtable/lockfree/release_slow");
  support::Counter &LfOverflowSpills =
      support::Metrics::counter("core/tagtable/lockfree/overflow_spills");
  /// Deferred tag-clear attribution. acquire_warm and release_deferred are
  /// *subsets* of acquire_fast / release_fast (a warm acquire still counts
  /// as fast — it is one): they attribute how many fast-path hits the
  /// lingering state manufactured out of what used to be first_holder /
  /// last_holder mutex trips.
  support::Counter &LfAcquireWarm =
      support::Metrics::counter("core/tagtable/lockfree/acquire_warm");
  support::Counter &LfReleaseDeferred =
      support::Metrics::counter("core/tagtable/lockfree/release_deferred");

  support::Counter &TwoTierAcquires =
      support::Metrics::counter("core/tagtable/twotier/acquires");
  support::Counter &TwoTierReleases =
      support::Metrics::counter("core/tagtable/twotier/releases");
  support::Counter &GlobalAcquires =
      support::Metrics::counter("core/tagtable/globallock/acquires");
  support::Counter &GlobalReleases =
      support::Metrics::counter("core/tagtable/globallock/releases");

  AllocMetrics() {
    using support::Metrics;
    Metrics::registerDerived("core/tagallocator/acquires", +[] {
      return Metrics::counter("core/tagtable/lockfree/acquire_fast")
                 .value() +
             Metrics::counter("core/tagtable/lockfree/acquire_slow")
                 .value() +
             Metrics::counter("core/tagtable/twotier/acquires").value() +
             Metrics::counter("core/tagtable/globallock/acquires").value();
    });
    Metrics::registerDerived("core/tagallocator/releases", +[] {
      return Metrics::counter("core/tagtable/lockfree/release_fast")
                 .value() +
             Metrics::counter("core/tagtable/lockfree/release_slow")
                 .value() +
             Metrics::counter("core/tagtable/twotier/releases").value() +
             Metrics::counter("core/tagtable/globallock/releases").value();
    });
    Metrics::registerDerived("core/tagallocator/tags_shared", +[] {
      return Metrics::counter("core/tagtable/lockfree/acquire_fast")
                 .value() +
             Metrics::counter("core/tagallocator/tags_shared_slow").value();
    });
  }
};

AllocMetrics &allocMetrics() {
  static AllocMetrics M;
  return M;
}

/// One counter per TagSlowReason, "core/tagtable/slow_reason/<name>".
/// These attribute every lock-free slow-path entry to a cause — the
/// instrument behind the ROADMAP's acquire_fast = 0 question: a
/// single-holder Get/Release round trip is a 0->1 acquire and a 1->0
/// release, and both transitions must serialise on the shard mutex by
/// design, so first_holder + last_holder dominate whenever objects are
/// pinned by one thread at a time.
struct SlowReasonMetrics {
  std::array<support::Counter *,
             size_t(support::TagSlowReason::kNumReasons)>
      Reasons;
  SlowReasonMetrics() {
    for (size_t I = 0; I < Reasons.size(); ++I) {
      std::string Name = std::string("core/tagtable/slow_reason/") +
                         support::tagSlowReasonName(
                             static_cast<support::TagSlowReason>(I));
      Reasons[I] = &support::Metrics::counter(Name.c_str());
    }
  }
};

SlowReasonMetrics &slowReasonMetrics() {
  static SlowReasonMetrics M;
  return M;
}

/// Counts \p Reason and stamps it into the flight slice's outcome byte
/// (offset by 1; 0 means fast). The secondary shard_lock_wait signal is
/// counted without touching the slice so the exported outcome stays the
/// primary entry reason.
void countSlowReason(support::TagSlowReason Reason,
                     support::FlightScope *Flight = nullptr) {
  slowReasonMetrics().Reasons[size_t(Reason)]->add();
  if (Flight != nullptr)
    Flight->setArg(static_cast<uint8_t>(Reason) + 1);
}

/// Outcome byte a TagAcquire/TagRelease flight slice starts with. One
/// sampling decision covers the whole operation on every table kind: a
/// lock-free slice reads fast (0) unless its slow path stamps a reason;
/// the mutex kinds lock on every operation, so they have no fast path.
uint8_t initialFlightOutcome(core::TagTableKind Kind) {
  return Kind == core::TagTableKind::LockFree ? 0 : support::kTagOutcomeMutex;
}

/// Why did the acquire fast path fail? \p S is the slot the fast path
/// looked at, null when the lookup found none. A found slot holds the
/// key (keys never change), so the fast path saw refcount 0; a count
/// resurrected by a racing acquirer since then still entered the slow
/// path as a first holder.
support::TagSlowReason classifyAcquireSlow(core::TagTable::Slot *S) {
  return S == nullptr ? support::TagSlowReason::SlotCold
                      : support::TagSlowReason::FirstHolder;
}

/// Why did the release fast path fail? \p S is the slot the fast path
/// looked at, null when the lookup found none. The observation is racy but
/// statistically faithful — attribution counters are about distributions,
/// not per-op exactness.
support::TagSlowReason classifyReleaseSlow(core::TagTable::Slot *S) {
  if (S == nullptr)
    return support::TagSlowReason::SlotCold;
  uint64_t St = S->State.load(std::memory_order_relaxed);
  uint32_t Count = core::TagTable::refCountOf(St);
  if (Count == 0)
    return support::TagSlowReason::Orphan;
  return support::TagSlowReason::LastHolder;
}

/// Effective lingering budget: the knob is one bool + one byte count, and
/// "off" is exactly "budget 0" (TagTable then never defers a release).
uint64_t residentBudgetOf(const TagAllocatorOptions &Options) {
  return Options.DeferredTagClear ? Options.MaxResidentBytes : 0;
}

/// Never-reused allocator identities for the per-thread slot memo (0 is
/// the empty-entry sentinel).
std::atomic<uint64_t> NextMemoOwnerId{1};

} // namespace

TagAllocator::TagAllocator(TagTableKind Kind, unsigned NumTables)
    : TagAllocator([&] {
        TagAllocatorOptions Options;
        Options.Locks = Kind;
        Options.NumTables = NumTables;
        return Options;
      }()) {}

TagAllocator::TagAllocator(const TagAllocatorOptions &Options)
    : Kind(Options.Locks), ExcludeAdjacentTags(Options.ExcludeAdjacentTags),
      DeferredTagClear(Options.Locks == TagTableKind::LockFree &&
                       residentBudgetOf(Options) > 0),
      Table(Options.NumTables, Options.Locks, Options.SlotsPerShard,
            residentBudgetOf(Options)),
      MemoOwnerId(NextMemoOwnerId.fetch_add(1, std::memory_order_relaxed)),
      FastAcquireMetric(
          support::Metrics::counter("core/tagtable/lockfree/acquire_fast")),
      FastReleaseMetric(
          support::Metrics::counter("core/tagtable/lockfree/release_fast")) {
  (void)allocMetrics(); // register the derived aggregates
}

TagAllocator::~TagAllocator() {
  // Deferred-clear residue must not outlive the table that tracks it: the
  // shadow tag store is process-wide, and a later allocation at the same
  // address would inherit a valid-looking tag.
  if (DeferredTagClear)
    reclaimAll();
}

mte::TagValue TagAllocator::generateAndApplyTag(uint64_t Begin,
                                                uint64_t End) {
  // First holder: generate a random tag (IRG) and apply it to every
  // granule of [begin, end) (ST2G/STG). With the adjacent-exclusion
  // hardening, the IRG draw additionally excludes the tags currently on
  // the neighbouring granules, so a linear overflow into an adjacent
  // tagged object can never alias.
  uint16_t ExtraExclude = 0;
  if (ExcludeAdjacentTags) {
    // Two granules on each side: object payloads are separated by a
    // one-granule header, so the nearest *neighbouring payload* granule
    // is up to two granules away.
    uint64_t EndAligned = support::alignTo(End, mte::kGranuleSize);
    ExtraExclude = static_cast<uint16_t>(
        (1u << mte::ldgTag(Begin - mte::kGranuleSize)) |
        (1u << mte::ldgTag(Begin - 2 * mte::kGranuleSize)) |
        (1u << mte::ldgTag(EndAligned)) |
        (1u << mte::ldgTag(EndAligned + mte::kGranuleSize)));
  }
  mte::TagValue Tag = mte::irgTag(ExtraExclude);
  mte::setTagRange(
      mte::TaggedPtr<void>::fromRaw(reinterpret_cast<void *>(Begin), Tag),
      End - Begin);
  allocMetrics().TagsGenerated.add();
  return Tag;
}

TagTable::Slot *TagAllocator::findSlot(uint64_t Begin) {
  // A memo hit is this allocator's slot for Begin: slots keep their keys
  // and MemoOwnerId is never reused. The slot's (epoch, resident,
  // refcount) CAS still decides whether its tags are valid.
  mte::ThreadState &TS = mte::ThreadState::current();
  auto *S =
      static_cast<TagTable::Slot *>(TS.tagSlotMemoLookup(MemoOwnerId, Begin));
  if (S != nullptr)
    return S;
  S = Table.probeSlot(Begin);
  if (S != nullptr)
    TS.tagSlotMemoStore(MemoOwnerId, Begin, S);
  return S;
}

uint64_t TagAllocator::acquire(uint64_t Begin, uint64_t End) {
  Begin = mte::addressOf(Begin);
  End = mte::addressOf(End);
  M4J_ASSERT(Begin <= End, "inverted range");
  support::FlightScope Flight(support::FlightKind::TagAcquire,
                              initialFlightOutcome(Kind));

  switch (Kind) {
  case TagTableKind::LockFree: {
    // Fast path (Algorithm 1 steps 2-4 when the entry exists and the
    // object's tags are valid — a concurrent holder, or a lingering
    // deferred release being re-acquired warm): one slot lookup, one CAS.
    bool Warm = false;
    TagTable::Slot *S = findSlot(Begin);
    if (S == nullptr || !Table.acquireFast(*S, Begin, Warm)) {
      allocMetrics().LfAcquireSlow.add();
      countSlowReason(classifyAcquireSlow(S), &Flight);
      return acquireLockFreeSlow(Begin, End, Flight);
    }
    FastAcquireMetric.add();
    if (Warm)
      allocMetrics().LfAcquireWarm.add();
    // The slot-cached tag spares the fast path an LDG: the acquire CAS
    // synchronised with the first holder's publish, and tags cannot
    // change while the state word holds our reference.
    return mte::withPointerTag(Begin,
                               S->Tag.load(std::memory_order_relaxed));
  }
  case TagTableKind::GlobalLock: {
    // The naive §3.1 strawman: every JNI thread serialises here.
    allocMetrics().GlobalAcquires.add();
    std::lock_guard<std::mutex> Guard(GlobalMutex);
    return acquireTwoTier(Begin, End);
  }
  case TagTableKind::TwoTierMutex:
    break;
  }
  allocMetrics().TwoTierAcquires.add();
  return acquireTwoTier(Begin, End);
}

uint64_t TagAllocator::acquireLockFreeSlow(uint64_t Begin, uint64_t End,
                                           support::FlightScope &Flight) {
  {
    bool Contended = false;
    auto Lock = Table.lockShard(Begin, &Contended);
    if (Contended)
      countSlowReason(support::TagSlowReason::ShardLockWait);
    if (TagTable::Slot *S = Table.slotLocked(Begin, /*Create=*/true, Lock)) {
      uint64_t St = S->State.load(std::memory_order_acquire);
      for (;;) {
        if (TagTable::refCountOf(St) > 0 || TagTable::residentOf(St)) {
          // Raced with another holder (or a lingering deferred release)
          // that tagged the object between our fast-path attempt and
          // taking the mutex: share its tag.
          bool Warm = false;
          if (Table.acquireFast(*S, Begin, Warm)) {
            mte::ThreadState::current().tagSlotMemoStore(MemoOwnerId, Begin,
                                                         S);
            allocMetrics().TagsSharedSlow.add();
            if (Warm)
              allocMetrics().LfAcquireWarm.add();
            return mte::withPointerTag(Begin, mte::ldgTag(Begin));
          }
          St = S->State.load(std::memory_order_acquire);
          continue;
        }
        // Cold first holder. Only shard-mutex holders move a slot out of
        // {refcount=0, resident=0}, so the tag write below cannot race;
        // the release store publishes the tags (and the range length the
        // lazy reclaimer needs) before any fast path can see the resident
        // bit or count 1. The epoch bump pairs with the one in reclaim:
        // together they fence every tags-(re)writing cycle of the slot.
        mte::TagValue Tag = generateAndApplyTag(Begin, End);
        S->Bytes.store(End - Begin, std::memory_order_relaxed);
        S->Tag.store(Tag, std::memory_order_relaxed);
        // Charge the resident budget here, once, while we already hold
        // the shard mutex: the charge covers the tags' whole residency
        // (held and lingering) and is refunded only when they are
        // actually cleared, which keeps the warm fast paths free of
        // budget RMWs.
        Table.chargeResident(Begin, End - Begin);
        S->State.store(
            TagTable::packState(TagTable::epochOf(St) + 1, 1,
                                /*Resident=*/true),
            std::memory_order_release);
        mte::ThreadState::current().tagSlotMemoStore(MemoOwnerId, Begin, S);
        return mte::withPointerTag(Begin, Tag);
      }
    }
  }
  // Probe window exhausted: this entry lives in the shard's locked
  // overflow map and uses the two-tier path.
  allocMetrics().LfOverflowSpills.add();
  countSlowReason(support::TagSlowReason::OverflowSpill, &Flight);
  return acquireTwoTier(Begin, End);
}

uint64_t TagAllocator::acquireTwoTier(uint64_t Begin, uint64_t End) {
  // Steps 1-2: shard by (begin/16) mod k; retrieve or create the
  // {referenceNum, mutexAddr} tuple under the table lock.
  TagTable::Entry &Entry = Table.lookupOrCreate(Begin);

  // Step 3: under the object lock, bump the count and pick the tag.
  mte::TagValue Tag;
  {
    std::lock_guard<std::mutex> ObjGuard(Entry.Mutex);
    if (++Entry.RefCount > 1) {
      // Another native thread already tagged this object: share its tag
      // by loading it back with LDG.
      Tag = mte::ldgTag(Begin);
      allocMetrics().TagsSharedSlow.add();
    } else {
      Tag = generateAndApplyTag(Begin, End);
    }
  }

  // Step 4: the tagged pointer.
  return mte::withPointerTag(Begin, Tag);
}

void TagAllocator::release(uint64_t Begin, uint64_t End) {
  Begin = mte::addressOf(Begin);
  End = mte::addressOf(End);
  support::FlightScope Flight(support::FlightKind::TagRelease,
                              initialFlightOutcome(Kind));

  switch (Kind) {
  case TagTableKind::LockFree: {
    // Fast path: not the last holder (plain decrement), or a single
    // holder whose tags may linger (deferred 1->0, resident bit stays) —
    // either way one slot lookup and one CAS, no lock, no tag writes.
    TagTable::Slot *S = findSlot(Begin);
    bool Deferred = false;
    bool OverBudget = false;
    if (S && Table.releaseFast(*S, Begin, Deferred, &OverBudget)) {
      FastReleaseMetric.add();
      if (Deferred)
        allocMetrics().LfReleaseDeferred.add();
      return;
    }
    allocMetrics().LfReleaseSlow.add();
    if (OverBudget)
      countSlowReason(support::TagSlowReason::DeferredReclaim, &Flight);
    else
      countSlowReason(classifyReleaseSlow(S), &Flight);
    releaseLockFreeSlow(Begin, End, Flight);
    return;
  }
  case TagTableKind::GlobalLock: {
    allocMetrics().GlobalReleases.add();
    std::lock_guard<std::mutex> Guard(GlobalMutex);
    releaseTwoTier(Begin, End);
    return;
  }
  case TagTableKind::TwoTierMutex:
    break;
  }
  allocMetrics().TwoTierReleases.add();
  releaseTwoTier(Begin, End);
}

void TagAllocator::releaseLockFreeSlow(uint64_t Begin, uint64_t End,
                                       support::FlightScope &Flight) {
  {
    bool Contended = false;
    auto Lock = Table.lockShard(Begin, &Contended);
    if (Contended)
      countSlowReason(support::TagSlowReason::ShardLockWait);
    if (TagTable::Slot *S =
            Table.slotLocked(Begin, /*Create=*/false, Lock)) {
      uint64_t St = S->State.load(std::memory_order_acquire);
      for (;;) {
        uint32_t Count = TagTable::refCountOf(St);
        if (Count == 0) {
          // Already released (double release); tolerated like the paper's
          // "nothing needs to be done" path.
          allocMetrics().OrphanReleases.add();
          return;
        }
        if (Count > 1) {
          // An acquirer resurrected the count between our fast-path
          // attempt and taking the mutex: plain decrement after all.
          if (S->State.compare_exchange_weak(St, St - 1,
                                             std::memory_order_acq_rel,
                                             std::memory_order_acquire))
            return;
          continue;
        }
        // Exact last holder (deferral off, over budget, or a two-tier
        // kind): move to {0, resident=0} first — a racing fast-path
        // increment makes this CAS fail — then clear the granule tags so
        // the tag becomes available again and dangling tagged pointers
        // fault immediately, the paper's Algorithm 2 step 3.
        if (S->State.compare_exchange_weak(
                St, TagTable::packState(TagTable::epochOf(St), 0),
                std::memory_order_acq_rel, std::memory_order_acquire)) {
          mte::clearTagRange(Begin, End - Begin);
          // Refund the publish-time budget charge: the tags left.
          Table.unchargeResident(Begin, End - Begin);
          allocMetrics().TagsCleared.add();
          return;
        }
      }
    }
  }
  // Not in the slot array: overflow entry or orphan release.
  allocMetrics().LfOverflowSpills.add();
  countSlowReason(support::TagSlowReason::OverflowSpill, &Flight);
  releaseTwoTier(Begin, End);
}

void TagAllocator::releaseTwoTier(uint64_t Begin, uint64_t End) {
  // Steps 1-2: find the entry; nothing to do when absent (release of an
  // object no Get interface tagged).
  TagTable::Entry *Entry = Table.lookup(Begin);
  if (!Entry) {
    allocMetrics().OrphanReleases.add();
    return;
  }

  // Step 3: drop the count; the last holder clears the memory tags so the
  // tag becomes available again and dangling tagged pointers fault.
  std::lock_guard<std::mutex> ObjGuard(Entry->Mutex);
  if (Entry->RefCount == 0) {
    // Already released (double release); tolerated like the paper's
    // "nothing needs to be done" path.
    allocMetrics().OrphanReleases.add();
    return;
  }
  if (--Entry->RefCount == 0) {
    mte::clearTagRange(Begin, End - Begin);
    allocMetrics().TagsCleared.add();
  }
}

bool TagAllocator::reclaimRange(uint64_t Begin, uint64_t End) {
  (void)End; // the slot remembers its own length
  Begin = mte::addressOf(Begin);
  TagTable::ReclaimResult R = Table.reclaimKey(Begin);
  if (R.Slots == 0)
    return false;
  // A reclaim completes what a deferred release postponed, so it is where
  // tags_cleared catches up: after a full drain tags_generated ==
  // tags_cleared again, exactly as under the paper's eager Algorithm 2.
  allocMetrics().TagsCleared.add(R.Slots);
  return true;
}

uint64_t TagAllocator::reclaimAll() {
  TagTable::ReclaimResult R = Table.reclaimAllResident();
  allocMetrics().TagsCleared.add(R.Slots);
  return R.Slots;
}

} // namespace mte4jni::core
