//===- TagAllocator.h - Algorithms 1 and 2 of the paper --------------*- C++ -*-===//
//
// Part of the MTE4JNI reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The memory tag allocation (Algorithm 1) and release (Algorithm 2)
/// algorithms:
///
///   acquire(begin, end):
///     1. hash table index <- (begin / 16) mod k
///     2. under the table lock: retrieve or create {referenceNum, mutex}
///     3. under the object lock: increment referenceNum;
///        if referenceNum > 1: load the existing tag with LDG
///        else: generate a tag with IRG and apply it with ST2G/STG
///     4. return begin with the tag in bits 56..59
///
///   release(begin, end):
///     1-2. as above but without creating
///     3. under the object lock: decrement referenceNum; when it reaches
///        zero, clear the memory tags of [begin, end)
///
/// Three table implementations are selectable via TagTableKind: the
/// lock-free fast path (production default — steps 2-4 of a repeated
/// acquire are one CAS plus one LDG, no lock and no allocation), the
/// paper's two-tier locking, and the naive global-lock strawman measured
/// in Figure 6.
///
/// On the lock-free table, acquire() and release() find an object's slot
/// the same way: this thread's slot memo when its entry still holds the
/// range's begin address, else one lock-free probe.
///
//===----------------------------------------------------------------------===//

#ifndef MTE4JNI_CORE_TAGALLOCATOR_H
#define MTE4JNI_CORE_TAGALLOCATOR_H

#include "mte4jni/core/TagTable.h"
#include "mte4jni/mte/TaggedPtr.h"
#include "mte4jni/support/TraceRing.h"

#include <atomic>
#include <mutex>

namespace mte4jni::support {
class Counter;
} // namespace mte4jni::support

namespace mte4jni::core {

/// How a tag allocator is built. ExcludeAdjacentTags is the one optional
/// hardening; DeferredTagClear trades use-after-release detection for speed.
struct TagAllocatorOptions {
  TagTableKind Locks = TagTableKind::LockFree;
  unsigned NumTables = 16;
  /// Slot-array capacity per shard for TagTableKind::LockFree (rounded up
  /// to a power of two); entries beyond a full probe window spill into the
  /// shard's locked overflow map.
  unsigned SlotsPerShard = 2048;
  /// When generating a tag, exclude the current tags of the granules in
  /// a two-granule window around [begin, end) (two, because a one-granule
  /// object header separates payloads). The paper's IRG draw gives a 1/15
  /// chance that a neighbouring object shares the tag (making a linear
  /// overflow into it invisible); excluding neighbour tags makes
  /// adjacent-object overflow detection deterministic, the same trick
  /// HWASan and MTE-aware allocators use. Off by default to match the
  /// paper.
  bool ExcludeAdjacentTags = false;
  /// Deferred tag-clear (LockFree only): a single-holder release leaves
  /// the granule tags resident and flips the slot to the lingering state
  /// with one CAS — no shard mutex, no STG loop — and a re-acquire of the
  /// same range is a pure CAS too. Tags are reclaimed lazily: when the
  /// object is freed, swept or moved, when the lingering budget overflows,
  /// and on an explicit drain. Off = the paper's exact
  /// Algorithm 2 (clear on last release), which also maximises
  /// use-after-release detection — a lingering tag widens that window.
  bool DeferredTagClear = true;
  /// Ceiling on resident tagged payload bytes — held pins plus lingering
  /// releases — split across shards. Charged once when the first holder
  /// publishes the tags and refunded when they are cleared, so the warm
  /// fast paths never touch the accounting; a release that would linger
  /// while the shard is over budget clears exactly instead. Only
  /// meaningful with DeferredTagClear.
  uint64_t MaxResidentBytes = 8ull << 20;
};

class TagAllocator {
public:
  /// Like Algorithm 2 as published, the table never erases an entry: the
  /// last release clears the tags and leaves the {referenceNum,
  /// mutexAddr} tuple in place for reuse.
  explicit TagAllocator(TagTableKind Kind = TagTableKind::LockFree,
                        unsigned NumTables = 16);

  explicit TagAllocator(const TagAllocatorOptions &Options);

  /// Reclaims every lingering tag: the shadow tag store outlives the
  /// allocator, so deferred-clear residue must not.
  ~TagAllocator();

  TagTableKind tableKind() const { return Kind; }

  /// Algorithm 1. Returns the tagged pointer bits for [Begin, End).
  uint64_t acquire(uint64_t Begin, uint64_t End);

  /// Algorithm 2.
  void release(uint64_t Begin, uint64_t End);

  /// Reclaims the lingering (deferred) tags of [Begin, End) if the range
  /// was released but its tags left resident. The security-critical hook:
  /// the heap calls this when an object is freed or swept (and for the
  /// old location of a compacted object), so a dead object never keeps a
  /// valid tag. Returns true when tags were cleared.
  bool reclaimRange(uint64_t Begin, uint64_t End);

  /// Drains every lingering slot (tests, shutdown, exact-semantics
  /// checkpoints). Returns the number of slots reclaimed.
  uint64_t reclaimAll();

  bool deferredTagClear() const { return DeferredTagClear; }

  TagTable &table() { return Table; }

private:
  uint64_t acquireTwoTier(uint64_t Begin, uint64_t End);
  void releaseTwoTier(uint64_t Begin, uint64_t End);
  /// The lock-free slot lookup acquire and release share: the memo entry
  /// for \p Begin, else TagTable::probeSlot (whose hit is memoised). Null
  /// when the key is not in the slot array.
  TagTable::Slot *findSlot(uint64_t Begin);
  uint64_t acquireLockFreeSlow(uint64_t Begin, uint64_t End,
                               support::FlightScope &Flight);
  void releaseLockFreeSlow(uint64_t Begin, uint64_t End,
                           support::FlightScope &Flight);

  /// The first-holder tag work: IRG (with the optional adjacent-granule
  /// exclusion) + ST2G/STG over [Begin, End).
  mte::TagValue generateAndApplyTag(uint64_t Begin, uint64_t End);

  TagTableKind Kind;
  bool ExcludeAdjacentTags = false;
  bool DeferredTagClear = false;
  TagTable Table;
  std::mutex GlobalMutex; ///< used only by TagTableKind::GlobalLock
  /// Identity of this allocator in the per-ThreadState slot memo. Drawn
  /// from a process-wide monotonic counter and never reused, so a memo
  /// entry left behind by a destroyed allocator can never validate
  /// against a new allocator at the same address.
  const uint64_t MemoOwnerId;

  /// Registry counters for the lock-free fast paths, resolved once at
  /// construction so the hot path pays exactly one plain per-thread add —
  /// no name lookup, no function-local-static guard. Aggregate metrics
  /// ("core/tagallocator/acquires" etc.) are derived from the per-path
  /// counters at snapshot time and cost nothing here.
  support::Counter &FastAcquireMetric;
  support::Counter &FastReleaseMetric;
};

} // namespace mte4jni::core

#endif // MTE4JNI_CORE_TAGALLOCATOR_H
