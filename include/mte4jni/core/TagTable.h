//===- TagTable.h - Reference-count tables for Algorithm 1/2 --------*- C++ -*-===//
//
// Part of the MTE4JNI reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's §3.1.2 data structure — k hash tables mapping an object's
/// payload start address to a reference count — in three builds:
///
///   * TagTableKind::LockFree (default): an open-addressing array of
///     cache-line-aligned slots per shard. Each slot packs (epoch,
///     resident, refcount) into one atomic state word, so the
///     repeated-acquire path (Algorithm 1 steps 2-4 when the entry already
///     exists) is a CAS loop with no table lock and no heap allocation.
///     With the deferred tag-clear enabled (a lingering budget > 0), a
///     single-holder 1->0 release and the matching 0->1 re-acquire are
///     pure CASes too: the release leaves the granule tags resident and
///     reclamation happens lazily. Only the transitions that write tag
///     memory — the cold first holder, the exact last holder, reclaims —
///     and inserts take the shard mutex. Entries that overflow a
///     probe window spill into the shard's locked map, so capacity is
///     still unbounded.
///   * TagTableKind::TwoTierMutex: the paper's published design. Each
///     shard's *table lock* is held only long enough to fetch or create
///     the entry; the per-object *object lock* then guards the reference
///     count and the tag work.
///   * TagTableKind::GlobalLock: the §3.1 strawman (selected one level up,
///     in TagAllocator, which wraps the two-tier table in one mutex).
///
/// Distributing objects across shards by (begin/16) mod k is what keeps
/// unrelated objects from contending (§5.3.2's second test); the lock-free
/// build additionally keeps *related* acquires of an already-tagged object
/// from contending on anything but the object's own cache line.
///
/// Lock-free invariants (the reasoning behind the memory orders):
///
///   * Keys are written once: the insert that claims an empty slot (under
///     the shard mutex) publishes the key, and the slot keeps it for the
///     table's lifetime — Algorithm 2 clears the tags on the last release
///     but keeps the {referenceNum, mutexAddr} tuple for reuse. A two-tier
///     entry likewise lives as long as its map. Fast paths only read keys,
///     so a slot found by probe or memo stays the key's slot.
///   * The cold refcount 0->1 transition happens under the shard mutex and
///     only *after* the granule tags are written, published by a release
///     store of the new state word (which also sets the resident bit). A
///     fast-path acquirer that observes refcount >= 1 — or refcount 0 with
///     the resident bit set — with an acquire load therefore always reads
///     valid tags with LDG.
///   * An *exact* refcount 1->0 release happens under the shard mutex via
///     CAS, so a racing fast-path increment either lands before the CAS
///     (the CAS fails and the release turns into a plain decrement) or
///     after the slot reads {0, resident=0} (the acquirer falls into the
///     slow path and serialises on the mutex). Tags are cleared only after
///     the CAS to zero succeeds, which also clears the resident bit.
///   * A *deferred* 1->0 release (the lingering state) is a single CAS to
///     {refcount=0, resident=1} with no mutex and no tag writes: the
///     granule tags stay in place, so a later 0->1 re-acquire of the same
///     key is likewise a single CAS ("warm" acquire). Reclamation — CAS to
///     {0, resident=0} with an epoch bump, then clear the tags — happens
///     under the shard mutex (freed-object hooks, budget overflow,
///     reclaimAllResident).
///   * The epoch field increments on every transition that (re)writes tag
///     memory: the cold 0->1 first-holder store and the reclaim CAS. A
///     stalled compare-exchange therefore never succeeds across a
///     tags-changing cycle of the slot — the classic ABA guard. The warm
///     0<->1 cycle deliberately does NOT bump the epoch: while the
///     resident bit stays set the granule tags are provably unchanged
///     (only a reclaim clears them, and it bumps the epoch first), so a
///     stalled warm CAS that succeeds is indistinguishable from a fresh
///     warm acquire. Keys never change, but tags do: a reclaim followed
///     by a new first holder and a deferred release brings back the same
///     {0, resident} shape over different tags, and only the epoch tells
///     the two apart.
///
//===----------------------------------------------------------------------===//

#ifndef MTE4JNI_CORE_TAGTABLE_H
#define MTE4JNI_CORE_TAGTABLE_H

#include "mte4jni/mte/Tag.h"
#include "mte4jni/support/Compiler.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace mte4jni::core {

/// Which reference-count table implementation an allocator uses. The
/// Figure 6 / A1 ablations compare all three.
enum class TagTableKind : uint8_t {
  /// Production default: lock-free fast path, mutex slow path.
  LockFree = 0,
  /// The paper's published two-tier locking.
  TwoTierMutex = 1,
  /// The §3.1 strawman: one global mutex around the whole operation.
  GlobalLock = 2,
};

const char *tagTableKindName(TagTableKind Kind);

class TagTable {
public:
  // ==== locked representation (TwoTierMutex / GlobalLock / overflow) ====

  /// One (referenceNum, mutexAddr) tuple from Algorithm 1. Lives in its
  /// shard's map until the table dies, so a reference to it stays valid
  /// after the table lock is dropped.
  struct Entry {
    /// Written only under Mutex (the "object lock"); atomic so liveEntries
    /// can read it without taking every object lock.
    std::atomic<uint64_t> RefCount{0};
    std::mutex Mutex;
  };

  // ==== lock-free representation =======================================

  /// State word layout: [ epoch : 31 | resident : 1 | refcount : 32 ].
  /// The resident bit records that the slot's granule tags are written and
  /// still in place; at refcount 0 it marks the "lingering" state of a
  /// deferred tag-clear (tags valid, nobody holding).
  static constexpr uint32_t refCountOf(uint64_t State) {
    return static_cast<uint32_t>(State);
  }
  static constexpr bool residentOf(uint64_t State) {
    return (State >> 32) & 1;
  }
  static constexpr uint32_t epochOf(uint64_t State) {
    return static_cast<uint32_t>(State >> 33);
  }
  static constexpr uint64_t packState(uint32_t Epoch, uint32_t Count,
                                      bool Resident = false) {
    return (static_cast<uint64_t>(Epoch & 0x7FFFFFFFu) << 33) |
           (static_cast<uint64_t>(Resident) << 32) | Count;
  }

  /// Key of an unclaimed slot. Payload begin addresses are real heap
  /// pointers, so it cannot collide with a live key; an address that
  /// *would* collide is routed to the overflow map.
  static constexpr uint64_t kEmptyKey = 0;

  /// One open-addressing slot, alone on its cache line so two hot objects
  /// never false-share.
  struct alignas(64) Slot {
    std::atomic<uint64_t> Key{kEmptyKey};
    std::atomic<uint64_t> State{0};
    /// Range length of the current tenant, written by the first holder
    /// under the shard mutex before the state word publishes the count.
    /// Reclamation needs it to know how many granules to untag.
    std::atomic<uint64_t> Bytes{0};
    /// The tenant's granule tag, cached by the first holder alongside
    /// Bytes. A successful acquire CAS synchronises with the state
    /// publish, so the fast path can return this instead of paying an LDG
    /// (region lookup + stats) per acquire. Invariant: equals
    /// ldgTag(Key) whenever the state word shows holders or residency.
    std::atomic<uint8_t> Tag{0};
  };

  /// Linear-probe window. A key lives within this many slots of its home
  /// position or in the overflow map.
  static constexpr unsigned kProbeWindow = 16;

  /// \p ResidentBudgetBytes bounds the total bytes whose tags may linger
  /// after a deferred release (split evenly across shards). 0 disables
  /// deferral entirely: every last-holder release clears tags exactly —
  /// the paper's Algorithm 2 semantics.
  explicit TagTable(unsigned NumTables = 16,
                    TagTableKind Kind = TagTableKind::TwoTierMutex,
                    unsigned SlotsPerShard = 2048,
                    uint64_t ResidentBudgetBytes = 0);

  TagTableKind kind() const { return Kind; }
  unsigned numTables() const { return NumTables; }

  // ==== locked API (all kinds; for LockFree this is the overflow map) ====

  /// Algorithm 1 step 2: lock the shard's table lock, retrieve or create
  /// the entry for \p Begin, unlock.
  Entry &lookupOrCreate(uint64_t Begin);

  /// Algorithm 2 step 2: retrieve without creating; null when absent.
  Entry *lookup(uint64_t Begin);

  // ==== lock-free fast path ==============================================

  /// Probes the shard's slot array for \p Begin without taking any lock.
  /// Null when the key is absent from the array (it may still live in the
  /// overflow map — the slow path checks under the shard mutex).
  Slot *probeSlot(uint64_t Begin);

  /// The acquire fast path: increments the refcount iff the slot's tags
  /// are valid — refcount >= 1 (a concurrent holder) or refcount 0 with
  /// the resident bit set (a lingering deferred release; the "warm"
  /// re-acquire) — and the slot belongs to \p Begin. Returns false when
  /// the caller must take the slow path (cold first holder or key
  /// mismatch). \p WasWarm is set iff this was a 0->1 re-acquire of a
  /// lingering slot. The CAS compares the full (epoch, resident, count)
  /// word: any concurrent exact release-to-zero or reclaim changes it, so
  /// success proves the tags stayed valid the whole time. No budget
  /// traffic: resident bytes are charged once at first-holder publish and
  /// refunded when the tags are actually cleared (exact release or
  /// reclaim), so the warm cycle is a single CAS.
  bool acquireFast(Slot &S, uint64_t Begin, bool &WasWarm) {
    uint64_t St = S.State.load(std::memory_order_acquire);
    for (;;) {
      uint32_t Count = refCountOf(St);
      if (Count == 0 && !residentOf(St))
        return false;
      if (S.Key.load(std::memory_order_relaxed) != Begin)
        return false;
      if (S.State.compare_exchange_weak(St, St + 1,
                                        std::memory_order_acq_rel,
                                        std::memory_order_acquire)) {
        WasWarm = Count == 0;
        return true;
      }
    }
  }

  /// The release fast path: a plain decrement at refcount >= 2, and —
  /// when the slot is resident and the shard's lingering budget allows —
  /// a *deferred* 1->0 release that leaves the granule tags in place
  /// ({refcount=1, resident=1} -> {refcount=0, resident=1}, one CAS, no
  /// mutex, no tag writes). \p WasDeferred reports the deferred flavour;
  /// \p OverBudget is set when only the budget stopped a deferral (the
  /// slow path then counts slow_reason/deferred_reclaim). Returns false
  /// when the caller must take the slow path (exact last holder, orphan,
  /// or key mismatch).
  bool releaseFast(Slot &S, uint64_t Begin, bool &WasDeferred,
                   bool *OverBudget = nullptr) {
    uint64_t St = S.State.load(std::memory_order_acquire);
    for (;;) {
      uint32_t Count = refCountOf(St);
      if (Count == 0)
        return false;
      if (S.Key.load(std::memory_order_relaxed) != Begin)
        return false;
      if (Count == 1) {
        if (!residentOf(St) || ShardResidentBudget == 0)
          return false;
        // The slot's bytes were charged at publish, so the budget check
        // is a plain load: defer only while the shard's total resident
        // bytes (held + lingering) are within budget. No RMW on success —
        // the charge simply stays in place across the lingering window.
        if (residentBytesOf(Begin).load(std::memory_order_relaxed) >
            ShardResidentBudget) {
          if (OverBudget != nullptr)
            *OverBudget = true;
          return false;
        }
      }
      if (S.State.compare_exchange_weak(St, St - 1,
                                        std::memory_order_acq_rel,
                                        std::memory_order_acquire)) {
        WasDeferred = Count == 1;
        return true;
      }
    }
  }

  // ==== lock-free slow path (caller holds the shard mutex) ===============

  /// Locks the shard \p Begin hashes to. When \p Contended is non-null it
  /// is set to true iff the lock had to *wait*: two try-lock probes failed
  /// before falling back to a blocking lock() — the slow-reason
  /// attribution's shard_lock_wait signal. (A single failed probe would
  /// report "was held at probe time", which overcounts: the holder often
  /// leaves before we would have blocked.)
  std::unique_lock<std::mutex> lockShard(uint64_t Begin,
                                         bool *Contended = nullptr);

  /// Finds (and with \p Create, claims) the slot for \p Begin. Requires
  /// \p Lock to hold the shard mutex. Null when the key lives in — or,
  /// with \p Create, must spill to — the overflow map.
  Slot *slotLocked(uint64_t Begin, bool Create,
                   const std::unique_lock<std::mutex> &Lock);

  // ==== deferred tag-clear reclamation ===================================

  struct ReclaimResult {
    uint64_t Slots = 0; ///< lingering slots whose tags were cleared
    uint64_t Bytes = 0; ///< payload bytes untagged
  };

  /// Reclaims the lingering tags of \p Begin's slot, if any: under the
  /// shard mutex, CAS {refcount=0, resident=1} -> {0, resident=0} with an
  /// epoch bump (so stalled warm CASes and stale memo entries die), then
  /// clear the granule tags. A slot that is held (refcount > 0) or not
  /// resident is left alone. This is the freed-object / swept-object hook:
  /// a dead object must never keep a valid tag.
  ReclaimResult reclaimKey(uint64_t Begin);

  /// Reclaims every lingering slot of every shard (drain: tests, shutdown,
  /// exact-semantics checkpoints).
  ReclaimResult reclaimAllResident();

  /// Total bytes whose granule tags are resident — held slots plus
  /// lingering ones. Charged at first-holder publish, refunded when the
  /// tags are cleared (exact release or reclaim); the warm
  /// acquire/release cycle never touches it.
  uint64_t residentBytes() const;

  /// Budget bookkeeping for the slot slow paths (no-ops when deferral is
  /// off): the first holder charges its bytes when it publishes the tags;
  /// the exact-clear release refunds them. Reclaim refunds internally.
  void chargeResident(uint64_t Begin, uint64_t Bytes) {
    if (ShardResidentBudget != 0)
      residentBytesOf(Begin).fetch_add(Bytes, std::memory_order_relaxed);
  }
  void unchargeResident(uint64_t Begin, uint64_t Bytes) {
    if (ShardResidentBudget != 0)
      residentBytesOf(Begin).fetch_sub(Bytes, std::memory_order_relaxed);
  }

  /// Shard an address belongs to: (Begin / 16) mod k, per Algorithm 1.
  unsigned shardIndexOf(uint64_t Begin) const {
    return static_cast<unsigned>((Begin >> mte::kGranuleShift) % NumTables);
  }

  /// Entries that hold at least one reference or resident tags: map
  /// entries at RefCount > 0 plus (under LockFree) slots at refcount > 0
  /// or lingering. This is the count that agrees across TagTableKinds for
  /// the same workload — a released tuple is occupancy, not liveness.
  size_t liveEntries() const;

  /// Structural occupancy: every map entry plus every claimed slot,
  /// including released-but-kept tuples (Algorithm 2 as published leaves
  /// them in place for reuse). Keys are never erased, so this is also the
  /// number of entries ever created.
  size_t occupiedEntries() const;

private:
  struct Shard {
    mutable std::mutex TableLock;
    /// TwoTierMutex/GlobalLock: every entry. LockFree: overflow only.
    /// Node-based, so an Entry never moves once emplaced.
    std::unordered_map<uint64_t, Entry> Map;
    /// LockFree only; null otherwise.
    std::unique_ptr<Slot[]> Slots;
    /// Bytes with resident tags in this shard, held or lingering: charged
    /// by the first holder's publish (slow path), refunded when the tags
    /// are cleared (exact release or reclaim) — so the fast
    /// paths only ever *read* it. Per-shard so the deferred release fast
    /// path never contends on a global counter; the budget check is
    /// therefore per-shard too (total budget / NumTables each).
    std::atomic<uint64_t> ResidentBytes{0};
  };

  std::atomic<uint64_t> &residentBytesOf(uint64_t Begin) {
    return Shards[shardIndexOf(Begin)]->ResidentBytes;
  }

  /// Clears the lingering tags of \p S if it is in the {refcount=0,
  /// resident=1} state; returns the bytes untagged (0 when the slot was
  /// held, resurrected mid-CAS, or not resident). Requires the shard
  /// mutex, which orders it against the first holder's tag writes.
  uint64_t reclaimSlotLocked(Shard &Sh, Slot &S);

  /// Home position of \p Begin inside its shard's slot array.
  size_t slotHomeOf(uint64_t Begin) const {
    // Fibonacci hash of the granule index; the shard already consumed the
    // low bits via mod k, so mix the rest.
    uint64_t G = Begin >> mte::kGranuleShift;
    return static_cast<size_t>((G * 0x9E3779B97F4A7C15ull) >> 17) & SlotMask;
  }

  TagTableKind Kind;
  unsigned NumTables;
  size_t SlotMask = 0; ///< SlotsPerShard - 1 (power of two), 0 when locked
  /// Per-shard lingering-bytes ceiling (total budget / NumTables, rounded
  /// up). 0 = deferral disabled (exact Algorithm 2 semantics).
  uint64_t ShardResidentBudget = 0;
  std::vector<std::unique_ptr<Shard>> Shards;
};

} // namespace mte4jni::core

#endif // MTE4JNI_CORE_TAGTABLE_H
