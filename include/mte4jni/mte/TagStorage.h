//===- TagStorage.h - Packed shadow storage for granule tags -------*- C++ -*-===//
//
// Part of the MTE4JNI reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Real MTE keeps allocation tags in dedicated tag RAM for pages mapped
/// with PROT_MTE. The simulator keeps a packed granule shadow per
/// registered region; memory outside any registered region is unchecked,
/// exactly like non-PROT_MTE pages on hardware.
///
/// Tags are 4 bits, so two granules share one shadow byte (even granule =
/// low nibble, odd = high). The shadow costs regionSize/32 bytes, half of
/// the seed's byte-per-granule array. Every tag read, write and range
/// check goes to these nibbles; DESIGN.md §13 gives the packed-byte
/// discipline that keeps concurrent writers and checkers race-free.
///
//===----------------------------------------------------------------------===//

#ifndef MTE4JNI_MTE_TAGSTORAGE_H
#define MTE4JNI_MTE_TAGSTORAGE_H

#include "mte4jni/mte/Tag.h"
#include "mte4jni/support/Compiler.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

namespace mte4jni::mte {

namespace detail {

/// Monotonic epoch bumped by MteSystem::publishRegions. Per-thread region
/// caches stamp the epoch at fill time and treat themselves as invalid the
/// moment it moves; the deferred snapshot retire list uses the same counter
/// to decide when a superseded RegionList can be freed. A plain namespace
/// global (not a member) so the header-inlined access fast path can read it
/// without paying the MteSystem::instance() magic-static guard.
extern std::atomic<uint64_t> RegionPublishEpoch;

// -- byte-array kernels ---------------------------------------------------
// First index in [0, Count) whose byte differs from Expected, or
// UINT64_MAX. These scan one byte per element; the packed-nibble kernels
// below run them over packed bytes with a both-nibbles pattern.

/// Reference byte-at-a-time scan; equivalence-test baseline.
uint64_t scanMismatchScalar(const uint8_t *Tags, uint64_t Count,
                            TagValue Expected);

/// SWAR scan: 8 bytes per uint64_t (replicated expected byte, XOR,
/// first-nonzero-byte). Same contract as the scalar scan.
uint64_t scanMismatch(const uint8_t *Tags, uint64_t Count, TagValue Expected);

// -- packed-nibble kernels ------------------------------------------------
// Scan Count granule tags starting at granule index FirstGranule of a
// 2-tags-per-byte packed shadow. Returns the offset (in granules, relative
// to FirstGranule) of the first tag != Expected, or UINT64_MAX. Odd edge
// nibbles are peeled; the byte-aligned body compares both nibbles at once
// via the byte kernels above with the pattern (Expected<<4)|Expected.

/// Reference nibble-at-a-time scan; equivalence-test baseline.
uint64_t scanMismatchPackedScalar(const uint8_t *Packed, uint64_t FirstGranule,
                                  uint64_t Count, TagValue Expected);

/// SWAR packed scan: 16 granules per uint64_t.
uint64_t scanMismatchPacked(const uint8_t *Packed, uint64_t FirstGranule,
                            uint64_t Count, TagValue Expected);

/// Tag of granule \p G of a packed shadow: one relaxed atomic byte load
/// (the byte is shared with the sibling granule, whose owner may CAS it)
/// plus a nibble select.
M4J_ALWAYS_INLINE TagValue packedTagAt(const uint8_t *Packed, uint64_t G) {
  uint8_t Byte = std::atomic_ref<const uint8_t>(Packed[G >> 1])
                     .load(std::memory_order_relaxed);
  return (G & 1) ? static_cast<TagValue>(Byte >> 4)
                 : static_cast<TagValue>(Byte & 0xF);
}

} // namespace detail

/// Packed shadow tags for one contiguous registered (PROT_MTE) region.
class TaggedRegion {
public:
  TaggedRegion(uint64_t Begin, uint64_t Size);

  uint64_t begin() const { return Begin; }
  uint64_t end() const { return End; }
  uint64_t size() const { return End - Begin; }

  bool contains(uint64_t Addr) const { return Addr >= Begin && Addr < End; }

  /// Tag of the granule containing \p Addr: one packed-byte load plus a
  /// nibble select.
  M4J_ALWAYS_INLINE TagValue tagAt(uint64_t Addr) const {
    return detail::packedTagAt(Packed.get(), granuleIndex(Addr, Begin));
  }

  /// Sets the tag of the granule containing \p Addr: a CAS loop on the
  /// shared packed byte (the sibling granule's nibble must survive
  /// concurrent writers).
  void setTagAt(uint64_t Addr, TagValue Tag);

  /// Sets all granules overlapping [From, To) to \p Tag; returns the number
  /// of granules written. Clamps to the region. Bulk path: boundary nibbles
  /// CAS, interior packed bytes memset — on hardware STG retires at store
  /// speed, so the simulator must not pay more than a half-byte store per
  /// granule.
  uint64_t setTagRange(uint64_t From, uint64_t To, TagValue Tag);

  /// Scans granules [FirstIdx, LastIdx] for any tag != \p Expected;
  /// returns the index of the first mismatch, or UINT64_MAX when all
  /// match. Bulk analog of per-access checks for memcpy-style transfers:
  /// one packed scan, 16 granules per SWAR word.
  uint64_t findMismatch(uint64_t FirstIdx, uint64_t LastIdx,
                        TagValue Expected) const;

  /// Number of granules overlapping [From, To) whose tag is nonzero,
  /// clamped to the region. Diagnostic for the deferred tag-clear path:
  /// with TagAllocator's lingering slots, shadow nibbles stay nonzero
  /// after release until a reclaim trigger fires, and tests use this to
  /// assert a whole payload (not just its first granule) was reclaimed.
  uint64_t countTagged(uint64_t From, uint64_t To) const;

  uint64_t granuleCount() const { return NumGranules; }

  /// Footprint: packed granule shadow bytes (2 tags per byte).
  uint64_t shadowBytes() const { return PackedBytes; }

  /// The packed shadow; granule G's tag is detail::packedTagAt(shadow(), G).
  /// Lives as long as the region.
  const uint8_t *shadow() const { return Packed.get(); }

private:
  /// Writes the single granule \p G's nibble via CAS on its shared byte.
  void storeNibble(uint64_t G, TagValue Tag);

  uint64_t Begin;
  uint64_t End;
  uint64_t NumGranules;
  uint64_t PackedBytes;
  // Plain byte array: bytes shared with a neighbour go through
  // std::atomic_ref (CAS where written, relaxed load where scanned), bulk
  // fill/scan through vectorisable loops. Concurrent tag store vs. tag
  // check is racy on hardware too (either the old or new tag wins);
  // DESIGN.md §13 gives the exclusion argument for the plain body bytes.
  std::unique_ptr<uint8_t[]> Packed;
};

/// An immutable snapshot of the registered regions. Lookups are a short
/// linear scan — a process has very few PROT_MTE regions (typically the
/// Java heap and one native scratch arena).
class RegionList {
public:
  explicit RegionList(std::vector<std::shared_ptr<TaggedRegion>> Regions)
      : Regions(std::move(Regions)) {}

  /// Region containing \p Addr, or nullptr.
  M4J_ALWAYS_INLINE const TaggedRegion *find(uint64_t Addr) const {
    for (const auto &Region : Regions)
      if (Region->contains(Addr))
        return Region.get();
    return nullptr;
  }

  /// Shared-ownership lookup: the per-thread region cache keeps the
  /// returned shared_ptr so a cached region outlives unregisterRegion.
  std::shared_ptr<const TaggedRegion> findShared(uint64_t Addr) const {
    for (const auto &Region : Regions)
      if (Region->contains(Addr))
        return Region;
    return nullptr;
  }

  TaggedRegion *findMutable(uint64_t Addr) const {
    for (const auto &Region : Regions)
      if (Region->contains(Addr))
        return Region.get();
    return nullptr;
  }

  size_t size() const { return Regions.size(); }
  const std::vector<std::shared_ptr<TaggedRegion>> &regions() const {
    return Regions;
  }

private:
  std::vector<std::shared_ptr<TaggedRegion>> Regions;
};

} // namespace mte4jni::mte

#endif // MTE4JNI_MTE_TAGSTORAGE_H
