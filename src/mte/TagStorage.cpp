//===- TagStorage.cpp - Packed shadow storage for granule tags -----------------===//
//
// Part of the MTE4JNI reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "mte4jni/mte/TagStorage.h"

#include <algorithm>
#include <bit>
#include <cstring>

namespace mte4jni::mte {
namespace detail {

std::atomic<uint64_t> RegionPublishEpoch{1};

uint64_t scanMismatchScalar(const uint8_t *Tags, uint64_t Count,
                            TagValue Expected) {
  for (uint64_t I = 0; I < Count; ++I)
    if (M4J_UNLIKELY(Tags[I] != Expected))
      return I;
  return UINT64_MAX;
}

namespace {

/// Locates the first byte of an 8-byte window known to contain a mismatch.
/// \p Diff is Word XOR replicated-expected, nonzero.
M4J_ALWAYS_INLINE uint64_t firstDiffByte(uint64_t Diff, const uint8_t *Window,
                                         TagValue Expected) {
  if constexpr (std::endian::native == std::endian::little)
    return static_cast<uint64_t>(std::countr_zero(Diff)) >> 3;
  for (uint64_t B = 0; B < 8; ++B)
    if (Window[B] != Expected)
      return B;
  return 0; // unreachable: Diff != 0
}

} // namespace

uint64_t scanMismatch(const uint8_t *Tags, uint64_t Count, TagValue Expected) {
  const uint64_t Pattern = 0x0101010101010101ULL * Expected;
  uint64_t I = 0;
  // Unaligned 8-byte loads are fine on every target we build for; memcpy
  // keeps it strict-aliasing clean and compiles to a single mov.
  for (; I + 8 <= Count; I += 8) {
    uint64_t Word;
    std::memcpy(&Word, Tags + I, 8);
    uint64_t Diff = Word ^ Pattern;
    if (M4J_UNLIKELY(Diff != 0))
      return I + firstDiffByte(Diff, Tags + I, Expected);
  }
  for (; I < Count; ++I)
    if (M4J_UNLIKELY(Tags[I] != Expected))
      return I;
  return UINT64_MAX;
}

namespace {

/// Relaxed atomic byte load: edge nibbles of a scanned range live in
/// packed bytes shared with adjacent objects, whose owners may CAS their
/// sibling nibble concurrently — the load must be atomic to stay clean
/// under TSan (a plain load on x86/aarch64 either way).
M4J_ALWAYS_INLINE uint8_t loadPackedByte(const uint8_t *Packed, uint64_t G) {
  return std::atomic_ref<const uint8_t>(Packed[G >> 1])
      .load(std::memory_order_relaxed);
}

} // namespace

/// Peels the odd leading/trailing nibbles (atomic loads — shared bytes),
/// runs the byte scan over the byte-aligned body with both nibbles
/// replicated (plain loads — every body byte is wholly inside the scanned
/// range, and a checked range never overlaps a concurrently retagged
/// granule by construction; see the exclusion argument in DESIGN.md §13),
/// and resolves which nibble of the offending byte mismatched (the low
/// nibble is the even — earlier — granule).
uint64_t scanMismatchPacked(const uint8_t *Packed, uint64_t FirstGranule,
                            uint64_t Count, TagValue Expected) {
  if (Count == 0)
    return UINT64_MAX;
  uint64_t G = FirstGranule;
  const uint64_t EndG = FirstGranule + Count;
  if (G & 1) {
    if (M4J_UNLIKELY((loadPackedByte(Packed, G) >> 4) != Expected))
      return 0;
    if (++G == EndG)
      return UINT64_MAX;
  }
  const TagValue Pattern =
      static_cast<TagValue>((Expected << 4) | (Expected & 0xF));
  uint64_t Bytes = (EndG - G) >> 1;
  if (Bytes != 0) {
    uint64_t Bad = scanMismatch(Packed + (G >> 1), Bytes, Pattern);
    if (M4J_UNLIKELY(Bad != UINT64_MAX)) {
      uint64_t BadG = G + 2 * Bad;
      uint8_t Byte = Packed[(G >> 1) + Bad];
      if ((Byte & 0xF) != (Expected & 0xF))
        return BadG - FirstGranule;
      return BadG + 1 - FirstGranule;
    }
    G += 2 * Bytes;
  }
  if (G < EndG &&
      M4J_UNLIKELY((loadPackedByte(Packed, G) & 0xF) != (Expected & 0xF)))
    return G - FirstGranule;
  return UINT64_MAX;
}

uint64_t scanMismatchPackedScalar(const uint8_t *Packed, uint64_t FirstGranule,
                                  uint64_t Count, TagValue Expected) {
  for (uint64_t I = 0; I < Count; ++I)
    if (M4J_UNLIKELY(packedTagAt(Packed, FirstGranule + I) != Expected))
      return I;
  return UINT64_MAX;
}

} // namespace detail

TaggedRegion::TaggedRegion(uint64_t Begin, uint64_t Size)
    : Begin(Begin), End(Begin + Size), NumGranules(Size >> kGranuleShift),
      PackedBytes((NumGranules + 1) / 2), Packed(new uint8_t[PackedBytes]) {
  M4J_ASSERT(support::isAligned(Begin, kGranuleSize),
             "region base must be granule-aligned");
  M4J_ASSERT(support::isAligned(Size, kGranuleSize) && Size > 0,
             "region size must be a positive granule multiple");
  std::memset(Packed.get(), 0, PackedBytes);
}

void TaggedRegion::storeNibble(uint64_t G, TagValue Tag) {
  std::atomic_ref<uint8_t> Byte(Packed[G >> 1]);
  uint8_t Cur = Byte.load(std::memory_order_relaxed);
  const uint8_t Mask = (G & 1) ? uint8_t(0x0F) : uint8_t(0xF0);
  const uint8_t Nibble =
      (G & 1) ? static_cast<uint8_t>((Tag & 0xF) << 4)
              : static_cast<uint8_t>(Tag & 0xF);
  // CAS loop: the sibling granule's nibble may be written concurrently by
  // another thread (adjacent objects share a packed byte); a plain RMW
  // store would lose one of the two tags.
  while (!Byte.compare_exchange_weak(
      Cur, static_cast<uint8_t>((Cur & Mask) | Nibble),
      std::memory_order_relaxed, std::memory_order_relaxed))
    ;
}

void TaggedRegion::setTagAt(uint64_t Addr, TagValue Tag) {
  storeNibble(granuleIndex(Addr, Begin), Tag);
}

uint64_t TaggedRegion::setTagRange(uint64_t From, uint64_t To, TagValue Tag) {
  From = std::max(From, Begin);
  To = std::min(To, End);
  if (From >= To)
    return 0;
  uint64_t First = granuleIndex(support::alignDown(From, kGranuleSize), Begin);
  uint64_t Last = granuleIndex(support::alignTo(To, kGranuleSize), Begin);

  // Boundary bytes whose sibling nibble lies outside the range belong half
  // to someone else (adjacent objects), so they go through the CAS path;
  // interior bytes are wholly ours and take the bulk memset.
  uint64_t G = First;
  if (G & 1) {
    storeNibble(G, Tag);
    ++G;
  }
  uint64_t BodyEnd = Last;
  if (BodyEnd & 1)
    --BodyEnd; // trailing even granule shares its byte's high nibble
  if (G < BodyEnd) {
    const uint8_t Pattern =
        static_cast<uint8_t>(((Tag & 0xF) << 4) | (Tag & 0xF));
    std::memset(Packed.get() + (G >> 1), Pattern, (BodyEnd - G) >> 1);
  }
  if (BodyEnd < Last && BodyEnd >= First)
    storeNibble(BodyEnd, Tag);
  return Last - First;
}

uint64_t TaggedRegion::findMismatch(uint64_t FirstIdx, uint64_t LastIdx,
                                    TagValue Expected) const {
  M4J_ASSERT(LastIdx < NumGranules, "granule index out of range");
  uint64_t Off = detail::scanMismatchPacked(Packed.get(), FirstIdx,
                                            LastIdx - FirstIdx + 1, Expected);
  return Off == UINT64_MAX ? UINT64_MAX : FirstIdx + Off;
}

uint64_t TaggedRegion::countTagged(uint64_t From, uint64_t To) const {
  From = std::max(From, Begin);
  To = std::min(To, End);
  if (From >= To)
    return 0;
  uint64_t First = granuleIndex(support::alignDown(From, kGranuleSize), Begin);
  uint64_t Last = granuleIndex(support::alignTo(To, kGranuleSize), Begin);
  uint64_t Count = 0;
  for (uint64_t G = First; G < Last; ++G) {
    uint8_t Byte = std::atomic_ref<const uint8_t>(Packed[G >> 1])
                       .load(std::memory_order_relaxed);
    TagValue Tag = (G & 1) ? static_cast<TagValue>(Byte >> 4)
                           : static_cast<TagValue>(Byte & 0xF);
    Count += Tag != 0;
  }
  return Count;
}

} // namespace mte4jni::mte
