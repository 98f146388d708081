//===- TagStorage.cpp - Two-level shadow storage for granule tags --------------===//
//
// Part of the MTE4JNI reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "mte4jni/mte/TagStorage.h"

#include "mte4jni/support/Metrics.h"

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

unsigned checkKernelFor(uint64_t Granules) {
  return Granules >= kLineGranules ? 1 : 0;
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
  for (uint64_t I = 0; I < Count; ++I) {
    uint64_t G = FirstGranule + I;
    uint8_t Byte = std::atomic_ref<const uint8_t>(Packed[G >> 1])
                       .load(std::memory_order_relaxed);
    TagValue Tag = (G & 1) ? static_cast<TagValue>(Byte >> 4)
                           : static_cast<TagValue>(Byte & 0xF);
    if (M4J_UNLIKELY(Tag != Expected))
      return I;
  }
  return UINT64_MAX;
}

namespace {

/// Two-level walk instrumentation; all cheap sharded adds (the per-line
/// bookkeeping is batched per findMismatch call, not per line).
struct TagStoreMetrics {
  support::Counter &UniformHit =
      support::Metrics::counter("mte/tagstore/uniform_hit");
  support::Counter &MixedFallback =
      support::Metrics::counter("mte/tagstore/mixed_fallback");
  support::Counter &LineDemote =
      support::Metrics::counter("mte/tagstore/line_demote");
  support::Counter &LinePromote =
      support::Metrics::counter("mte/tagstore/line_promote");
};

TagStoreMetrics &tagStoreMetrics() {
  static TagStoreMetrics M;
  return M;
}

} // namespace
} // namespace detail

TaggedRegion::TaggedRegion(uint64_t Begin, uint64_t Size)
    : Begin(Begin), End(Begin + Size),
      NumGranules(Size >> kGranuleShift),
      NumLines(((Size >> kGranuleShift) + kLineGranules - 1) >> kLineShift),
      PackedBytes(((Size >> kGranuleShift) + 1) / 2),
      Packed(new uint8_t[((Size >> kGranuleShift) + 1) / 2]),
      Summary(new uint8_t[(((Size >> kGranuleShift) + kLineGranules - 1) >>
                           kLineShift)]) {
  M4J_ASSERT(support::isAligned(Begin, kGranuleSize),
             "region base must be granule-aligned");
  M4J_ASSERT(support::isAligned(Size, kGranuleSize) && Size > 0,
             "region size must be a positive granule multiple");
  std::memset(Packed.get(), 0, PackedBytes);
  std::memset(Summary.get(), 0, NumLines); // every line starts Uniform(0)
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
  uint64_t G = granuleIndex(Addr, Begin);
  storeNibble(G, Tag);
  // Demote AFTER the nibble write, as an acq_rel RMW: a later promotion
  // CAS that reads this (or any subsequent RMW in the summary byte's
  // modification order) synchronizes with it and therefore observes the
  // nibble just written when it re-validates — no stale promotion can
  // stick. (Skipping the demote when the summary already equals Tag is
  // NOT safe: a racing whole-line fill with another tag could publish
  // Uniform over this granule's different nibble.)
  std::atomic_ref<uint8_t>(Summary[G >> kLineShift])
      .exchange(kSummaryMixed, std::memory_order_acq_rel);
  detail::tagStoreMetrics().LineDemote.add();
}

uint64_t TaggedRegion::setTagRange(uint64_t From, uint64_t To, TagValue Tag) {
  From = std::max(From, Begin);
  To = std::min(To, End);
  if (From >= To)
    return 0;
  uint64_t First = granuleIndex(support::alignDown(From, kGranuleSize), Begin);
  uint64_t Last = granuleIndex(support::alignTo(To, kGranuleSize), Begin);
  const uint64_t Written = Last - First;

  // Level 0 — packed nibbles. Boundary bytes whose sibling nibble lies
  // outside the range belong half to someone else (adjacent objects), so
  // they go through the CAS path; interior bytes are wholly ours and take
  // the bulk memset.
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

  // Level 1 — summaries. Wholly-covered lines publish Uniform(Tag) with a
  // release store (ordered after the nibble fill above); partially-covered
  // edge lines demote to Mixed via an acq_rel RMW so later promotions
  // re-validate against our nibbles (see setTagAt). A full line inside the
  // range is wholly owned by the caller's buffer, which is what makes the
  // plain-store publish race-free under the granule-ownership model
  // (DESIGN.md §13).
  uint64_t FirstLine = First >> kLineShift;
  uint64_t LastLine = (Last - 1) >> kLineShift;
  uint64_t Demoted = 0;
  for (uint64_t Line = FirstLine; Line <= LastLine; ++Line) {
    uint64_t LineFirst = Line << kLineShift;
    bool Full = First <= LineFirst && Last >= LineFirst + lineGranules(Line);
    if (Full) {
      std::atomic_ref<uint8_t>(Summary[Line])
          .store(Tag & 0xF, std::memory_order_release);
    } else {
      std::atomic_ref<uint8_t>(Summary[Line])
          .exchange(kSummaryMixed, std::memory_order_acq_rel);
      ++Demoted;
    }
  }
  if (Demoted != 0)
    detail::tagStoreMetrics().LineDemote.add(Demoted);
  return Written;
}

void TaggedRegion::promoteLineIfUniform(uint64_t Line, TagValue Tag) const {
  // Summaries are a cache over the authoritative packed level; promotion
  // from a (logically const) scan is the "lazy re-promote" half of the
  // demote-on-write protocol.
  auto &Cell = const_cast<uint8_t &>(Summary[Line]);
  uint8_t Cur = kSummaryMixed;
  if (!std::atomic_ref<uint8_t>(Cell).compare_exchange_strong(
          Cur, Tag & 0xF, std::memory_order_acq_rel,
          std::memory_order_relaxed))
    return; // no longer Mixed: someone else promoted or published
  // Validate under the acquire above: every demote is an RMW, so this CAS
  // synchronizes with the whole RMW suffix of the summary byte's history
  // back to the last full-line publish — any nibble written before a
  // demote we might be racing is visible to this re-scan. A writer whose
  // demote lands after our CAS wins the summary byte and leaves it Mixed.
  uint64_t Bad = detail::scanMismatchPacked(Packed.get(), Line << kLineShift,
                                            lineGranules(Line), Tag);
  if (M4J_UNLIKELY(Bad != UINT64_MAX)) {
    std::atomic_ref<uint8_t>(Cell).exchange(kSummaryMixed,
                                            std::memory_order_acq_rel);
    return;
  }
  detail::tagStoreMetrics().LinePromote.add();
}

uint64_t TaggedRegion::findMismatch(uint64_t FirstIdx, uint64_t LastIdx,
                                    TagValue Expected) const {
  M4J_ASSERT(LastIdx < NumGranules, "granule index out of range");
  detail::TagStoreMetrics &TM = detail::tagStoreMetrics();
  uint64_t UniformHits = 0;
  uint64_t MixedScans = 0;
  uint64_t Result = UINT64_MAX;

  uint64_t G = FirstIdx;
  while (G <= LastIdx) {
    uint64_t Line = G >> kLineShift;
    uint64_t LineFirst = Line << kLineShift;
    // Contiguous run of lines wholly inside [FirstIdx, LastIdx]: sweep
    // their summary bytes with the byte kernel — one compare per 64
    // granules, 512 granules per SWAR word.
    if (G == LineFirst && LastIdx >= LineFirst + lineGranules(Line) - 1) {
      // A short tail line (region size not a line multiple) has FullLines
      // land at 0 here; the per-line path below covers it.
      uint64_t FullLines = ((LastIdx + 1) >> kLineShift) - Line;
      if (FullLines > 0) {
        uint64_t BadLine =
            detail::scanMismatch(Summary.get() + Line, FullLines, Expected);
        if (BadLine == UINT64_MAX) {
          UniformHits += FullLines;
          G = (Line + FullLines) << kLineShift;
          continue; // tail partial line (if any) handled per-line below
        }
        UniformHits += BadLine;
        Line += BadLine;
        G = Line << kLineShift;
        // Fall through into the per-line path for the offending line.
      }
    }
    // The summary sweep above may have advanced Line past the line G
    // started in; recompute LineFirst from the (possibly advanced) Line
    // BEFORE deriving LineLast, or a Mixed line reached by fall-through
    // gets a LineLast below G and the packed-scan count underflows.
    LineFirst = Line << kLineShift;
    uint64_t LineLast = std::min(LastIdx, LineFirst + lineGranules(Line) - 1);
    uint8_t S = std::atomic_ref<const uint8_t>(Summary[Line])
                    .load(std::memory_order_relaxed);
    if (S == Expected) {
      ++UniformHits;
      G = LineLast + 1;
      continue;
    }
    if (S != kSummaryMixed) {
      // Uniform under a different tag: the first granule of the scanned
      // portion mismatches.
      Result = G;
      break;
    }
    ++MixedScans;
    uint64_t Off =
        detail::scanMismatchPacked(Packed.get(), G, LineLast - G + 1, Expected);
    if (Off != UINT64_MAX) {
      Result = G + Off;
      break;
    }
    if (G == LineFirst && LineLast == LineFirst + lineGranules(Line) - 1)
      promoteLineIfUniform(Line, Expected);
    G = LineLast + 1;
  }

  if (UniformHits != 0)
    TM.UniformHit.add(UniformHits);
  if (MixedScans != 0)
    TM.MixedFallback.add(MixedScans);
  return Result;
}

uint64_t TaggedRegion::countTagged(uint64_t From, uint64_t To) const {
  From = std::max(From, Begin);
  To = std::min(To, End);
  if (From >= To)
    return 0;
  uint64_t First = granuleIndex(support::alignDown(From, kGranuleSize), Begin);
  uint64_t Last = granuleIndex(support::alignTo(To, kGranuleSize), Begin);
  // Diagnostic-only: per-line summary shortcuts (a uniform line is 0 or
  // all-counted), scalar nibble walk for mixed lines.
  uint64_t Count = 0;
  uint64_t G = First;
  while (G < Last) {
    uint64_t Line = G >> kLineShift;
    uint64_t LineEnd = std::min(Last, (Line << kLineShift) + lineGranules(Line));
    uint8_t S = std::atomic_ref<const uint8_t>(Summary[Line])
                    .load(std::memory_order_relaxed);
    if (S < kNumTags) {
      if (S != 0)
        Count += LineEnd - G;
      G = LineEnd;
      continue;
    }
    for (; G < LineEnd; ++G) {
      uint8_t Byte = std::atomic_ref<const uint8_t>(Packed[G >> 1])
                         .load(std::memory_order_relaxed);
      TagValue Tag = (G & 1) ? static_cast<TagValue>(Byte >> 4)
                             : static_cast<TagValue>(Byte & 0xF);
      Count += Tag != 0;
    }
  }
  return Count;
}

} // namespace mte4jni::mte
