//===- mte_tagstore_twolevel_test.cpp - Packed tag store properties -------------===//
//
// Part of the MTE4JNI reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Coverage the packed tag store's correctness rests on. The target and
// suite keep the name of the former two-level store (packed shadow under
// per-line summaries), so the sanitizer jobs' test lists stay put.
//
//   * a randomized equivalence test driving setTagAt / setTagRange /
//     findMismatch / countTagged against a plain byte-per-granule
//     reference model — the seed's storage layout — over a region with
//     an odd granule count (its last packed byte is half used), with
//     range endpoints biased toward packed-byte and SWAR-word boundaries;
//   * long findMismatch scans that cross a rewritten-and-restored granule
//     and stop at a real offender;
//   * packed-nibble kernel equivalence (SWAR vs the scalar reference)
//     across sizes around the 8-byte word boundaries, both start
//     parities, and planted mismatches at edge/body nibbles;
//   * ThreadSanitizer-facing tests: concurrent writers hammering
//     ADJACENT granules sharing one packed shadow byte (the nibble-CAS
//     path) while readers load tags, and a checked-range scan racing a
//     setTagAt to a granule outside the range but sharing its trailing
//     edge byte — the two legal-race shapes of the ownership model.
//
//===----------------------------------------------------------------------===//

#include "mte4jni/mte/TagStorage.h"
#include "mte4jni/support/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

namespace {

using namespace mte4jni::mte;
namespace support = mte4jni::support;

// 301 granules = 18 SWAR words (16 granules each) + a 13-granule tail;
// the odd count leaves the last packed byte's high nibble unused.
constexpr uint64_t kGranules = 301;
constexpr uint64_t kBytes = kGranules * kGranuleSize;
// Region size for the concurrency tests: 64 granules, 32 packed bytes.
constexpr uint64_t kSmallBytes = 64 * kGranuleSize;

struct RegionFixture {
  alignas(16) uint8_t Buf[kBytes];
};

//===----------------------------------------------------------------------===//
// Randomized equivalence against the byte-per-granule reference model
//===----------------------------------------------------------------------===//

TEST(TagStoreTwoLevel, RandomizedEquivalenceVsReferenceModel) {
  static RegionFixture F;
  TaggedRegion Region(reinterpret_cast<uint64_t>(F.Buf), kBytes);
  std::vector<uint8_t> Ref(kGranules, 0); // one tag byte per granule

  auto refFindMismatch = [&](uint64_t First, uint64_t Last,
                             TagValue Expected) -> uint64_t {
    for (uint64_t G = First; G <= Last; ++G)
      if (Ref[G] != Expected)
        return G;
    return UINT64_MAX;
  };
  auto refCountTagged = [&](uint64_t FirstG, uint64_t LastG) -> uint64_t {
    uint64_t N = 0;
    for (uint64_t G = FirstG; G <= LastG; ++G)
      N += Ref[G] != 0;
    return N;
  };

  support::Xoshiro256 R(0x2d14e8a1u);
  const uint64_t Base = Region.begin();
  // Range endpoints are biased toward the packed kernel's edges: an odd
  // granule (a high nibble, peeled from its shared byte), and the first
  // and last granule of a SWAR word, so scan lengths land on, just under
  // and just over whole words as well as on the byte tail.
  auto drawGranule = [&]() -> uint64_t {
    uint64_t G = R.nextBelow(kGranules);
    switch (R.nextBelow(4)) {
    case 0:
      return G & ~uint64_t(15); // first granule of a word
    case 1:
      return std::min(kGranules - 1, G | 15); // last granule of a word
    case 2:
      return std::min(kGranules - 1, G | 1); // odd: a high nibble
    default:
      return G;
    }
  };
  for (int Iter = 0; Iter < 20000; ++Iter) {
    switch (R.nextBelow(4)) {
    case 0: { // single-granule write
      uint64_t G = R.nextBelow(kGranules);
      TagValue T = static_cast<TagValue>(R.nextBelow(kNumTags));
      Region.setTagAt(Base + G * kGranuleSize + R.nextBelow(kGranuleSize), T);
      Ref[G] = T;
      break;
    }
    case 1: { // range write (CAS edge nibbles, memset body)
      uint64_t A = drawGranule();
      // A quarter of range writes run to the end of the region — the
      // TLAB-scrub / reclaim shape that leaves a long uniform suffix, so
      // later checks scan many words before they stop.
      uint64_t B = R.nextBelow(4) == 0 ? kGranules - 1 : drawGranule();
      if (A > B)
        std::swap(A, B);
      TagValue T = static_cast<TagValue>(R.nextBelow(kNumTags));
      uint64_t Written = Region.setTagRange(Base + A * kGranuleSize,
                                            Base + (B + 1) * kGranuleSize, T);
      ASSERT_EQ(Written, B - A + 1);
      for (uint64_t G = A; G <= B; ++G)
        Ref[G] = T;
      break;
    }
    case 2: { // bulk check
      uint64_t A = drawGranule();
      uint64_t B = drawGranule();
      if (A > B)
        std::swap(A, B);
      // Half the checks expect the tag actually present at the range
      // start: a fully random tag almost always mismatches at once, which
      // would leave the deep scans (whole words, then the tail)
      // unexercised.
      TagValue T = R.nextBelow(2) == 0
                       ? static_cast<TagValue>(Ref[A])
                       : static_cast<TagValue>(R.nextBelow(kNumTags));
      ASSERT_EQ(Region.findMismatch(A, B, T), refFindMismatch(A, B, T))
          << "iter " << Iter << " range [" << A << "," << B << "] tag "
          << unsigned(T);
      break;
    }
    default: { // diagnostic count
      uint64_t A = R.nextBelow(kGranules);
      uint64_t B = R.nextBelow(kGranules);
      if (A > B)
        std::swap(A, B);
      ASSERT_EQ(Region.countTagged(Base + A * kGranuleSize,
                                   Base + (B + 1) * kGranuleSize),
                refCountTagged(A, B))
          << "iter " << Iter << " range [" << A << "," << B << "]";
      break;
    }
    }
    // Every granule stays individually readable through the packed level.
    if (Iter % 997 == 0) {
      for (uint64_t G = 0; G < kGranules; ++G)
        ASSERT_EQ(Region.tagAt(Base + G * kGranuleSize), Ref[G]);
    }
  }
}

//===----------------------------------------------------------------------===//
// Packed-nibble kernels vs the scalar reference
//===----------------------------------------------------------------------===//

TEST(TagStoreTwoLevel, PackedKernelEquivalence) {
  // Sizes, in granules, straddle the SWAR kernel's 8-byte (16-granule)
  // word boundaries and its byte tail.
  const uint64_t Sizes[] = {0,  1,  2,  3,  7,  8,  15, 16,  17,  31,  32,
                            33, 63, 64, 65, 96, 127, 128, 129, 255, 1024};
  support::Xoshiro256 R(0x51ce9bb3u);
  std::vector<uint8_t> Packed(1024); // 2048 granules

  for (int Round = 0; Round < 200; ++Round) {
    for (uint8_t &B : Packed)
      B = static_cast<uint8_t>(R.next());
    TagValue Expected = static_cast<TagValue>(R.nextBelow(kNumTags));
    for (uint64_t Count : Sizes) {
      for (uint64_t Parity = 0; Parity < 2; ++Parity) {
        uint64_t First = R.nextBelow(64) * 2 + Parity;
        uint64_t Want = detail::scanMismatchPackedScalar(Packed.data(), First,
                                                         Count, Expected);
        EXPECT_EQ(
            detail::scanMismatchPacked(Packed.data(), First, Count, Expected),
            Want)
            << "first=" << First << " count=" << Count;
      }
    }
  }
}

TEST(TagStoreTwoLevel, PackedKernelPlantedMismatches) {
  std::vector<uint8_t> Packed(512, 0x77); // all granules tag 7
  const uint64_t Total = 1024;
  // Plant a single foreign nibble at each interesting position and expect
  // every kernel to locate exactly it.
  for (uint64_t Bad : {uint64_t(0), uint64_t(1), uint64_t(2), uint64_t(31),
                       uint64_t(32), uint64_t(63), uint64_t(64), uint64_t(509),
                       uint64_t(1022), uint64_t(1023)}) {
    uint8_t Saved = Packed[Bad >> 1];
    Packed[Bad >> 1] = (Bad & 1) ? static_cast<uint8_t>((Saved & 0x0F) | 0x30)
                                 : static_cast<uint8_t>((Saved & 0xF0) | 0x03);
    for (uint64_t First : {uint64_t(0), uint64_t(1)}) {
      uint64_t Want = Bad >= First ? Bad - First : UINT64_MAX;
      EXPECT_EQ(detail::scanMismatchPackedScalar(Packed.data(), First,
                                                 Total - First, 7),
                Want);
      EXPECT_EQ(
          detail::scanMismatchPacked(Packed.data(), First, Total - First, 7),
          Want);
    }
    Packed[Bad >> 1] = Saved;
  }
}

// Long scans across the region: a granule retagged and then restored
// reads as matching, a scan stopping mid-word finds nothing past its end,
// and a real offender past the restored granule is reported at its own
// index — also when the scan runs over the region's short last word.
TEST(TagStoreTwoLevel, FindMismatchLongScans) {
  static RegionFixture F;
  TaggedRegion Region(reinterpret_cast<uint64_t>(F.Buf), kBytes);
  const uint64_t Base = Region.begin();

  Region.setTagRange(Base, Region.end(), 5);
  Region.setTagAt(Base + 130 * kGranuleSize, 7);
  Region.setTagAt(Base + 130 * kGranuleSize, 5);

  EXPECT_EQ(Region.findMismatch(0, 191, 5), UINT64_MAX);
  EXPECT_EQ(Region.findMismatch(0, 150, 5), UINT64_MAX);

  Region.setTagAt(Base + 200 * kGranuleSize, 9);
  EXPECT_EQ(Region.findMismatch(0, 255, 5), 200u);
  EXPECT_EQ(Region.findMismatch(0, kGranules - 1, 5), 200u);
  EXPECT_EQ(Region.findMismatch(201, kGranules - 1, 5), UINT64_MAX);

  Region.setTagAt(Base + 200 * kGranuleSize, 5);
  EXPECT_EQ(Region.findMismatch(0, kGranules - 1, 5), UINT64_MAX);
}

//===----------------------------------------------------------------------===//
// Adjacent-granule nibble CAS under concurrency (TSan target)
//===----------------------------------------------------------------------===//

TEST(TagStoreTwoLevel, AdjacentGranuleWritersShareAByte) {
  alignas(16) static uint8_t Buf[kSmallBytes];
  TaggedRegion Region(reinterpret_cast<uint64_t>(Buf), kSmallBytes);
  const uint64_t Base = Region.begin();
  constexpr int kIters = 20000;

  // Granules 6 and 7 share packed byte 3: two writers CAS opposite
  // nibbles of one byte while readers load both tags. A lost update (the
  // bug the CAS loop prevents) would surface as a stale/zero tag below;
  // TSan would flag any non-atomic access to the shared byte.
  std::thread Even([&] {
    for (int I = 0; I < kIters; ++I)
      Region.setTagAt(Base + 6 * kGranuleSize,
                      static_cast<TagValue>(1 + (I % 15)));
  });
  std::thread Odd([&] {
    for (int I = 0; I < kIters; ++I)
      Region.setTagAt(Base + 7 * kGranuleSize,
                      static_cast<TagValue>(15 - (I % 15)));
  });
  std::thread Reader([&] {
    for (int I = 0; I < kIters; ++I) {
      TagValue A = Region.tagAt(Base + 6 * kGranuleSize);
      TagValue B = Region.tagAt(Base + 7 * kGranuleSize);
      // Any already-written value is a valid snapshot; zero is only legal
      // before the first store lands.
      ASSERT_LE(A, 15);
      ASSERT_LE(B, 15);
    }
  });
  Even.join();
  Odd.join();
  Reader.join();

  // Both threads' final writes survived: neither nibble clobbered the
  // other despite sharing a byte.
  EXPECT_EQ(Region.tagAt(Base + 6 * kGranuleSize),
            static_cast<TagValue>(1 + ((kIters - 1) % 15)));
  EXPECT_EQ(Region.tagAt(Base + 7 * kGranuleSize),
            static_cast<TagValue>(15 - ((kIters - 1) % 15)));
  EXPECT_EQ(Region.tagAt(Base + 5 * kGranuleSize), 0);
  EXPECT_EQ(Region.tagAt(Base + 8 * kGranuleSize), 0);
}

TEST(TagStoreTwoLevel, CheckedRangeVsWriterSharingAnEdgeByte) {
  // Race-model boundary (DESIGN.md §13): a checked range may legally race
  // with setTagAt on a granule OUTSIDE the range — even one sharing the
  // range's trailing packed byte.
  // Only the EDGE nibbles of a scan touch shared bytes, and those loads
  // are atomic; the plain-load body bytes lie wholly inside the checked
  // range, which granule ownership guarantees nobody retags mid-check.
  // Here the checker scans granules [0,30] (byte 15's low nibble is the
  // atomic trailing edge) while a writer CASes granule 31 (byte 15's high
  // nibble): TSan must stay quiet and the check must never fault.
  alignas(16) static uint8_t Buf[kSmallBytes];
  TaggedRegion Region(reinterpret_cast<uint64_t>(Buf), kSmallBytes);
  const uint64_t Base = Region.begin();
  constexpr int kIters = 20000;

  Region.setTagRange(Base, Base + 31 * kGranuleSize, 7);

  std::thread Writer([&] {
    for (int I = 0; I < kIters; ++I)
      Region.setTagAt(Base + 31 * kGranuleSize,
                      static_cast<TagValue>(1 + (I % 15)));
  });
  std::thread Checker([&] {
    for (int I = 0; I < kIters; ++I)
      ASSERT_EQ(Region.findMismatch(0, 30, 7), UINT64_MAX) << "iter " << I;
  });
  Writer.join();
  Checker.join();

  for (uint64_t G = 0; G <= 30; ++G)
    EXPECT_EQ(Region.tagAt(Base + G * kGranuleSize), 7) << G;
  EXPECT_EQ(Region.tagAt(Base + 31 * kGranuleSize),
            static_cast<TagValue>(1 + ((kIters - 1) % 15)));
}

TEST(TagStoreTwoLevel, ConcurrentRangeWritersOwnDisjointRanges) {
  // Two writers repeatedly retag ADJACENT ranges that split a packed byte
  // (ranges [0,5) and [5,10) share byte 2): the boundary nibbles go
  // through the CAS path, so neither owner's edge tag is lost.
  alignas(16) static uint8_t Buf[kSmallBytes];
  TaggedRegion Region(reinterpret_cast<uint64_t>(Buf), kSmallBytes);
  const uint64_t Base = Region.begin();
  constexpr int kIters = 5000;

  std::thread A([&] {
    for (int I = 0; I < kIters; ++I)
      Region.setTagRange(Base, Base + 5 * kGranuleSize,
                         static_cast<TagValue>(1 + (I % 7)));
  });
  std::thread B([&] {
    for (int I = 0; I < kIters; ++I)
      Region.setTagRange(Base + 5 * kGranuleSize, Base + 10 * kGranuleSize,
                         static_cast<TagValue>(8 + (I % 7)));
  });
  A.join();
  B.join();

  TagValue TagA = static_cast<TagValue>(1 + ((kIters - 1) % 7));
  TagValue TagB = static_cast<TagValue>(8 + ((kIters - 1) % 7));
  for (uint64_t G = 0; G < 5; ++G)
    EXPECT_EQ(Region.tagAt(Base + G * kGranuleSize), TagA) << G;
  for (uint64_t G = 5; G < 10; ++G)
    EXPECT_EQ(Region.tagAt(Base + G * kGranuleSize), TagB) << G;
}

} // namespace
