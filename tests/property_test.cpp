//===- property_test.cpp - Property-based sweeps --------------------------------------===//
//
// Part of the MTE4JNI reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Randomised/parameterised invariants:
//
//   * detection truth table: any access outside an array's granule-rounded
//     extent faults under MTE4JNI+Sync (against a quiet heap); accesses in
//     the sub-granule slack are the documented 16-byte-granularity blind
//     spot;
//   * every primitive type's one-past-the-end access is caught;
//   * random acquire/release interleavings preserve the tag-table
//     invariants (held => granule tag matches; all-released => tags clear);
//   * random in-bounds native work is fault-free and value-coherent under
//     every scheme.
//
//===----------------------------------------------------------------------===//

#include "mte4jni/api/Session.h"
#include "mte4jni/core/TagAllocator.h"
#include "mte4jni/mte/Access.h"
#include "mte4jni/mte/Instructions.h"
#include "mte4jni/mte/MteSystem.h"
#include "mte4jni/mte/TaggedArena.h"
#include "mte4jni/support/Rng.h"

#include <gtest/gtest.h>

#include <map>

namespace {

using namespace mte4jni;

// ---- OOB offset truth table --------------------------------------------------

class OobOffsetProperty : public ::testing::TestWithParam<int> {};

TEST_P(OobOffsetProperty, DetectionMatchesGranuleModel) {
  const int ByteOffset = GetParam(); // relative to payload start

  api::SessionConfig C;
  C.Protection = api::Scheme::Mte4JniSync;
  api::Session S(C);
  api::ScopedAttach Main(S, "main");
  rt::HandleScope Scope(S.runtime());

  // A pad object first, so negative probe offsets still land inside the
  // PROT_MTE heap (otherwise they'd be legitimately unchecked, like
  // non-MTE memory on hardware).
  (void)Main.env().NewIntArray(Scope, 64);
  constexpr jni::jsize kLen = 18; // 72 payload bytes; granule extent 80
  jni::jarray Array = Main.env().NewIntArray(Scope, kLen);
  const uint64_t PayloadBytes = Array->dataBytes();
  const uint64_t GranuleExtent =
      support::alignTo(PayloadBytes, mte::kGranuleSize);

  rt::callNative(Main.thread(), rt::NativeKind::Regular, "probe", [&] {
    jni::jboolean IsCopy;
    auto P = Main.env()
                 .GetPrimitiveArrayCritical(Array, &IsCopy)
                 .cast<jni::jbyte>();
    volatile jni::jbyte V = mte::load<jni::jbyte>(P + ByteOffset);
    (void)V;
    Main.env().ReleasePrimitiveArrayCritical(Array, P.cast<void>(),
                                             jni::JNI_ABORT);
    return 0;
  });

  bool InBounds = ByteOffset >= 0 &&
                  ByteOffset < static_cast<int>(PayloadBytes);
  bool InTaggedExtent = ByteOffset >= 0 &&
                        ByteOffset < static_cast<int>(GranuleExtent);
  uint64_t Faults = S.faults().countOf(mte::FaultKind::TagMismatchSync);
  if (InBounds) {
    EXPECT_EQ(Faults, 0u) << "in-bounds access must not fault";
  } else if (InTaggedExtent) {
    // The documented MTE granularity blind spot: OOB within the final
    // partially-used granule shares the array's own tag.
    EXPECT_EQ(Faults, 0u);
  } else {
    EXPECT_EQ(Faults, 1u)
        << "byte offset " << ByteOffset << " must be detected";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Offsets, OobOffsetProperty,
    ::testing::Values(-64, -16, -1, 0, 1, 35, 71,        // before/inside
                      72, 75, 79,                         // sub-granule slack
                      80, 84, 100, 128, 256, 4096),       // detectable OOB
    [](const auto &Info) {
      int V = Info.param;
      return std::string(V < 0 ? "minus_" : "plus_") +
             std::to_string(V < 0 ? -V : V);
    });

// ---- per-primitive-type detection ---------------------------------------------

class PrimTypeProperty : public ::testing::TestWithParam<rt::PrimType> {};

TEST_P(PrimTypeProperty, OnePastTheEndIsCaught) {
  api::SessionConfig C;
  C.Protection = api::Scheme::Mte4JniSync;
  api::Session S(C);
  api::ScopedAttach Main(S, "main");
  rt::HandleScope Scope(S.runtime());

  constexpr uint32_t kLen = 16;
  jni::jarray Array =
      S.runtime().newPrimArray(Scope, GetParam(), kLen);
  ASSERT_NE(Array, nullptr);

  rt::callNative(Main.thread(), rt::NativeKind::Regular, "probe", [&] {
    jni::jboolean IsCopy;
    auto P = Main.env().GetPrimitiveArrayCritical(Array, &IsCopy);
    // One full granule past the tagged extent: always a different tag.
    uint64_t Skip =
        support::alignTo(Array->dataBytes(), mte::kGranuleSize) +
        mte::kGranuleSize;
    volatile uint8_t V = mte::load<uint8_t>(
        P.cast<uint8_t>() + static_cast<ptrdiff_t>(Skip));
    (void)V;
    Main.env().ReleasePrimitiveArrayCritical(Array, P, jni::JNI_ABORT);
    return 0;
  });
  EXPECT_EQ(S.faults().countOf(mte::FaultKind::TagMismatchSync), 1u)
      << rt::primTypeName(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    AllPrimTypes, PrimTypeProperty,
    ::testing::Values(rt::PrimType::Boolean, rt::PrimType::Byte,
                      rt::PrimType::Char, rt::PrimType::Short,
                      rt::PrimType::Int, rt::PrimType::Long,
                      rt::PrimType::Float, rt::PrimType::Double),
    [](const auto &Info) {
      return std::string(rt::primTypeName(Info.param));
    });

// ---- random acquire/release interleavings -------------------------------------

class AllocatorFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AllocatorFuzz, InterleavingsPreserveInvariants) {
  mte::MteSystem::instance().reset();
  {
    mte::TaggedArena Arena(1 << 20);
    core::TagAllocator Alloc(core::TagTableKind::TwoTierMutex, 16);
    support::Xoshiro256 Rng(GetParam());

    constexpr int kObjects = 24;
    struct Obj {
      uint64_t Begin;
      uint64_t Bytes;
      int Holders = 0;
      mte::TagValue Tag = 0;
    };
    std::vector<Obj> Objects;
    for (int I = 0; I < kObjects; ++I) {
      uint64_t Bytes = 16u << Rng.nextBelow(6); // 16..512
      Objects.push_back(
          {reinterpret_cast<uint64_t>(Arena.allocate(Bytes)), Bytes});
    }

    for (int Step = 0; Step < 4000; ++Step) {
      Obj &O = Objects[Rng.nextBelow(kObjects)];
      if (O.Holders == 0 || Rng.nextBool(0.5)) {
        uint64_t Bits = Alloc.acquire(O.Begin, O.Begin + O.Bytes);
        mte::TagValue Tag = mte::pointerTagOf(Bits);
        if (O.Holders > 0) {
          ASSERT_EQ(Tag, O.Tag) << "joining holder must share the tag";
        }
        O.Tag = Tag;
        ++O.Holders;
      } else {
        Alloc.release(O.Begin, O.Begin + O.Bytes);
        --O.Holders;
      }

      // Invariant: held objects carry their tag on every granule;
      // released objects are tag-0.
      if (Step % 97 == 0) {
        for (const Obj &Check : Objects) {
          mte::TagValue Expected = Check.Holders > 0 ? Check.Tag : 0;
          for (uint64_t G = 0; G < Check.Bytes; G += mte::kGranuleSize)
            ASSERT_EQ(mte::ldgTag(Check.Begin + G), Expected);
        }
      }
    }

    // Drain and verify the all-clear state.
    for (Obj &O : Objects)
      while (O.Holders-- > 0)
        Alloc.release(O.Begin, O.Begin + O.Bytes);
    for (const Obj &O : Objects)
      for (uint64_t G = 0; G < O.Bytes; G += mte::kGranuleSize)
        ASSERT_EQ(mte::ldgTag(O.Begin + G), 0);
  }
  mte::MteSystem::instance().reset();
}

INSTANTIATE_TEST_SUITE_P(Seeds, AllocatorFuzz,
                         ::testing::Values(1u, 2u, 3u, 42u, 1337u));

// ---- random in-bounds native work is transparent -------------------------------

class SchemeTransparency : public ::testing::TestWithParam<api::Scheme> {};

TEST_P(SchemeTransparency, RandomInBoundsWorkIsCleanAndCoherent) {
  api::SessionConfig C;
  C.Protection = GetParam();
  api::Session S(C);
  api::ScopedAttach Main(S, "main");
  rt::HandleScope Scope(S.runtime());
  support::Xoshiro256 Rng(99);

  jni::jarray Array = Main.env().NewIntArray(Scope, 128);
  std::vector<jni::jint> Model(128, 0);

  for (int Round = 0; Round < 60; ++Round) {
    rt::callNative(Main.thread(), rt::NativeKind::Regular, "mutate", [&] {
      jni::jboolean IsCopy;
      auto P = Main.env().GetIntArrayElements(Array, &IsCopy);
      for (int Op = 0; Op < 32; ++Op) {
        uint32_t Index = static_cast<uint32_t>(Rng.nextBelow(128));
        jni::jint Value = static_cast<jni::jint>(Rng.next());
        mte::store<jni::jint>(P + Index, Value);
        Model[Index] = Value;
        EXPECT_EQ(mte::load<jni::jint>(P + Index), Value);
      }
      Main.env().ReleaseIntArrayElements(Array, P, 0);
      return 0;
    });
  }
  mte::simulatedSyscall("getuid");

  EXPECT_EQ(S.faults().totalCount(), 0u)
      << api::schemeName(GetParam());
  const auto *Data = rt::arrayData<jni::jint>(Array);
  for (int I = 0; I < 128; ++I)
    ASSERT_EQ(Data[I], Model[I]) << "index " << I;
}

// ---- sync/async parity ---------------------------------------------------------

class SyncAsyncParity : public ::testing::TestWithParam<int> {};

TEST_P(SyncAsyncParity, SameGroundTruthBothModes) {
  // For any OOB offset, sync and async must agree on WHETHER a violation
  // happened and on its ground-truth address — they differ only in when
  // and how it is reported.
  const int Index = GetParam();
  uint64_t SyncAddr = 0, AsyncAddr = 0;
  uint64_t SyncCount = 0, AsyncCount = 0;

  for (api::Scheme Scheme :
       {api::Scheme::Mte4JniSync, api::Scheme::Mte4JniAsync}) {
    api::SessionConfig C;
    C.Protection = Scheme;
    C.Seed = 3;
    api::Session S(C);
    api::ScopedAttach Main(S, "main");
    rt::HandleScope Scope(S.runtime());
    (void)Main.env().NewIntArray(Scope, 64); // pad
    jni::jarray Array = Main.env().NewIntArray(Scope, 18);

    rt::callNative(Main.thread(), rt::NativeKind::Regular, "probe", [&] {
      jni::jboolean IsCopy;
      auto P = Main.env()
                   .GetPrimitiveArrayCritical(Array, &IsCopy)
                   .cast<jni::jint>();
      volatile jni::jint V = mte::load<jni::jint>(P + Index);
      (void)V;
      Main.env().ReleasePrimitiveArrayCritical(Array, P.cast<void>(),
                                               jni::JNI_ABORT);
      return 0;
    });
    mte::simulatedSyscall("getuid");

    auto Faults = S.faults().snapshot();
    if (Scheme == api::Scheme::Mte4JniSync) {
      SyncCount = Faults.size();
      if (!Faults.empty())
        SyncAddr = Faults[0].DebugAddress;
    } else {
      AsyncCount = Faults.size();
      if (!Faults.empty())
        AsyncAddr = Faults[0].DebugAddress;
    }
  }

  EXPECT_EQ(SyncCount, AsyncCount) << "modes disagree on detection";
  if (SyncCount > 0) {
    // Same object layout (same seeds, same allocation sequence): the
    // ground-truth addresses must coincide.
    EXPECT_EQ(SyncAddr, AsyncAddr);
  }
}

INSTANTIATE_TEST_SUITE_P(Indices, SyncAsyncParity,
                         ::testing::Values(0, 17, 19, 21, 64, 256, -4),
                         [](const auto &Info) {
                           int V = Info.param;
                           return std::string(V < 0 ? "m" : "p") +
                                  std::to_string(V < 0 ? -V : V);
                         });

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, SchemeTransparency,
    ::testing::Values(api::Scheme::NoProtection, api::Scheme::GuardedCopy,
                      api::Scheme::Mte4JniSync, api::Scheme::Mte4JniAsync),
    [](const auto &Info) {
      std::string Name = api::schemeName(Info.param);
      for (char &C : Name)
        if (!isalnum(static_cast<unsigned char>(C)))
          C = '_';
      return Name;
    });

} // namespace
