//===- jni_env_test.cpp - The JNI environment surface ---------------------------------===//
//
// Part of the MTE4JNI reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "mte4jni/api/Session.h"
#include "mte4jni/mte/Access.h"
#include "mte4jni/mte/Instructions.h"
#include "mte4jni/mte/MteSystem.h"
#include "mte4jni/rt/JavaString.h"
#include "mte4jni/rt/Trampoline.h"
#include "mte4jni/support/Metrics.h"

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <vector>

namespace {

using namespace mte4jni;
using namespace mte4jni::jni;

class JniEnvTest : public ::testing::Test {
protected:
  void SetUp() override {
    api::SessionConfig C;
    C.Protection = api::Scheme::NoProtection;
    C.HeapBytes = 8 << 20;
    S = std::make_unique<api::Session>(C);
    Main = std::make_unique<api::ScopedAttach>(*S, "main");
    Scope = std::make_unique<rt::HandleScope>(S->runtime());
  }
  void TearDown() override {
    Scope.reset();
    Main.reset();
    S.reset();
  }

  JniEnv &env() { return Main->env(); }

  std::unique_ptr<api::Session> S;
  std::unique_ptr<api::ScopedAttach> Main;
  std::unique_ptr<rt::HandleScope> Scope;
};

TEST_F(JniEnvTest, NewArrayAndLength) {
  jintArray A = env().NewIntArray(*Scope, 37);
  ASSERT_NE(A, nullptr);
  EXPECT_EQ(env().GetArrayLength(A), 37);
  EXPECT_FALSE(env().ExceptionCheck());
}

TEST_F(JniEnvTest, NewArrayNegativeLength) {
  jintArray A = env().NewIntArray(*Scope, -1);
  EXPECT_EQ(A, nullptr);
  EXPECT_TRUE(env().ExceptionCheck());
  EXPECT_NE(env().exceptionMessage().find("NegativeArraySize"),
            std::string::npos);
  env().ExceptionClear();
  EXPECT_FALSE(env().ExceptionCheck());
}

TEST_F(JniEnvTest, AllPrimitiveTypesRoundTrip) {
  // One Get/Set/Region/Elements pass per primitive type.
#define CHECK_TYPE(Name, T, V1, V2)                                           \
  {                                                                            \
    jarray A = env().New##Name##Array(*Scope, 8);                              \
    T Src[8];                                                                  \
    for (int I = 0; I < 8; ++I)                                                \
      Src[I] = static_cast<T>(I % 2 ? V1 : V2);                                \
    env().Set##Name##ArrayRegion(A, 0, 8, Src);                                \
    T Dst[8] = {};                                                             \
    env().Get##Name##ArrayRegion(A, 0, 8, Dst);                                \
    for (int I = 0; I < 8; ++I)                                                \
      EXPECT_EQ(Dst[I], Src[I]);                                               \
    jboolean IsCopy;                                                           \
    auto E = env().Get##Name##ArrayElements(A, &IsCopy);                       \
    EXPECT_EQ(mte::load(E), Src[0]);                                           \
    env().Release##Name##ArrayElements(A, E, 0);                               \
    EXPECT_FALSE(env().ExceptionCheck());                                      \
  }

  CHECK_TYPE(Boolean, jboolean, 1, 0)
  CHECK_TYPE(Byte, jbyte, -7, 9)
  CHECK_TYPE(Char, jchar, 0x1234, 0x00FF)
  CHECK_TYPE(Short, jshort, -1000, 2000)
  CHECK_TYPE(Int, jint, -123456, 654321)
  CHECK_TYPE(Long, jlong, -5000000000LL, 7000000000LL)
  CHECK_TYPE(Float, jfloat, 1.5f, -2.25f)
  CHECK_TYPE(Double, jdouble, 3.5, -4.75)
#undef CHECK_TYPE
}

TEST_F(JniEnvTest, RegionBoundsChecked) {
  jintArray A = env().NewIntArray(*Scope, 10);
  jint Buf[10] = {};

  env().GetIntArrayRegion(A, 0, 10, Buf);
  EXPECT_FALSE(env().ExceptionCheck());

  env().GetIntArrayRegion(A, 5, 6, Buf); // start+len > length
  EXPECT_TRUE(env().ExceptionCheck());
  EXPECT_NE(env().exceptionMessage().find("ArrayIndexOutOfBounds"),
            std::string::npos);
  env().ExceptionClear();

  env().SetIntArrayRegion(A, -1, 2, Buf); // negative start
  EXPECT_TRUE(env().ExceptionCheck());
  env().ExceptionClear();

  env().GetIntArrayRegion(A, 0, -3, Buf); // negative length
  EXPECT_TRUE(env().ExceptionCheck());
  env().ExceptionClear();

  // Bounds errors land in the fault log as JNI check errors.
  EXPECT_EQ(S->faults().countOf(mte::FaultKind::JniCheckError), 3u);
}

TEST_F(JniEnvTest, TypeMismatchRejected) {
  jintArray A = env().NewIntArray(*Scope, 4);
  jboolean IsCopy;
  auto E = env().GetLongArrayElements(A, &IsCopy); // wrong element type
  EXPECT_TRUE(E.isNull());
  EXPECT_TRUE(env().ExceptionCheck());
  env().ExceptionClear();
}

TEST_F(JniEnvTest, NullArrayRejected) {
  jboolean IsCopy;
  auto E = env().GetIntArrayElements(nullptr, &IsCopy);
  EXPECT_TRUE(E.isNull());
  EXPECT_TRUE(env().ExceptionCheck());
  EXPECT_NE(env().exceptionMessage().find("NullPointerException"),
            std::string::npos);
  env().ExceptionClear();

  EXPECT_EQ(env().GetArrayLength(nullptr), -1);
  env().ExceptionClear();
}

TEST_F(JniEnvTest, GetElementsPinsObject) {
  jintArray A = env().NewIntArray(*Scope, 4);
  EXPECT_EQ(A->pinCount(), 0u);
  jboolean IsCopy;
  auto E = env().GetIntArrayElements(A, &IsCopy);
  EXPECT_EQ(A->pinCount(), 1u);
  auto E2 = env().GetIntArrayElements(A, &IsCopy);
  EXPECT_EQ(A->pinCount(), 2u);
  env().ReleaseIntArrayElements(A, E2, 0);
  env().ReleaseIntArrayElements(A, E, 0);
  EXPECT_EQ(A->pinCount(), 0u);
}

TEST_F(JniEnvTest, JniCommitKeepsPinAndBuffer) {
  jintArray A = env().NewIntArray(*Scope, 4);
  jboolean IsCopy;
  auto E = env().GetIntArrayElements(A, &IsCopy);
  mte::store<jint>(E, 77);
  env().ReleaseIntArrayElements(A, E, JNI_COMMIT);
  EXPECT_EQ(A->pinCount(), 1u) << "JNI_COMMIT keeps the buffer live";
  EXPECT_EQ(rt::arrayData<jint>(A)[0], 77);
  mte::store<jint>(E, 88);
  env().ReleaseIntArrayElements(A, E, 0);
  EXPECT_EQ(A->pinCount(), 0u);
  EXPECT_EQ(rt::arrayData<jint>(A)[0], 88);
}

TEST_F(JniEnvTest, CriticalTracksRuntimeDepth) {
  jintArray A = env().NewIntArray(*Scope, 4);
  jboolean IsCopy;
  EXPECT_EQ(S->runtime().criticalDepth(), 0u);
  auto P = env().GetPrimitiveArrayCritical(A, &IsCopy);
  EXPECT_EQ(S->runtime().criticalDepth(), 1u);
  env().ReleasePrimitiveArrayCritical(A, P, 0);
  EXPECT_EQ(S->runtime().criticalDepth(), 0u);
}

// A Release*Critical with no open Get*Critical on its env is a CheckJNI
// error that touches nothing. Inside a native call the runtime's critical
// depth is already 1 (the trampoline's bracket), so only the env's own
// count can tell a stray release from a matched one. Let through, the
// stray release would drop a pin the env does not hold and, with it, the
// trampoline's claim, leaving the rest of the body outside the bracket.
TEST(JniEnvCritical, StrayCriticalReleasesInsideNativeCallAreErrors) {
  api::SessionConfig C;
  C.Protection = api::Scheme::Mte4JniSync;
  C.HeapBytes = 8 << 20;
  api::Session S(C);
  api::ScopedAttach Main(S, "main");
  rt::HandleScope Scope(S.runtime());
  JniEnv &Env = Main.env();
  jintArray A = Env.NewIntArray(Scope, 16);
  jstring Str = Env.NewStringUTF(Scope, "stray");

  rt::callNative(Main.thread(), rt::NativeKind::Regular, "stray", [&] {
    jboolean IsCopy;
    // A pin of A taken through another interface: the stray critical
    // release must not steal it.
    auto Elems = Env.GetIntArrayElements(A, &IsCopy);
    ASSERT_EQ(A->pinCount(), 1u);

    Env.ReleasePrimitiveArrayCritical(A, Elems.cast<void>(), 0);
    EXPECT_TRUE(Env.ExceptionCheck());
    EXPECT_NE(Env.exceptionMessage().find("critical"), std::string::npos);
    Env.ExceptionClear();
    EXPECT_EQ(A->pinCount(), 1u) << "the stray release took a pin";
    EXPECT_EQ(S.runtime().criticalDepth(), 1u)
        << "the stray release dropped the trampoline's claim";

    Env.ReleaseStringCritical(
        Str, mte::TaggedPtr<const jchar>::fromRaw(rt::stringChars(Str)));
    EXPECT_TRUE(Env.ExceptionCheck());
    EXPECT_NE(Env.exceptionMessage().find("critical"), std::string::npos);
    Env.ExceptionClear();
    EXPECT_EQ(Str->pinCount(), 0u);
    EXPECT_EQ(S.runtime().criticalDepth(), 1u);

    Env.ReleaseIntArrayElements(A, Elems, 0);
    EXPECT_EQ(A->pinCount(), 0u);
  });
  EXPECT_EQ(S.runtime().criticalDepth(), 0u);

  // The next native call works: a matched critical nests and unwinds.
  rt::callNative(Main.thread(), rt::NativeKind::Regular, "after", [&] {
    jboolean IsCopy;
    auto P = Env.GetPrimitiveArrayCritical(A, &IsCopy).cast<jint>();
    EXPECT_EQ(S.runtime().criticalDepth(), 2u);
    mte::store<jint>(P + 3, 33);
    Env.ReleasePrimitiveArrayCritical(A, P.cast<void>(), 0);
    EXPECT_FALSE(Env.ExceptionCheck());
    EXPECT_EQ(S.runtime().criticalDepth(), 1u);
  });
  EXPECT_EQ(rt::arrayData<jint>(A)[3], 33);
  EXPECT_EQ(A->pinCount(), 0u);
}

TEST_F(JniEnvTest, StringCreationAndQueries) {
  jstring Str = env().NewStringUTF(*Scope, "hello");
  ASSERT_NE(Str, nullptr);
  EXPECT_EQ(env().GetStringLength(Str), 5);
  EXPECT_EQ(env().GetStringUTFLength(Str), 5);

  jchar Units[] = {'a', 0x20AC}; // "a€"
  jstring Str2 = env().NewString(*Scope, Units, 2);
  EXPECT_EQ(env().GetStringLength(Str2), 2);
  EXPECT_EQ(env().GetStringUTFLength(Str2), 4); // 1 + 3 bytes
}

TEST_F(JniEnvTest, GetStringCharsDirect) {
  jstring Str = env().NewStringUTF(*Scope, "abc");
  jboolean IsCopy;
  auto Chars = env().GetStringChars(Str, &IsCopy);
  EXPECT_EQ(IsCopy, JNI_FALSE); // no-protection: direct
  EXPECT_EQ(mte::load(Chars), 'a');
  EXPECT_EQ(mte::load(Chars + 2), 'c');
  env().ReleaseStringChars(Str, Chars);
}

TEST_F(JniEnvTest, GetStringUTFCharsIsNulTerminatedCopy) {
  jstring Str = env().NewStringUTF(*Scope, "xyz");
  jboolean IsCopy;
  auto Utf = env().GetStringUTFChars(Str, &IsCopy);
  EXPECT_EQ(IsCopy, JNI_TRUE);
  EXPECT_EQ(mte::load(Utf), 'x');
  EXPECT_EQ(mte::load(Utf + 3), '\0');
  env().ReleaseStringUTFChars(Str, Utf);
}

TEST_F(JniEnvTest, ReleaseUTFCharsWithBogusPointer) {
  jstring Str = env().NewStringUTF(*Scope, "xyz");
  char Bogus[4];
  env().ReleaseStringUTFChars(
      Str, mte::TaggedPtr<const char>::fromRaw(Bogus, 0));
  EXPECT_TRUE(env().ExceptionCheck());
  env().ExceptionClear();
}

TEST_F(JniEnvTest, StringCriticalBlocksGcLikeArrayCritical) {
  jstring Str = env().NewStringUTF(*Scope, "critical");
  jboolean IsCopy;
  auto P = env().GetStringCritical(Str, &IsCopy);
  EXPECT_EQ(S->runtime().criticalDepth(), 1u);
  EXPECT_EQ(mte::load(P), 'c');
  env().ReleaseStringCritical(Str, P);
  EXPECT_EQ(S->runtime().criticalDepth(), 0u);
}

TEST_F(JniEnvTest, NewStringUTFNullRejected) {
  jstring Str = env().NewStringUTF(*Scope, nullptr);
  EXPECT_EQ(Str, nullptr);
  EXPECT_TRUE(env().ExceptionCheck());
  env().ExceptionClear();
}

TEST_F(JniEnvTest, StringOnArrayInterfaceRejected) {
  jstring Str = env().NewStringUTF(*Scope, "notanarray");
  jboolean IsCopy;
  auto E = env().GetIntArrayElements(Str, &IsCopy);
  EXPECT_TRUE(E.isNull());
  EXPECT_TRUE(env().ExceptionCheck());
  env().ExceptionClear();
}

// ==== jni::PinnedStringChars and mte::rangeTagsMatch ======================

api::SessionConfig pinnedViewConfig(api::Scheme Protection) {
  api::SessionConfig C;
  C.Protection = Protection;
  C.HeapBytes = 8 << 20;
  return C;
}

/// Fault records appended by \p Read, after a simulated syscall drains any
/// async fault it latched.
template <typename Fn> std::vector<mte::FaultRecord> faultsOf(Fn &&Read) {
  mte::FaultLog &Log = mte::MteSystem::instance().faultLog();
  Log.clear();
  Read();
  mte::simulatedSyscall("getuid");
  return Log.snapshot();
}

void expectSameFaults(const std::vector<mte::FaultRecord> &View,
                      const std::vector<mte::FaultRecord> &Load,
                      const char *Where) {
  ASSERT_EQ(View.size(), Load.size()) << Where;
  for (size_t K = 0; K < View.size(); ++K) {
    EXPECT_EQ(View[K].Kind, Load[K].Kind) << Where;
    EXPECT_EQ(View[K].HasAddress, Load[K].HasAddress) << Where;
    EXPECT_EQ(View[K].Address, Load[K].Address) << Where;
    EXPECT_EQ(View[K].DebugAddress, Load[K].DebugAddress) << Where;
    EXPECT_EQ(View[K].AccessSize, Load[K].AccessSize) << Where;
  }
}

// Every index class reads the same value and raises the same faults
// through the view as through a per-access checked load: in range (a raw
// read after the constructor's scan), the sub-granule tail (a read MTE's
// 16-byte granule cannot see), the first char past the granule extent and
// a far overread (both caught).
TEST(PinnedStringChars, IndexClassesMatchPerAccessLoads) {
  for (api::Scheme Protection :
       {api::Scheme::Mte4JniSync, api::Scheme::Mte4JniAsync}) {
    SCOPED_TRACE(api::schemeName(Protection));
    api::Session S(pinnedViewConfig(Protection));
    api::ScopedAttach Main(S, "main");
    rt::HandleScope Scope(S.runtime());
    JniEnv &Env = Main.env();
    // 13 chars = 26 bytes: granule extent 32 bytes, so chars 13-15 are the
    // sub-granule tail and char 16 is the first past it. The pad keeps the
    // far overread inside the heap.
    jstring Str = Env.NewStringUTF(Scope, "thirteen char");
    ASSERT_NE(Env.NewIntArray(Scope, 1024), nullptr);
    struct IndexClass {
      const char *Name;
      jsize Index;
      bool Faults;
    };
    const IndexClass Classes[] = {{"first", 0, false},
                                  {"in range", 7, false},
                                  {"last", 12, false},
                                  {"sub-granule tail", 13, false},
                                  {"tail end", 15, false},
                                  {"first past the granule extent", 16, true},
                                  {"far", 600, true}};

    rt::callNative(Main.thread(), rt::NativeKind::Regular, "view", [&] {
      for (const IndexClass &C : Classes) {
        SCOPED_TRACE(C.Name);
        jchar ViewValue = 0, LoadValue = 0;
        bool Matched = false;
        auto ViewFaults = faultsOf([&] {
          PinnedStringChars View(Env, Str);
          Matched = View.scanMatched();
          ViewValue = View.at(C.Index);
        });
        auto LoadFaults = faultsOf([&] {
          jboolean IsCopy;
          auto Chars = Env.GetStringCritical(Str, &IsCopy);
          LoadValue = mte::load<const jchar>(Chars + C.Index);
          Env.ReleaseStringCritical(Str, Chars);
        });
        EXPECT_TRUE(Matched);
        EXPECT_EQ(ViewValue, LoadValue);
        if (C.Index < 13) {
          EXPECT_EQ(ViewValue, jchar("thirteen char"[C.Index]));
        }
        EXPECT_EQ(LoadFaults.size(), C.Faults ? 1u : 0u);
        expectSameFaults(ViewFaults, LoadFaults, C.Name);
      }
      return 0;
    });
    EXPECT_FALSE(Env.ExceptionCheck());
  }
}

// A view whose scan did not match checks every read, in range too: with
// one granule of a held string retagged, the reads in that granule fault
// through the view exactly as through per-access loads, and the scan
// itself delivered nothing.
TEST(PinnedStringChars, MismatchedScanChecksEveryRead) {
  api::Session S(pinnedViewConfig(api::Scheme::Mte4JniSync));
  api::ScopedAttach Main(S, "main");
  rt::HandleScope Scope(S.runtime());
  JniEnv &Env = Main.env();
  jstring Str = Env.NewStringUTF(Scope, "thirteen char");

  rt::callNative(Main.thread(), rt::NativeKind::Regular, "retagged", [&] {
    jboolean IsCopy;
    auto Held = Env.GetStringCritical(Str, &IsCopy);
    // Chars 8-12 live in the second granule.
    const uint64_t Second = Held.address() + mte::kGranuleSize;
    const mte::TagValue Other = (Held.tag() % 15) + 1;
    mte::setTagRange(mte::TaggedPtr<void>::fromRaw(
                         reinterpret_cast<void *>(Second), Other),
                     mte::kGranuleSize);

    mte::FaultLog &Log = mte::MteSystem::instance().faultLog();
    Log.clear();
    {
      PinnedStringChars View(Env, Str);
      EXPECT_FALSE(View.scanMatched());
      EXPECT_TRUE(Log.empty()) << "the scan delivered a fault";
      for (jsize I = 0; I < 13; ++I) {
        SCOPED_TRACE(I);
        jchar ViewValue = 0;
        auto ViewFaults = faultsOf([&] { ViewValue = View.at(I); });
        auto LoadFaults = faultsOf([&] {
          EXPECT_EQ(mte::load<const jchar>(Held + I), ViewValue);
        });
        EXPECT_EQ(LoadFaults.size(), I >= 8 ? 1u : 0u);
        expectSameFaults(ViewFaults, LoadFaults, "retagged granule");
      }
    }
    mte::setTagRange(mte::TaggedPtr<void>::fromRaw(
                         reinterpret_cast<void *>(Second), Held.tag()),
                     mte::kGranuleSize);
    Env.ReleaseStringCritical(Str, Held);
    return 0;
  });
  EXPECT_FALSE(Env.ExceptionCheck());
}

// The predicate is silent: a mismatching tag reads false without a fault
// record or a sync-fault count, it counts as one checked range read, and
// it reads true whenever the thread's checks are off.
TEST(PinnedStringChars, RangeTagsMatchIsSilentAndTrueWithChecksOff) {
  api::Session S(pinnedViewConfig(api::Scheme::Mte4JniSync));
  api::ScopedAttach Main(S, "main");
  rt::HandleScope Scope(S.runtime());
  JniEnv &Env = Main.env();
  jarray A = Env.NewIntArray(Scope, 64);
  const uint64_t Bytes = 64 * sizeof(jint);
  jboolean IsCopy;

  mte::TaggedPtr<const void> Wrong;
  rt::callNative(Main.thread(), rt::NativeKind::Regular, "predicate", [&] {
    auto P = Env.GetIntArrayElements(A, &IsCopy).cast<const void>();
    Wrong = P.withTag((P.tag() % 15) + 1);
    mte::FaultLog &Log = mte::MteSystem::instance().faultLog();
    Log.clear();
    support::MetricsSnapshot Before = support::Metrics::snapshot();

    EXPECT_TRUE(mte::rangeTagsMatch(P, Bytes));
    EXPECT_FALSE(mte::rangeTagsMatch(Wrong, Bytes));
    // Only the last granule mismatches.
    EXPECT_FALSE(mte::rangeTagsMatch(P, Bytes + 1));

    support::MetricsSnapshot After = support::Metrics::snapshot();
    EXPECT_TRUE(Log.empty());
    EXPECT_EQ(After.counterValue("mte/access/checked_loads") -
                  Before.counterValue("mte/access/checked_loads"),
              3u);
    EXPECT_EQ(After.counterValue("mte/access/mismatch_sync"),
              Before.counterValue("mte/access/mismatch_sync"));
    Env.ReleaseIntArrayElements(A, P.cast<jint>(), JNI_ABORT);
    return 0;
  });
  // Outside a native call the thread's checks are off (TCO set).
  EXPECT_FALSE(mte::ThreadState::current().checksOn());
  EXPECT_TRUE(mte::rangeTagsMatch(Wrong, Bytes));
  EXPECT_FALSE(Env.ExceptionCheck());
}

// The view's destructor is its Release: after its scope the string is
// unpinned and the env has no critical open, so a stray
// ReleaseStringCritical is still the CheckJNI error it always was.
TEST(PinnedStringChars, ScopeEndReleasesThePinAndTheCritical) {
  api::Session S(pinnedViewConfig(api::Scheme::Mte4JniSync));
  api::ScopedAttach Main(S, "main");
  rt::HandleScope Scope(S.runtime());
  JniEnv &Env = Main.env();
  jstring Str = Env.NewStringUTF(Scope, "scoped");

  rt::callNative(Main.thread(), rt::NativeKind::Regular, "scoped", [&] {
    mte::TaggedPtr<const jchar> Chars;
    {
      PinnedStringChars View(Env, Str);
      Chars = View.data();
      EXPECT_EQ(View.length(), 6);
      EXPECT_EQ(View.at(0), jchar('s'));
      EXPECT_EQ(Str->pinCount(), 1u);
      EXPECT_EQ(S.runtime().criticalDepth(), 2u);
    }
    EXPECT_EQ(Str->pinCount(), 0u);
    EXPECT_EQ(S.runtime().criticalDepth(), 1u);
    EXPECT_FALSE(Env.ExceptionCheck());

    Env.ReleaseStringCritical(Str, Chars);
    EXPECT_TRUE(Env.ExceptionCheck());
    EXPECT_NE(Env.exceptionMessage().find("critical"), std::string::npos);
    Env.ExceptionClear();
    EXPECT_EQ(S.runtime().criticalDepth(), 1u);
    return 0;
  });
}

// A view held across safepoint polls while a background collector with
// VerifyObjectBodies on collects: the pin keeps the string in place and
// its tags fixed, the verify pass reads it with TCO set, and every read
// stays correct with no fault.
TEST(PinnedStringChars, HeldAcrossSafepointPollsWhileTheCollectorVerifies) {
  api::SessionConfig C = pinnedViewConfig(api::Scheme::Mte4JniSync);
  C.BackgroundGc = true;
  C.GcIntervalMillis = 1;
  C.GcVerifiesBodies = true;
  api::Session S(C);
  ASSERT_TRUE(S.runtime().config().Gc.VerifyObjectBodies);
  api::ScopedAttach Main(S, "main");
  rt::HandleScope Scope(S.runtime());
  JniEnv &Env = Main.env();
  std::string Text;
  for (unsigned I = 0; I < 4096; ++I)
    Text += static_cast<char>('a' + (I * 7) % 26);
  jstring Str = Env.NewStringUTF(Scope, Text.c_str());
  mte::MteSystem::instance().faultLog().clear();

  const uint64_t CyclesBefore = S.runtime().gc().completedCycles();
  rt::callNative(Main.thread(), rt::NativeKind::Regular, "held", [&] {
    PinnedStringChars View(Env, Str);
    EXPECT_TRUE(View.scanMatched());
    const auto Deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    unsigned Passes = 0;
    while (S.runtime().gc().completedCycles() < CyclesBefore + 3 &&
           std::chrono::steady_clock::now() < Deadline) {
      for (jsize I = 0; I < View.length(); ++I) {
        if ((I & 63) == 0)
          S.runtime().safepointPoll();
        ASSERT_EQ(View.at(I), jchar(Text[static_cast<size_t>(I)]))
            << "pass " << Passes << ", char " << I;
      }
      ++Passes;
    }
  });
  EXPECT_GE(S.runtime().gc().completedCycles(), CyclesBefore + 3)
      << "no collection ran while the view was held";
  EXPECT_TRUE(mte::MteSystem::instance().faultLog().empty());
  EXPECT_EQ(Str->pinCount(), 0u);
}

} // namespace
