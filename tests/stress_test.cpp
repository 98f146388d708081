//===- stress_test.cpp - Randomised multi-thread stress -------------------------------===//
//
// Part of the MTE4JNI reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// A randomised workload mixing everything at once: several mutator
// threads performing random JNI operations (elements / critical / string
// / regions, nested holds, JNI_COMMIT) on a shared object pool while the
// background GC collects and verifies with correct TCO handling. The
// invariants: zero faults (all accesses in-bounds), data coherence on a
// guarded subset, and clean teardown (no leaked tags, pins or criticals).
//
//===----------------------------------------------------------------------===//

#include "mte4jni/api/Session.h"
#include "mte4jni/mte/Access.h"
#include "mte4jni/mte/Instructions.h"
#include "mte4jni/support/Metrics.h"

#include <gtest/gtest.h>

#include <thread>

namespace {

using namespace mte4jni;
using namespace mte4jni::jni;

struct StressParams {
  api::Scheme Protection;
  bool BackgroundGc;
};

class StressTest : public ::testing::TestWithParam<StressParams> {};

TEST_P(StressTest, RandomisedMixedOperations) {
  api::SessionConfig C;
  C.Protection = GetParam().Protection;
  C.BackgroundGc = GetParam().BackgroundGc;
  C.GcIntervalMillis = 2;
  C.HeapBytes = 64ull << 20;
  api::Session S(C);
  const support::MetricsSnapshot Before = support::Metrics::snapshot();
  api::ScopedAttach Main(S, "main");
  rt::HandleScope Scope(S.runtime());

  constexpr int kArrays = 12;
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 600;

  std::vector<jarray> Arrays;
  for (int I = 0; I < kArrays; ++I)
    Arrays.push_back(Main.env().NewIntArray(Scope, 64 + 32 * (I % 4)));
  jstring Str = Main.env().NewStringUTF(Scope, "stress test string");

  std::atomic<uint64_t> OpsDone{0};
  std::vector<std::thread> Threads;
  for (int T = 0; T < kThreads; ++T) {
    Threads.emplace_back([&, T] {
      api::ScopedAttach Me(S, "stress");
      support::Xoshiro256 Rng(1000 + static_cast<uint64_t>(T));
      for (int Op = 0; Op < kOpsPerThread; ++Op) {
        jarray A = Arrays[Rng.nextBelow(kArrays)];
        uint64_t Kind = Rng.nextBelow(6);
        rt::callNative(Me.thread(), rt::NativeKind::Regular, "stress_op",
                       [&] {
          jboolean IsCopy;
          switch (Kind) {
          case 0: { // elements read
            auto P = Me.env().GetIntArrayElements(A, &IsCopy);
            uint64_t Sum = 0;
            for (uint32_t I = 0; I < A->Length; ++I)
              Sum += static_cast<uint32_t>(mte::load<jint>(P + I));
            Me.env().ReleaseIntArrayElements(A, P, JNI_ABORT);
            asm volatile("" : : "r"(Sum));
            break;
          }
          case 1: { // elements write (values keyed by index: coherent
                    // under concurrent identical writers)
            auto P = Me.env().GetIntArrayElements(A, &IsCopy);
            for (uint32_t I = 0; I < A->Length; ++I)
              mte::store<jint>(P + I, static_cast<jint>(I * 13));
            Me.env().ReleaseIntArrayElements(A, P, 0);
            break;
          }
          case 2: { // critical bulk read
            auto P = Me.env().GetPrimitiveArrayCritical(A, &IsCopy);
            std::vector<jint> Host(A->Length);
            mte::readBytes(Host.data(), P.cast<const void>(),
                           A->Length * sizeof(jint));
            Me.env().ReleasePrimitiveArrayCritical(A, P, JNI_ABORT);
            break;
          }
          case 3: { // nested holds on two arrays
            jarray B = Arrays[Rng.nextBelow(kArrays)];
            auto PA = Me.env().GetIntArrayElements(A, &IsCopy);
            auto PB = Me.env().GetIntArrayElements(B, &IsCopy);
            mte::store<jint>(PA, mte::load<jint>(PB));
            Me.env().ReleaseIntArrayElements(B, PB, JNI_ABORT);
            Me.env().ReleaseIntArrayElements(A, PA, 0);
            break;
          }
          case 4: { // string traffic
            auto P = Me.env().GetStringUTFChars(Str, &IsCopy);
            uint64_t Sum = 0;
            for (ptrdiff_t I = 0;; ++I) {
              char Ch = mte::load(P + I);
              if (!Ch)
                break;
              Sum += static_cast<uint8_t>(Ch);
            }
            Me.env().ReleaseStringUTFChars(Str, P);
            asm volatile("" : : "r"(Sum));
            break;
          }
          case 5: { // region copies (no raw pointers)
            jint Buf[16];
            jsize Start = static_cast<jsize>(
                Rng.nextBelow(A->Length - 16));
            Me.env().GetIntArrayRegion(A, Start, 16, Buf);
            Me.env().SetIntArrayRegion(A, Start, 16, Buf);
            break;
          }
          }
          return 0;
        });
        OpsDone.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto &T : Threads)
    T.join();
  mte::simulatedSyscall("getuid");

  EXPECT_EQ(OpsDone.load(), uint64_t(kThreads) * kOpsPerThread);
  EXPECT_EQ(S.faults().totalCount(), 0u)
      << "in-bounds stress must be fault-free under "
      << api::schemeName(GetParam().Protection);

  // Teardown invariants.
  EXPECT_EQ(S.runtime().criticalDepth(), 0u);
  for (jarray A : Arrays)
    EXPECT_EQ(A->pinCount(), 0u) << "leaked JNI pin";
  if (S.mtePolicy()) {
    const support::MetricsSnapshot After = support::Metrics::snapshot();
    auto Delta = [&](const char *Name) {
      return After.counterValue(Name) - Before.counterValue(Name);
    };
    EXPECT_EQ(Delta("core/tagallocator/acquires"),
              Delta("core/tagallocator/releases"));
    // All tags must be accounted for once everything is released: under
    // the deferred-clear default, released ranges may legitimately linger,
    // so drain the lingering set first — anything still tagged after that
    // is a genuine leak.
    S.mtePolicy()->allocator().reclaimAll();
    for (jarray A : Arrays)
      EXPECT_EQ(mte::ldgTag(A->dataAddress()), 0) << "leaked tag";
  }
}

std::string stressName(const ::testing::TestParamInfo<StressParams> &Info) {
  std::string Name = api::schemeName(Info.param.Protection);
  Name += Info.param.BackgroundGc ? "_gc" : "_nogc";
  for (char &C : Name)
    if (!isalnum(static_cast<unsigned char>(C)))
      C = '_';
  return Name;
}

INSTANTIATE_TEST_SUITE_P(
    Mix, StressTest,
    ::testing::Values(
        StressParams{api::Scheme::NoProtection, false},
        StressParams{api::Scheme::GuardedCopy, false},
        StressParams{api::Scheme::Mte4JniSync, false},
        StressParams{api::Scheme::Mte4JniSync, true},
        StressParams{api::Scheme::Mte4JniAsync, true}),
    stressName);

} // namespace
