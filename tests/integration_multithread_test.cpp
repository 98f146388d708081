//===- integration_multithread_test.cpp - Concurrency end-to-end ---------------------===//
//
// Part of the MTE4JNI reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// The §3.1 multi-threading claims, end-to-end through the JNI surface:
// concurrent holders of one array share a tag and never fault; disjoint
// arrays don't interfere; every tag-table kind is correct; mixed
// readers/writers stay coherent; and a misbehaving thread is still caught
// while well-behaved threads run concurrently.
//
//===----------------------------------------------------------------------===//

#include "mte4jni/api/Session.h"
#include "mte4jni/core/TagTable.h"
#include "mte4jni/mte/Access.h"
#include "mte4jni/support/StringUtils.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

namespace {

using namespace mte4jni;
using core::TagTableKind;

struct MtParams {
  api::Scheme Protection;
  TagTableKind Locks;
};

class MultithreadTest : public ::testing::TestWithParam<MtParams> {};

TEST_P(MultithreadTest, ConcurrentReadersOfOneArrayAreClean) {
  api::SessionConfig C;
  C.Protection = GetParam().Protection;
  C.Locks = GetParam().Locks;
  api::Session S(C);
  api::ScopedAttach Main(S, "main");
  rt::HandleScope Scope(S.runtime());

  constexpr int kThreads = 6;
  constexpr int kIters = 300;
  jni::jarray Array = Main.env().NewIntArray(Scope, 512);
  auto *Data = rt::arrayData<jni::jint>(Array);
  for (int I = 0; I < 512; ++I)
    Data[I] = I * 3;

  std::atomic<uint64_t> Total{0};
  std::vector<std::thread> Threads;
  for (int T = 0; T < kThreads; ++T) {
    Threads.emplace_back([&S, Array, &Total] {
      api::ScopedAttach Me(S, "reader");
      uint64_t Local = 0;
      for (int I = 0; I < kIters; ++I) {
        Local += rt::callNative(
            Me.thread(), rt::NativeKind::Regular, "read", [&] {
              jni::jboolean IsCopy;
              auto P = Me.env().GetIntArrayElements(Array, &IsCopy);
              uint64_t Sum = 0;
              for (int K = 0; K < 512; ++K)
                Sum += static_cast<uint32_t>(mte::load<jni::jint>(P + K));
              Me.env().ReleaseIntArrayElements(Array, P, jni::JNI_ABORT);
              return Sum;
            });
      }
      Total.fetch_add(Local);
    });
  }
  for (auto &T : Threads)
    T.join();
  mte::simulatedSyscall("getuid");

  EXPECT_EQ(S.faults().totalCount(), 0u);
  // Every read saw the full, correct array.
  uint64_t PerIter = 0;
  for (int I = 0; I < 512; ++I)
    PerIter += static_cast<uint32_t>(I * 3);
  EXPECT_EQ(Total.load(), PerIter * kThreads * kIters);
}

TEST_P(MultithreadTest, DisjointArraysDoNotInterfere) {
  api::SessionConfig C;
  C.Protection = GetParam().Protection;
  C.Locks = GetParam().Locks;
  api::Session S(C);
  api::ScopedAttach Main(S, "main");
  rt::HandleScope Scope(S.runtime());

  constexpr int kThreads = 6;
  std::vector<jni::jarray> Arrays;
  for (int T = 0; T < kThreads; ++T)
    Arrays.push_back(Main.env().NewIntArray(Scope, 256));

  std::vector<std::thread> Threads;
  std::atomic<int> Failures{0};
  for (int T = 0; T < kThreads; ++T) {
    Threads.emplace_back([&S, &Arrays, &Failures, T] {
      api::ScopedAttach Me(S, "writer");
      jni::jarray Mine = Arrays[static_cast<size_t>(T)];
      for (int I = 0; I < 200; ++I) {
        rt::callNative(Me.thread(), rt::NativeKind::Regular, "write", [&] {
          jni::jboolean IsCopy;
          auto P = Me.env().GetIntArrayElements(Mine, &IsCopy);
          for (int K = 0; K < 256; ++K)
            mte::store<jni::jint>(P + K, T * 1000 + K);
          Me.env().ReleaseIntArrayElements(Mine, P, 0);
          return 0;
        });
      }
      // After all writes, my array must contain exactly my values.
      const auto *Data = rt::arrayData<jni::jint>(Mine);
      for (int K = 0; K < 256; ++K)
        if (Data[K] != T * 1000 + K)
          ++Failures;
    });
  }
  for (auto &T : Threads)
    T.join();
  mte::simulatedSyscall("getuid");

  EXPECT_EQ(Failures.load(), 0);
  EXPECT_EQ(S.faults().totalCount(), 0u);
}

TEST_P(MultithreadTest, OneBadThreadAmongGoodOnes) {
  if (GetParam().Protection == api::Scheme::NoProtection)
    GTEST_SKIP() << "baseline detects nothing by design";

  api::SessionConfig C;
  C.Protection = GetParam().Protection;
  C.Locks = GetParam().Locks;
  api::Session S(C);
  api::ScopedAttach Main(S, "main");
  rt::HandleScope Scope(S.runtime());

  // One array per good thread: their writes and (under guarded copy)
  // copy-backs never touch the same memory.
  constexpr int kGoodThreads = 4;
  std::vector<jni::jarray> Good;
  for (int T = 0; T < kGoodThreads; ++T)
    Good.push_back(Main.env().NewIntArray(Scope, 256));
  jni::jarray Victim = Main.env().NewIntArray(Scope, 16);

  std::vector<std::thread> Threads;
  for (jni::jarray Mine : Good) {
    Threads.emplace_back([&S, Mine] {
      api::ScopedAttach Me(S, "good");
      for (int I = 0; I < 100; ++I) {
        rt::callNative(Me.thread(), rt::NativeKind::Regular, "good", [&] {
          jni::jboolean IsCopy;
          auto P = Me.env().GetIntArrayElements(Mine, &IsCopy);
          for (int K = 0; K < 256; ++K)
            mte::store<jni::jint>(P + K, K);
          Me.env().ReleaseIntArrayElements(Mine, P, 0);
          return 0;
        });
      }
    });
  }
  Threads.emplace_back([&S, Victim] {
    api::ScopedAttach Me(S, "bad");
    rt::callNative(Me.thread(), rt::NativeKind::Regular, "bad", [&] {
      jni::jboolean IsCopy;
      auto P = Me.env().GetIntArrayElements(Victim, &IsCopy);
      if (Me.session().policy().exposesDirectPointers())
        mte::store<jni::jint>(P + 64, 1); // OOB under MTE schemes
      else
        mte::store<jni::jint>(P + 20, 1); // into the red zone
      Me.env().ReleaseIntArrayElements(Victim, P, 0);
      return 0;
    });
  });
  for (auto &T : Threads)
    T.join();
  mte::simulatedSyscall("getuid");

  EXPECT_GE(S.faults().totalCount(), 1u) << "the bad thread must be caught";
}

std::string mtParamName(
    const ::testing::TestParamInfo<MtParams> &Info) {
  std::string Name = api::schemeName(Info.param.Protection);
  Name += '_';
  Name += core::tagTableKindName(Info.param.Locks);
  for (char &C : Name)
    if (!isalnum(static_cast<unsigned char>(C)))
      C = '_';
  return Name;
}

INSTANTIATE_TEST_SUITE_P(
    SchemesAndLocks, MultithreadTest,
    ::testing::Values(
        MtParams{api::Scheme::NoProtection, TagTableKind::TwoTierMutex},
        MtParams{api::Scheme::GuardedCopy, TagTableKind::TwoTierMutex},
        MtParams{api::Scheme::Mte4JniSync, TagTableKind::LockFree},
        MtParams{api::Scheme::Mte4JniSync, TagTableKind::TwoTierMutex},
        MtParams{api::Scheme::Mte4JniSync, TagTableKind::GlobalLock},
        MtParams{api::Scheme::Mte4JniAsync, TagTableKind::LockFree},
        MtParams{api::Scheme::Mte4JniAsync, TagTableKind::TwoTierMutex},
        MtParams{api::Scheme::Mte4JniAsync, TagTableKind::GlobalLock}),
    mtParamName);

} // namespace
