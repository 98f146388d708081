//===- concurrent_readers.cpp - Tag sharing across native threads ---------------------===//
//
// Part of the MTE4JNI reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Demonstrates §3.1: many native threads concurrently Get/Release the
// SAME Java array. The reference-counting scheme hands every holder the
// same tag (watch tags generated vs shared), the tag survives until
// the last holder releases, and the two-tier locking keeps the whole
// thing correct under load. A straggler thread that keeps using its
// pointer after releasing gets caught.
//
//===----------------------------------------------------------------------===//

#include "mte4jni/api/Session.h"
#include "mte4jni/support/StringUtils.h"
#include "mte4jni/mte/Access.h"

#include <cstdio>
#include <thread>
#include <vector>

using namespace mte4jni;

int main() {
  api::SessionConfig Config;
  Config.Protection = api::Scheme::Mte4JniSync;
  // This demo shows the paper's exact Algorithm 2: the last holder's
  // release zeroes the granule tags, so the straggler below faults on
  // its first stale use. Under the default deferred tag-clear the tags
  // would legitimately linger past the release (reclaimed at GC/free
  // time), which is precisely the detection window that option trades
  // for pure-CAS release — opt out to keep the clear synchronous.
  Config.DeferredTagClear = false;
  api::Session S(Config);
  api::ScopedAttach Main(S, "main");
  rt::HandleScope Scope(S.runtime());

  constexpr unsigned kThreads = 8;
  constexpr unsigned kIters = 500;
  jni::jintArray Shared = Main.env().NewIntArray(Scope, 1024);
  auto *Data = rt::arrayData<jni::jint>(Shared);
  for (int I = 0; I < 1024; ++I)
    Data[I] = I;

  std::printf("%u threads Get/read/Release the same 1024-int array, %u "
              "times each...\n",
              kThreads, kIters);
  // The allocator counts into the process-wide metrics registry; the
  // numbers below are this phase's share.
  const support::MetricsSnapshot Before = S.metricsSnapshot();

  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < kThreads; ++T) {
    Threads.emplace_back([&S, Shared, T] {
      api::ScopedAttach Me(S, support::format("reader-%u", T));
      uint64_t Sink = 0;
      for (unsigned I = 0; I < kIters; ++I) {
        rt::callNative(Me.thread(), rt::NativeKind::Regular, "reader", [&] {
          jni::jboolean IsCopy;
          auto P = Me.env().GetIntArrayElements(Shared, &IsCopy);
          uint64_t Sum = 0;
          for (int K = 0; K < 1024; ++K)
            Sum += static_cast<uint32_t>(mte::load<jni::jint>(P + K));
          Me.env().ReleaseIntArrayElements(Shared, P, jni::JNI_ABORT);
          Sink += Sum;
          return 0;
        });
      }
      // Keep the loop's reads observable.
      asm volatile("" : : "r"(Sink));
    });
  }
  for (auto &T : Threads)
    T.join();

  const support::MetricsSnapshot After = S.metricsSnapshot();
  auto Count = [&](const char *Name) {
    return static_cast<unsigned long long>(
        After.counterValue(Name) - Before.counterValue(Name));
  };
  std::printf("\nacquires:       %llu\n",
              Count("core/tagallocator/acquires"));
  std::printf("tags generated: %llu  (IRG — first holder of a quiet "
              "object)\n",
              Count("core/tagallocator/tags_generated"));
  std::printf("tags shared:    %llu  (LDG — joined concurrent holders, "
              "§3.1's whole point)\n",
              Count("core/tagallocator/tags_shared"));
  std::printf("tags cleared:   %llu  (last holder released)\n",
              Count("core/tagallocator/tags_cleared"));
  std::printf("faults:         %llu  (expected 0 — concurrent in-bounds "
              "reads are clean)\n",
              static_cast<unsigned long long>(S.faults().totalCount()));

  // Now the misbehaving thread: it releases, keeps the stale tagged
  // pointer, and uses it again. Algorithm 2 zeroed the granule tags, so
  // the stale pointer faults on first use.
  std::printf("\none thread now uses its pointer AFTER releasing...\n");
  rt::callNative(Main.thread(), rt::NativeKind::Regular, "use_after_release",
                 [&] {
                   jni::jboolean IsCopy;
                   auto P = Main.env().GetIntArrayElements(Shared, &IsCopy);
                   Main.env().ReleaseIntArrayElements(Shared, P, 0);
                   // Dangling tagged pointer:
                   mte::store<jni::jint>(P, 0xBAD);
                   return 0;
                 });
  std::printf("faults after use-after-release: %llu (expected 1)\n",
              static_cast<unsigned long long>(S.faults().totalCount()));
  return S.faults().totalCount() == 1 ? 0 : 1;
}
