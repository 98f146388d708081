//===- rt_safepoint_test.cpp - Safepoint handshake semantics ---------------------------===//
//
// Part of the MTE4JNI reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// The stop-the-world contract (DESIGN.md §11): a mutator inside a
// rt::callNative body holds off the GC pause until it reaches a
// checkpoint; once the pause is granted the world is actually stopped
// (zero payload writes land while it holds); time-to-safepoint is
// observable in rt/gc/ttsp_nanos; and the OOM-retry path in the object
// factory returns null instead of rooting a dead allocation. Runs under
// TSan in CI.
//
//===----------------------------------------------------------------------===//

#include "mte4jni/rt/Runtime.h"
#include "mte4jni/rt/Trampoline.h"
#include "mte4jni/support/Metrics.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

namespace {

using namespace mte4jni;
using namespace mte4jni::rt;

RuntimeConfig plainConfig() {
  RuntimeConfig C;
  C.Heap.CapacityBytes = 16 << 20;
  return C;
}

// A thread parked inside a native method body (no checkpoint) must block
// the pause; the collector may only finish after the body exits.
TEST(RtSafepoint, NativeCallBlocksPauseUntilBodyExits) {
  Runtime RT(plainConfig());

  std::atomic<bool> InBody{false};
  std::atomic<bool> ReleaseBody{false};
  std::atomic<bool> GcDone{false};

  std::thread Mutator([&] {
    JavaThread &Self = RT.attachCurrentThread("mutator");
    callNative(Self, NativeKind::Regular, "parked_native", [&] {
      InBody.store(true);
      // Deliberately no safepointPoll(): this body never reaches a
      // checkpoint, so the world cannot stop while it runs.
      while (!ReleaseBody.load())
        std::this_thread::yield();
      return 0;
    });
    RT.detachCurrentThread();
  });
  while (!InBody.load())
    std::this_thread::yield();

  std::thread Collector([&] {
    RT.attachCurrentThread("gc", ThreadKind::GcSupport);
    RT.gc().collect();
    GcDone.store(true);
    RT.detachCurrentThread();
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(GcDone.load())
      << "the pause began while a native body held the world";

  ReleaseBody.store(true);
  Mutator.join();
  Collector.join();
  EXPECT_TRUE(GcDone.load());
}

// A long native section that does poll lets the pause through promptly:
// the collector finishes while the body is still running.
TEST(RtSafepoint, SafepointPollUnblocksPauseMidBody) {
  Runtime RT(plainConfig());

  support::MetricsSnapshot Before = support::Metrics::snapshot();
  std::atomic<bool> InBody{false};
  std::atomic<bool> GcDone{false};

  std::thread Mutator([&] {
    JavaThread &Self = RT.attachCurrentThread("scanner");
    callNative(Self, NativeKind::Regular, "polling_scan", [&] {
      InBody.store(true);
      // Model a long per-char scan: checkpoint every iteration until the
      // collector reports completion — the body is still mid-"scan" when
      // the world stops.
      while (!GcDone.load()) {
        RT.safepointPoll();
        std::this_thread::yield();
      }
      return 0;
    });
    RT.detachCurrentThread();
  });
  while (!InBody.load())
    std::this_thread::yield();

  std::thread Collector([&] {
    RT.attachCurrentThread("gc", ThreadKind::GcSupport);
    RT.gc().collect();
    GcDone.store(true);
    RT.detachCurrentThread();
  });
  Collector.join();
  Mutator.join();

  EXPECT_TRUE(GcDone.load());
  EXPECT_GT(RT.gc().completedCycles(), 0u);
  support::MetricsSnapshot After = support::Metrics::snapshot();
  EXPECT_GT(After.counterValue("rt/gc/safepoint_blocks"),
            Before.counterValue("rt/gc/safepoint_blocks"))
      << "the poll must have taken its parking slow path at least once";
}

// The granted pause actually stops the world: with writer threads
// hammering payloads through callNative, two checksums taken inside one
// pause window must be identical.
TEST(RtSafepoint, PausedWorldSeesNoPayloadWrites) {
  Runtime RT(plainConfig());
  RT.attachCurrentThread("main");
  {
    HandleScope Scope(RT);
    constexpr unsigned kWriters = 4;
    constexpr unsigned kLen = 512;
    std::vector<ObjectHeader *> Arrays;
    for (unsigned W = 0; W < kWriters; ++W)
      Arrays.push_back(RT.newPrimArray(Scope, PrimType::Int, kLen));

    std::atomic<bool> Stop{false};
    std::atomic<uint32_t> Running{0};
    std::vector<std::thread> Writers;
    for (unsigned W = 0; W < kWriters; ++W)
      Writers.emplace_back([&, W] {
        JavaThread &Self = RT.attachCurrentThread("writer");
        Running.fetch_add(1);
        uint32_t Tick = 1;
        while (!Stop.load()) {
          callNative(Self, NativeKind::Regular, "writer", [&] {
            int32_t *Data = arrayData<int32_t>(Arrays[W]);
            for (unsigned I = 0; I < kLen; ++I)
              Data[I] = static_cast<int32_t>(Tick + I);
            return 0;
          });
          ++Tick;
        }
        RT.detachCurrentThread();
      });
    while (Running.load() != kWriters)
      std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));

    auto ChecksumAll = [&] {
      uint64_t Sum = 0;
      for (ObjectHeader *A : Arrays) {
        const int32_t *Data = arrayData<int32_t>(A);
        for (unsigned I = 0; I < kLen; ++I)
          Sum = Sum * 1099511628211ull + static_cast<uint32_t>(Data[I]);
      }
      return Sum;
    };

    for (int Round = 0; Round < 5; ++Round) {
      RT.beginPause();
      uint64_t First = ChecksumAll();
      // Give any in-flight writer ample time to land a write if the
      // handshake were leaky.
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      uint64_t Second = ChecksumAll();
      RT.endPause();
      EXPECT_EQ(First, Second)
          << "a payload write landed inside the paused window";
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }

    Stop.store(true);
    for (auto &Th : Writers)
      Th.join();
  }
  RT.detachCurrentThread();
}

// Time-to-safepoint is measured and visible: a mutator holding a critical
// section for ~10ms forces a pause request to wait, and the wait shows up
// in the rt/gc/ttsp_nanos histogram.
TEST(RtSafepoint, TtspRecordsLongCriticalHoldout) {
  Runtime RT(plainConfig());
  support::MetricsSnapshot Before = support::Metrics::snapshot();
  const support::HistogramSample *TtspBefore =
      Before.histogram("rt/gc/ttsp_nanos");
  const uint64_t CountBefore = TtspBefore ? TtspBefore->Count : 0;
  const uint64_t SumBefore = TtspBefore ? TtspBefore->Sum : 0;

  std::atomic<bool> InCritical{false};
  std::atomic<bool> PauseRequested{false};
  std::thread Holder([&] {
    RT.attachCurrentThread("holder");
    RT.enterCritical();
    InCritical.store(true);
    // Hold ~10ms from the pause request, not from entry: on a loaded host
    // the collector can be descheduled for longer than a fixed hold, and
    // then it requests the pause after the holder has already left.
    while (!PauseRequested.load())
      std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    RT.exitCritical();
    RT.detachCurrentThread();
  });
  while (!InCritical.load())
    std::this_thread::yield();

  RT.attachCurrentThread("gc", ThreadKind::GcSupport);
  PauseRequested.store(true);
  RT.beginPause(); // blocks until Holder drains: ttsp ~= the hold time
  RT.endPause();
  RT.detachCurrentThread();
  Holder.join();

  support::MetricsSnapshot After = support::Metrics::snapshot();
  const support::HistogramSample *Ttsp =
      After.histogram("rt/gc/ttsp_nanos");
  ASSERT_NE(Ttsp, nullptr);
  EXPECT_EQ(Ttsp->Count, CountBefore + 1);
  EXPECT_GE(Ttsp->Sum - SumBefore, 5'000'000u)
      << "a ~10ms critical holdout must show up as >=5ms of ttsp";
}

// Regression: the OOM-retry path in the object factory used to root the
// null result of a failed post-collect allocation. With every byte of the
// heap rooted, the retry's collect() reclaims nothing and the factory must
// return null — not crash, not root a tombstone.
TEST(RtSafepoint, OomRetryReturnsNullInsteadOfRootingIt) {
  RuntimeConfig C;
  C.Heap.CapacityBytes = 1 << 20;
  Runtime RT(C);
  RT.attachCurrentThread("main");
  {
    HandleScope Scope(RT);
    unsigned Allocated = 0;
    for (;;) {
      ObjectHeader *Obj = RT.newPrimArray(Scope, PrimType::Int, 1024);
      if (!Obj)
        break; // OutOfMemoryError: heap exhausted, everything rooted
      ++Allocated;
      ASSERT_LT(Allocated, 4096u) << "a 1MiB heap cannot hold this many";
    }
    EXPECT_GT(Allocated, 0u);
    // The failed attempt must not have rooted a null.
    for (ObjectHeader *Root : Scope.roots())
      EXPECT_NE(Root, nullptr);
    EXPECT_EQ(Scope.roots().size(), Allocated);

    // Same contract for ref arrays.
    EXPECT_EQ(RT.newRefArray(Scope, 4096), nullptr);
    EXPECT_EQ(Scope.roots().size(), Allocated);
  }
  RT.detachCurrentThread();
}

} // namespace
