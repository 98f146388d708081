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
// observable in rt/gc/ttsp_nanos; the recorded pause ends no later than
// parked mutators resume; every attached thread's claim is
// drained, including threads that attach and detach mid-run and threads
// that exit without detaching; and the OOM-retry path in the object
// factory returns null instead of rooting a dead allocation. Runs under
// TSan, ASan and UBSan in CI.
//
//===----------------------------------------------------------------------===//

#include "mte4jni/rt/Runtime.h"
#include "mte4jni/rt/Trampoline.h"
#include "mte4jni/support/Metrics.h"
#include "mte4jni/support/TraceRing.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <optional>
#include <string>
#include <thread>
#include <utility>
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

/// Start and end, in microseconds as the flight export prints them, of
/// every \p Name slice in \p Json.
std::vector<std::pair<double, double>> flightSlices(const std::string &Json,
                                                    const char *Name) {
  std::vector<std::pair<double, double>> Slices;
  const std::string Key = std::string("\"name\":\"") + Name + "\"";
  for (size_t At = Json.find(Key); At != std::string::npos;
       At = Json.find(Key, At + 1)) {
    size_t Ts = Json.find("\"ts\":", At);
    size_t Dur = Json.find("\"dur\":", At);
    if (Ts == std::string::npos || Dur == std::string::npos)
      break;
    double Start = std::strtod(Json.c_str() + Ts + 5, nullptr);
    Slices.emplace_back(Start,
                        Start + std::strtod(Json.c_str() + Dur + 6, nullptr));
  }
  return Slices;
}

// The recorded pause ends when the world restarts, not when the collector
// has finished waking it: every mutator parked at safepointPoll resumes no
// earlier than the end of its pause's GC.pause slice (which rt/gc/
// pause_nanos records too). A poll is matched to the pause it parked for
// through that pause's GC.ttsp slice: the world drained at the slice's end,
// and a mutator held inside a native body drains only while parked, so its
// parked poll is the one that spans that instant.
TEST(RtSafepoint, ParkedMutatorsResumeNoEarlierThanTheRecordedPauseEnd) {
  Runtime RT(plainConfig());
  support::obs::setLevel(1); // GC phase slices are recorded from level 1
  support::FlightRecorder::clear();

  // With four mutators a small host has no idle CPU when the pause ends,
  // so the woken mutators compete with the collector (the old pause end
  // then came after some of them resumed). 200 pauses fit in the
  // collector's flight ring, at six GC slices each.
  constexpr unsigned kMutators = 4;
  constexpr unsigned kPauses = 200;
  // A poll that parks takes the pause's own work plus a futex wake; one
  // that does not returns in tens of nanoseconds. Keep only the long ones.
  constexpr uint64_t kParkedNanos = 1000;
  struct Poll {
    uint64_t Before, After;
  };
  std::vector<std::vector<Poll>> Polls(kMutators);
  std::atomic<unsigned> InBody{0};
  std::atomic<bool> Stop{false};
  std::vector<std::thread> Mutators;
  for (unsigned M = 0; M < kMutators; ++M)
    Mutators.emplace_back([&, M] {
      JavaThread &Self = RT.attachCurrentThread("poller");
      callNative(Self, NativeKind::Regular, "polling_loop", [&] {
        InBody.fetch_add(1);
        while (!Stop.load()) {
          uint64_t Before = support::monotonicNanos();
          RT.safepointPoll();
          uint64_t After = support::monotonicNanos();
          if (After - Before >= kParkedNanos)
            Polls[M].push_back({Before, After});
        }
        return 0;
      });
      RT.detachCurrentThread();
    });
  while (InBody.load() != kMutators)
    std::this_thread::yield();

  std::string Json;
  std::thread Collector([&] {
    RT.attachCurrentThread("gc", ThreadKind::GcSupport);
    for (unsigned P = 0; P < kPauses; ++P)
      RT.gc().collect();
    // Export while this thread is alive: a thread that exits gives its
    // ring to the next thread that records, which drops its events.
    Json = support::FlightRecorder::exportChromeJson();
    RT.detachCurrentThread();
  });
  Collector.join();
  Stop.store(true);
  for (auto &Th : Mutators)
    Th.join();

  auto Ttsp = flightSlices(Json, "GC.ttsp");
  auto Pause = flightSlices(Json, "GC.pause");
  ASSERT_EQ(Ttsp.size(), kPauses);
  ASSERT_EQ(Pause.size(), kPauses);
  // The export prints microseconds with three decimals.
  constexpr double kRoundingMicros = 0.002;
  for (unsigned P = 0; P < kPauses; ++P) {
    const double DrainedMicros = Ttsp[P].second;
    const double EndMicros = Pause[P].second;
    for (unsigned M = 0; M < kMutators; ++M) {
      const Poll *Parked = nullptr;
      for (const Poll &Q : Polls[M])
        if (Q.Before / 1000.0 <= DrainedMicros + kRoundingMicros &&
            Q.After / 1000.0 + kRoundingMicros >= DrainedMicros)
          Parked = &Q;
      ASSERT_NE(Parked, nullptr)
          << "mutator " << M << " drained pause " << P << " without parking";
      EXPECT_GE(Parked->After / 1000.0 + kRoundingMicros, EndMicros)
          << "mutator " << M << " resumed "
          << EndMicros - Parked->After / 1000.0
          << " us before the recorded end of pause " << P;
    }
  }
}

// The per-thread handshake under attach churn: 32 attached threads loop
// native calls whose bodies raise a per-thread "inside" flag, every fourth
// thread detaches and re-attaches between calls, and a collector runs 500
// pauses. No flag may be up inside any pause. A drain predicate that
// skipped an attached thread would let that thread's body run on through
// the pause; it shows when the skipped body outlasts the drain of the
// others. So the churning threads, the likeliest to be missed by a list
// that changes under the collector, run long bodies, and the rest short
// ones.
TEST(RtSafepoint, PauseDrainsEveryAttachedThreadUnderAttachChurn) {
  Runtime RT(plainConfig());
  constexpr unsigned kThreads = 32;
  constexpr unsigned kPauses = 500;
  std::vector<std::atomic<bool>> Inside(kThreads);
  std::vector<std::atomic<uint64_t>> Bodies(kThreads);
  std::atomic<bool> Stop{false};
  std::atomic<unsigned> Running{0};
  std::vector<std::thread> Mutators;
  for (unsigned T = 0; T < kThreads; ++T)
    Mutators.emplace_back([&, T] {
      const bool Churns = T % 4 == 0;
      JavaThread *Self = &RT.attachCurrentThread("mutator");
      Running.fetch_add(1);
      for (unsigned Call = 0; !Stop.load(); ++Call) {
        callNative(*Self, NativeKind::Regular, "flagged", [&] {
          Inside[T].store(true);
          Bodies[T].fetch_add(1);
          for (int Spin = 0; Spin < (Churns ? 32 : 2); ++Spin)
            std::this_thread::yield();
          Inside[T].store(false);
          return 0;
        });
        if (Churns && Call % 8 == 7) {
          RT.detachCurrentThread();
          Self = &RT.attachCurrentThread("mutator");
        }
      }
      RT.detachCurrentThread();
    });
  while (Running.load() != kThreads)
    std::this_thread::yield();

  unsigned PausesWithBodyInside = 0;
  for (unsigned P = 0; P < kPauses; ++P) {
    // Let every mutator back in between pauses: without this the
    // collector re-pauses before most woken mutators get to run a body.
    for (unsigned T = 0; T < kThreads; ++T)
      for (uint64_t Seen = Bodies[T].load(); Bodies[T].load() == Seen;)
        std::this_thread::yield();
    RT.beginPause();
    for (unsigned T = 0; T < kThreads; ++T)
      if (Inside[T].load()) {
        ++PausesWithBodyInside;
        break;
      }
    RT.endPause();
  }
  Stop.store(true);
  for (auto &Th : Mutators)
    Th.join();
  EXPECT_EQ(PausesWithBodyInside, 0u)
      << "a native body ran inside a granted pause";
}

// A thread that exits while still attached unlinks itself at thread exit:
// the next pause reads only live threads' claims (a stale entry would be a
// read of freed memory, which ASan reports) and completes.
TEST(RtSafepoint, ThreadExitWithoutDetachLeavesNoStaleClaim) {
  Runtime RT(plainConfig());
  std::thread Leaver([&] {
    JavaThread &Self = RT.attachCurrentThread("leaver");
    callNative(Self, NativeKind::Regular, "last_call", [] { return 0; });
    // No detachCurrentThread(): the thread exits attached.
  });
  Leaver.join();
  RT.gc().collect();
  EXPECT_EQ(RT.gc().completedCycles(), 1u);
}

// A thread still attached when its runtime is destroyed must leave the
// next runtime alone when it exits, even one built at the same address:
// it recognises its runtime by identity, not by address.
TEST(RtSafepoint, ThreadOutlivingItsRuntimeLeavesTheNextOneAlone) {
  std::optional<Runtime> RT;
  RT.emplace(plainConfig());
  std::atomic<bool> Attached{false};
  std::atomic<bool> Replaced{false};
  std::thread Orphan([&] {
    RT->attachCurrentThread("orphan");
    Attached.store(true);
    while (!Replaced.load())
      std::this_thread::yield();
    // Exits attached to a runtime that no longer exists.
  });
  while (!Attached.load())
    std::this_thread::yield();
  RT.reset();
  RT.emplace(plainConfig()); // same storage, so the same address
  RT->attachCurrentThread("main");
  Replaced.store(true);
  Orphan.join();
  RT->gc().collect();
  EXPECT_EQ(RT->gc().completedCycles(), 1u);
  RT->detachCurrentThread();
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
