//===- flight_recorder_test.cpp - Per-thread flight recorder -------------------------===//
//
// Part of the MTE4JNI reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "mte4jni/api/Session.h"
#include "mte4jni/core/TagAllocator.h"
#include "mte4jni/mte/Access.h"
#include "mte4jni/mte/TaggedArena.h"
#include "mte4jni/support/TraceRing.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>

namespace {

using namespace mte4jni;
using support::FlightKind;
using support::FlightRecorder;
using support::FlightScope;
using support::SampledLatency;

class FlightTest : public ::testing::Test {
protected:
  void SetUp() override {
    support::Metrics::resetAll();
    FlightRecorder::clear();
    support::obs::setLevel(2);
  }
  void TearDown() override {
    support::obs::setLevel(1); // restore the process default
    FlightRecorder::clear();
    support::Metrics::resetAll();
  }
};

/// Structural well-formedness: balanced braces/brackets outside strings.
bool jsonStructurallyValid(const std::string &Text) {
  std::vector<char> Stack;
  bool InString = false, Escaped = false;
  for (char C : Text) {
    if (InString) {
      if (Escaped)
        Escaped = false;
      else if (C == '\\')
        Escaped = true;
      else if (C == '"')
        InString = false;
      continue;
    }
    switch (C) {
    case '"':
      InString = true;
      break;
    case '{':
    case '[':
      Stack.push_back(C);
      break;
    case '}':
      if (Stack.empty() || Stack.back() != '{')
        return false;
      Stack.pop_back();
      break;
    case ']':
      if (Stack.empty() || Stack.back() != '[')
        return false;
      Stack.pop_back();
      break;
    default:
      break;
    }
  }
  return !InString && Stack.empty();
}

TEST_F(FlightTest, RecordedEventsExportAsChromeSlices) {
  FlightRecorder::setThreadLabel("flight-test-main");
  FlightRecorder::record(FlightKind::CheckScan, /*Arg=*/0, /*Arg2=*/16,
                         /*StartNanos=*/900, /*DurNanos=*/50);
  FlightRecorder::record(FlightKind::CheckScan, /*Arg=*/0, /*Arg2=*/128,
                         /*StartNanos=*/1000, /*DurNanos=*/250);
  FlightRecorder::record(FlightKind::GcPhase,
                         static_cast<uint8_t>(support::GcFlightPhase::Mark), 0,
                         2000, 500);

  std::string Json = FlightRecorder::exportChromeJson();
  EXPECT_TRUE(jsonStructurallyValid(Json)) << Json;
  EXPECT_NE(Json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(Json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(Json.find("\"name\":\"Access.checkRange\""), std::string::npos);
  EXPECT_EQ(Json.find(":?"), std::string::npos) << "unnamed slice: " << Json;
  EXPECT_NE(Json.find("\"arg2\":16"), std::string::npos);
  EXPECT_NE(Json.find("\"arg2\":128"), std::string::npos);
  EXPECT_NE(Json.find("GC.mark"), std::string::npos);
  EXPECT_NE(Json.find("flight-test-main"), std::string::npos);
  EXPECT_NE(Json.find("\"droppedEvents\":0"), std::string::npos);
  EXPECT_GE(FlightRecorder::eventCount(), 2u);
}

TEST_F(FlightTest, RingWrapKeepsNewestAndCountsDropped) {
  const uint64_t Overfill = FlightRecorder::kRingEvents + 500;
  uint64_t Base = FlightRecorder::totalRecorded();
  for (uint64_t I = 0; I < Overfill; ++I)
    FlightRecorder::record(FlightKind::TlabRefill, 0,
                           static_cast<uint32_t>(I), 1000 + I, 10);
  EXPECT_GE(FlightRecorder::totalRecorded(), Base + Overfill);
  // This thread's ring retains at most kRingEvents of them.
  std::string Json = FlightRecorder::exportChromeJson();
  EXPECT_EQ(Json.find("\"droppedEvents\":0"), std::string::npos) << Json;
  EXPECT_TRUE(jsonStructurallyValid(Json));
}

TEST_F(FlightTest, OffLevelArmsNothing) {
  support::obs::setLevel(0);
  uint64_t Before = FlightRecorder::totalRecorded();
  for (int I = 0; I < 1000; ++I) {
    FlightScope Scope(FlightKind::TagAcquire);
    EXPECT_FALSE(Scope.armed());
  }
  EXPECT_FALSE(support::obs::coldArmed());
  EXPECT_FALSE(support::obs::armSampled());
  EXPECT_EQ(FlightRecorder::totalRecorded(), Before);
}

// Arming is decided once, at construction: a scope that straddles a level
// change neither records a slice it never timed the start of, nor drops
// one it already started.
TEST_F(FlightTest, ArmingIsDecidedAtConstruction) {
  support::Histogram &H = support::Metrics::histogram("test/flight/arming");
  uint64_t Before = FlightRecorder::totalRecorded();
  support::obs::setLevel(0);
  {
    FlightScope Scope(FlightKind::TagAcquire);
    SampledLatency Lat(H, FlightKind::TagRelease);
    support::obs::setLevel(2);
  }
  EXPECT_EQ(FlightRecorder::totalRecorded(), Before);

  {
    FlightScope Scope(FlightKind::TagAcquire);
    support::obs::setLevel(0);
  }
  EXPECT_EQ(FlightRecorder::totalRecorded(), Before + 1);

  support::obs::setLevel(2);
  {
    SampledLatency Lat(H, FlightKind::TagRelease);
    support::obs::setLevel(0);
  }
  EXPECT_EQ(FlightRecorder::totalRecorded(), Before + 2);
  support::MetricsSnapshot Snap = support::Metrics::snapshot();
  const support::HistogramSample *Sample = Snap.histogram("test/flight/arming");
  ASSERT_NE(Sample, nullptr);
  EXPECT_EQ(Sample->Count, 1u);
}

TEST_F(FlightTest, SampledLevelRecordsASubset) {
  support::obs::setLevel(1);
  uint64_t Before = FlightRecorder::totalRecorded();
  constexpr int kScopes = 6400; // ~100 expected at 1/64
  for (int I = 0; I < kScopes; ++I)
    FlightScope Scope(FlightKind::TagAcquire);
  uint64_t Recorded = FlightRecorder::totalRecorded() - Before;
  EXPECT_GT(Recorded, 0u);
  EXPECT_LT(Recorded, uint64_t(kScopes) / 4);
}

TEST_F(FlightTest, SessionWorkloadCoversThreeSubsystems) {
  api::SessionConfig C;
  C.Protection = api::Scheme::Mte4JniSync;
  C.TraceMode = support::FlightMode::Full;
  api::Session S(C);
  api::ScopedAttach Main(S, "flight-main");
  rt::HandleScope Scope(S.runtime());
  jni::jarray A = Main.env().NewIntArray(Scope, 256);

  rt::callNative(Main.thread(), rt::NativeKind::Regular, "flight_native",
                 [&] {
                   jni::jboolean IsCopy;
                   auto P = Main.env().GetIntArrayElements(A, &IsCopy);
                   // Two checked ranges: 64 granules and one granule.
                   mte::checkReadRange(P.cast<const void>(), 256 * 4);
                   mte::checkReadRange(P.cast<const void>(), 16);
                   Main.env().ReleaseIntArrayElements(A, P, 0);
                   return 0;
                 });
  S.runtime().gc().collect();

  std::string Json = FlightRecorder::exportChromeJson();
  EXPECT_TRUE(jsonStructurallyValid(Json)) << Json;
  // Slices from three subsystems on one timeline: the JNI crossing, the
  // tag-table acquire/release, and the GC phases.
  EXPECT_NE(Json.find("\"cat\":\"jni\""), std::string::npos);
  EXPECT_NE(Json.find("\"cat\":\"core/tagtable\""), std::string::npos);
  EXPECT_NE(Json.find("\"cat\":\"rt/gc\""), std::string::npos);
  EXPECT_NE(Json.find("\"name\":\"JNI.call\""), std::string::npos);
  EXPECT_NE(Json.find("\"name\":\"JNI.acquire\""), std::string::npos);
  EXPECT_NE(Json.find("\"name\":\"JNI.release\""), std::string::npos);
  EXPECT_NE(Json.find("\"name\":\"TagTable.acquire"), std::string::npos);
  EXPECT_NE(Json.find("\"name\":\"GC.collect\""), std::string::npos);
  EXPECT_NE(Json.find("\"name\":\"GC.verify\""), std::string::npos);
  EXPECT_NE(Json.find("\"name\":\"Access.checkRange\""), std::string::npos);
  EXPECT_EQ(Json.find(":?"), std::string::npos) << "unnamed slice: " << Json;
  EXPECT_NE(Json.find("flight-main"), std::string::npos);

  // writeTraceJson writes exactly that document.
  std::string Path = ::testing::TempDir() + "/flight_trace.json";
  ASSERT_TRUE(S.writeTraceJson(Path));
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  ASSERT_NE(F, nullptr);
  std::string FromDisk;
  char Buf[4096];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    FromDisk.append(Buf, N);
  std::fclose(F);
  std::remove(Path.c_str());
  EXPECT_TRUE(jsonStructurallyValid(FromDisk));
  EXPECT_NE(FromDisk.find("\"ph\":\"X\""), std::string::npos);

  // The latency histograms behind the trace are populated and summarized.
  support::MetricsSnapshot Snap = S.metricsSnapshot();
  const support::HistogramSample *Acq = Snap.histogram("jni/acquire_nanos");
  ASSERT_NE(Acq, nullptr);
  EXPECT_GT(Acq->Count, 0u);
  EXPECT_GT(Acq->percentileUpperBound(99.9), 0u);
  const support::HistogramSample *Rel = Snap.histogram("jni/release_nanos");
  ASSERT_NE(Rel, nullptr);
  EXPECT_GT(Rel->Count, 0u);
}

// Every tag-table kind is traced: fig6 compares all three, so each must
// show its acquire/release slices, and the mutex kinds — which lock on
// every operation — must never be labelled as fast-path hits.
TEST_F(FlightTest, EveryTagTableKindRecordsAcquireAndRelease) {
  for (core::TagTableKind Kind :
       {core::TagTableKind::LockFree, core::TagTableKind::TwoTierMutex,
        core::TagTableKind::GlobalLock}) {
    FlightRecorder::clear();
    {
      api::SessionConfig C;
      C.Protection = api::Scheme::Mte4JniSync;
      C.Locks = Kind;
      C.TraceMode = support::FlightMode::Full;
      api::Session S(C);
      api::ScopedAttach Main(S, "flight-kinds");
      rt::HandleScope Scope(S.runtime());
      jni::jarray A = Main.env().NewIntArray(Scope, 64);
      rt::callNative(Main.thread(), rt::NativeKind::Regular, "pin_once", [&] {
        jni::jboolean IsCopy;
        auto P = Main.env().GetIntArrayElements(A, &IsCopy);
        Main.env().ReleaseIntArrayElements(A, P, 0);
        return 0;
      });
    }
    std::string Json = FlightRecorder::exportChromeJson();
    SCOPED_TRACE(core::tagTableKindName(Kind));
    EXPECT_NE(Json.find("\"name\":\"TagTable.acquire"), std::string::npos);
    EXPECT_NE(Json.find("\"name\":\"TagTable.release"), std::string::npos);
    if (Kind != core::TagTableKind::LockFree) {
      EXPECT_EQ(Json.find(".fast\""), std::string::npos) << Json;
      EXPECT_NE(Json.find("\"name\":\"TagTable.acquire.mutex\""),
                std::string::npos);
      EXPECT_NE(Json.find("\"name\":\"TagTable.release.mutex\""),
                std::string::npos);
    }
  }
}

TEST_F(FlightTest, SlowReasonCountersExplainLockFreeSlowPath) {
  static mte::TaggedArena Arena(1ull << 20);

  // Exact mode (DeferredTagClear off) — the paper's Algorithm 2 verbatim:
  // a single-holder round trip is a 0->1 acquire (must tag under the
  // shard mutex) and a 1->0 release (must clear tags under it), so the
  // fast path never fires and the reason counters say why. The very first
  // acquire probes a not-yet-existing slot (slot_cold); the remaining 99
  // see the slot at refcount 0 (first_holder).
  {
    core::TagAllocatorOptions Options;
    Options.Locks = core::TagTableKind::LockFree;
    Options.DeferredTagClear = false;
    core::TagAllocator Alloc(Options);
    void *Buf = Arena.allocate(4096);
    uint64_t Begin = reinterpret_cast<uint64_t>(Buf);
    support::MetricsSnapshot Before = support::Metrics::snapshot();
    for (int I = 0; I < 100; ++I) {
      Alloc.acquire(Begin, Begin + 4096);
      Alloc.release(Begin, Begin + 4096);
    }
    Arena.deallocate(Buf);
    support::MetricsSnapshot Snap = support::Metrics::snapshot();
    auto Delta = [&](const char *Name) {
      return Snap.counterValue(Name) - Before.counterValue(Name);
    };
    EXPECT_EQ(Delta("core/tagtable/lockfree/acquire_fast"), 0u);
    EXPECT_GE(Delta("core/tagtable/slow_reason/slot_cold"), 1u);
    EXPECT_GE(Delta("core/tagtable/slow_reason/first_holder"), 99u);
    EXPECT_GE(Delta("core/tagtable/slow_reason/last_holder"), 100u);
    EXPECT_EQ(Delta("core/tagtable/slow_reason/orphan"), 0u);
  }

  // Deferred mode (the default): the same single-holder loop is a pure
  // CAS round trip after the cold first acquire — the lingering state
  // turns what used to be first_holder/last_holder mutex trips into warm
  // fast-path hits, and the attribution subsets record that.
  {
    core::TagAllocator Alloc(core::TagTableKind::LockFree);
    void *Buf = Arena.allocate(4096);
    uint64_t Begin = reinterpret_cast<uint64_t>(Buf);
    support::MetricsSnapshot Before = support::Metrics::snapshot();
    for (int I = 0; I < 100; ++I) {
      Alloc.acquire(Begin, Begin + 4096);
      Alloc.release(Begin, Begin + 4096);
    }
    support::MetricsSnapshot Snap = support::Metrics::snapshot();
    auto Delta = [&](const char *Name) {
      return Snap.counterValue(Name) - Before.counterValue(Name);
    };
    EXPECT_EQ(Delta("core/tagtable/lockfree/acquire_slow"), 1u);
    EXPECT_GE(Delta("core/tagtable/lockfree/acquire_fast"), 99u);
    EXPECT_GE(Delta("core/tagtable/lockfree/acquire_warm"), 99u);
    EXPECT_GE(Delta("core/tagtable/lockfree/release_fast"), 100u);
    EXPECT_GE(Delta("core/tagtable/lockfree/release_deferred"), 100u);
    EXPECT_EQ(Delta("core/tagtable/slow_reason/last_holder"), 0u);
    Alloc.reclaimAll(); // drain the lingering tags before the arena frees
    Arena.deallocate(Buf);
  }
}

TEST_F(FlightTest, ThreadLanesGetDistinctTids) {
  FlightRecorder::setThreadLabel("lane-a");
  FlightRecorder::record(FlightKind::TlabRefill, 0, 1, 100, 1);
  std::thread Other([] {
    FlightRecorder::setThreadLabel("lane-b");
    FlightRecorder::record(FlightKind::TlabRefill, 0, 2, 200, 1);
  });
  Other.join();
  std::string Json = FlightRecorder::exportChromeJson();
  EXPECT_NE(Json.find("lane-a"), std::string::npos);
  EXPECT_NE(Json.find("lane-b"), std::string::npos);
  // Both lanes' metadata exists; the two thread_name records carry
  // different tids by construction (registration order).
  size_t First = Json.find("\"name\":\"thread_name\"");
  ASSERT_NE(First, std::string::npos);
  EXPECT_NE(Json.find("\"name\":\"thread_name\"", First + 1),
            std::string::npos);
}

// A thread's ring belongs to its thread slot. After the thread exits, its
// events stay exportable; the next thread in that slot reuses the ring and
// its first record drops them.
TEST_F(FlightTest, ExitedThreadsRingIsReusedByItsSlotsNextOwner) {
  FlightRecorder::record(FlightKind::TlabRefill, 0, 1, 100, 1);
  unsigned GoneSlot = 0, NextSlot = 0;
  std::thread([&] {
    GoneSlot = support::threadSlot();
    FlightRecorder::setThreadLabel("lane-gone");
    FlightRecorder::record(FlightKind::TlabRefill, 0, 2, 200, 1);
  }).join();
  EXPECT_NE(FlightRecorder::exportChromeJson().find("lane-gone"),
            std::string::npos);
  EXPECT_EQ(FlightRecorder::eventCount(), 2u);

  std::thread([&] {
    NextSlot = support::threadSlot();
    FlightRecorder::record(FlightKind::TlabRefill, 0, 3, 300, 1);
  }).join();
  ASSERT_EQ(NextSlot, GoneSlot) << "a new thread takes the lowest free slot";
  EXPECT_EQ(FlightRecorder::exportChromeJson().find("lane-gone"),
            std::string::npos);
  EXPECT_EQ(FlightRecorder::eventCount(), 2u);
}

} // namespace
