//===- api_session_test.cpp - The Session façade --------------------------------------===//
//
// Part of the MTE4JNI reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "mte4jni/api/Session.h"
#include "mte4jni/mte/Access.h"
#include "mte4jni/mte/Instructions.h"
#include "mte4jni/mte/MteSystem.h"
#include "mte4jni/mte/TaggedArena.h"
#include "mte4jni/support/Metrics.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace {

using namespace mte4jni;
using api::Scheme;

TEST(Session, SchemeNames) {
  EXPECT_STREQ(api::schemeName(Scheme::NoProtection), "no-protection");
  EXPECT_STREQ(api::schemeName(Scheme::GuardedCopy), "guarded-copy");
  EXPECT_STREQ(api::schemeName(Scheme::Mte4JniSync), "mte4jni+sync");
  EXPECT_STREQ(api::schemeName(Scheme::Mte4JniAsync), "mte4jni+async");
}

TEST(Session, WiresCheckModePerScheme) {
  {
    api::Session S({.Protection = Scheme::NoProtection});
    EXPECT_EQ(mte::MteSystem::instance().processCheckMode(),
              mte::CheckMode::None);
    EXPECT_EQ(S.mtePolicy(), nullptr);
    EXPECT_EQ(S.guardedPolicy(), nullptr);
  }
  {
    api::Session S({.Protection = Scheme::GuardedCopy});
    EXPECT_EQ(mte::MteSystem::instance().processCheckMode(),
              mte::CheckMode::None);
    EXPECT_NE(S.guardedPolicy(), nullptr);
  }
  {
    api::Session S({.Protection = Scheme::Mte4JniSync});
    EXPECT_EQ(mte::MteSystem::instance().processCheckMode(),
              mte::CheckMode::Sync);
    EXPECT_NE(S.mtePolicy(), nullptr);
    EXPECT_TRUE(S.runtime().config().TagChecksInNative);
  }
  {
    api::Session S({.Protection = Scheme::Mte4JniAsync});
    EXPECT_EQ(mte::MteSystem::instance().processCheckMode(),
              mte::CheckMode::Async);
  }
}

TEST(Session, SequentialSessionsAreIndependent) {
  for (int Round = 0; Round < 3; ++Round) {
    api::Session S({.Protection = Scheme::Mte4JniSync});
    api::ScopedAttach Main(S, "main");
    rt::HandleScope Scope(S.runtime());
    jni::jarray A = Main.env().NewIntArray(Scope, 18);
    rt::callNative(Main.thread(), rt::NativeKind::Regular, "bug", [&] {
      jni::jboolean IsCopy;
      auto P = Main.env().GetIntArrayElements(A, &IsCopy);
      mte::store<jni::jint>(P + 21, 1);
      Main.env().ReleaseIntArrayElements(A, P, 0);
      return 0;
    });
    // Each session starts with a clean fault log.
    EXPECT_EQ(S.faults().totalCount(), 1u) << "round " << Round;
  }
}

TEST(Session, ConfigurationIsPlumbedThrough) {
  api::SessionConfig C;
  C.Protection = Scheme::Mte4JniSync;
  C.Locks = core::TagTableKind::GlobalLock;
  C.ExcludeAdjacentTags = true;
  C.HeapBytes = 16ull << 20;
  api::Session S(C);
  ASSERT_NE(S.mtePolicy(), nullptr);
  EXPECT_EQ(S.mtePolicy()->allocator().tableKind(),
            core::TagTableKind::GlobalLock);
  // The paper's k = 16 hash tables.
  EXPECT_EQ(S.mtePolicy()->allocator().table().numTables(), 16u);
  EXPECT_GE(S.runtime().heap().capacity(), 16ull << 20);
}

TEST(Session, StatsReportMentionsTheInterestingNumbers) {
  api::Session S({.Protection = Scheme::Mte4JniSync});
  api::ScopedAttach Main(S, "main");
  rt::HandleScope Scope(S.runtime());
  jni::jarray A = Main.env().NewIntArray(Scope, 64);
  rt::callNative(Main.thread(), rt::NativeKind::Regular, "work", [&] {
    jni::jboolean IsCopy;
    auto P = Main.env().GetIntArrayElements(A, &IsCopy);
    Main.env().ReleaseIntArrayElements(A, P, 0);
    return 0;
  });

  std::string Report = S.statsReport();
  EXPECT_NE(Report.find("mte4jni+sync"), std::string::npos);
  EXPECT_NE(Report.find("heap:"), std::string::npos);
  EXPECT_NE(Report.find("mte4jni: 1 acquires (1 generated / 0 shared)"),
            std::string::npos)
      << Report;
  EXPECT_NE(Report.find("1 releases"), std::string::npos);
  EXPECT_NE(Report.find("faults recorded: 0"), std::string::npos);
}

TEST(Session, GuardedStatsReport) {
  api::Session S({.Protection = Scheme::GuardedCopy});
  api::ScopedAttach Main(S, "main");
  rt::HandleScope Scope(S.runtime());
  jni::jarray A = Main.env().NewIntArray(Scope, 64);
  jni::jboolean IsCopy;
  auto P = Main.env().GetIntArrayElements(A, &IsCopy);
  Main.env().ReleaseIntArrayElements(A, P, 0);

  std::string Report = S.statsReport();
  EXPECT_NE(Report.find("guarded-copy: 1 acquires, 1 releases"),
            std::string::npos)
      << Report;
  EXPECT_NE(Report.find("0 corruptions"), std::string::npos);
}

/// Pins one fresh 64-int array \p Pins times in a row under \p S.
void pinTimes(api::Session &S, int Pins) {
  api::ScopedAttach Main(S, "main");
  rt::HandleScope Scope(S.runtime());
  jni::jarray A = Main.env().NewIntArray(Scope, 64);
  rt::callNative(Main.thread(), rt::NativeKind::Regular, "pins", [&] {
    for (int I = 0; I < Pins; ++I) {
      jni::jboolean IsCopy;
      auto P = Main.env().GetIntArrayElements(A, &IsCopy);
      Main.env().ReleaseIntArrayElements(A, P, 0);
    }
    return 0;
  });
}

TEST(Session, StatsReportCountsOnlyThisSession) {
  {
    api::Session First({.Protection = Scheme::Mte4JniSync});
    pinTimes(First, 3);
    std::string Report = First.statsReport();
    EXPECT_NE(Report.find("mte4jni: 3 acquires"), std::string::npos)
        << Report;
  }
  api::Session Second({.Protection = Scheme::Mte4JniSync});
  pinTimes(Second, 2);
  // Deferred tag-clear: the second Get re-acquires the lingering tag.
  std::string Report = Second.statsReport();
  EXPECT_NE(Report.find("mte: 1 irg,"), std::string::npos) << Report;
  EXPECT_NE(Report.find("mte4jni: 2 acquires (1 generated / 1 shared), "
                        "2 releases"),
            std::string::npos)
      << Report;
}

TEST(Session, StatsReportCountsFromAResetDuringTheSession) {
  support::Metrics::resetAll();
  {
    api::Session First({.Protection = Scheme::Mte4JniSync});
    pinTimes(First, 1);
  }
  // The second session's baseline holds one acquire; after the reset the
  // registry counts from 0, so subtracting that baseline would undercount.
  api::Session Second({.Protection = Scheme::Mte4JniSync});
  pinTimes(Second, 3);
  support::Metrics::resetAll();
  pinTimes(Second, 2);
  std::string Report = Second.statsReport();
  EXPECT_NE(Report.find("mte4jni: 2 acquires"), std::string::npos)
      << Report;
}

TEST(Session, ArenaRegionSurvivesASession) {
  // The arena owns its PROT_MTE region: building and tearing down a
  // session (whose runtime resets the MTE system) must leave it
  // registered, and the arena's own destructor unregisters it.
  mte::MteSystem &System = mte::MteSystem::instance();
  mte::TaggedArena Arena(1 << 16);
  void *Buf = Arena.allocate(64);
  const uint64_t Begin = reinterpret_cast<uint64_t>(Buf);
  {
    api::Session S({.Protection = Scheme::Mte4JniSync});
    EXPECT_TRUE(System.isTaggedAddress(Begin));
  }
  ASSERT_TRUE(System.isTaggedAddress(Begin));
  mte::setTagRange(mte::TaggedPtr<void>::fromRaw(Buf, 5), 64);
  EXPECT_EQ(mte::ldgTag(Begin), 5);
  mte::clearTagRange(Begin, 64);
  Arena.deallocate(Buf);
}

// The registry is the only counter store: after every kind of counted
// event, Metrics::resetAll() leaves every counter at 0, and the next event
// counts from there.
TEST(MetricsRegistry, ResetAllZeroesEveryCounter) {
  mte::MteSystem &System = mte::MteSystem::instance();
  System.reset();
  mte::TaggedArena Arena(1 << 16);
  auto *Buf = static_cast<uint8_t *>(Arena.allocate(64));
  const uint64_t Begin = reinterpret_cast<uint64_t>(Buf);

  (void)mte::irgTag();
  (void)mte::ldgTag(Begin);
  mte::setTagRange(mte::TaggedPtr<void>::fromRaw(Buf, 3), 64);
  mte::clearTagRange(Begin, 64);
  {
    core::TagAllocator Alloc;
    Alloc.acquire(Begin, Begin + 64);
    Alloc.release(Begin, Begin + 64);
  }
  {
    guarded::GuardedCopyPolicy Policy;
    std::vector<uint8_t> Payload(32);
    jni::JniBufferInfo Info;
    Info.DataBegin = reinterpret_cast<uint64_t>(Payload.data());
    Info.Bytes = Payload.size();
    Info.Interface = "ResetAllZeroesEveryCounter";
    bool IsCopy = false;
    Policy.release(Info, Policy.acquire(Info, IsCopy), 0);
  }
  // One sync mismatch, then one async mismatch delivered at a syscall.
  mte::setTagRange(mte::TaggedPtr<void>::fromRaw(Buf, 3), 64);
  const auto Wrong = mte::TaggedPtr<uint8_t>::fromRaw(Buf, 4);
  System.setProcessCheckMode(mte::CheckMode::Sync);
  mte::ThreadState::current().setTco(false);
  (void)mte::load(Wrong);
  System.setProcessCheckMode(mte::CheckMode::Async);
  (void)mte::load(Wrong);
  mte::simulatedSyscall("getuid");
  System.setProcessCheckMode(mte::CheckMode::None);
  mte::clearTagRange(Begin, 64);

  support::MetricsSnapshot Before = support::Metrics::snapshot();
  for (const char *Name :
       {"mte/instr/irg", "mte/instr/ldg", "mte/instr/stg_granules",
        "core/tagallocator/acquires", "core/tagallocator/releases",
        "guarded/acquires", "guarded/releases", "guarded/bytes_copied",
        "mte/access/checked_loads", "mte/access/mismatch_sync",
        "mte/access/mismatch_async", "mte/fault/async_delivered"})
    EXPECT_GT(Before.counterValue(Name), 0u) << Name;

  support::Metrics::resetAll();
  for (const support::CounterSample &C : support::Metrics::snapshot().Counters)
    EXPECT_EQ(C.Value, 0u) << C.Name;

  (void)mte::irgTag();
  EXPECT_EQ(support::Metrics::snapshot().counterValue("mte/instr/irg"), 1u);
  Arena.deallocate(Buf);
}

TEST(Session, MetricsSnapshotCoversTheInstrumentedStack) {
  support::Metrics::resetAll();
  api::SessionConfig C;
  C.Protection = Scheme::Mte4JniSync;
  api::Session S(C);
  {
    api::ScopedAttach Main(S, "main");
    rt::HandleScope Scope(S.runtime());
    jni::jarray A = Main.env().NewIntArray(Scope, 256);
    rt::callNative(Main.thread(), rt::NativeKind::Regular, "work", [&] {
      jni::jboolean IsCopy;
      auto P = Main.env().GetIntArrayElements(A, &IsCopy);
      for (int I = 0; I < 256; ++I)
        mte::store<jni::jint>(P + I, I);
      Main.env().ReleaseIntArrayElements(A, P, 0);
      return 0;
    });
    S.runtime().gc().collect();
  }

  support::MetricsSnapshot Snap = S.metricsSnapshot();
  // The four subsystems the acceptance criteria name: tag checks,
  // TagTable fast path, JNI pins, GC phases.
  EXPECT_GT(Snap.counterValue("mte/access/checked_stores"), 0u);
  EXPECT_GT(Snap.counterValue("mte/access/checked_granules"), 0u);
  EXPECT_GT(Snap.counterValue("core/tagallocator/acquires"), 0u);
  EXPECT_GT(Snap.counterValue("core/tagallocator/tags_generated"), 0u);
  EXPECT_GT(Snap.counterValue("jni/get_calls"), 0u);
  EXPECT_GT(Snap.counterValue("jni/release_calls"), 0u);
  EXPECT_GE(Snap.gaugeValue("jni/pin_depth_hwm"), 1);
  EXPECT_GT(Snap.counterValue("rt/gc/cycles"), 0u);
  EXPECT_GT(Snap.counterValue("mte/instr/irg"), 0u);
  EXPECT_GT(Snap.counterValue("mte/instr/stg_granules"), 0u);
  const support::HistogramSample *Collect =
      Snap.histogram("rt/gc/collect_nanos");
  ASSERT_NE(Collect, nullptr);
  EXPECT_GT(Collect->Count, 0u);
  const support::HistogramSample *Mark = Snap.histogram("rt/gc/mark_nanos");
  ASSERT_NE(Mark, nullptr);
  EXPECT_GT(Mark->Count, 0u);
  // No faults in a clean run.
  EXPECT_EQ(Snap.counterValue("mte/access/mismatch_sync"), 0u);
}

TEST(Session, WriteMetricsJsonProducesAFileWithNonZeroMetrics) {
  support::Metrics::resetAll();
  api::Session S({.Protection = Scheme::Mte4JniSync});
  {
    api::ScopedAttach Main(S, "main");
    rt::HandleScope Scope(S.runtime());
    jni::jarray A = Main.env().NewIntArray(Scope, 64);
    rt::callNative(Main.thread(), rt::NativeKind::Regular, "work", [&] {
      jni::jboolean IsCopy;
      auto P = Main.env().GetIntArrayElements(A, &IsCopy);
      mte::store<jni::jint>(P + 0, 7);
      Main.env().ReleaseIntArrayElements(A, P, 0);
      return 0;
    });
    S.runtime().gc().collect();
  }

  const char *Path = "session_metrics_test.json";
  ASSERT_TRUE(S.writeMetricsJson(Path));
  std::ifstream In(Path);
  ASSERT_TRUE(In.good());
  std::stringstream Buf;
  Buf << In.rdbuf();
  std::string Json = Buf.str();
  In.close();
  std::remove(Path);

  EXPECT_EQ(Json.front(), '{');
  EXPECT_NE(Json.find("\"counters\""), std::string::npos);
  EXPECT_NE(Json.find("\"mte/access/checked_stores\""), std::string::npos);
  EXPECT_NE(Json.find("\"jni/get_calls\": 1"), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"rt/gc/cycles\": 1"), std::string::npos) << Json;
  // Nothing reported zero-Get: the snapshot reflects the run above.
  EXPECT_EQ(Json.find("\"jni/get_calls\": 0"), std::string::npos);
}

TEST(Session, FaultTelemetryReachesTheMetricsRing) {
  support::Metrics::resetAll();
  api::Session S({.Protection = Scheme::Mte4JniSync});
  api::ScopedAttach Main(S, "main");
  rt::HandleScope Scope(S.runtime());
  jni::jarray A = Main.env().NewIntArray(Scope, 18);
  rt::callNative(Main.thread(), rt::NativeKind::Regular, "bug", [&] {
    jni::jboolean IsCopy;
    auto P = Main.env().GetIntArrayElements(A, &IsCopy);
    mte::store<jni::jint>(P + 21, 1); // out of bounds -> sync fault
    Main.env().ReleaseIntArrayElements(A, P, 0);
    return 0;
  });
  ASSERT_EQ(S.faults().totalCount(), 1u);

  support::MetricsSnapshot Snap = S.metricsSnapshot();
  EXPECT_EQ(Snap.counterValue("mte/access/mismatch_sync"), 1u);
  ASSERT_EQ(Snap.FaultsTotal, 1u);
  ASSERT_EQ(Snap.Faults.size(), 1u);
  const support::FaultEvent &E = Snap.Faults[0];
  EXPECT_NE(E.Kind.find("SEGV_MTESERR"), std::string::npos);
  EXPECT_TRUE(E.HasAddress);
  EXPECT_TRUE(E.IsWrite);
  EXPECT_NE(E.PointerTag, E.MemoryTag);
  EXPECT_FALSE(E.Backtrace.empty());
}

TEST(Session, MakeEnvGivesIndependentEnvs) {
  api::Session S({.Protection = Scheme::NoProtection});
  api::ScopedAttach Main(S, "main");
  auto Env2 = S.makeEnv();
  // Errors are per-env, like per-thread pending exceptions.
  Env2->GetArrayLength(nullptr);
  EXPECT_TRUE(Env2->ExceptionCheck());
  EXPECT_FALSE(Main.env().ExceptionCheck());
  Env2->ExceptionClear();
}

/// Exact Algorithm 2 (no deferred tag-clear), so a release that drops the
/// last reference clears the tags at once and a stale pointer faults.
api::SessionConfig exactMteConfig() {
  api::SessionConfig C;
  C.Protection = Scheme::Mte4JniSync;
  C.DeferredTagClear = false;
  return C;
}

TEST(Session, NestedPinsOfOneArrayShareTheTagUntilTheLastRelease) {
  support::Metrics::resetAll();
  api::Session S(exactMteConfig());
  api::ScopedAttach Main(S, "main");
  rt::HandleScope Scope(S.runtime());
  jni::jintArray A = Main.env().NewIntArray(Scope, 64);
  rt::callNative(Main.thread(), rt::NativeKind::Regular, "nested", [&] {
    jni::jboolean IsCopy;
    auto P1 = Main.env().GetIntArrayElements(A, &IsCopy);
    auto P2 = Main.env().GetIntArrayElements(A, &IsCopy);
    EXPECT_EQ(P1.bits(), P2.bits());

    // The allocator's reference count keeps the tag for the inner pin.
    Main.env().ReleaseIntArrayElements(A, P2, 0);
    volatile jni::jint V = mte::load(P1 + 63);
    EXPECT_EQ(S.faults().totalCount(), 0u);

    // The last release clears it: the same read now faults.
    Main.env().ReleaseIntArrayElements(A, P1, 0);
    V = mte::load(P1 + 63);
    (void)V;
    EXPECT_EQ(S.faults().totalCount(), 1u);
    return 0;
  });
  EXPECT_GE(S.metricsSnapshot().gaugeValue("jni/pin_depth_hwm"), 2);
}

TEST(Session, ReleaseThroughAnotherThreadsEnvEndsThePin) {
  support::Metrics::resetAll();
  api::Session S(exactMteConfig());
  api::ScopedAttach Main(S, "main");
  rt::HandleScope Scope(S.runtime());
  jni::jintArray A = Main.env().NewIntArray(Scope, 64);
  jni::jboolean IsCopy;
  auto P = Main.env().GetIntArrayElements(A, &IsCopy);
  const uint64_t Begin = mte::addressOf(P.bits());
  const uint64_t Bytes = 64 * sizeof(jni::jint);
  ASSERT_GT(mte::taggedGranulesIn(Begin, Bytes), 0u);

  std::thread([&] {
    api::ScopedAttach Other(S, "other");
    Other.env().ReleaseIntArrayElements(A, P, 0);
  }).join();

  EXPECT_EQ(S.metricsSnapshot().counterValue(
                "core/tagallocator/orphan_releases"),
            0u);
  EXPECT_EQ(mte::taggedGranulesIn(Begin, Bytes), 0u);
  EXPECT_EQ(S.faults().totalCount(), 0u);
}

} // namespace
