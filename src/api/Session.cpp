//===- Session.cpp - One-stop façade over the protection schemes --------------------===//
//
// Part of the MTE4JNI reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "mte4jni/api/Session.h"

#include "mte4jni/mte/MteSystem.h"
#include "mte4jni/support/StringUtils.h"

#include <cstdio>

namespace mte4jni::api {

const char *schemeName(Scheme S) {
  switch (S) {
  case Scheme::NoProtection:
    return "no-protection";
  case Scheme::GuardedCopy:
    return "guarded-copy";
  case Scheme::Mte4JniSync:
    return "mte4jni+sync";
  case Scheme::Mte4JniAsync:
    return "mte4jni+async";
  }
  return "?";
}

Session::Session(const SessionConfig &Config) : Config(Config) {
  // Process-wide like the metrics registry: the last-constructed session's
  // mode wins, which is what the single-session tools and benches expect.
  support::obs::setMode(Config.TraceMode);
  BaselineResets = support::Metrics::resetCount();
  Baseline = support::Metrics::snapshot();

  const bool IsMte = Config.Protection == Scheme::Mte4JniSync ||
                     Config.Protection == Scheme::Mte4JniAsync;

  rt::RuntimeConfig RC;
  RC.Heap.CapacityBytes = Config.HeapBytes;
  // §4.1: MTE4JNI raises the allocator alignment to the granule size and
  // maps the heap with PROT_MTE.
  RC.Heap.Alignment =
      Config.HeapAlignment ? Config.HeapAlignment : (IsMte ? 16u : 8u);
  RC.Heap.ProtMte = IsMte;
  RC.CheckMode = Config.Protection == Scheme::Mte4JniSync
                     ? mte::CheckMode::Sync
                     : (Config.Protection == Scheme::Mte4JniAsync
                            ? mte::CheckMode::Async
                            : mte::CheckMode::None);
  RC.TagChecksInNative = IsMte;
  RC.Gc.BackgroundThread = Config.BackgroundGc;
  RC.Gc.IntervalMillis = Config.GcIntervalMillis;
  RC.Gc.VerifyObjectBodies = Config.GcVerifiesBodies;
  RC.Gc.SuppressTagChecks = Config.GcSuppressTagChecks;
  RC.Seed = Config.Seed;

  Runtime = std::make_unique<rt::Runtime>(RC);

  switch (Config.Protection) {
  case Scheme::NoProtection:
    Policy = std::make_unique<jni::NoProtectionPolicy>();
    break;
  case Scheme::GuardedCopy: {
    guarded::GuardedCopyOptions GO;
    GO.RedZoneBytes = Config.GuardedRedZoneBytes;
    auto P = std::make_unique<guarded::GuardedCopyPolicy>(GO);
    GuardedPolicy = P.get();
    Policy = std::move(P);
    break;
  }
  case Scheme::Mte4JniSync:
  case Scheme::Mte4JniAsync: {
    core::TagAllocatorOptions AO;
    AO.Locks = Config.Locks;
    AO.ExcludeAdjacentTags = Config.ExcludeAdjacentTags;
    AO.DeferredTagClear = Config.DeferredTagClear;
    auto P = std::make_unique<core::Mte4JniPolicy>(AO);
    MtePolicy = P.get();
    Policy = std::move(P);
    break;
  }
  }

  // Deferred tag-clear is only sound if a freed object cannot keep its
  // granule tags: hook the heap's free/sweep/compact notifications so the
  // allocator reclaims any lingering (released-but-still-tagged) range the
  // moment its object dies. Without this, a dangling native pointer into a
  // swept object would still carry a matching tag.
  if (MtePolicy && MtePolicy->allocator().deferredTagClear())
    Runtime->heap().setFreedRangeHook(
        [](void *Ctx, uint64_t PayloadBegin, uint64_t PayloadBytes) {
          static_cast<core::TagAllocator *>(Ctx)->reclaimRange(
              PayloadBegin, PayloadBegin + PayloadBytes);
        },
        &MtePolicy->allocator());
}

Session::~Session() {
  // Stop the background GC and unhook the freed-range callback before the
  // policy (and with it the tag allocator the hook points at) dies; a
  // sweep racing the policy teardown would otherwise call into a freed
  // allocator.
  Runtime->gc().stop();
  Runtime->heap().setFreedRangeHook(nullptr, nullptr);
  // Policy next (its scratch arena unregisters its MTE region), then the
  // runtime (unregisters the heap region, resets the check mode).
  Policy.reset();
  Runtime.reset();
}

mte::FaultLog &Session::faults() {
  return mte::MteSystem::instance().faultLog();
}

std::string Session::statsReport() const {
  std::string Out;
  Out += support::format("=== session stats (%s) ===\n",
                         schemeName(Config.Protection));

  rt::HeapStats HS = Runtime->heap().stats();
  Out += support::format(
      "heap: %llu objects live (%s), %llu allocated, %llu freed, "
      "%llu free-list hits\n",
      static_cast<unsigned long long>(HS.ObjectsLive),
      support::humanBytes(HS.BytesLive).c_str(),
      static_cast<unsigned long long>(HS.ObjectsAllocated),
      static_cast<unsigned long long>(HS.ObjectsFreed),
      static_cast<unsigned long long>(HS.FreeListHits));
  Out += support::format(
      "gc: %llu cycles completed\n",
      static_cast<unsigned long long>(Runtime->gc().completedCycles()));

  // This session's counts: deltas from the construction-time baseline, or
  // counts since the last resetAll() if one ran since (the baseline no
  // longer applies then). A reset racing this read shows as a count below
  // its base, which reads as counted from the reset, never wrapped.
  const bool Rebased = support::Metrics::resetCount() != BaselineResets;
  const support::MetricsSnapshot Now = support::Metrics::snapshot();
  auto Count = [&](const char *Name) -> unsigned long long {
    uint64_t Value = Now.counterValue(Name);
    uint64_t Base = Rebased ? 0 : Baseline.counterValue(Name);
    return Value >= Base ? Value - Base : Value;
  };

  Out += support::format(
      "mte: %llu irg, %llu granules tagged, %llu ldg, %llu sync faults, "
      "%llu/%llu async latched/delivered\n",
      Count("mte/instr/irg"), Count("mte/instr/stg_granules"),
      Count("mte/instr/ldg"), Count("mte/access/mismatch_sync"),
      Count("mte/access/mismatch_async"), Count("mte/fault/async_delivered"));

  if (MtePolicy) {
    Out += support::format(
        "mte4jni: %llu acquires (%llu generated / %llu shared), "
        "%llu releases, %llu tags cleared, tag table %s, k=%u\n",
        Count("core/tagallocator/acquires"),
        Count("core/tagallocator/tags_generated"),
        Count("core/tagallocator/tags_shared"),
        Count("core/tagallocator/releases"),
        Count("core/tagallocator/tags_cleared"),
        core::tagTableKindName(MtePolicy->allocator().tableKind()),
        MtePolicy->allocator().table().numTables());
  }
  if (GuardedPolicy) {
    Out += support::format(
        "guarded-copy: %llu acquires, %llu releases, %s copied, "
        "%llu corruptions detected\n",
        Count("guarded/acquires"), Count("guarded/releases"),
        support::humanBytes(Count("guarded/bytes_copied")).c_str(),
        Count("guarded/corruptions_detected"));
  }
  Out += support::format(
      "faults recorded: %llu\n",
      static_cast<unsigned long long>(
          mte::MteSystem::instance().faultLog().totalCount()));
  return Out;
}

support::MetricsSnapshot Session::metricsSnapshot() const {
  // The registry itself keeps the GC heap-occupancy gauge fresh only at
  // cycle boundaries; refresh it here so a snapshot taken between cycles
  // (or with the background GC off) still reflects the current heap.
  support::Metrics::gauge("rt/heap/bytes_live")
      .set(static_cast<int64_t>(Runtime->heap().stats().BytesLive));
  return support::Metrics::snapshot();
}

bool Session::writeMetricsJson(const std::string &Path) const {
  std::string Json = metricsSnapshot().toJson();
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  size_t Written = std::fwrite(Json.data(), 1, Json.size(), F);
  bool Ok = std::fclose(F) == 0 && Written == Json.size();
  return Ok;
}

bool Session::writeTraceJson(const std::string &Path) const {
  std::string Json = support::FlightRecorder::exportChromeJson();
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  size_t Written = std::fwrite(Json.data(), 1, Json.size(), F);
  bool Ok = std::fclose(F) == 0 && Written == Json.size();
  return Ok;
}

} // namespace mte4jni::api
