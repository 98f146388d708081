//===- Server.cpp - Tenant-scale JNI request server harness -------------------------===//
//
// Part of the MTE4JNI reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "mte4jni/server/Server.h"

#include "mte4jni/mte/Access.h"
#include "mte4jni/mte/MteSystem.h"
#include "mte4jni/rt/Trampoline.h"
#include "mte4jni/support/MathExtras.h"
#include "mte4jni/support/Rng.h"
#include "mte4jni/support/StringUtils.h"
#include "mte4jni/support/Timer.h"
#include "mte4jni/workloads/Workload.h"

#include <atomic>
#include <chrono>
#include <cmath>
#include <thread>
#include <vector>

namespace mte4jni::server {

namespace {

/// Rogue probes read up to this many bytes past the probe array's granule
/// extent. Kept well inside the guarded-copy red zone and the padding
/// allocations, so the access is always physically mapped.
constexpr uint64_t kRogueMaxOverreadBytes = 64;

/// Simulated syscall cadence (epoll_wait between request batches): the
/// point where latched async MTE faults surface, as on real Linux.
constexpr uint64_t kRequestsPerSyscall = 64;

/// Global (cross-tenant) server metrics. Tenant namespaces mirror the
/// first three; `late` and `jni_crossings` only aggregate globally.
struct ServerMetrics {
  support::Counter &Requests = support::Metrics::counter("server/requests");
  support::Counter &Faults = support::Metrics::counter("server/faults");
  support::Counter &Late = support::Metrics::counter("server/late");
  support::Counter &JniCrossings =
      support::Metrics::counter("server/jni_crossings");
  support::Histogram &RequestNanos =
      support::Metrics::histogram("server/request_nanos");
};

ServerMetrics &serverMetrics() {
  static ServerMetrics M;
  return M;
}

/// Faults delivered on this thread during the current run. The run-scoped
/// fault hook bumps it; each worker drains its own count into its tenant's
/// namespace. Faults are reported on the faulting thread (sync at the
/// access, async at the next simulated syscall), and a worker serves
/// exactly one tenant, so the attribution is exact.
thread_local uint64_t TlFaultsDelivered = 0;

mte::FaultAction countingFaultHook(void *, const mte::FaultRecord &) {
  ++TlFaultsDelivered;
  return mte::FaultAction::Continue;
}

/// Weighted request-kind picker (thresholds over one uniform draw).
struct MixPicker {
  explicit MixPicker(const RequestMix &Mix) : Total(Mix.total()) {
    Upper[0] = Mix.ArrayPin;
    Upper[1] = Upper[0] + Mix.StringCritical;
    Upper[2] = Upper[1] + Mix.RegionCopy;
    Upper[3] = Upper[2] + Mix.HtmlParse;
    Upper[4] = Upper[3] + Mix.Rogue;
  }

  RequestKind pick(support::Xoshiro256 &Rng) const {
    uint64_t Draw = Rng.nextBelow(Total);
    for (unsigned I = 0; I < 5; ++I)
      if (Draw < Upper[I])
        return static_cast<RequestKind>(I);
    return RequestKind::ArrayPin;
  }

  uint64_t Total;
  uint64_t Upper[5] = {};
};

/// Everything a worker thread owns for its tenant: fixtures are
/// per-worker (no cross-thread payload races) but live in the tenant's
/// metric namespace.
struct Worker {
  unsigned Index = 0;
  unsigned Tenant = 0;
  uint64_t Seed = 1;
  /// Open-loop interarrival mean in nanoseconds; 0 = closed loop.
  double MeanInterarrivalNanos = 0;
};

/// Sleeps until \p DueNanos (relative to \p Epoch). Coarse sleeps for the
/// bulk of the wait; short remainders are burned with yields, which on an
/// oversubscribed host donates the slice to another worker instead of
/// spinning hot.
void waitUntil(uint64_t Epoch, uint64_t DueNanos) {
  for (;;) {
    uint64_t Now = support::monotonicNanos() - Epoch;
    if (Now >= DueNanos)
      return;
    uint64_t Remaining = DueNanos - Now;
    if (Remaining > 1'000'000)
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(Remaining - 500'000));
    else
      std::this_thread::yield();
  }
}

class WorkerLoop {
public:
  WorkerLoop(api::Session &S, const ServerConfig &Config,
             const Worker &Plan, std::atomic<bool> &Go,
             std::atomic<bool> &Quit)
      : S(S), Config(Config), Plan(Plan), Go(Go), Quit(Quit) {}

  void run() {
    api::ScopedAttach Me(
        S, support::format("tenant%u-w%u", Plan.Tenant, Plan.Index));
    rt::HandleScope Scope(S.runtime());
    support::Xoshiro256 Rng(Plan.Seed);

    // ---- fixtures (allocation is not what the stream measures) ----------
    TenantMetrics TM = TenantMetrics::of(Plan.Tenant);
    ServerMetrics &GM = serverMetrics();
    MixPicker Picker(Config.Mix);

    jni::jarray IntArray =
        Me.env().NewIntArray(Scope, static_cast<jni::jsize>(Config.ArrayInts));
    // The rogue probe sits between two pad arrays so a bounded OOB read
    // stays inside mapped heap under every scheme.
    (void)Me.env().NewIntArray(Scope, 256);
    jni::jarray Probe = Me.env().NewIntArray(Scope, 18);
    (void)Me.env().NewIntArray(Scope, 256);
    const int64_t ProbeExtent = static_cast<int64_t>(
        support::alignTo(Probe->dataBytes(), mte::kGranuleSize));
    jni::jstring Str = Me.env().NewStringUTF(
        Scope, "tenant request string payload: forty-four ch");

    std::unique_ptr<workloads::Workload> Html =
        workloads::makeWorkload("HTML5 DOM Strings");
    workloads::WorkloadContext Ctx{S, Me.env(), Me.thread(), Scope,
                                   Plan.Seed};
    Html->prepare(Ctx);

    uint64_t FaultsDrained = TlFaultsDelivered;
    // Publishes TlFaultsDelivered growth into the tenant + global
    // counters. Called at the syscall cadence (not per request) so live
    // stream snapshots see faults while the run is still going.
    auto DrainFaults = [&] {
      uint64_t Now = TlFaultsDelivered;
      if (Now != FaultsDrained) {
        TM.Faults->add(Now - FaultsDrained);
        GM.Faults.add(Now - FaultsDrained);
        FaultsDrained = Now;
      }
    };

    // ---- start barrier --------------------------------------------------
    while (!Go.load(std::memory_order_acquire))
      std::this_thread::yield();
    const uint64_t Epoch = support::monotonicNanos();

    // ---- request loop ---------------------------------------------------
    uint64_t Served = 0;
    uint64_t NextDueNanos = 0; // scheduled arrival, ns since Epoch
    uint64_t Sink = 0;
    while (!Quit.load(std::memory_order_acquire)) {
      uint64_t ScheduledNanos;
      if (Plan.MeanInterarrivalNanos > 0) {
        // Open loop: Poisson arrivals at the worker's share of the target
        // rate. Latency is charged from the SCHEDULED arrival, so queueing
        // behind a GC pause (or behind this worker's own slow request)
        // inflates the recorded tail instead of being silently omitted.
        ScheduledNanos = NextDueNanos;
        double U = Rng.nextDouble();
        if (U < 1e-12)
          U = 1e-12;
        NextDueNanos += static_cast<uint64_t>(
            -Plan.MeanInterarrivalNanos * std::log(U));
        uint64_t Now = support::monotonicNanos() - Epoch;
        if (Now < ScheduledNanos)
          waitUntil(Epoch, ScheduledNanos);
        else if (Now > ScheduledNanos +
                           static_cast<uint64_t>(Plan.MeanInterarrivalNanos))
          GM.Late.add();
      } else {
        // Closed loop: back-to-back; latency == service time.
        ScheduledNanos = support::monotonicNanos() - Epoch;
      }

      RequestKind Kind = Picker.pick(Rng);
      Sink += serveOne(Kind, Me, IntArray, Probe, ProbeExtent, Str, *Html,
                       Ctx, Rng);

      uint64_t EndNanos = support::monotonicNanos() - Epoch;
      uint64_t Latency = EndNanos - ScheduledNanos;
      TM.RequestNanos->record(Latency);
      GM.RequestNanos.record(Latency);
      TM.Requests->add();
      GM.Requests.add();
      GM.JniCrossings.add();

      if (++Served % kRequestsPerSyscall == 0) {
        mte::simulatedSyscall("epoll_wait"); // surfaces latched async faults
        DrainFaults();
      }
    }
    // Final syscall barrier so async faults latched by the tail of the
    // stream are delivered (and counted) before the worker reports.
    mte::simulatedSyscall("epoll_wait");
    DrainFaults();
    asm volatile("" : : "r"(Sink));
  }

private:
  uint64_t serveOne(RequestKind Kind, api::ScopedAttach &Me,
                    jni::jarray IntArray, jni::jarray Probe,
                    int64_t ProbeExtent, jni::jstring Str,
                    workloads::Workload &Html,
                    workloads::WorkloadContext &Ctx,
                    support::Xoshiro256 &Rng) {
    switch (Kind) {
    case RequestKind::ArrayPin:
      return rt::callNative(
          Me.thread(), rt::NativeKind::Regular, "srv_array_pin", [&] {
            jni::jboolean IsCopy;
            auto P = Me.env().GetIntArrayElements(IntArray, &IsCopy);
            uint64_t Acc = 0;
            // Bulk checked read of the whole array (boundary-traffic
            // style: one granule check per 16 bytes).
            Scratch.resize(IntArray->Length);
            mte::readBytes(Scratch.data(), P.cast<const void>(),
                           uint64_t(IntArray->Length) * sizeof(jni::jint));
            Acc += static_cast<uint32_t>(Scratch[0]) +
                   static_cast<uint32_t>(Scratch[Scratch.size() - 1]);
            Me.env().ReleaseIntArrayElements(IntArray, P, jni::JNI_ABORT);
            return Acc;
          });
    case RequestKind::StringCritical:
      return rt::callNative(
          Me.thread(), rt::NativeKind::CriticalNative, "srv_string_crit",
          [&] {
            jni::jboolean IsCopy;
            jni::jsize Len = Me.env().GetStringLength(Str);
            auto P = Me.env().GetStringCritical(Str, &IsCopy);
            uint64_t Acc = 0;
            // Per-char scan through mte::load. A @CriticalNative call
            // leaves TCO as the caller had it (set), so these loads are
            // unchecked under every scheme: the request prices the pin
            // and the trampoline, not tag checks. The strided checkpoint
            // lets a requested GC pause run mid-scan instead of waiting
            // out the whole critical section: the string stays pinned, so
            // P is stable across the poll.
            for (jni::jsize I = 0; I < Len; ++I) {
              if ((I & 63) == 0)
                S.runtime().safepointPoll();
              Acc += mte::load<const jni::jchar>(P + I);
            }
            Me.env().ReleaseStringCritical(Str, P);
            return Acc;
          });
    case RequestKind::RegionCopy:
      return rt::callNative(
          Me.thread(), rt::NativeKind::Regular, "srv_region_copy", [&] {
            jni::jint Buf[256];
            jni::jsize Window = std::min<jni::jsize>(256, IntArray->Length);
            jni::jsize Start = static_cast<jni::jsize>(
                Rng.nextBelow(uint64_t(IntArray->Length - Window) + 1));
            Me.env().GetIntArrayRegion(IntArray, Start, Window, Buf);
            Me.env().SetIntArrayRegion(IntArray, Start, Window, Buf);
            // Per-request temporary objects: local-frame garbage keeps the
            // GC honest under load, so pauses show up in the tails like a
            // real allocating server.
            Me.env().PushLocalFrame(4);
            (void)Me.env().NewIntArrayLocal(128);
            Me.env().PopLocalFrame(nullptr);
            return static_cast<uint64_t>(static_cast<uint32_t>(Buf[0]));
          });
    case RequestKind::HtmlParse:
      return Html.run(Ctx);
    case RequestKind::Rogue:
      return rt::callNative(
          Me.thread(), rt::NativeKind::Regular, "srv_rogue_read", [&] {
            // A buggy native library: read past the probe array's granule
            // extent. Reads are what guarded copy structurally cannot
            // catch (§2.3) and MTE catches outright; under NoProtection
            // the read lands in the (mapped) pad allocation.
            jni::jboolean IsCopy;
            auto P = Me.env()
                         .GetPrimitiveArrayCritical(Probe, &IsCopy)
                         .cast<const jni::jbyte>();
            int64_t Offset =
                ProbeExtent +
                static_cast<int64_t>(Rng.nextBelow(kRogueMaxOverreadBytes));
            volatile jni::jbyte V =
                mte::load<const jni::jbyte>(P + Offset);
            (void)V;
            Me.env().ReleasePrimitiveArrayCritical(
                Probe, P.cast<void>(), jni::JNI_ABORT);
            return uint64_t(1);
          });
    case RequestKind::kNumKinds:
      break;
    }
    return 0;
  }

  api::Session &S;
  const ServerConfig &Config;
  Worker Plan;
  std::atomic<bool> &Go;
  std::atomic<bool> &Quit;
  std::vector<jni::jint> Scratch;
};

TenantSummary summariseTenant(const support::MetricsSnapshot &Snap,
                              unsigned Tenant) {
  TenantSummary Out;
  Out.Tenant = Tenant;
  std::string Base = support::format("server/tenant%u/", Tenant);
  Out.Requests = Snap.counterValue(Base + "requests");
  Out.Faults = Snap.counterValue(Base + "faults");
  if (const support::HistogramSample *H =
          Snap.histogram(Base + "request_nanos")) {
    Out.MeanNanos = H->mean();
    Out.P50Nanos = H->percentileUpperBound(50);
    Out.P99Nanos = H->percentileUpperBound(99);
    Out.P999Nanos = H->percentileUpperBound(99.9);
  }
  return Out;
}

} // namespace

const char *requestKindName(RequestKind Kind) {
  switch (Kind) {
  case RequestKind::ArrayPin:
    return "array_pin";
  case RequestKind::StringCritical:
    return "string_critical";
  case RequestKind::RegionCopy:
    return "region_copy";
  case RequestKind::HtmlParse:
    return "html_parse";
  case RequestKind::Rogue:
    return "rogue";
  case RequestKind::kNumKinds:
    break;
  }
  return "?";
}

TenantMetrics TenantMetrics::of(unsigned Tenant) {
  TenantMetrics Out;
  std::string Base = support::format("server/tenant%u/", Tenant);
  Out.Requests = &support::Metrics::counter((Base + "requests").c_str());
  Out.Faults = &support::Metrics::counter((Base + "faults").c_str());
  Out.RequestNanos =
      &support::Metrics::histogram((Base + "request_nanos").c_str());
  return Out;
}

ServerResult runServer(api::Session &S, const ServerConfig &Config) {
  ServerResult Result;
  if (Config.NumTenants == 0 || Config.NumWorkers == 0 ||
      Config.Mix.total() == 0)
    return Result;

  ServerMetrics &GM = serverMetrics();
  uint64_t RequestsBefore = GM.Requests.value();
  uint64_t FaultsBefore = GM.Faults.value();
  uint64_t CrossingsBefore = GM.JniCrossings.value();
  uint64_t LateBefore = GM.Late.value();

  // Run-scoped fault attribution hook (restored on return; nothing else
  // in the tree installs a handler).
  mte::MteSystem::instance().setFaultHandler(countingFaultHook, nullptr);

  std::unique_ptr<SnapshotStreamer> Streamer;
  if (!Config.StreamPath.empty())
    Streamer = std::make_unique<SnapshotStreamer>(SnapshotStreamer::Config{
        Config.StreamPath, Config.StreamIntervalMillis, Config.StreamLabel,
        Config.StreamAppend});

  std::atomic<bool> Go{false}, Quit{false};
  std::vector<std::thread> Threads;
  Threads.reserve(Config.NumWorkers);
  for (unsigned W = 0; W < Config.NumWorkers; ++W) {
    Worker Plan;
    Plan.Index = W;
    Plan.Tenant = W % Config.NumTenants;
    Plan.Seed = Config.Seed * 0x9e3779b97f4a7c15ULL + W + 1;
    if (Config.TargetRatePerSec > 0)
      Plan.MeanInterarrivalNanos =
          1e9 / (Config.TargetRatePerSec / Config.NumWorkers);
    Threads.emplace_back([&S, &Config, Plan, &Go, &Quit] {
      WorkerLoop Loop(S, Config, Plan, Go, Quit);
      Loop.run();
    });
  }

  support::Stopwatch Timer;
  Go.store(true, std::memory_order_release);
  std::this_thread::sleep_for(
      std::chrono::milliseconds(Config.DurationMillis));
  Quit.store(true, std::memory_order_release);
  for (std::thread &T : Threads)
    T.join();
  double Seconds = Timer.elapsedSeconds();

  if (Streamer) {
    Streamer->stop();
    Result.StreamedSnapshots = Streamer->linesWritten();
  }
  mte::MteSystem::instance().setFaultHandler(nullptr, nullptr);

  // Workers are quiescent: the snapshot is exact.
  support::MetricsSnapshot Snap = support::Metrics::snapshot();
  Result.DurationSeconds = Seconds;
  Result.Requests = GM.Requests.value() - RequestsBefore;
  Result.Faults = GM.Faults.value() - FaultsBefore;
  Result.JniCrossings = GM.JniCrossings.value() - CrossingsBefore;
  Result.LateArrivals = GM.Late.value() - LateBefore;
  Result.RequestsPerSec = Seconds > 0 ? Result.Requests / Seconds : 0;
  Result.CrossingsPerSec = Seconds > 0 ? Result.JniCrossings / Seconds : 0;
  Result.FaultsPerSec = Seconds > 0 ? Result.Faults / Seconds : 0;
  if (const support::HistogramSample *H =
          Snap.histogram("server/request_nanos")) {
    Result.MeanNanos = H->mean();
    Result.P50Nanos = H->percentileUpperBound(50);
    Result.P99Nanos = H->percentileUpperBound(99);
    Result.P999Nanos = H->percentileUpperBound(99.9);
  }
  Result.Tenants.reserve(Config.NumTenants);
  for (unsigned T = 0; T < Config.NumTenants; ++T)
    Result.Tenants.push_back(summariseTenant(Snap, T));
  return Result;
}

} // namespace mte4jni::server
