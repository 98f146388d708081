//===- main.cpp - The repository benchmark: one workload, end to end ------------===//
//
// Part of the MTE4JNI reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Runs one named workload as a closed loop: one client thread per core
// (at most 4), each making a fixed, seeded sequence of native calls
// against an api::Session in Scheme::Mte4JniSync with SessionConfig
// defaults, and checks every call. Untraced (--trace 0) it prints the
// end-to-end metrics; traced (--trace 1) it repeats the same calls with
// spans around every call into a layer and prints the per-layer metrics.
// README.md explains the workloads and metrics; run.py builds and runs it.
//
//===----------------------------------------------------------------------===//

#include "Clients.h"
#include "Stats.h"
#include "Trace.h"

#include "mte4jni/mte/MteSystem.h"
#include "mte4jni/support/Metrics.h"
#include "mte4jni/support/StringUtils.h"
#include "mte4jni/support/Timer.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

using namespace mte4jni;
using namespace perfbench;

namespace {

/// Set-ups per run; setup_s is their median.
constexpr unsigned kSetupRuns = 5;
constexpr unsigned kMaxClientThreads = 4;
/// Raw spans are kept for kSampledCalls calls spread evenly over each
/// thread's sequence, at most kMaxRawSpans per thread.
constexpr uint64_t kSampledCalls = 1000;
constexpr size_t kMaxRawSpans = 8192;
/// A seed never used while tuning the benchmark; confirm claims on it.
constexpr uint64_t kHoldoutSeed = 7919;

struct Options {
  const WorkloadSpec *Spec = nullptr;
  uint64_t Seed = 1;
  uint64_t Seconds = 10;
  bool Trace = false;
  std::string GitSha = "unknown";
  std::string SourceDigest = "unknown";
  std::string OutDir = ".";
};

[[noreturn]] void usage(const std::string &Problem) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<pin_churn|jni_scan|server_gc> [--seed N] [--seconds N] "
               "[--trace 0|1] [--git-sha S] [--source-digest S] "
               "[--out-dir DIR]\n",
               Problem.c_str());
  std::exit(2);
}

uint64_t parseUnsigned(const std::string &Flag, const char *Text) {
  char *End = nullptr;
  errno = 0;
  unsigned long long V = std::strtoull(Text, &End, 10);
  if (errno != 0 || End == Text || *End != '\0' || Text[0] == '-')
    usage(Flag + " takes a non-negative integer, not '" + Text + "'");
  return V;
}

Options parseOptions(int Argc, char **Argv) {
  Options O;
  for (int I = 1; I < Argc; I += 2) {
    std::string Flag = Argv[I];
    if (I + 1 >= Argc)
      usage("missing value for " + Flag);
    const char *Value = Argv[I + 1];
    if (Flag == "--workload") {
      O.Spec = findWorkload(Value);
      if (!O.Spec)
        usage(std::string("unknown workload '") + Value + "'");
    } else if (Flag == "--seed") {
      O.Seed = parseUnsigned(Flag, Value);
    } else if (Flag == "--seconds") {
      O.Seconds = parseUnsigned(Flag, Value);
      if (O.Seconds == 0 || O.Seconds > 600)
        usage("--seconds must be in 1..600");
    } else if (Flag == "--trace") {
      uint64_t T = parseUnsigned(Flag, Value);
      if (T > 1)
        usage("--trace takes 0 or 1");
      O.Trace = T == 1;
    } else if (Flag == "--git-sha") {
      O.GitSha = Value;
    } else if (Flag == "--source-digest") {
      O.SourceDigest = Value;
    } else if (Flag == "--out-dir") {
      O.OutDir = Value;
    } else {
      usage("unknown flag '" + Flag + "'");
    }
  }
  if (!O.Spec)
    usage("--workload is required");
  return O;
}

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0.0; }

unsigned affinityCpus() {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
    return static_cast<unsigned>(CPU_COUNT(&Set));
  return std::max(1u, std::thread::hardware_concurrency());
}

/// Independent streams for fixtures, warm-up and timed calls per thread.
uint64_t streamSeed(uint64_t Seed, uint64_t Thread, uint64_t Stream) {
  uint64_t X = Seed * 0x9e3779b97f4a7c15ULL + Thread * 0xbf58476d1ce4e5b9ULL +
               Stream * 0x94d049bb133111ebULL;
  return X ^ (X >> 31);
}
uint64_t fixtureSeed(uint64_t Seed) { return streamSeed(Seed, 0, 99); }

/// Tag faults delivered on this thread; the session's fault hook counts
/// them (as server::runServer does), and each call reads the difference.
thread_local uint64_t TlFaults = 0;

mte::FaultAction countFault(void *, const mte::FaultRecord &) {
  ++TlFaults;
  return mte::FaultAction::Continue;
}

api::SessionConfig sessionConfig(const WorkloadSpec &Spec,
                                 api::Scheme Scheme) {
  api::SessionConfig C;
  C.Protection = Scheme;
  C.BackgroundGc = Spec.BackgroundGc;
  return C;
}

/// Records one call's outcome: a benign call is compared with its
/// reference checksum; a planted access must have raised a fault.
void tallyCall(const Call &C, uint64_t Sum, uint64_t Faults,
               jni::JniEnv &Env, const ReferenceTable &Ref, Tally &T) {
  bool Pending = Env.ExceptionCheck();
  if (Pending)
    Env.ExceptionClear();
  if (C.IsPlant)
    T.planted(C.P, Faults);
  else
    T.benign(Sum == Ref[static_cast<unsigned>(C.Kind)][C.Input], Faults,
             Pending);
}

/// Checksums of every benign call the workload can make, from a session
/// with no protection.
ReferenceTable referencePass(const WorkloadSpec &Spec, uint64_t Seed) {
  ReferenceTable Ref;
  api::Session S(sessionConfig(Spec, api::Scheme::NoProtection));
  api::ScopedAttach Main(S, "reference");
  rt::HandleScope Scope(S.runtime());
  SharedFixtures Shared = makeSharedFixtures(Main.env(), Scope, Seed);
  Client Cl(S, Main, Scope, Spec, Shared, fixtureSeed(Seed));
  for (const auto &[Kind, Weight] : Spec.Mix) {
    std::vector<uint64_t> &Sums = Ref[static_cast<unsigned>(Kind)];
    Sums.resize(numInputs(Kind));
    for (unsigned I = 0; I < Sums.size(); ++I) {
      Call C;
      C.Kind = Kind;
      C.Input = I;
      Sums[I] = Cl.call(C, support::monotonicNanos(), 0, nullptr).Sum;
      if (Main.env().ExceptionCheck()) {
        std::fprintf(stderr, "perfbench: reference call raised '%s'\n",
                     Main.env().exceptionMessage().c_str());
        std::exit(1);
      }
    }
  }
  return Ref;
}

/// One thread's share of a pass. Calls and Latency cover the calls that
/// ended while every client was still calling; Counts covers all of them.
struct ThreadResult {
  Tally Counts;
  uint64_t Calls = 0;
  LatencyHistogram Latency;
  std::unique_ptr<SpanTracer> Tracer;
  uint64_t EndNanos = 0;
};

/// One set-up: the MTE4JNI session, the shared fixtures and the client
/// threads, warmed and parked until runPass().
class Bench {
public:
  Bench(const Options &O, const ReferenceTable &Ref, unsigned Threads,
        uint64_t CallsPerThread)
      : O(O), Spec(*O.Spec), Ref(Ref), CallsPerThread(CallsPerThread),
        Results(Threads) {
    S = std::make_unique<api::Session>(
        sessionConfig(Spec, api::Scheme::Mte4JniSync));
    mte::MteSystem::instance().setFaultHandler(countFault, nullptr);
    Main = std::make_unique<api::ScopedAttach>(*S, "main");
    MainScope = std::make_unique<rt::HandleScope>(S->runtime());
    Shared = makeSharedFixtures(Main->env(), *MainScope, O.Seed);
    ExhaustedBefore = frontierExhausted().value();
    for (unsigned T = 0; T < Threads; ++T)
      Workers.emplace_back([this, T] { threadMain(T); });
    std::unique_lock<std::mutex> Lock(M);
    Cv.wait(Lock, [&] { return Ready == Workers.size(); });
    FrontierSwitched = frontierExhausted().value() > ExhaustedBefore;
  }

  ~Bench() {
    {
      std::lock_guard<std::mutex> Lock(M);
      Quit = true;
    }
    Cv.notify_all();
    for (std::thread &W : Workers)
      W.join();
    mte::MteSystem::instance().setFaultHandler(nullptr, nullptr);
  }

  Bench(const Bench &) = delete;
  Bench &operator=(const Bench &) = delete;

  /// Every client makes its fixed call sequence once; returns when all
  /// are done. Each pass repeats the same calls.
  void runPass(bool Traced) {
    std::unique_lock<std::mutex> Lock(M);
    TracedPass = Traced;
    FirstDoneNanos.store(UINT64_MAX, std::memory_order_relaxed);
    PassStartNanos = support::monotonicNanos();
    Done = 0;
    ++Generation;
    Cv.notify_all();
    Cv.wait(Lock, [&] { return Done == Workers.size(); });
  }

  const std::vector<ThreadResult> &results() const { return Results; }
  uint64_t passStartNanos() const { return PassStartNanos; }
  uint64_t warmupFailures() const { return WarmupFailures; }
  /// Whether the heap's bump frontier ran out during the warm-up (always
  /// true for workloads that do not warm the heap).
  bool frontierSwitched() const {
    return !Spec.BackgroundGc || FrontierSwitched;
  }

private:
  static support::Counter &frontierExhausted() {
    return support::Metrics::counter(
        "rt/heap/tlab_slow_reason/frontier_exhausted");
  }

  void threadMain(unsigned T) {
    try {
      api::ScopedAttach Me(*S, support::format("client-%u", T));
      rt::HandleScope Scope(S->runtime());
      Client Cl(*S, Me, Scope, Spec, Shared, fixtureSeed(O.Seed));
      Tally Warm;
      if (Spec.BackgroundGc)
        warmHeap(Cl);
      CallSequence WarmSeq(Spec, streamSeed(O.Seed, T, 1));
      for (uint64_t I = 0; I < Spec.WarmupCalls; ++I) {
        Call C = WarmSeq.next();
        uint64_t Faults = TlFaults;
        CallResult R = Cl.call(C, support::monotonicNanos(), I, nullptr);
        tallyCall(C, R.Sum, TlFaults - Faults, Cl.env(), Ref, Warm);
      }
      unsigned Seen = 0;
      {
        std::lock_guard<std::mutex> Lock(M);
        WarmupFailures += Warm.BenignFailed;
        Seen = Generation;
        ++Ready;
      }
      Cv.notify_all();
      for (;;) {
        bool Traced;
        {
          std::unique_lock<std::mutex> Lock(M);
          Cv.wait(Lock, [&] { return Quit || Generation != Seen; });
          if (Quit)
            return;
          Seen = Generation;
          Traced = TracedPass;
        }
        timedCalls(Cl, T, Traced);
        {
          std::lock_guard<std::mutex> Lock(M);
          ++Done;
        }
        Cv.notify_all();
      }
    } catch (const std::exception &E) {
      std::fprintf(stderr, "perfbench: client %u failed: %s\n", T, E.what());
      std::fflush(stderr);
      std::_Exit(3);
    }
  }

  /// Allocates garbage until the heap's bump frontier has run out, so the
  /// timed calls see the free-list regime a long-running server reaches
  /// (not the fresh-heap one). Bounded by twice the heap; a set-up that
  /// never saw the switch makes the run incorrect (frontierSwitched()).
  void warmHeap(Client &Cl) {
    constexpr unsigned kBatch = 64;
    constexpr uint64_t kArrayBytes = 16 + 128 * sizeof(jni::jint);
    const uint64_t Limit =
        2 * S->config().HeapBytes / kArrayBytes / Results.size();
    support::Counter &Exhausted = frontierExhausted();
    uint64_t Made = 0, AfterSwitch = 0;
    while (Made < Limit && AfterSwitch < 4 * kBatch) {
      Cl.allocateGarbage(kBatch);
      if (Cl.env().ExceptionCheck()) {
        std::fprintf(stderr, "perfbench: heap warm-up raised '%s'\n",
                     Cl.env().exceptionMessage().c_str());
        std::fflush(nullptr);
        std::_Exit(1);
      }
      Made += kBatch;
      if (Exhausted.value() > ExhaustedBefore)
        AfterSwitch += kBatch;
    }
  }

  void timedCalls(Client &Cl, unsigned T, bool Traced) {
    ThreadResult &R = Results[T];
    R.Counts = Tally();
    R.Calls = 0;
    R.Latency = LatencyHistogram();
    R.Tracer = Traced ? std::make_unique<SpanTracer>(
                            std::max<uint64_t>(1, CallsPerThread / kSampledCalls),
                            kMaxRawSpans)
                      : nullptr;
    CallSequence Seq(Spec, streamSeed(O.Seed, T, 0));
    for (uint64_t I = 0; I < CallsPerThread; ++I) {
      Call C = Seq.next();
      uint64_t Faults = TlFaults;
      uint64_t Start = support::monotonicNanos();
      CallResult Out = Cl.call(C, Start, I, R.Tracer.get());
      if (Out.EndNanos <= FirstDoneNanos.load(std::memory_order_relaxed)) {
        ++R.Calls;
        R.Latency.record(Out.EndNanos - Start);
      }
      tallyCall(C, Out.Sum, TlFaults - Faults, Cl.env(), Ref, R.Counts);
    }
    R.EndNanos = support::monotonicNanos();
    uint64_t First = FirstDoneNanos.load(std::memory_order_relaxed);
    while (R.EndNanos < First &&
           !FirstDoneNanos.compare_exchange_weak(First, R.EndNanos,
                                                 std::memory_order_relaxed))
      ;
  }

  const Options &O;
  const WorkloadSpec &Spec;
  const ReferenceTable &Ref;
  const uint64_t CallsPerThread;
  std::unique_ptr<api::Session> S;
  std::unique_ptr<api::ScopedAttach> Main;
  std::unique_ptr<rt::HandleScope> MainScope;
  SharedFixtures Shared;
  uint64_t ExhaustedBefore = 0;
  bool FrontierSwitched = false;

  std::mutex M;
  std::condition_variable Cv;
  size_t Ready = 0;
  size_t Done = 0;
  unsigned Generation = 0;
  bool TracedPass = false;
  uint64_t PassStartNanos = 0;
  /// When the first client finished its calls in this pass; until then
  /// every client is calling.
  std::atomic<uint64_t> FirstDoneNanos{UINT64_MAX};
  bool Quit = false;
  uint64_t WarmupFailures = 0;

  std::vector<ThreadResult> Results;
  std::vector<std::thread> Workers; // last: joined before the rest go
};

/// What one pass measured, merged over the client threads. Throughput and
/// latency cover the section in which every client was calling: from the
/// pass start to the end of the first client's last call.
struct PassSummary {
  Tally Counts;
  LatencyHistogram Latency;
  uint64_t Calls = 0;
  uint64_t ActiveNanos = 0;
  uint64_t WallNanos = 0;

  double callsPerSecond() const {
    return ratio(double(Calls), double(ActiveNanos) * 1e-9);
  }
  double p50Nanos() const { return Latency.percentile(50); }
  double p99Nanos() const { return Latency.percentile(99); }
};

PassSummary summarise(const std::vector<ThreadResult> &Results,
                      uint64_t PassStart) {
  PassSummary P;
  uint64_t FirstDone = UINT64_MAX, LastDone = 0;
  for (const ThreadResult &R : Results) {
    P.Counts.merge(R.Counts);
    P.Latency.merge(R.Latency);
    P.Calls += R.Calls;
    FirstDone = std::min(FirstDone, R.EndNanos);
    LastDone = std::max(LastDone, R.EndNanos);
  }
  P.ActiveNanos = FirstDone - PassStart;
  P.WallNanos = LastDone - PassStart;
  return P;
}

struct Metric {
  std::string Name;
  double Value;
  const char *Unit;
};

std::string fmt(double V) {
  if (!std::isfinite(V))
    V = 0;
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.12g", V);
  return Buf;
}

/// Registry deltas over the traced pass: counters (including derived
/// mirrors that resetAll cannot zero) and histogram sums and counts.
struct RegistryDelta {
  support::MetricsSnapshot Before, After;
  double counter(const char *Name) const {
    return double(After.counterValue(Name)) -
           double(Before.counterValue(Name));
  }
  double histSum(const char *Name) const {
    return histField(Name, true);
  }
  double histCount(const char *Name) const {
    return histField(Name, false);
  }

private:
  double histField(const char *Name, bool Sum) const {
    auto Get = [&](const support::MetricsSnapshot &S) {
      const support::HistogramSample *H = S.histogram(Name);
      return H ? double(Sum ? H->Sum : H->Count) : 0.0;
    };
    return Get(After) - Get(Before);
  }
};

std::vector<Metric> perLayerMetrics(const std::vector<ThreadResult> &Results,
                                    const PassSummary &Traced,
                                    double UntracedCallsPerSecond,
                                    const RegistryDelta &Reg) {
  SpanStats Span[kNumSpans];
  for (const ThreadResult &R : Results)
    for (unsigned I = 0; I < kNumSpans; ++I)
      Span[I].merge(R.Tracer->stats(static_cast<SpanId>(I)));
  double LayerSelf[kNumLayers] = {};
  for (unsigned I = 0; I < kNumSpans; ++I)
    LayerSelf[static_cast<unsigned>(layerOf(static_cast<SpanId>(I)))] +=
        double(Span[I].SelfNanos);
  const double CallNanos = double(Span[kSpanCall].TotalNanos);
  const double Calls = double(Traced.Counts.Attempted);
  auto Share = [&](Layer L) {
    return ratio(LayerSelf[static_cast<unsigned>(L)], CallNanos);
  };
  auto P = [&](SpanId Id, double Pct, double Scale = 1.0) {
    return Span[Id].Durations.percentile(Pct) / Scale;
  };
  auto PerUnit = [&](SpanId Id, double UnitScale = 1.0) {
    return ratio(double(Span[Id].TotalNanos),
                 double(Span[Id].Units) / UnitScale);
  };
  const double Pins = Reg.counter("core/tagallocator/acquires");
  const double TableOps = Pins + Reg.counter("core/tagallocator/releases");
  const double PauseNanos = Reg.histSum("rt/gc/pause_nanos");
  const Tally &T = Traced.Counts;
  auto Plants = [&](Plant Pl) {
    return double(T.Planted[static_cast<unsigned>(Pl)]);
  };
  auto Missed = [&](Plant Pl) {
    return double(T.Missed[static_cast<unsigned>(Pl)]);
  };

  return {
      {"rt.trampoline.entry_ns_p50", P(kSpanTrampolineEntry, 50), "ns"},
      {"rt.trampoline.entry_ns_p99", P(kSpanTrampolineEntry, 99), "ns"},
      {"rt.trampoline.exit_ns_p50", P(kSpanTrampolineExit, 50), "ns"},
      {"rt.trampoline.share", Share(Layer::Trampoline), "ratio"},
      {"jni.pin.acquire_ns_p50", P(kSpanPinAcquire, 50), "ns"},
      {"jni.pin.acquire_ns_p99", P(kSpanPinAcquire, 99), "ns"},
      {"jni.pin.release_ns_p50", P(kSpanPinRelease, 50), "ns"},
      {"jni.pin.release_ns_p99", P(kSpanPinRelease, 99), "ns"},
      {"jni.pin.shared_acquire_ns_p50", P(kSpanPinSharedAcquire, 50), "ns"},
      {"jni.pin.share", Share(Layer::Pin), "ratio"},
      {"core.tagtable.fast_share",
       ratio(Reg.counter("core/tagtable/lockfree/acquire_fast") +
                 Reg.counter("core/tagtable/lockfree/release_fast"),
             TableOps),
       "ratio"},
      {"core.tagtable.release_deferred_share",
       ratio(Reg.counter("core/tagtable/lockfree/release_deferred"),
             Reg.counter("core/tagallocator/releases")),
       "ratio"},
      {"mte.instr.irg_per_pin", ratio(Reg.counter("mte/instr/irg"), Pins),
       "count"},
      {"mte.instr.stg_granules_per_pin",
       ratio(Reg.counter("mte/instr/stg_granules"), Pins), "count"},
      {"mte.check.load_ns", PerUnit(kSpanCheckLoad), "ns"},
      {"mte.check.store_ns", PerUnit(kSpanCheckStore), "ns"},
      {"mte.check.range_ns_per_kib", PerUnit(kSpanCheckRange, 1024.0),
       "ns/KiB"},
      {"mte.check.share", Share(Layer::Check), "ratio"},
      {"mte.access.checked_loads_per_call",
       ratio(Reg.counter("mte/access/checked_loads"), Calls), "count"},
      {"mte.access.region_cache_hit_share",
       ratio(Reg.counter("mte/access/region_cache_hit"),
             Reg.counter("mte/access/region_cache_hit") +
                 Reg.counter("mte/access/region_cache_miss")),
       "ratio"},
      {"mte.tagstore.uniform_hit_share",
       ratio(Reg.counter("mte/tagstore/uniform_hit"),
             Reg.counter("mte/tagstore/uniform_hit") +
                 Reg.counter("mte/tagstore/mixed_fallback")),
       "ratio"},
      {"jni.region.ns_p50", P(kSpanRegion, 50), "ns"},
      {"jni.region.share", Share(Layer::Region), "ratio"},
      {"rt.heap.alloc_ns_p50", P(kSpanHeapAlloc, 50), "ns"},
      {"rt.heap.alloc_ns_p99", P(kSpanHeapAlloc, 99), "ns"},
      {"rt.heap.tlab_hit_share",
       ratio(Reg.counter("rt/heap/tlab_hit"),
             double(Span[kSpanHeapAlloc].Count)),
       "ratio"},
      {"rt.heap.freelist_steals", Reg.counter("rt/heap/freelist_steal"),
       "count"},
      {"rt.heap.share", Share(Layer::Heap), "ratio"},
      {"rt.gc.pause_share", ratio(PauseNanos, double(Traced.WallNanos)),
       "ratio"},
      {"rt.gc.pause_mean_us",
       ratio(PauseNanos, Reg.histCount("rt/gc/pause_nanos")) / 1e3, "us"},
      {"rt.gc.ttsp_share", ratio(Reg.histSum("rt/gc/ttsp_nanos"), PauseNanos),
       "ratio"},
      {"rt.gc.cycles", Reg.counter("rt/gc/cycles"), "count"},
      {"rt.gc.safepoint_blocks_per_kcall",
       ratio(Reg.counter("rt/gc/safepoint_blocks") * 1e3, Calls), "count"},
      {"workloads.clang.run_us_p50", P(kSpanRunClang, 50, 1e3), "us"},
      {"workloads.text.run_us_p50", P(kSpanRunText, 50, 1e3), "us"},
      {"workloads.pdf.run_us_p50", P(kSpanRunPdf, 50, 1e3), "us"},
      {"workloads.html_dom.run_us_p50", P(kSpanRunHtmlDom, 50, 1e3), "us"},
      {"workloads.share", Share(Layer::Workloads), "ratio"},
      {"native.body_self_share", Share(Layer::Body), "ratio"},
      {"detect.oob_read.planted", Plants(Plant::OobRead), "count"},
      {"detect.oob_read.missed", Missed(Plant::OobRead), "count"},
      {"detect.oob_write.planted", Plants(Plant::OobWrite), "count"},
      {"detect.oob_write.missed", Missed(Plant::OobWrite), "count"},
      {"detect.use_after_release.planted", Plants(Plant::UseAfterRelease),
       "count"},
      {"detect.use_after_release.missed", Missed(Plant::UseAfterRelease),
       "count"},
      {"detect.sub_granule_read.planted", Plants(Plant::SubGranuleRead),
       "count"},
      {"detect.sub_granule_read.missed", Missed(Plant::SubGranuleRead),
       "count"},
      {"benign.false_faults", double(T.FalseFaults), "count"},
      {"benign.bad_checksums", double(T.BadChecksums), "count"},
      {"benign.pending_exceptions", double(T.PendingExceptions), "count"},
      {"trace.overhead",
       1.0 - ratio(Traced.callsPerSecond(), UntracedCallsPerSecond),
       "ratio"},
  };
}

std::string provenanceJson(const Options &O, unsigned ClientThreads,
                           uint64_t CallsPerThread,
                           const std::vector<double> &SetupRuns) {
  api::SessionConfig C =
      sessionConfig(*O.Spec, api::Scheme::Mte4JniSync);
  std::string Runs;
  for (double V : SetupRuns)
    Runs += (Runs.empty() ? "" : ",") + fmt(V);
  return support::format(
      "{\"git_sha\":\"%s\",\"source_digest\":\"%s\",\"workload\":\"%s\","
      "\"seed\":%llu,\"holdout_seed\":%llu,\"seconds\":%llu,\"trace\":%d,"
      "\"hardware_threads\":%u,\"client_threads\":%u,"
      "\"calls_per_thread\":%llu,\"scheme\":\"%s\","
      "\"session\":{\"BackgroundGc\":%s,\"GcIntervalMillis\":%u,"
      "\"HeapBytes\":%llu,\"DeferredTagClear\":%s},\"setup_runs_s\":[%s]}",
      support::jsonEscape(O.GitSha).c_str(),
      support::jsonEscape(O.SourceDigest).c_str(), O.Spec->Name,
      (unsigned long long)O.Seed, (unsigned long long)kHoldoutSeed,
      (unsigned long long)O.Seconds, O.Trace ? 1 : 0,
      std::thread::hardware_concurrency(), ClientThreads,
      (unsigned long long)CallsPerThread, api::schemeName(C.Protection),
      C.BackgroundGc ? "true" : "false", C.GcIntervalMillis,
      (unsigned long long)C.HeapBytes,
      C.DeferredTagClear ? "true" : "false", Runs.c_str());
}

std::string traceOtherData(const std::string &Provenance,
                           const std::vector<ThreadResult> &Results) {
  std::string Spans;
  for (unsigned I = 0; I < kNumSpans; ++I) {
    SpanStats S;
    for (const ThreadResult &R : Results)
      S.merge(R.Tracer->stats(static_cast<SpanId>(I)));
    Spans += support::format(
        "%s\"%s\":{\"layer\":\"%s\",\"count\":%llu,\"total_ns\":%llu,"
        "\"self_ns\":%llu,\"units\":%llu}",
        I ? "," : "", spanName(static_cast<SpanId>(I)),
        layerName(layerOf(static_cast<SpanId>(I))),
        (unsigned long long)S.Count, (unsigned long long)S.TotalNanos,
        (unsigned long long)S.SelfNanos, (unsigned long long)S.Units);
  }
  return "{\"provenance\":" + Provenance + ",\"spans\":{" + Spans + "}}";
}

} // namespace

int main(int Argc, char **Argv) {
  const uint64_t ProcessStart = support::monotonicNanos();
  Options O = parseOptions(Argc, Argv);
  const WorkloadSpec &Spec = *O.Spec;
  const unsigned Threads = std::clamp(affinityCpus(), 1u, kMaxClientThreads);
  const uint64_t CallsPerThread =
      std::max<uint64_t>(
          1, O.Seconds * Spec.CallsPerThreadPerSecond / kPlantEvery) *
      kPlantEvery;

  // Set up kSetupRuns times (the last one is kept), each from scratch:
  // reference pass, session, fixtures, Workload::prepare, warm-up.
  std::vector<double> SetupRuns;
  std::unique_ptr<ReferenceTable> Ref;
  std::unique_ptr<Bench> B;
  uint64_t WarmupFailures = 0;
  unsigned FrontierMisses = 0;
  for (unsigned Run = 0; Run < kSetupRuns; ++Run) {
    B.reset();
    Ref.reset();
    const uint64_t Start = Run == 0 ? ProcessStart : support::monotonicNanos();
    Ref = std::make_unique<ReferenceTable>(referencePass(Spec, O.Seed));
    B = std::make_unique<Bench>(O, *Ref, Threads, CallsPerThread);
    SetupRuns.push_back(double(support::monotonicNanos() - Start) * 1e-9);
    WarmupFailures += B->warmupFailures();
    FrontierMisses += B->frontierSwitched() ? 0 : 1;
  }

  B->runPass(/*Traced=*/false);
  PassSummary Untraced = summarise(B->results(), B->passStartNanos());
  std::vector<Metric> Metrics;
  PassSummary Checked = Untraced;
  RegistryDelta Reg;
  if (O.Trace) {
    support::Metrics::resetAll();
    Reg.Before = support::Metrics::snapshot();
    B->runPass(/*Traced=*/true);
    Reg.After = support::Metrics::snapshot();
    PassSummary Traced = summarise(B->results(), B->passStartNanos());
    Metrics = perLayerMetrics(B->results(), Traced,
                              Untraced.callsPerSecond(), Reg);
    Checked.Counts.merge(Traced.Counts);
  } else {
    struct rusage Usage;
    getrusage(RUSAGE_SELF, &Usage);
    Metrics = {
        {"setup_s", median(SetupRuns), "s"},
        {"calls_per_s", Untraced.callsPerSecond(), "calls/s"},
        {"call_p50_us", Untraced.p50Nanos() / 1e3, "us"},
        {"call_p99_us", Untraced.p99Nanos() / 1e3, "us"},
        {"error_rate", Untraced.Counts.errorRate(), "ratio"},
        {"peak_rss_mb", double(Usage.ru_maxrss) / 1024.0, "MiB"},
    };
  }

  const std::string Provenance =
      provenanceJson(O, Threads, CallsPerThread, SetupRuns);
  if (O.Trace) {
    std::string Path = O.OutDir + "/trace-" + Spec.Name + "-seed" +
                       std::to_string(O.Seed) + ".json";
    std::vector<const SpanTracer *> Tracers;
    for (const ThreadResult &R : B->results())
      Tracers.push_back(R.Tracer.get());
    if (!writeChromeTrace(Path, Tracers, B->passStartNanos(),
                          traceOtherData(Provenance, B->results()))) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", Path.c_str());
      return 1;
    }
    std::printf("trace %s\n", Path.c_str());
  }
  B.reset();

  // Correct: every benign call (warm-up included) matched its reference
  // with no fault and no pending exception, the planted counts are the
  // ones the fixed call sequence implies, and every heap warm-up reached
  // the free-list regime.
  const Tally &T = Checked.Counts;
  const uint64_t Passes = O.Trace ? 2 : 1;
  uint64_t ExpectedPlants = Passes * Threads * CallsPerThread / kPlantEvery;
  uint64_t Plants = 0;
  for (uint64_t P : T.Planted)
    Plants += P;
  const bool Correct =
      T.BenignFailed == 0 && WarmupFailures == 0 && Plants == ExpectedPlants &&
      T.Attempted == Passes * Threads * CallsPerThread && FrontierMisses == 0;
  if (FrontierMisses != 0)
    std::fprintf(stderr,
                 "perfbench: the heap frontier did not run out during %u of "
                 "%u heap warm-ups\n",
                 FrontierMisses, kSetupRuns);

  std::printf("provenance %s\n", Provenance.c_str());
  std::printf("calls: %llu attempted, %llu benign failed (%llu bad "
              "checksums, %llu false faults, %llu pending exceptions), "
              "%llu planted, missed:",
              (unsigned long long)T.Attempted,
              (unsigned long long)T.BenignFailed,
              (unsigned long long)T.BadChecksums,
              (unsigned long long)T.FalseFaults,
              (unsigned long long)T.PendingExceptions,
              (unsigned long long)Plants);
  for (unsigned P = 0; P < kNumPlants; ++P)
    std::printf(" %s %llu/%llu", plantName(static_cast<Plant>(P)),
                (unsigned long long)T.Missed[P],
                (unsigned long long)T.Planted[P]);
  // p999 is printed but not gated: it is set by the longest GC pauses.
  std::printf("\nuntraced pass: %.0f calls/s over the %.3f s all clients "
              "were calling (%.3f s wall), p50 %.3f us, p99 %.3f us, "
              "p999 %.3f us\n",
              Untraced.callsPerSecond(), double(Untraced.ActiveNanos) * 1e-9,
              double(Untraced.WallNanos) * 1e-9, Untraced.p50Nanos() / 1e3,
              Untraced.p99Nanos() / 1e3,
              Untraced.Latency.percentile(99.9) / 1e3);
  std::string Json;
  for (const Metric &M : Metrics) {
    std::printf("%-40s %16s %s\n", M.Name.c_str(), fmt(M.Value).c_str(),
                M.Unit);
    Json += support::format("%s\"%s\":{\"value\":%s,\"unit\":\"%s\"}",
                            Json.empty() ? "" : ", ", M.Name.c_str(),
                            fmt(M.Value).c_str(), M.Unit);
  }
  // "failed" counts benign calls that failed; a planted access that went
  // undetected is a detection miss, reported in error_rate and detect.*.
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              Correct ? "true" : "false", (unsigned long long)T.Attempted,
              (unsigned long long)T.BenignFailed, Json.c_str());
  return 0;
}
