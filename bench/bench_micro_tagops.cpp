//===- bench_micro_tagops.cpp - Microbenchmarks / ablations ---------------------------===//
//
// Part of the MTE4JNI reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// google-benchmark microbenchmarks of the primitive costs behind the
// figures — the A1/A2 ablations of DESIGN.md:
//
//   * simulated MTE instructions (IRG, STG range, LDG)
//   * checked vs unchecked load and a checked store (the per-access cost
//     MTE+Sync pays), and a read inside a pinned string view (one scan per
//     pin)
//   * Algorithm 1+2 acquire/release round trips: two-tier vs global lock,
//     single- and multi-threaded, same vs distinct objects
//   * guarded-copy acquire/release vs MTE4JNI acquire/release per size
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "mte4jni/api/Session.h"
#include "mte4jni/core/TagAllocator.h"
#include "mte4jni/guarded/GuardedCopy.h"
#include "mte4jni/mte/Access.h"
#include "mte4jni/mte/Instructions.h"
#include "mte4jni/mte/MteSystem.h"
#include "mte4jni/mte/TaggedArena.h"
#include "mte4jni/support/TraceRing.h"

#include <benchmark/benchmark.h>

#include <cstring>
#include <string>

namespace {

using namespace mte4jni;

/// Shared PROT_MTE arena for all microbenchmarks.
mte::TaggedArena &arena() {
  static mte::TaggedArena Arena(64ull << 20);
  return Arena;
}

void BM_IrgTag(benchmark::State &State) {
  mte::MteSystem::instance().setProcessCheckMode(mte::CheckMode::None);
  for (auto _ : State)
    benchmark::DoNotOptimize(mte::irgTag());
}
BENCHMARK(BM_IrgTag);

void BM_SetTagRange(benchmark::State &State) {
  uint64_t Bytes = static_cast<uint64_t>(State.range(0));
  void *Buf = arena().allocate(Bytes);
  auto P = mte::TaggedPtr<void>::fromRaw(Buf, 5);
  for (auto _ : State)
    mte::setTagRange(P, Bytes);
  arena().deallocate(Buf);
  State.SetBytesProcessed(int64_t(State.iterations()) * int64_t(Bytes));
  // Granules/s: the raw ns column is not comparable across the size sweep
  // (fixed per-call overhead dominates the small rows); throughput is.
  State.SetItemsProcessed(int64_t(State.iterations()) *
                          int64_t(Bytes / mte::kGranuleSize));
}
BENCHMARK(BM_SetTagRange)->Range(16, 16 << 10);

void BM_LdgTag(benchmark::State &State) {
  void *Buf = arena().allocate(64);
  mte::setTagRange(mte::TaggedPtr<void>::fromRaw(Buf, 7), 64);
  uint64_t Addr = reinterpret_cast<uint64_t>(Buf);
  for (auto _ : State)
    benchmark::DoNotOptimize(mte::ldgTag(Addr));
  arena().deallocate(Buf);
}
BENCHMARK(BM_LdgTag);

/// The per-access cost comparison behind Figure 5: unchecked fast path
/// (checks disabled) vs fully checked load.
void BM_LoadUnchecked(benchmark::State &State) {
  mte::MteSystem::instance().setProcessCheckMode(mte::CheckMode::None);
  auto *Buf = static_cast<int32_t *>(arena().allocate(4096));
  auto P = mte::TaggedPtr<int32_t>::fromRaw(Buf, 0);
  int I = 0;
  for (auto _ : State) {
    benchmark::DoNotOptimize(mte::load<int32_t>(P + (I & 1023)));
    ++I;
  }
  arena().deallocate(Buf);
}
BENCHMARK(BM_LoadUnchecked);

void BM_LoadCheckedSync(benchmark::State &State) {
  mte::MteSystem::instance().setProcessCheckMode(mte::CheckMode::Sync);
  mte::ThreadState::current().setTco(false);
  auto *Buf = static_cast<int32_t *>(arena().allocate(4096));
  auto P = mte::TaggedPtr<int32_t>::fromRaw(Buf, 9);
  mte::setTagRange(P.cast<void>(), 4096);
  int I = 0;
  for (auto _ : State) {
    benchmark::DoNotOptimize(mte::load<int32_t>(P + (I & 1023)));
    ++I;
  }
  mte::clearTagRange(reinterpret_cast<uint64_t>(Buf), 4096);
  arena().deallocate(Buf);
  mte::MteSystem::instance().setProcessCheckMode(mte::CheckMode::None);
}
BENCHMARK(BM_LoadCheckedSync);

/// The store tier: the same region-cache hit as BM_LoadCheckedSync, counted
/// in the thread's store cell.
void BM_StoreCheckedSync(benchmark::State &State) {
  mte::MteSystem::instance().setProcessCheckMode(mte::CheckMode::Sync);
  mte::ThreadState::current().setTco(false);
  auto *Buf = static_cast<int32_t *>(arena().allocate(4096));
  auto P = mte::TaggedPtr<int32_t>::fromRaw(Buf, 9);
  mte::setTagRange(P.cast<void>(), 4096);
  int I = 0;
  for (auto _ : State) {
    mte::store<int32_t>(P + (I & 1023), I);
    benchmark::ClobberMemory();
    ++I;
  }
  mte::clearTagRange(reinterpret_cast<uint64_t>(Buf), 4096);
  arena().deallocate(Buf);
  mte::MteSystem::instance().setProcessCheckMode(mte::CheckMode::None);
}
BENCHMARK(BM_StoreCheckedSync);

/// A read inside a held jni::PinnedStringChars under MTE4JNI-sync with
/// checks on: the view's one scan at construction stands in for the
/// per-read check, so the row should sit next to BM_LoadUnchecked, not
/// BM_LoadCheckedSync (DESIGN.md §7).
void BM_LoadPinnedView(benchmark::State &State) {
  api::SessionConfig Config;
  Config.Protection = api::Scheme::Mte4JniSync;
  Config.HeapBytes = 4 << 20;
  api::Session S(Config);
  api::ScopedAttach Main(S, "bench");
  rt::HandleScope Scope(S.runtime());
  std::string Text(2048, 'x');
  jni::jstring Str = Main.env().NewStringUTF(Scope, Text.c_str());
  rt::callNative(Main.thread(), rt::NativeKind::Regular, "pinned_view",
                 [&] {
                   jni::PinnedStringChars View(Main.env(), Str);
                   if (!View.scanMatched())
                     State.SkipWithError("the view's scan did not match");
                   int I = 0;
                   for (auto _ : State) {
                     benchmark::DoNotOptimize(View.at(I & 2047));
                     ++I;
                   }
                 });
}
BENCHMARK(BM_LoadPinnedView);

/// Check-path ablation rows (DESIGN.md §7 cost model). BM_LoadCheckedSync
/// above is the cache-HIT scalar row: every access lands in the thread's
/// cached region, so the header-inlined fast path serves it without
/// touching the region list. This row forces a MISS on every access by
/// alternating between two PROT_MTE regions: each check pins a snapshot,
/// walks the list, and refills the cache the other region then invalidates.
void BM_LoadCheckedCacheMiss(benchmark::State &State) {
  static mte::TaggedArena SecondArena(1ull << 20);
  mte::MteSystem::instance().setProcessCheckMode(mte::CheckMode::Sync);
  mte::ThreadState::current().setTco(false);
  auto *BufA = static_cast<int32_t *>(arena().allocate(4096));
  auto *BufB = static_cast<int32_t *>(SecondArena.allocate(4096));
  auto PA = mte::TaggedPtr<int32_t>::fromRaw(BufA, 9);
  auto PB = mte::TaggedPtr<int32_t>::fromRaw(BufB, 9);
  mte::setTagRange(PA.cast<void>(), 4096);
  mte::setTagRange(PB.cast<void>(), 4096);
  int I = 0;
  for (auto _ : State) {
    benchmark::DoNotOptimize(mte::load<int32_t>((I & 1 ? PB : PA) + (I & 1023)));
    ++I;
  }
  mte::clearTagRange(reinterpret_cast<uint64_t>(BufA), 4096);
  mte::clearTagRange(reinterpret_cast<uint64_t>(BufB), 4096);
  arena().deallocate(BufA);
  SecondArena.deallocate(BufB);
  mte::MteSystem::instance().setProcessCheckMode(mte::CheckMode::None);
}
BENCHMARK(BM_LoadCheckedCacheMiss);

/// Range-scan row: one checkReadRange over N bytes resolves to a single
/// packed scan of the cached region's shadow (N/32 shadow bytes). This is
/// the path bulk copies (GetByteArrayRegion, memcpy shims) ride.
void BM_CheckRangeScan(benchmark::State &State) {
  mte::MteSystem::instance().setProcessCheckMode(mte::CheckMode::Sync);
  mte::ThreadState::current().setTco(false);
  uint64_t Bytes = static_cast<uint64_t>(State.range(0));
  void *Buf = arena().allocate(Bytes);
  auto P = mte::TaggedPtr<void>::fromRaw(Buf, 11);
  mte::setTagRange(P, Bytes);
  for (auto _ : State)
    mte::checkReadRange(P.cast<const void>(), Bytes);
  mte::clearTagRange(reinterpret_cast<uint64_t>(Buf), Bytes);
  arena().deallocate(Buf);
  mte::MteSystem::instance().setProcessCheckMode(mte::CheckMode::None);
  State.SetBytesProcessed(int64_t(State.iterations()) * int64_t(Bytes));
}
BENCHMARK(BM_CheckRangeScan)->Range(256, 256 << 10);

/// Raw shadow-scan kernels over N granule tags: the scalar reference vs
/// the SWAR word scan every tag check uses.
template <uint64_t (*Scan)(const uint8_t *, uint64_t, mte::TagValue)>
void BM_TagScan(benchmark::State &State) {
  uint64_t Granules = static_cast<uint64_t>(State.range(0));
  std::vector<uint8_t> Tags(Granules, 5);
  for (auto _ : State)
    benchmark::DoNotOptimize(Scan(Tags.data(), Granules, 5));
  // One shadow byte checked per 16-byte granule covered.
  State.SetBytesProcessed(int64_t(State.iterations()) * int64_t(Granules));
}
BENCHMARK_TEMPLATE(BM_TagScan, mte::detail::scanMismatchScalar)
    ->Name("BM_TagScanScalar")
    ->Range(64, 64 << 10);
BENCHMARK_TEMPLATE(BM_TagScan, mte::detail::scanMismatch)
    ->Name("BM_TagScanSwar")
    ->Range(64, 64 << 10);

/// Algorithm 1+2 round trip, single thread.
template <core::TagTableKind Kind>
void BM_AcquireRelease(benchmark::State &State) {
  core::TagAllocator Alloc(Kind);
  uint64_t Bytes = static_cast<uint64_t>(State.range(0));
  void *Buf = arena().allocate(Bytes);
  uint64_t Begin = reinterpret_cast<uint64_t>(Buf);
  for (auto _ : State) {
    benchmark::DoNotOptimize(Alloc.acquire(Begin, Begin + Bytes));
    Alloc.release(Begin, Begin + Bytes);
  }
  arena().deallocate(Buf);
  State.SetBytesProcessed(int64_t(State.iterations()) * int64_t(Bytes));
}
BENCHMARK_TEMPLATE(BM_AcquireRelease, core::TagTableKind::LockFree)
    ->Range(64, 16 << 10);
BENCHMARK_TEMPLATE(BM_AcquireRelease, core::TagTableKind::TwoTierMutex)
    ->Range(64, 16 << 10);
BENCHMARK_TEMPLATE(BM_AcquireRelease, core::TagTableKind::GlobalLock)
    ->Range(64, 16 << 10);

/// The same lock-free round trip with deferred tag-clear disabled — the
/// paper's exact Algorithm 2 (last release clears granule tags under the
/// shard mutex). The delta against BM_AcquireRelease<LockFree> is what
/// the lingering-tag optimisation buys on a single-holder loop.
void BM_AcquireReleaseExact(benchmark::State &State) {
  core::TagAllocatorOptions Options;
  Options.Locks = core::TagTableKind::LockFree;
  Options.DeferredTagClear = false;
  core::TagAllocator Alloc(Options);
  uint64_t Bytes = static_cast<uint64_t>(State.range(0));
  void *Buf = arena().allocate(Bytes);
  uint64_t Begin = reinterpret_cast<uint64_t>(Buf);
  for (auto _ : State) {
    benchmark::DoNotOptimize(Alloc.acquire(Begin, Begin + Bytes));
    Alloc.release(Begin, Begin + Bytes);
  }
  arena().deallocate(Buf);
  State.SetBytesProcessed(int64_t(State.iterations()) * int64_t(Bytes));
}
BENCHMARK(BM_AcquireReleaseExact)->Range(64, 16 << 10);

/// Observability-overhead acceptance rows: the identical lock-free round
/// trip with the flight recorder off vs the default ~1/64 sampling. The
/// delta between the two is the full instrumentation cost on the hottest
/// attributed path (slow-reason classification + SampledLatency + flight
/// ring); the budget is <3%.
template <unsigned Level>
void BM_AcquireReleaseObsLevel(benchmark::State &State) {
  unsigned Saved = support::obs::level();
  support::obs::setLevel(Level);
  core::TagAllocator Alloc(core::TagTableKind::LockFree);
  void *Buf = arena().allocate(4096);
  uint64_t Begin = reinterpret_cast<uint64_t>(Buf);
  for (auto _ : State) {
    benchmark::DoNotOptimize(Alloc.acquire(Begin, Begin + 4096));
    Alloc.release(Begin, Begin + 4096);
  }
  arena().deallocate(Buf);
  support::obs::setLevel(Saved);
}
BENCHMARK_TEMPLATE(BM_AcquireReleaseObsLevel, 0)
    ->Name("BM_AcquireReleaseObsOff");
BENCHMARK_TEMPLATE(BM_AcquireReleaseObsLevel, 1)
    ->Name("BM_AcquireReleaseObsSampled");

/// Multi-threaded contention ablation: every benchmark thread hammers its
/// OWN object — the Figure 6 "different array" scenario where the global
/// lock hurts and the two-tier scheme spreads load over shards. Setup is
/// a magic static (google-benchmark has no pre-loop barrier, so thread 0
/// doing it would race the other threads' reads of Blocks).
template <core::TagTableKind Kind>
void BM_AcquireReleaseMT(benchmark::State &State) {
  struct Shared {
    core::TagAllocator Alloc{Kind};
    void *Blocks[64];
    Shared() {
      for (int T = 0; T < 64; ++T)
        Blocks[T] = arena().allocate(4096);
    }
  };
  static Shared S; // intentionally leaked until process exit
  uint64_t Begin =
      reinterpret_cast<uint64_t>(S.Blocks[State.thread_index() & 63]);
  for (auto _ : State) {
    benchmark::DoNotOptimize(S.Alloc.acquire(Begin, Begin + 4096));
    S.Alloc.release(Begin, Begin + 4096);
  }
}
BENCHMARK_TEMPLATE(BM_AcquireReleaseMT, core::TagTableKind::LockFree)
    ->Threads(8)
    ->Threads(64)
    ->UseRealTime();
BENCHMARK_TEMPLATE(BM_AcquireReleaseMT, core::TagTableKind::TwoTierMutex)
    ->Threads(8)
    ->Threads(64)
    ->UseRealTime();
BENCHMARK_TEMPLATE(BM_AcquireReleaseMT, core::TagTableKind::GlobalLock)
    ->Threads(8)
    ->Threads(64)
    ->UseRealTime();

/// Guarded copy get/release; its MTE4JNI counterpart is the
/// BM_AcquireRelease<TwoTierMutex> row (the paper's locking). The pair is
/// the core asymmetry behind Figure 5 (copy + red zones vs
/// tag-per-granule).
void BM_GuardedCopyRoundTrip(benchmark::State &State) {
  guarded::GuardedCopyPolicy Policy;
  uint64_t Bytes = static_cast<uint64_t>(State.range(0));
  std::vector<uint8_t> Payload(Bytes, 0x5A);
  jni::JniBufferInfo Info;
  Info.DataBegin = reinterpret_cast<uint64_t>(Payload.data());
  Info.Bytes = Bytes;
  Info.Interface = "bench";
  for (auto _ : State) {
    bool IsCopy;
    uint64_t Bits = Policy.acquire(Info, IsCopy);
    Policy.release(Info, Bits, 0);
  }
  State.SetBytesProcessed(int64_t(State.iterations()) * int64_t(Bytes));
}
BENCHMARK(BM_GuardedCopyRoundTrip)->Range(64, 16 << 10);

/// Console output as usual, but every per-iteration run also lands in a
/// BenchReport so --json leaves a machine-readable BENCH_micro.json.
class ReportingConsoleReporter : public benchmark::ConsoleReporter {
public:
  explicit ReportingConsoleReporter(bench::BenchReport &Report)
      : Report(Report) {}

  void ReportRuns(const std::vector<Run> &Runs) override {
    for (const Run &R : Runs) {
      if (R.run_type == Run::RT_Aggregate || R.error_occurred)
        continue;
      Report.addRow(R.benchmark_name(), R.GetAdjustedRealTime(), "ns",
                    static_cast<uint64_t>(R.iterations));
      // Rows that SetItemsProcessed (granule counts) also get an explicit
      // throughput row: ns columns are not comparable across a size sweep
      // but granules/s are. Defensive lookup — the counter only exists
      // when the benchmark reported items.
      auto It = R.counters.find("items_per_second");
      if (It != R.counters.end() && It->second.value > 0)
        Report.addRow(R.benchmark_name() + "/granules_per_s",
                      It->second.value, "items/s",
                      static_cast<uint64_t>(R.iterations));
    }
    ConsoleReporter::ReportRuns(Runs);
  }

private:
  bench::BenchReport &Report;
};

} // namespace

int main(int argc, char **argv) {
  // Peel off --json before google-benchmark sees (and rejects) it.
  std::string JsonPath;
  int Kept = 1;
  for (int I = 1; I < argc; ++I) {
    std::string_view Arg = argv[I];
    if (Arg.rfind("--json=", 0) == 0) {
      JsonPath = Arg.substr(7);
    } else if (Arg == "--json" && I + 1 < argc) {
      JsonPath = argv[++I];
    } else {
      argv[Kept++] = argv[I];
    }
  }
  argc = Kept;

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv))
    return 1;
  bench::BenchReport Report("micro_tagops");
  ReportingConsoleReporter Reporter(Report);
  benchmark::RunSpecifiedBenchmarks(&Reporter);
  if (!JsonPath.empty()) {
    if (Report.write(JsonPath))
      std::printf("wrote %s\n", JsonPath.c_str());
    else {
      std::fprintf(stderr, "failed to write %s\n", JsonPath.c_str());
      return 1;
    }
  }
  return 0;
}
