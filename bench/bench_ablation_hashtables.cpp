//===- bench_ablation_hashtables.cpp - k and hardening ablations ----------------------===//
//
// Part of the MTE4JNI reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// DESIGN.md's A1/A2 ablations beyond the paper's figures:
//
//   * k sweep — the number of tag hash tables (the paper fixes k = 16
//     without exploring it): acquire/release throughput with T threads on
//     T distinct objects, for k in {1, 2, 4, 16, 64}. k = 1 approximates
//     the global-lock scheme's contention on the table lock; larger k
//     spreads it (§3.1.2).
//   * adjacent-tag-exclusion hardening — the extra cost of the
//     deterministic-adjacent-detection IRG draw (two LDGs + a wider
//     exclusion mask per first-holder acquire).
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "mte4jni/core/TagAllocator.h"
#include "mte4jni/mte/Instructions.h"
#include "mte4jni/mte/MteSystem.h"
#include "mte4jni/mte/TaggedArena.h"
#include "mte4jni/support/ThreadPool.h"

#include <cstdio>
#include <thread>

using namespace mte4jni;
using namespace mte4jni::bench;

namespace {

/// Acquire/release round trips per second with \p Threads threads on
/// distinct 1 KiB objects.
double throughput(const core::TagAllocatorOptions &Options,
                  unsigned Threads, unsigned Iters,
                  mte::TaggedArena &Arena) {
  core::TagAllocator Alloc(Options);
  std::vector<uint64_t> Begins;
  for (unsigned T = 0; T < Threads; ++T)
    Begins.push_back(reinterpret_cast<uint64_t>(Arena.allocate(1024)));

  support::Stopwatch Timer;
  std::vector<std::thread> Workers;
  for (unsigned T = 0; T < Threads; ++T) {
    Workers.emplace_back([&, T] {
      uint64_t Begin = Begins[T];
      for (unsigned I = 0; I < Iters; ++I) {
        uint64_t Bits = Alloc.acquire(Begin, Begin + 1024);
        asm volatile("" : : "r"(Bits));
        Alloc.release(Begin, Begin + 1024);
      }
    });
  }
  for (auto &W : Workers)
    W.join();
  double Seconds = Timer.elapsedSeconds();

  for (uint64_t Begin : Begins)
    Arena.deallocate(reinterpret_cast<void *>(Begin));
  return double(Threads) * Iters / Seconds;
}

} // namespace

int main(int Argc, char **Argv) {
  BenchOptions Options = BenchOptions::parse(Argc, Argv);
  printBanner("bench_ablation_hashtables — k sweep and hardening cost",
              "DESIGN.md ablations A1/A2 (beyond the paper's fixed k=16)",
              Options);

  unsigned Threads = Options.Threads
                         ? Options.Threads
                         : std::max<unsigned>(
                               4, static_cast<unsigned>(
                                      support::hardwareThreads()));
  unsigned Iters = Options.Iterations ? Options.Iterations
                   : Options.Quick    ? 5000u
                   : Options.PaperScale ? 200000u
                                        : 50000u;
  std::printf("parameters: %u threads x %u acquire/release pairs on "
              "distinct objects\n\n",
              Threads, Iters);

  mte::TaggedArena Arena(16 << 20);

  std::printf("== table kind (k=16; ops/sec, higher is better) ==\n");
  double KSixteen = 0;
  for (core::TagTableKind Kind :
       {core::TagTableKind::LockFree, core::TagTableKind::TwoTierMutex,
        core::TagTableKind::GlobalLock}) {
    core::TagAllocatorOptions AO;
    AO.Locks = Kind;
    double Ops = throughput(AO, Threads, Iters, Arena);
    if (Kind == core::TagTableKind::TwoTierMutex)
      KSixteen = Ops;
    std::printf("  %-10s %12.0f ops/s\n", core::tagTableKindName(Kind),
                Ops);
  }

  std::printf("\n== k sweep (two-tier locking; ops/sec, higher is better) "
              "==\n");
  for (unsigned K : {1u, 2u, 4u, 16u, 64u}) {
    core::TagAllocatorOptions AO;
    AO.Locks = core::TagTableKind::TwoTierMutex;
    AO.NumTables = K;
    double Ops = throughput(AO, Threads, Iters, Arena);
    std::printf("  k = %-3u   %12.0f ops/s%s\n", K, Ops,
                K == 16 ? "   (the paper's choice)" : "");
  }

  std::printf("\n== global lock, for reference ==\n");
  {
    core::TagAllocatorOptions AO;
    AO.Locks = core::TagTableKind::GlobalLock;
    double Ops = throughput(AO, Threads, Iters, Arena);
    std::printf("  global    %12.0f ops/s   (%.2fx of two-tier k=16)\n",
                Ops, Ops / KSixteen);
  }

  std::printf("\n== adjacent-tag-exclusion hardening cost (k=16) ==\n");
  {
    core::TagAllocatorOptions AO;
    double Base = throughput(AO, Threads, Iters, Arena);
    AO.ExcludeAdjacentTags = true;
    double Hardened = throughput(AO, Threads, Iters, Arena);
    std::printf("  baseline  %12.0f ops/s\n", Base);
    std::printf("  hardened  %12.0f ops/s   (%.1f%% overhead for "
                "deterministic adjacent-overflow detection)\n",
                Hardened, (Base / Hardened - 1.0) * 100.0);
  }

  std::printf("\nnote: contention effects need >1 hardware thread; this "
              "host has %zu.\n",
              support::hardwareThreads());
  return 0;
}
