//===- bench_alloc_throughput.cpp - Contended allocation --------------------------===//
//
// Part of the MTE4JNI reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Contended allocation throughput on the raw JavaHeap: N threads each run
// a steady-state churn loop (ring of 512 slots, mixed payload sizes,
// alloc-newest / free-oldest) over a standing population of 200k live
// objects — the shape of a real app heap, where most objects survive and
// a hot minority churns. The heap's per-thread TLAB bumps, sharded free
// lists and O(1) liveness bitmap keep the per-op cost independent of the
// live population.
//
// Rows: alloc_churn/t{T}/tlab in Mops/s.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "mte4jni/rt/Heap.h"

#include <cstdio>
#include <thread>
#include <vector>

using namespace mte4jni;
using namespace mte4jni::bench;

namespace {

// 512 churned slots per thread on top of a standing population that stays
// live for the whole measurement; the ring is the hot set.
constexpr unsigned kRingSlots = 512;
constexpr unsigned kStandingObjects = 200000;
/// Mixed int-array lengths: payloads of 32..480 bytes, cycling so free
/// lists see several size classes.
constexpr uint32_t kLengths[] = {8, 24, 56, 120};

/// One thread's churn loop: fill the ring, then alloc-newest/free-oldest
/// until Iters allocations have been made. Every slot is freed before the
/// thread exits, so the heap returns to empty.
void churn(rt::JavaHeap &Heap, unsigned Iters, unsigned ThreadIndex) {
  rt::ObjectHeader *Ring[kRingSlots] = {};
  unsigned Head = 0;
  for (unsigned I = 0; I < Iters; ++I) {
    if (Ring[Head])
      Heap.free(Ring[Head]);
    uint32_t Len = kLengths[(I + ThreadIndex) % 4];
    Ring[Head] = Heap.allocPrimArray(rt::PrimType::Int, Len);
    if (!Ring[Head]) {
      std::fprintf(stderr, "heap exhausted at iter %u\n", I);
      std::abort();
    }
    Head = (Head + 1) % kRingSlots;
  }
  for (auto *&Slot : Ring)
    if (Slot)
      Heap.free(Slot);
}

/// Wall-clock Mops/s (allocations per microsecond) for Threads workers.
double runChurn(unsigned Threads, unsigned Iters) {
  rt::HeapConfig C;
  C.CapacityBytes = 256ull << 20;
  rt::JavaHeap Heap(C);

  // The standing live population (stays allocated until the clock stops).
  std::vector<rt::ObjectHeader *> Standing;
  Standing.reserve(kStandingObjects);
  for (unsigned I = 0; I < kStandingObjects; ++I)
    Standing.push_back(Heap.allocPrimArray(rt::PrimType::Int, 4));

  // Warmup outside the clock: reach free-list steady state so the row
  // measures churn, not first-touch frontier bumps.
  {
    std::vector<std::thread> Warm;
    for (unsigned T = 0; T < Threads; ++T)
      Warm.emplace_back([&, T] { churn(Heap, kRingSlots * 4, T); });
    for (auto &W : Warm)
      W.join();
  }

  support::Stopwatch Timer;
  std::vector<std::thread> Workers;
  for (unsigned T = 0; T < Threads; ++T)
    Workers.emplace_back([&, T] { churn(Heap, Iters, T); });
  for (auto &W : Workers)
    W.join();
  double Seconds = Timer.elapsedSeconds();

  for (rt::ObjectHeader *Obj : Standing)
    Heap.free(Obj);
  rt::HeapStats Stats = Heap.stats();
  if (Stats.ObjectsLive != 0) {
    std::fprintf(stderr, "stats leak: %llu live after churn\n",
                 static_cast<unsigned long long>(Stats.ObjectsLive));
    std::abort();
  }
  return static_cast<double>(Threads) * Iters / 1e6 / Seconds;
}

} // namespace

int main(int Argc, char **Argv) {
  BenchOptions Options = BenchOptions::parse(Argc, Argv);
  printBanner("bench_alloc_throughput — contended allocation churn",
              "Allocator scalability: per-thread TLABs + sharded free "
              "lists",
              Options);

  std::vector<unsigned> ThreadCounts;
  if (Options.Threads)
    ThreadCounts = {1, Options.Threads};
  else if (Options.PaperScale)
    ThreadCounts = {1, 2, 4, 8, 16};
  else if (Options.Quick)
    ThreadCounts = {1, 4};
  else
    ThreadCounts = {1, 8};
  unsigned Iters = Options.Iterations
                       ? Options.Iterations
                       : (Options.PaperScale ? 400000u
                          : Options.Quick    ? 30000u
                                             : 150000u);
  std::printf("parameters: %u iterations/thread, ring of %u slots, "
              "payloads 32..480B, %u standing live\n\n",
              Iters, kRingSlots, kStandingObjects);

  BenchReport Report("alloc_throughput");
  TablePrinter Table({"threads", "tlab Mops/s"}, {8, 12});
  Table.printHeader();
  for (unsigned T : ThreadCounts) {
    double Tlab = runChurn(T, Iters);
    Table.printRow({support::format("%u", T), support::format("%.2f", Tlab)});
    Report.addRow(support::format("alloc_churn/t%u/tlab", T), Tlab, "Mops/s",
                  Iters);
  }
  Report.writeIfRequested(Options);
  return 0;
}
