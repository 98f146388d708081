//===- bench_fig6_multi_thread.cpp - Figure 6 reproduction ----------------------------===//
//
// Part of the MTE4JNI reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Figure 6 of the paper: multi-thread JNI overhead. 64 threads (paper
// scale) each run a native method that Get/Release-s a 1024-int array and
// reads it, 10000 times. Two tests:
//
//   "same array"      — all threads share one array: contention on the
//                       MTE4JNI *object lock* (and the tag refcount).
//   "different array" — each thread has its own array: contention only on
//                       the *table locks*, which the two-tier scheme
//                       spreads across k=16 tables.
//
// Schemes: MTE4JNI two-tier sync/async, MTE4JNI global-lock sync/async
// (the §3.1 strawman), guarded copy — all normalised to no protection.
//
// Paper result (shape): two-tier 1.21x in both tests; global lock 1.39x
// (same) / 2.20x (different); guarded copy 32.9x / 34.0x.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "mte4jni/mte/Access.h"
#include "mte4jni/rt/Trampoline.h"

#include <cstdio>
#include <thread>
#include <vector>

using namespace mte4jni;
using namespace mte4jni::bench;

namespace {

constexpr unsigned kArrayInts = 1024;

struct SchemeUnderTest {
  const char *Label;
  api::Scheme Protection;
  core::TagTableKind Locks;
};

/// Reads the whole array once through the JNI pointer.
uint64_t readOnce(jni::JniEnv &Env, rt::JavaThread &Thread,
                  jni::jarray Array) {
  return rt::callNative(
      Thread, rt::NativeKind::Regular, "native_array_read", [&] {
        jni::jboolean IsCopy;
        auto P = Env.GetPrimitiveArrayCritical(Array, &IsCopy)
                     .cast<jni::jint>();
        // Check the whole range once (hardware checks every load at no
        // marginal cost), then stream over it raw.
        mte::checkReadRange(P.cast<const void>(),
                            kArrayInts * sizeof(jni::jint));
        const jni::jint *Raw = P.raw();
        uint64_t Sum = 0;
        for (unsigned I = 0; I < kArrayInts; ++I)
          Sum += static_cast<uint32_t>(Raw[I]);
        Env.ReleasePrimitiveArrayCritical(Array, P.cast<void>(),
                                          jni::JNI_ABORT);
        return Sum;
      });
}

/// Wall time for all threads to finish their iterations.
double runTest(const SchemeUnderTest &SUT, unsigned Threads, unsigned Iters,
               bool SameArray, uint64_t Seed) {
  api::SessionConfig C;
  C.Protection = SUT.Protection;
  C.Locks = SUT.Locks;
  C.HeapBytes = 64ull << 20;
  C.Seed = Seed;
  api::Session S(C);

  // Arrays are created on the main thread before the clock starts.
  api::ScopedAttach Main(S, "main");
  rt::HandleScope Scope(S.runtime());
  std::vector<jni::jarray> Arrays;
  unsigned NumArrays = SameArray ? 1 : Threads;
  for (unsigned A = 0; A < NumArrays; ++A) {
    jni::jarray Arr = Main.env().NewIntArray(Scope, kArrayInts);
    auto *Data = rt::arrayData<jni::jint>(Arr);
    for (unsigned I = 0; I < kArrayInts; ++I)
      Data[I] = static_cast<jni::jint>(I);
    Arrays.push_back(Arr);
  }

  support::Stopwatch Timer;
  std::vector<std::thread> Workers;
  for (unsigned T = 0; T < Threads; ++T) {
    Workers.emplace_back([&, T] {
      api::ScopedAttach Me(S, support::format("worker-%u", T));
      jni::jarray Array = Arrays[SameArray ? 0 : T];
      uint64_t Sink = 0;
      for (unsigned I = 0; I < Iters; ++I)
        Sink += readOnce(Me.env(), Me.thread(), Array);
      asm volatile("" : : "r"(Sink));
    });
  }
  for (auto &W : Workers)
    W.join();
  return Timer.elapsedSeconds();
}

} // namespace

int main(int Argc, char **Argv) {
  BenchOptions Options = BenchOptions::parse(Argc, Argv);
  printBanner("bench_fig6_multi_thread — JNI overhead, 64 threads",
              "Figure 6 (concurrent array reads, normalised to no "
              "protection; object-lock vs table-lock contention)",
              Options);

  unsigned Threads = Options.Threads
                         ? Options.Threads
                         : (Options.PaperScale ? 64u
                            : Options.Quick    ? 8u
                                               : 32u);
  unsigned Iters = Options.Iterations
                       ? Options.Iterations
                       : (Options.PaperScale ? 10000u
                          : Options.Quick    ? 200u
                                             : 1500u);
  std::printf("parameters: %u threads x %u iterations, array of %u ints\n\n",
              Threads, Iters, kArrayInts);

  const SchemeUnderTest Schemes[] = {
      {"mte4jni+sync  (lock-free)", api::Scheme::Mte4JniSync,
       core::TagTableKind::LockFree},
      {"mte4jni+async (lock-free)", api::Scheme::Mte4JniAsync,
       core::TagTableKind::LockFree},
      {"mte4jni+sync  (two-tier)", api::Scheme::Mte4JniSync,
       core::TagTableKind::TwoTierMutex},
      {"mte4jni+async (two-tier)", api::Scheme::Mte4JniAsync,
       core::TagTableKind::TwoTierMutex},
      {"mte4jni+sync  (global lock)", api::Scheme::Mte4JniSync,
       core::TagTableKind::GlobalLock},
      {"mte4jni+async (global lock)", api::Scheme::Mte4JniAsync,
       core::TagTableKind::GlobalLock},
      {"guarded copy", api::Scheme::GuardedCopy,
       core::TagTableKind::TwoTierMutex},
  };

  BenchReport Report("fig6_multi_thread");
  for (bool SameArray : {true, false}) {
    const char *Test = SameArray ? "same_array" : "different_array";
    std::printf("== test: every thread reads %s ==\n",
                SameArray ? "the SAME array (object-lock contention)"
                          : "its OWN array (table-lock contention)");
    SchemeUnderTest None{"no protection", api::Scheme::NoProtection,
                         core::TagTableKind::TwoTierMutex};
    double Baseline = runTest(None, Threads, Iters, SameArray, Options.Seed);
    std::printf("  %-30s %8.3fs   1.00x (baseline)\n", None.Label, Baseline);
    Report.addRow(support::format("%s/no_protection", Test), Baseline, "s",
                  Iters);

    double LockFree = 0, TwoTier = 0, Global = 0, Guarded = 0;
    for (const SchemeUnderTest &SUT : Schemes) {
      double T = runTest(SUT, Threads, Iters, SameArray, Options.Seed);
      double Ratio = T / Baseline;
      std::printf("  %-30s %8.3fs   %s\n", SUT.Label, T,
                  ratioCell(Ratio).c_str());
      Report.addRow(support::format("%s/%s", Test, SUT.Label), Ratio, "x",
                    Iters);
      if (SUT.Protection == api::Scheme::GuardedCopy)
        Guarded = Ratio;
      else if (SUT.Locks == core::TagTableKind::LockFree)
        LockFree += Ratio / 2;
      else if (SUT.Locks == core::TagTableKind::TwoTierMutex)
        TwoTier += Ratio / 2;
      else
        Global += Ratio / 2;
    }
    std::printf("  paper: two-tier 1.21x, global %sx, guarded %sx\n",
                SameArray ? "1.39" : "2.20", SameArray ? "32.9" : "34.0");
    std::printf("  shape checks: lock-free <= two-tier: %s; two-tier <= "
                "global: %s; guarded worst: %s\n\n",
                LockFree <= TwoTier * 1.05 ? "yes" : "NO",
                TwoTier <= Global * 1.05 ? "yes" : "NO",
                Guarded > Global ? "yes" : "NO");
  }

  std::printf("headline (paper: ~27x multi-thread reduction vs guarded "
              "copy for the two-tier schemes)\n");
  Report.writeIfRequested(Options);
  return 0;
}
