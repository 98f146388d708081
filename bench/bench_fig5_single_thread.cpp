//===- bench_fig5_single_thread.cpp - Figure 5 reproduction ---------------------------===//
//
// Part of the MTE4JNI reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Figure 5 of the paper: single-thread JNI interface overhead. A native
// method obtains pointers to two Java int arrays via
// GetPrimitiveArrayCritical, copies one into the other element by element,
// and releases both. Array lengths sweep 2^1 .. 2^12 ints. Each scheme's
// time is normalised to the no-protection scheme.
//
// Paper result (shape to reproduce): guarded copy is worst at every size
// (26.58x mean), MTE4JNI sync/async cost 2.36x/2.24x, and every scheme's
// relative overhead shrinks as arrays grow.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "mte4jni/mte/Access.h"
#include "mte4jni/rt/Trampoline.h"

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <string>

using namespace mte4jni;
using namespace mte4jni::bench;

namespace {

/// One benchmark repetition: the paper's native copy method. The copy is
/// a bulk memcpy through the JNI pointers (what real native code does;
/// the hardware checks it at zero marginal cost and the simulator at one
/// check per granule). With PerElement the loop reads/writes through the
/// pointer one int at a time — an ablation exposing the simulator's
/// per-access check cost.
uint64_t copyOnce(api::ScopedAttach &Main, jni::jarray Src, jni::jarray Dst,
                  unsigned Length, bool PerElement) {
  return rt::callNative(
      Main.thread(), rt::NativeKind::Regular, "native_array_copy", [&] {
        jni::jboolean IsCopyS, IsCopyD;
        auto S = Main.env()
                     .GetPrimitiveArrayCritical(Src, &IsCopyS)
                     .cast<jni::jint>();
        auto D = Main.env()
                     .GetPrimitiveArrayCritical(Dst, &IsCopyD)
                     .cast<jni::jint>();
        uint64_t Sum = 0;
        if (PerElement) {
          for (unsigned I = 0; I < Length; ++I) {
            jni::jint V = mte::load<jni::jint>(S + I);
            mte::store<jni::jint>(D + I, V);
            Sum += static_cast<uint32_t>(V);
          }
        } else {
          mte::copyBytes(D.cast<void>(), S.cast<const void>(),
                         uint64_t(Length) * sizeof(jni::jint));
          Sum = static_cast<uint32_t>(mte::load<jni::jint>(D));
        }
        Main.env().ReleasePrimitiveArrayCritical(Dst, D.cast<void>(), 0);
        Main.env().ReleasePrimitiveArrayCritical(Src, S.cast<void>(),
                                                 jni::JNI_ABORT);
        return Sum;
      });
}

double timeScheme(api::Scheme Scheme, unsigned Length, uint64_t MinNanos,
                  uint64_t Seed, bool PerElement) {
  api::SessionConfig C;
  C.Protection = Scheme;
  C.HeapBytes = 16ull << 20;
  C.Seed = Seed;
  api::Session S(C);
  api::ScopedAttach Main(S, "bench");
  rt::HandleScope Scope(S.runtime());

  jni::jarray Src = Main.env().NewIntArray(Scope,
                                           static_cast<jni::jsize>(Length));
  jni::jarray Dst = Main.env().NewIntArray(Scope,
                                           static_cast<jni::jsize>(Length));
  auto *Data = rt::arrayData<jni::jint>(Src);
  for (unsigned I = 0; I < Length; ++I)
    Data[I] = static_cast<jni::jint>(I * 2654435761u);

  return measureNanosPerRep(
      [&] { return copyOnce(Main, Src, Dst, Length, PerElement); },
      MinNanos);
}

} // namespace

int main(int Argc, char **Argv) {
  BenchOptions Options = BenchOptions::parse(Argc, Argv);
  printBanner("bench_fig5_single_thread — JNI overhead, single thread",
              "Figure 5 (execution time of a native array copy, normalised "
              "to no protection)",
              Options);

  const unsigned MaxPow = 12; // 2^1 .. 2^12 ints, as in the paper
  const uint64_t MinNanos = Options.Quick ? 2'000'000
                            : Options.PaperScale ? 100'000'000
                                                 : 20'000'000;
  const bool PerElement = Options.hasFlag("--per-element");
  if (PerElement)
    std::printf("ablation: per-element copy loop (exposes the simulator's "
                "per-access check cost)\n");

  TablePrinter Table({"len(ints)", "none(ns)", "guarded", "mte+sync",
                      "mte+async"},
                     {11, 12, 11, 11, 11});
  Table.printHeader();

  const api::Scheme Schemes[] = {api::Scheme::NoProtection,
                                 api::Scheme::GuardedCopy,
                                 api::Scheme::Mte4JniSync,
                                 api::Scheme::Mte4JniAsync};
  constexpr unsigned kNumSchemes = std::size(Schemes);
  double SumGuarded = 0, SumSync = 0, SumAsync = 0;
  unsigned Rows = 0;
  std::string GuardedNotWorst; // the sizes where guarded copy is not slowest
  for (unsigned Pow = 1; Pow <= MaxPow; ++Pow) {
    unsigned Length = 1u << Pow;
    // Each cell is the median of several timings, taken in turn across the
    // schemes, so one slow timing cannot flip a mean or a shape check. A
    // repetition of the cells up to 2^4 costs a few hundred ns, so a host
    // hiccup skews more of their timings; they take five, the rest three.
    constexpr unsigned kMaxReps = 5;
    const unsigned Reps = Pow <= 4 ? kMaxReps : 3;
    double Times[kNumSchemes][kMaxReps];
    for (unsigned Rep = 0; Rep < Reps; ++Rep)
      for (unsigned K = 0; K < kNumSchemes; ++K)
        Times[K][Rep] = timeScheme(Schemes[K], Length, MinNanos, Options.Seed,
                                   PerElement);
    double Cell[kNumSchemes];
    for (unsigned K = 0; K < kNumSchemes; ++K) {
      std::sort(Times[K], Times[K] + Reps);
      Cell[K] = Times[K][Reps / 2];
    }
    auto [None, Guarded, Sync, Async] = Cell;

    double RG = Guarded / None, RS = Sync / None, RA = Async / None;
    SumGuarded += RG;
    SumSync += RS;
    SumAsync += RA;
    ++Rows;
    if (!(RG > RS && RG > RA))
      GuardedNotWorst += support::format(" 2^%u", Pow);

    Table.printRow({support::format("2^%-2u %5u", Pow, Length),
                    support::format("%.0f", None), ratioCell(RG),
                    ratioCell(RS), ratioCell(RA)});
  }
  Table.printSeparator();

  double MeanG = SumGuarded / Rows;
  double MeanS = SumSync / Rows;
  double MeanA = SumAsync / Rows;
  Table.printRow({"mean", "", ratioCell(MeanG), ratioCell(MeanS),
                  ratioCell(MeanA)});

  std::printf("\npaper means: guarded 26.58x, mte+sync 2.36x, mte+async "
              "2.24x\n");
  std::printf("headline (paper: ~11x single-thread reduction vs guarded "
              "copy): sync %.1fx, async %.1fx\n",
              MeanG / MeanS, MeanG / MeanA);
  std::printf("shape checks: guarded worst at every size: %s%s; async <= "
              "sync: %s\n",
              GuardedNotWorst.empty() ? "yes" : "NO, not at",
              GuardedNotWorst.c_str(), MeanA <= MeanS * 1.05 ? "yes" : "NO");
  return 0;
}
